//! Never-panic properties for the compiler's untrusted input: at both
//! optimization levels, `compile_with` returns `Ok` or a typed error for
//! token soup and for randomly nested expressions, nesting past the
//! parser's depth limit included.

use proptest::prelude::*;
use r8c::OptLevel;

/// R8C tokens: keywords, identifiers and intrinsics, 16-bit literals,
/// every operator and punctuation.
const TOKENS: &[&str] = &[
    "var", "func", "if", "else", "while", "return", "main", "a", "b", "x", "printf", "scanf",
    "peek", "poke", "wait", "notify", "0", "1", "65535", "0xFFFF", "+", "-", "*", "/", "%", "&",
    "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "!", "~", "=", "(", ")",
    "{", "}", "[", "]", ";", ",", "//",
];

/// What the lexer rejects, whitespace-separated: literals past 16 bits
/// and characters no token starts with. One lands in a quarter of the
/// soups; more would stop nearly every soup in the lexer.
const STRAY: &str = "65536 0x10000 99999999999 0x # \" ' @ $ \\ \u{e9}";

/// What follows each token.
const SEPARATORS: &[&str] = &[" ", " ", "", "\n"];

/// Binary operators of the expression generator.
const OPS: &[&str] = &[
    "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=", "&&",
    "||",
];

/// Leaves of the expression generator.
const LEAVES: &[&str] = &["a", "b", "0", "1", "7", "65535", "0x8000"];

fn token_soup() -> impl Strategy<Value = String> {
    let picks = proptest::collection::vec((0..TOKENS.len(), 0..SEPARATORS.len()), 0..48);
    let strays: Vec<&str> = STRAY.split_whitespace().collect();
    let stray = (0..4usize, 0..strays.len(), 0..48usize);
    // Half the soups open a `main` body first, so they reach the
    // statement and expression parsers.
    (any::<bool>(), picks, stray).prop_map(move |(in_main, picks, (roll, stray, at))| {
        let mut tokens: Vec<String> = picks
            .iter()
            .map(|&(token, sep)| format!("{}{}", TOKENS[token], SEPARATORS[sep]))
            .collect();
        if roll == 0 {
            tokens.insert(at.min(tokens.len()), strays[stray].to_string());
        }
        let body = tokens.concat();
        if in_main {
            format!("func main() {{ var a = 1; var b = 2; {body}")
        } else {
            body
        }
    })
}

/// An expression built by wrapping a leaf up to 100 times (parentheses,
/// unary operators, calls and binary operators on either side), in a
/// `main` that stores it.
fn nested_expression() -> impl Strategy<Value = String> {
    let wrap = (0..6usize, 0..OPS.len(), 0..LEAVES.len());
    (0..LEAVES.len(), proptest::collection::vec(wrap, 0..100)).prop_map(|(leaf, wraps)| {
        let mut e = LEAVES[leaf].to_string();
        for (kind, op, leaf) in wraps {
            let (op, leaf) = (OPS[op], LEAVES[leaf]);
            e = match kind {
                0 => format!("({e})"),
                1 => format!("-{e}"),
                2 => format!("!~{e}"),
                3 => format!("peek({e})"),
                4 => format!("{e} {op} {leaf}"),
                _ => format!("{leaf} {op} ({e})"),
            };
        }
        format!("func main() {{ var a = 1; var b = 2; poke(0x700, {e}); }}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn compiler_never_panics_on_token_soup(source in token_soup()) {
        for opt in [OptLevel::None, OptLevel::Basic] {
            let _ = r8c::compile_with(&source, opt);
        }
    }

    #[test]
    fn compiler_never_panics_on_nested_expressions(source in nested_expression()) {
        for opt in [OptLevel::None, OptLevel::Basic] {
            let _ = r8c::compile_with(&source, opt);
        }
    }
}
