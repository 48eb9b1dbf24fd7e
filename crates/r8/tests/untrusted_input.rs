//! Never-panic properties for the R8 toolchain's untrusted text inputs:
//! whatever it is given, `asm::assemble` and `objfile::from_text` return
//! `Ok` or a typed error.

use proptest::prelude::*;
use r8::{asm, objfile};

/// Assembler tokens, whitespace-separated: every mnemonic, registers in
/// and out of range, labels, directives, literals in and out of 16 bits,
/// and stray punctuation.
const ASM_TOKENS: &str = "
    ADD ADDI AND DIV HALT JMPCD JMPCR JMPD JMPND JMPNR JMPR JMPVD JMPVR JMPZD JMPZR JSRD JSRR
    LD LDH LDL LDSP LIW MUL NOP NOT OR POP PUSH RTS SL0 SL1 SR0 SR1 ST SUB SUBI XOR add
    R0 R1 R15 R16 R99 r3 loop: done: loop done _x: 9bad: .org .word .space .ascii .equ .bogus
    BASE 0 1 -1 7 0x10 0xFFFF 0x10000 65535 65536 -32769 99999999999999999999 0b101 0x 'a'
    \"text\" \"open BASE+2 - + , : ; ( ) [ ] # @ $ \\ \u{e9}";

/// What follows each token.
const SEPARATORS: &[&str] = &[" ", " ", ", ", "\n", "", "\t", " ; note\n"];

/// Characters of the object-text format, so arbitrary byte strings also
/// come close to well-formed lines.
const OBJ_ALPHABET: &[u8] = b"0123456789ABCDEFabcdef@;\n\n \tx";

fn token_soup() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> = ASM_TOKENS.split_whitespace().collect();
    let picks = proptest::collection::vec((0..tokens.len(), 0..SEPARATORS.len()), 0..48);
    picks.prop_map(move |picks| {
        picks
            .iter()
            .map(|&(token, sep)| format!("{}{}", tokens[token], SEPARATORS[sep]))
            .collect()
    })
}

fn object_bytes() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        any::<u8>(),
        (0..OBJ_ALPHABET.len()).prop_map(|i| OBJ_ALPHABET[i]),
    ];
    proptest::collection::vec(byte, 0..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5_000))]

    #[test]
    fn assembler_never_panics_on_token_soup(source in token_soup()) {
        let _ = asm::assemble(&source);
    }

    #[test]
    fn object_text_reader_never_panics_on_arbitrary_bytes(bytes in object_bytes()) {
        let _ = objfile::from_text(&String::from_utf8_lossy(&bytes));
    }
}
