//! Recursive-descent parser.

use crate::ast::{BinOp, Expr, Func, Global, Program, Stmt, UnOp};
use crate::error::{CompileError, ErrorKind};
use crate::lexer::{Token, TokenKind};

/// The deepest nesting a program may have. Each statement, expression
/// (a parenthesised one, an argument, an index) and unary operator
/// nests one level, so the recursive parser, folder and code generator
/// fit a 2 MiB thread stack even in a debug build, where parentheses
/// cost the most: about 100 levels of them fit. Operator chains
/// (`a + b + c`) and `else if` chains nest nothing: every pass walks
/// them in a loop, so they may be as long as memory allows.
pub const MAX_NESTING: usize = 64;

/// Parses a token stream into a [`Program`].
///
/// # Errors
///
/// [`CompileError`] with the offending line on any syntax error, and
/// [`ErrorKind::TooDeep`] where the nesting passes [`MAX_NESTING`].
pub fn parse(tokens: &[Token]) -> Result<Program, CompileError> {
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    parser.program()
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Levels of nesting open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> &TokenKind {
        let kind = &self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn error(&self, expected: &'static str) -> CompileError {
        CompileError {
            line: self.line(),
            kind: ErrorKind::Syntax {
                expected,
                found: self.peek().to_string(),
            },
        }
    }

    /// Opens one level of nesting; the caller closes it with
    /// `self.depth -= 1` once the nested construct is parsed.
    fn nest(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_NESTING {
            return Err(CompileError {
                line: self.line(),
                kind: ErrorKind::TooDeep,
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn expect(&mut self, kind: TokenKind, what: &'static str) -> Result<(), CompileError> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &'static str) -> Result<String, CompileError> {
        if let TokenKind::Ident(name) = self.peek() {
            let name = name.clone();
            self.advance();
            Ok(name)
        } else {
            Err(self.error(what))
        }
    }

    fn number(&mut self, what: &'static str) -> Result<u16, CompileError> {
        if let TokenKind::Number(value) = self.peek() {
            let value = *value;
            self.advance();
            Ok(value)
        } else {
            Err(self.error(what))
        }
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut program = Program::default();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Var => program.globals.push(self.global()?),
                TokenKind::Func => program.funcs.push(self.func()?),
                _ => return Err(self.error("`var` or `func` at top level")),
            }
        }
        Ok(program)
    }

    fn global(&mut self) -> Result<Global, CompileError> {
        let line = self.line();
        self.expect(TokenKind::Var, "`var`")?;
        let name = self.ident("a variable name")?;
        let (size, is_array) = if self.eat(&TokenKind::LBracket) {
            let size = self.number("an array size")?;
            self.expect(TokenKind::RBracket, "`]`")?;
            (size.max(1), true)
        } else {
            (1, false)
        };
        let init = if self.eat(&TokenKind::Assign) {
            if is_array {
                return Err(self.error("`;` (array initializers are not supported)"));
            }
            self.number("a constant initializer")?
        } else {
            0
        };
        self.expect(TokenKind::Semicolon, "`;`")?;
        Ok(Global {
            name,
            size,
            init,
            is_array,
            line,
        })
    }

    fn func(&mut self) -> Result<Func, CompileError> {
        let line = self.line();
        self.expect(TokenKind::Func, "`func`")?;
        let name = self.ident("a function name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                params.push(self.ident("a parameter name")?);
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma, "`,` or `)`")?;
            }
        }
        let body = self.block()?;
        Ok(Func {
            name,
            params,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if *self.peek() == TokenKind::Eof {
                return Err(self.error("`}`"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nest()?;
        let stmt = self.stmt_body();
        self.depth -= 1;
        stmt
    }

    fn stmt_body(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Var => {
                self.advance();
                let name = self.ident("a variable name")?;
                let init = if self.eat(&TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(TokenKind::Semicolon, "`;`")?;
                Ok(Stmt::Local { name, init, line })
            }
            TokenKind::If => {
                // An else-if chain is parsed in a loop and nests each
                // `if` in the else branch of the one before.
                let mut arms = Vec::new();
                let mut else_body = Vec::new();
                loop {
                    self.advance();
                    self.expect(TokenKind::LParen, "`(`")?;
                    let cond = self.expr()?;
                    self.expect(TokenKind::RParen, "`)`")?;
                    arms.push((cond, self.block()?));
                    if !self.eat(&TokenKind::Else) {
                        break;
                    }
                    if *self.peek() != TokenKind::If {
                        else_body = self.block()?;
                        break;
                    }
                }
                for (cond, then_body) in arms.into_iter().rev() {
                    else_body = vec![Stmt::If {
                        cond,
                        then_body,
                        else_body,
                    }];
                }
                Ok(else_body.pop().expect("one arm at least"))
            }
            TokenKind::While => {
                self.advance();
                self.expect(TokenKind::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::Return => {
                self.advance();
                let value = if *self.peek() == TokenKind::Semicolon {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semicolon, "`;`")?;
                Ok(Stmt::Return(value))
            }
            TokenKind::Ident(name) => {
                // printf/poke statements, assignment, or a call statement.
                match name.as_str() {
                    "printf" if self.tokens[self.pos + 1].kind == TokenKind::LParen => {
                        self.advance();
                        self.advance();
                        let value = self.expr()?;
                        self.expect(TokenKind::RParen, "`)`")?;
                        self.expect(TokenKind::Semicolon, "`;`")?;
                        return Ok(Stmt::Printf(value));
                    }
                    "poke" if self.tokens[self.pos + 1].kind == TokenKind::LParen => {
                        self.advance();
                        self.advance();
                        let addr = self.expr()?;
                        self.expect(TokenKind::Comma, "`,`")?;
                        let value = self.expr()?;
                        self.expect(TokenKind::RParen, "`)`")?;
                        self.expect(TokenKind::Semicolon, "`;`")?;
                        return Ok(Stmt::Poke { addr, value });
                    }
                    // wait(n) / notify(n): sugar for stores to the
                    // memory-mapped synchronization command addresses
                    // (0xFFFE / 0xFFFD in the MultiNoC address map).
                    "wait" if self.tokens[self.pos + 1].kind == TokenKind::LParen => {
                        self.advance();
                        self.advance();
                        let peer = self.expr()?;
                        self.expect(TokenKind::RParen, "`)`")?;
                        self.expect(TokenKind::Semicolon, "`;`")?;
                        return Ok(Stmt::Poke {
                            addr: Expr::Number(0xFFFE),
                            value: peer,
                        });
                    }
                    "notify" if self.tokens[self.pos + 1].kind == TokenKind::LParen => {
                        self.advance();
                        self.advance();
                        let peer = self.expr()?;
                        self.expect(TokenKind::RParen, "`)`")?;
                        self.expect(TokenKind::Semicolon, "`;`")?;
                        return Ok(Stmt::Poke {
                            addr: Expr::Number(0xFFFD),
                            value: peer,
                        });
                    }
                    _ => {}
                }
                match &self.tokens[self.pos + 1].kind {
                    TokenKind::Assign => {
                        self.advance();
                        self.advance();
                        let value = self.expr()?;
                        self.expect(TokenKind::Semicolon, "`;`")?;
                        Ok(Stmt::Assign { name, value, line })
                    }
                    TokenKind::LBracket => {
                        // Could be `a[i] = e;` — parse the index, then
                        // decide between assignment and expression.
                        let save = self.pos;
                        self.advance();
                        self.advance();
                        let index = self.expr()?;
                        self.expect(TokenKind::RBracket, "`]`")?;
                        if self.eat(&TokenKind::Assign) {
                            let value = self.expr()?;
                            self.expect(TokenKind::Semicolon, "`;`")?;
                            Ok(Stmt::AssignIndex {
                                name,
                                index,
                                value,
                                line,
                            })
                        } else {
                            // An expression statement starting with an
                            // index read; re-parse as a full expression.
                            self.pos = save;
                            let expr = self.expr()?;
                            self.expect(TokenKind::Semicolon, "`;`")?;
                            Ok(Stmt::Expr(expr))
                        }
                    }
                    _ => {
                        let expr = self.expr()?;
                        self.expect(TokenKind::Semicolon, "`;`")?;
                        Ok(Stmt::Expr(expr))
                    }
                }
            }
            TokenKind::LBrace => {
                // A bare block: flatten into an if(1) for simplicity.
                let body = self.block()?;
                Ok(Stmt::If {
                    cond: Expr::Number(1),
                    then_body: body,
                    else_body: Vec::new(),
                })
            }
            _ => Err(self.error("a statement")),
        }
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.nest()?;
        let expr = self.logic_or();
        self.depth -= 1;
        expr
    }

    fn binary_level<F>(
        &mut self,
        next: F,
        table: &[(TokenKind, BinOp)],
    ) -> Result<Expr, CompileError>
    where
        F: Fn(&mut Self) -> Result<Expr, CompileError>,
    {
        let mut lhs = next(self)?;
        'outer: loop {
            for (kind, op) in table {
                if self.peek() == kind {
                    self.advance();
                    let rhs = next(self)?;
                    lhs = Expr::Binary {
                        op: *op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    };
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn logic_or(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(Self::logic_and, &[(TokenKind::OrOr, BinOp::LogicOr)])
    }

    fn logic_and(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(Self::bit_or, &[(TokenKind::AndAnd, BinOp::LogicAnd)])
    }

    fn bit_or(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(Self::bit_xor, &[(TokenKind::Pipe, BinOp::Or)])
    }

    fn bit_xor(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(Self::bit_and, &[(TokenKind::Caret, BinOp::Xor)])
    }

    fn bit_and(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(Self::equality, &[(TokenKind::Amp, BinOp::And)])
    }

    fn equality(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            Self::relational,
            &[(TokenKind::Eq, BinOp::Eq), (TokenKind::Ne, BinOp::Ne)],
        )
    }

    fn relational(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            Self::shift,
            &[
                (TokenKind::Lt, BinOp::Lt),
                (TokenKind::Le, BinOp::Le),
                (TokenKind::Gt, BinOp::Gt),
                (TokenKind::Ge, BinOp::Ge),
            ],
        )
    }

    fn shift(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            Self::additive,
            &[(TokenKind::Shl, BinOp::Shl), (TokenKind::Shr, BinOp::Shr)],
        )
    }

    fn additive(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            Self::multiplicative,
            &[
                (TokenKind::Plus, BinOp::Add),
                (TokenKind::Minus, BinOp::Sub),
            ],
        )
    }

    fn multiplicative(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            Self::unary,
            &[
                (TokenKind::Star, BinOp::Mul),
                (TokenKind::Slash, BinOp::Div),
                (TokenKind::Percent, BinOp::Rem),
            ],
        )
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.nest()?;
            self.advance();
            let expr = self.unary()?;
            self.depth -= 1;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        match self.peek().clone() {
            TokenKind::Number(value) => {
                self.advance();
                Ok(Expr::Number(value))
            }
            TokenKind::LParen => {
                self.advance();
                let expr = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(expr)
            }
            TokenKind::Ident(name) => {
                self.advance();
                match name.as_str() {
                    "scanf" if self.eat(&TokenKind::LParen) => {
                        self.expect(TokenKind::RParen, "`)`")?;
                        return Ok(Expr::Scanf);
                    }
                    "peek" if self.eat(&TokenKind::LParen) => {
                        let addr = self.expr()?;
                        self.expect(TokenKind::RParen, "`)`")?;
                        return Ok(Expr::Peek(Box::new(addr)));
                    }
                    _ => {}
                }
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(TokenKind::Comma, "`,` or `)`")?;
                        }
                    }
                    Ok(Expr::Call { name, args })
                } else if self.eat(&TokenKind::LBracket) {
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket, "`]`")?;
                    Ok(Expr::Index {
                        name,
                        index: Box::new(index),
                    })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            _ => Err(self.error("an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_globals_and_functions() {
        let p = parse_src("var a = 3;\nvar buf[8];\nfunc main() { a = 4; }");
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[0].name, "a");
        assert_eq!(p.globals[0].init, 3);
        assert!(p.globals[1].is_array);
        assert_eq!(p.globals[1].size, 8);
        assert_eq!(p.funcs.len(), 1);
    }

    #[test]
    fn precedence_is_conventional() {
        let p = parse_src("func main() { var x = 1 + 2 * 3 == 7; }");
        let Stmt::Local { init: Some(e), .. } = &p.funcs[0].body[0] else {
            panic!("expected local");
        };
        // ((1 + (2 * 3)) == 7)
        let Expr::Binary {
            op: BinOp::Eq, lhs, ..
        } = e
        else {
            panic!("expected ==, got {e:?}");
        };
        assert!(matches!(**lhs, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn else_if_chains() {
        let p = parse_src("func main() { if (1) { } else if (2) { } else { } }");
        let Stmt::If { else_body, .. } = &p.funcs[0].body[0] else {
            panic!();
        };
        assert!(matches!(else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn intrinsics() {
        let p = parse_src("func main() { printf(scanf() + peek(0xFFFD)); poke(1, 2); }");
        assert!(matches!(p.funcs[0].body[0], Stmt::Printf(_)));
        assert!(matches!(p.funcs[0].body[1], Stmt::Poke { .. }));
    }

    #[test]
    fn wait_notify_sugar() {
        let p = parse_src("func main() { wait(2); notify(1 + 1); }");
        let Stmt::Poke {
            addr: Expr::Number(0xFFFE),
            ..
        } = &p.funcs[0].body[0]
        else {
            panic!("wait should target 0xFFFE: {:?}", p.funcs[0].body[0]);
        };
        let Stmt::Poke {
            addr: Expr::Number(0xFFFD),
            value,
        } = &p.funcs[0].body[1]
        else {
            panic!("notify should target 0xFFFD");
        };
        assert!(matches!(value, Expr::Binary { .. }));
    }

    #[test]
    fn wait_notify_remain_usable_as_plain_names() {
        // Without parentheses they are ordinary identifiers.
        let p = parse_src("var wait = 3;\nfunc main() { wait = wait + 1; }");
        assert_eq!(p.globals[0].name, "wait");
    }

    #[test]
    fn array_assignment_vs_read() {
        let p = parse_src("func main() { buf[1] = 2; f(buf[1]); }");
        assert!(matches!(p.funcs[0].body[0], Stmt::AssignIndex { .. }));
        assert!(matches!(p.funcs[0].body[1], Stmt::Expr(Expr::Call { .. })));
    }

    #[test]
    fn syntax_errors_carry_lines() {
        let e = parse(&lex("func main() {\n  var = 3;\n}").unwrap()).unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse(&lex("func main() { if 1 { } }").unwrap()).unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Syntax { .. }));
    }

    #[test]
    fn unterminated_block_is_an_error() {
        assert!(parse(&lex("func main() { var a = 1;").unwrap()).is_err());
    }

    /// One program per kind of nesting whose deepest point is `depth`
    /// levels down: `k` parentheses, unary minuses or nested `if`
    /// blocks, where `main`'s outermost statement and expression take the
    /// other two levels.
    fn nested(depth: usize) -> [String; 3] {
        let k = depth - 2;
        [
            format!(
                "func main() {{ return {}1{}; }}",
                "(".repeat(k),
                ")".repeat(k)
            ),
            format!("func main() {{ return {}1; }}", "-".repeat(k)),
            format!(
                "func main() {{ {} return 1; {} }}",
                "if (1) {".repeat(k),
                "}".repeat(k)
            ),
        ]
    }

    #[test]
    fn nesting_up_to_the_limit_compiles() {
        // In a debug build on the default 2 MiB test thread stack.
        for source in nested(MAX_NESTING) {
            crate::compile(&source).expect("nesting at the limit compiles");
        }
        for source in nested(MAX_NESTING + 1) {
            let e = crate::compile(&source).expect_err("one level more is refused");
            assert_eq!((e.line, e.kind), (1, ErrorKind::TooDeep));
        }
    }

    #[test]
    fn chains_nest_nothing() {
        // An operator chain and an else-if chain of 100,000 terms each,
        // both at the deepest nesting point, on the default test thread.
        let k = MAX_NESTING - 2;
        let terms = 100_000;
        let sum = format!(
            "func main() {{ return {}1{}{}; }}",
            "(".repeat(k),
            "+1".repeat(terms - 1),
            ")".repeat(k)
        );
        let asm = crate::compile(&sum).expect("a long sum compiles");
        assert!(asm.contains(&format!("LIW  R1, {}", terms % 65_536)));
        let arms = format!(
            "func main() {{ var x = 1; {} if (x) {{ }} {}else {{ x = 2; }} {} }}",
            "if (1) {".repeat(k - 1),
            "else if (x) { } ".repeat(terms - 1),
            "}".repeat(k - 1)
        );
        crate::compile(&arms).expect("a long else-if chain compiles");
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // Each of these overflowed the stack and aborted the compiler.
        let sources = [
            format!(
                "func main() {{ return {}1{}; }}",
                "(".repeat(20_000),
                ")".repeat(20_000)
            ),
            format!("func main() {{ return {}1; }}", "-".repeat(100_000)),
            format!(
                "func main() {{\n{} }}",
                "if (1) {\n".repeat(60_000) + &"}".repeat(60_000)
            ),
        ];
        // Line 1 holds `func main() {`, so the 64th `if`, whose condition is
        // the first level too deep, sits on line 65.
        for (source, line) in sources.iter().zip([1, 1, MAX_NESTING + 1]) {
            let e = crate::compile(source).expect_err("too deep");
            assert_eq!(e.kind, ErrorKind::TooDeep);
            assert_eq!(e.line, line);
            assert_eq!(
                e.to_string(),
                format!("line {line}: nested deeper than {MAX_NESTING} levels")
            );
        }
    }
}
