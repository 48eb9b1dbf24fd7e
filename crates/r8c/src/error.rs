//! Compiler errors.

use std::error::Error;
use std::fmt;

/// A compilation failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// What went wrong.
    pub kind: ErrorKind,
}

/// The ways compilation can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// A character that starts no token.
    UnexpectedChar(char),
    /// A number literal that does not parse or exceeds 16 bits.
    BadNumber(String),
    /// The parser expected something else.
    Syntax {
        /// What was expected.
        expected: &'static str,
        /// What was found.
        found: String,
    },
    /// Use of an undefined variable or function.
    Undefined(String),
    /// A name defined twice in the same scope.
    Redefined(String),
    /// Wrong number of call arguments.
    Arity {
        /// The function called.
        name: String,
        /// Parameters it declares.
        expected: usize,
        /// Arguments supplied.
        found: usize,
    },
    /// Indexing a scalar or assigning to an array name.
    NotAnArray(String),
    /// Direct or indirect recursion (functions use static storage).
    Recursion(String),
    /// The program has no `main` function.
    NoMain,
    /// `return` outside a function body (unreachable via the grammar but
    /// kept for completeness).
    StrayReturn,
    /// Statements, expressions or unary operators nested deeper than
    /// [`MAX_NESTING`](crate::parser::MAX_NESTING) levels.
    TooDeep,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            ErrorKind::BadNumber(s) => write!(f, "bad number literal `{s}`"),
            ErrorKind::Syntax { expected, found } => {
                write!(f, "expected {expected}, found `{found}`")
            }
            ErrorKind::Undefined(name) => write!(f, "undefined name `{name}`"),
            ErrorKind::Redefined(name) => write!(f, "`{name}` is defined twice"),
            ErrorKind::Arity {
                name,
                expected,
                found,
            } => write!(f, "`{name}` takes {expected} argument(s), got {found}"),
            ErrorKind::NotAnArray(name) => write!(f, "`{name}` is not an array"),
            ErrorKind::Recursion(name) => {
                write!(f, "`{name}` is recursive; r8c functions use static storage")
            }
            ErrorKind::NoMain => write!(f, "program has no `main` function"),
            ErrorKind::StrayReturn => write!(f, "`return` outside a function"),
            ErrorKind::TooDeep => write!(
                f,
                "nested deeper than {} levels",
                crate::parser::MAX_NESTING
            ),
        }
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line_and_detail() {
        let e = CompileError {
            line: 3,
            kind: ErrorKind::Undefined("foo".into()),
        };
        assert_eq!(e.to_string(), "line 3: undefined name `foo`");
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileError>();
    }
}
