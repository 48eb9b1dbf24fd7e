//! Abstract syntax tree.

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (unsigned; division by zero yields `0xFFFF` like the R8 `DIV`)
    Div,
    /// `%` (computed as `a - (a / b) * b`)
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<` (shift count taken modulo 16 at runtime)
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (unsigned)
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LogicAnd,
    /// `||` (short-circuit)
    LogicOr,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation (two's complement).
    Neg,
    /// Logical not: 0 → 1, nonzero → 0.
    Not,
    /// Bitwise complement.
    BitNot,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal.
    Number(u16),
    /// A scalar variable read.
    Var(String),
    /// An array element read.
    Index {
        /// Array name.
        name: String,
        /// Element index.
        index: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// A function call.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// The `scanf()` intrinsic: one word of host input.
    Scanf,
    /// The `peek(addr)` intrinsic: raw memory/bus read.
    Peek(Box<Expr>),
}

impl Expr {
    /// An operator chain `((a op1 b) op2 c) …` as its leftmost operand
    /// and each operator with its right operand, in the order they
    /// apply: `(a, [(op1, b), (op2, c)])`. Any other expression is its
    /// own leftmost operand. Passes walk a chain this way, in a loop, so
    /// its length costs no stack.
    pub(crate) fn left_spine(&self) -> (&Expr, Vec<(BinOp, &Expr)>) {
        let mut spine = Vec::new();
        let mut lhs = self;
        while let Expr::Binary {
            op,
            lhs: inner,
            rhs,
        } = lhs
        {
            spine.push((*op, &**rhs));
            lhs = inner;
        }
        spine.reverse();
        (lhs, spine)
    }
}

impl Drop for Expr {
    /// Takes an operator chain apart along its left spine in a loop,
    /// where the derived drop would recurse once per operator.
    fn drop(&mut self) {
        let Expr::Binary { lhs, .. } = self else {
            return;
        };
        let mut spine = std::mem::replace(&mut **lhs, Expr::Number(0));
        while let Expr::Binary { lhs, .. } = &mut spine {
            spine = std::mem::replace(&mut **lhs, Expr::Number(0));
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `var name = init;` — a local with static storage.
    Local {
        /// Variable name.
        name: String,
        /// Initializer (defaults to 0).
        init: Option<Expr>,
        /// Source line, for error messages.
        line: usize,
    },
    /// `name = expr;`
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
        /// Source line.
        line: usize,
    },
    /// `name[index] = expr;`
    AssignIndex {
        /// Array name.
        name: String,
        /// Element index.
        index: Expr,
        /// New value.
        value: Expr,
        /// Source line.
        line: usize,
    },
    /// `if (cond) { … } else { … }`
    If {
        /// Condition (nonzero = true).
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch.
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { … }`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr?;`
    Return(Option<Expr>),
    /// `printf(expr);` — one word to the host monitor.
    Printf(Expr),
    /// `poke(addr, value);` — raw memory/bus write.
    Poke {
        /// Target address.
        addr: Expr,
        /// Value to store.
        value: Expr,
    },
    /// An expression evaluated for its side effects (a call).
    Expr(Expr),
}

impl Stmt {
    /// The arms of `if (cond) { then_body } else { else_body }` and of
    /// every `else if` chained to it, outermost first, with the chain's
    /// final else branch: `if (a) { A } else if (b) { B } else { C }`
    /// gives `([(a, A), (b, B)], C)`. Passes walk a chain this way, in a
    /// loop, so its length costs no stack.
    pub(crate) fn if_chain<'a>(
        cond: &'a Expr,
        then_body: &'a [Stmt],
        else_body: &'a [Stmt],
    ) -> (Vec<(&'a Expr, &'a [Stmt])>, &'a [Stmt]) {
        let mut arms = vec![(cond, then_body)];
        let mut tail = else_body;
        while let [Stmt::If {
            cond,
            then_body,
            else_body,
        }] = tail
        {
            arms.push((cond, then_body.as_slice()));
            tail = else_body;
        }
        (arms, tail)
    }
}

impl Drop for Stmt {
    /// Takes an else-if chain apart in a loop, where the derived drop
    /// would recurse once per `else if`.
    fn drop(&mut self) {
        let Stmt::If { else_body, .. } = self else {
            return;
        };
        let mut tail = std::mem::take(else_body);
        while let [Stmt::If { else_body, .. }] = tail.as_mut_slice() {
            tail = std::mem::take(else_body);
        }
    }
}

/// A global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Element count (`1` for scalars).
    pub size: u16,
    /// Initial value of element 0 (scalars only).
    pub init: u16,
    /// Whether declared with `[n]`.
    pub is_array: bool,
    /// Source line.
    pub line: usize,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Func {
    /// Name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source line.
    pub line: usize,
}

/// A whole program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Global variables, in declaration order.
    pub globals: Vec<Global>,
    /// Functions, in declaration order.
    pub funcs: Vec<Func>,
}
