//! Constant folding and algebraic simplification.
//!
//! A small AST-to-AST pass run before code generation (at
//! [`OptLevel::Basic`](crate::OptLevel)): evaluates constant
//! subexpressions with the exact 16-bit semantics of the target, and
//! applies the safe algebraic identities (`x+0`, `x*1`, `x*0`, `x&0`,
//! `x|0`, `x^0`, shifts by 0). Short-circuit operands fold only when
//! that cannot change observable behaviour (the discarded side must be
//! effect-free).

use crate::ast::{BinOp, Expr, Func, Program, Stmt, UnOp};

/// Folds a whole program.
pub fn fold_program(program: &Program) -> Program {
    Program {
        globals: program.globals.clone(),
        funcs: program.funcs.iter().map(fold_func).collect(),
    }
}

fn fold_func(f: &Func) -> Func {
    Func {
        name: f.name.clone(),
        params: f.params.clone(),
        body: f.body.iter().map(fold_stmt).collect(),
        line: f.line,
    }
}

fn fold_stmt(stmt: &Stmt) -> Stmt {
    match stmt {
        Stmt::Local { name, init, line } => Stmt::Local {
            name: name.clone(),
            init: init.as_ref().map(fold_expr),
            line: *line,
        },
        Stmt::Assign { name, value, line } => Stmt::Assign {
            name: name.clone(),
            value: fold_expr(value),
            line: *line,
        },
        Stmt::AssignIndex {
            name,
            index,
            value,
            line,
        } => Stmt::AssignIndex {
            name: name.clone(),
            index: fold_expr(index),
            value: fold_expr(value),
            line: *line,
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            // An else-if chain is folded in a loop, innermost `if` first.
            let (arms, tail) = Stmt::if_chain(cond, then_body, else_body);
            let mut folded: Vec<Stmt> = tail.iter().map(fold_stmt).collect();
            for (cond, then_body) in arms.into_iter().rev() {
                folded = vec![fold_if(cond, then_body, folded)];
            }
            folded.pop().expect("one arm at least")
        }
        Stmt::While { cond, body } => Stmt::While {
            cond: fold_expr(cond),
            body: body.iter().map(fold_stmt).collect(),
        },
        Stmt::Return(value) => Stmt::Return(value.as_ref().map(fold_expr)),
        Stmt::Printf(value) => Stmt::Printf(fold_expr(value)),
        Stmt::Poke { addr, value } => Stmt::Poke {
            addr: fold_expr(addr),
            value: fold_expr(value),
        },
        Stmt::Expr(expr) => Stmt::Expr(fold_expr(expr)),
    }
}

/// Folds an `if` whose else branch is folded already.
fn fold_if(cond: &Expr, then_body: &[Stmt], else_body: Vec<Stmt>) -> Stmt {
    let cond = fold_expr(cond);
    let then_body = then_body.iter().map(fold_stmt).collect();
    // A constant condition selects one branch at compile time.
    if let Expr::Number(n) = cond {
        return Stmt::If {
            cond: Expr::Number(1),
            then_body: if n != 0 { then_body } else { else_body },
            else_body: Vec::new(),
        };
    }
    Stmt::If {
        cond,
        then_body,
        else_body,
    }
}

/// Whether evaluating the expression can have side effects (calls, I/O,
/// raw memory reads).
fn has_effects(expr: &Expr) -> bool {
    let mut work = vec![expr];
    while let Some(expr) = work.pop() {
        match expr {
            Expr::Number(_) | Expr::Var(_) => {}
            Expr::Index { index: e, .. } | Expr::Unary { expr: e, .. } => work.push(e),
            Expr::Binary { lhs, rhs, .. } => work.extend([&**lhs, &**rhs]),
            Expr::Call { .. } | Expr::Scanf | Expr::Peek(_) => return true,
        }
    }
    false
}

/// Exact 16-bit evaluation of a binary operator, mirroring the code
/// generator's semantics (including `DIV` by zero → `0xFFFF`).
pub fn eval_bin(op: BinOp, a: u16, b: u16) -> u16 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b).unwrap_or(0xFFFF),
        BinOp::Rem => {
            // a - (a / b) * b with the DIV-by-zero rule above.
            let q = a.checked_div(b).unwrap_or(0xFFFF);
            a.wrapping_sub(q.wrapping_mul(b))
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= 16 {
                0
            } else {
                a << b
            }
        }
        BinOp::Shr => {
            if b >= 16 {
                0
            } else {
                a >> b
            }
        }
        BinOp::Eq => u16::from(a == b),
        BinOp::Ne => u16::from(a != b),
        BinOp::Lt => u16::from(a < b),
        BinOp::Le => u16::from(a <= b),
        BinOp::Gt => u16::from(a > b),
        BinOp::Ge => u16::from(a >= b),
        BinOp::LogicAnd => u16::from(a != 0 && b != 0),
        BinOp::LogicOr => u16::from(a != 0 || b != 0),
    }
}

/// Exact 16-bit evaluation of a unary operator.
pub fn eval_un(op: UnOp, a: u16) -> u16 {
    match op {
        UnOp::Neg => a.wrapping_neg(),
        UnOp::Not => u16::from(a == 0),
        UnOp::BitNot => !a,
    }
}

fn fold_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Number(_) | Expr::Var(_) | Expr::Scanf => expr.clone(),
        Expr::Index { name, index } => Expr::Index {
            name: name.clone(),
            index: Box::new(fold_expr(index)),
        },
        Expr::Peek(addr) => Expr::Peek(Box::new(fold_expr(addr))),
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(fold_expr).collect(),
        },
        Expr::Unary { op, expr } => {
            let inner = fold_expr(expr);
            if let Expr::Number(a) = inner {
                return Expr::Number(eval_un(*op, a));
            }
            Expr::Unary {
                op: *op,
                expr: Box::new(inner),
            }
        }
        Expr::Binary { .. } => {
            // An operator chain is folded along its left spine in a loop.
            let (first, spine) = expr.left_spine();
            let mut folded = fold_expr(first);
            for (op, rhs) in spine {
                folded = fold_binary(op, folded, fold_expr(rhs));
            }
            folded
        }
    }
}

/// Folds `lhs op rhs` with both operands folded already.
fn fold_binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    if let (Expr::Number(a), Expr::Number(b)) = (&lhs, &rhs) {
        return Expr::Number(eval_bin(op, *a, *b));
    }
    // Short-circuit with a constant lhs.
    match (op, &lhs) {
        (BinOp::LogicAnd, Expr::Number(0)) => return Expr::Number(0),
        (BinOp::LogicOr, Expr::Number(n)) if *n != 0 => return Expr::Number(1),
        _ => {}
    }
    // Algebraic identities with an effect-free discarded side.
    match (op, lhs, rhs) {
        (BinOp::Add, e, Expr::Number(0)) | (BinOp::Add, Expr::Number(0), e) => e,
        (BinOp::Sub, e, Expr::Number(0)) => e,
        (BinOp::Mul, e, Expr::Number(1)) | (BinOp::Mul, Expr::Number(1), e) => e,
        (BinOp::Mul, e, Expr::Number(0)) | (BinOp::Mul, Expr::Number(0), e) if !has_effects(&e) => {
            Expr::Number(0)
        }
        (BinOp::Div, e, Expr::Number(1)) => e,
        (BinOp::And, e, Expr::Number(0)) | (BinOp::And, Expr::Number(0), e) if !has_effects(&e) => {
            Expr::Number(0)
        }
        (BinOp::Or, e, Expr::Number(0)) | (BinOp::Or, Expr::Number(0), e) => e,
        (BinOp::Xor, e, Expr::Number(0)) | (BinOp::Xor, Expr::Number(0), e) => e,
        (BinOp::Shl, e, Expr::Number(0)) | (BinOp::Shr, e, Expr::Number(0)) => e,
        (op, lhs, rhs) => Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold_one(expr: Expr) -> Expr {
        fold_expr(&expr)
    }

    fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    #[test]
    fn constants_fold_exactly() {
        assert_eq!(
            fold_one(bin(BinOp::Add, Expr::Number(0xFFFF), Expr::Number(2))),
            Expr::Number(1)
        );
        assert_eq!(
            fold_one(bin(BinOp::Div, Expr::Number(5), Expr::Number(0))),
            Expr::Number(0xFFFF)
        );
        assert_eq!(
            fold_one(bin(BinOp::Shl, Expr::Number(1), Expr::Number(20))),
            Expr::Number(0)
        );
        assert_eq!(
            fold_one(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(Expr::Number(1))
            }),
            Expr::Number(0xFFFF)
        );
    }

    #[test]
    fn identities_preserve_variables() {
        let x = Expr::Var("x".into());
        assert_eq!(fold_one(bin(BinOp::Add, x.clone(), Expr::Number(0))), x);
        assert_eq!(fold_one(bin(BinOp::Mul, Expr::Number(1), x.clone())), x);
        assert_eq!(
            fold_one(bin(BinOp::Mul, x.clone(), Expr::Number(0))),
            Expr::Number(0)
        );
        assert_eq!(fold_one(bin(BinOp::Xor, Expr::Number(0), x.clone())), x);
    }

    #[test]
    fn effects_are_never_discarded() {
        // scanf() * 0 must keep the scanf.
        let folded = fold_one(bin(BinOp::Mul, Expr::Scanf, Expr::Number(0)));
        assert!(matches!(folded, Expr::Binary { .. }));
        // 0 && f() must fold (short-circuit wouldn't evaluate f anyway).
        let call = Expr::Call {
            name: "f".into(),
            args: vec![],
        };
        assert_eq!(
            fold_one(bin(BinOp::LogicAnd, Expr::Number(0), call.clone())),
            Expr::Number(0)
        );
        // f() && 0 must keep the call.
        let folded = fold_one(bin(BinOp::LogicAnd, call, Expr::Number(0)));
        assert!(matches!(folded, Expr::Binary { .. }));
    }

    #[test]
    fn nested_folding_cascades() {
        // (2 + 3) * (10 - 6) = 20
        let e = bin(
            BinOp::Mul,
            bin(BinOp::Add, Expr::Number(2), Expr::Number(3)),
            bin(BinOp::Sub, Expr::Number(10), Expr::Number(6)),
        );
        assert_eq!(fold_one(e), Expr::Number(20));
    }

    #[test]
    fn constant_if_selects_a_branch() {
        let stmt = Stmt::If {
            cond: bin(BinOp::Lt, Expr::Number(1), Expr::Number(2)),
            then_body: vec![Stmt::Return(Some(Expr::Number(1)))],
            else_body: vec![Stmt::Return(Some(Expr::Number(2)))],
        };
        let folded = fold_stmt(&stmt);
        let Stmt::If {
            cond: Expr::Number(1),
            then_body,
            else_body,
        } = &folded
        else {
            panic!("expected selected branch");
        };
        assert_eq!(then_body.len(), 1);
        assert!(else_body.is_empty());
    }
}
