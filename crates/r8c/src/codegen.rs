//! Code generation: AST → R8 assembly.
//!
//! ## Conventions
//!
//! - `R0` holds zero for the whole program; `R1` carries every
//!   expression result; `R2`/`R3` are operand/flag scratch; `R12` is the
//!   address scratch for variable access; `R13` the jump-target scratch;
//!   `R15` initializes the stack pointer.
//! - Expression temporaries live on the R8 stack (`PUSH`/`POP`), so
//!   arbitrarily deep expressions work with three registers.
//! - Parameters and locals use **static storage** (one labelled word
//!   each); the compiler rejects recursion, which this scheme cannot
//!   support. Call arguments are all evaluated onto the stack before
//!   being popped into the parameter slots, so nested calls are safe.
//! - Control flow uses long branches (`LIW`+`JMPR`) so bodies of any
//!   size assemble; the 8-bit relative jumps are used only for the
//!   fixed-size hops inside comparison/branch patterns.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::ast::{BinOp, Expr, Func, Program, Stmt, UnOp};
use crate::error::{CompileError, ErrorKind};

/// Generates R8 assembly for a parsed program with all code-generation
/// optimizations enabled.
///
/// # Errors
///
/// [`CompileError`] for semantic errors: no `main`, undefined or
/// redefined names, arity mismatches, indexing non-arrays, recursion.
pub fn generate(program: &Program) -> Result<String, CompileError> {
    generate_with(program, true)
}

/// Generates R8 assembly, optionally disabling the direct-operand fast
/// path (used by the `-O0` ablation in experiment E12).
///
/// # Errors
///
/// As [`generate`].
pub fn generate_with(program: &Program, fast_operands: bool) -> Result<String, CompileError> {
    check_recursion(program)?;
    let mut cg = Codegen::new(program)?;
    cg.fast_operands = fast_operands;
    cg.program(program)?;
    Ok(cg.finish())
}

/// Where a name lives.
#[derive(Debug, Clone)]
enum Place {
    Scalar(String),
    Array { label: String },
}

#[derive(Debug)]
struct Codegen<'a> {
    out: Vec<String>,
    data: Vec<String>,
    globals: BTreeMap<String, Place>,
    funcs: HashMap<String, &'a Func>,
    /// Current function's parameter/local slots.
    locals: BTreeMap<String, String>,
    current_fn: String,
    next_label: u32,
    /// Load simple right operands directly into R2 (skip PUSH/POP).
    fast_operands: bool,
}

impl<'a> Codegen<'a> {
    fn new(program: &'a Program) -> Result<Self, CompileError> {
        let mut funcs = HashMap::new();
        for f in &program.funcs {
            if funcs.insert(f.name.clone(), f).is_some() {
                return Err(CompileError {
                    line: f.line,
                    kind: ErrorKind::Redefined(f.name.clone()),
                });
            }
        }
        if !funcs.contains_key("main") {
            return Err(CompileError {
                line: 1,
                kind: ErrorKind::NoMain,
            });
        }
        Ok(Self {
            out: Vec::new(),
            data: Vec::new(),
            globals: BTreeMap::new(),
            funcs,
            locals: BTreeMap::new(),
            current_fn: String::new(),
            next_label: 0,
            fast_operands: true,
        })
    }

    fn emit(&mut self, line: impl Into<String>) {
        self.out.push(format!("        {}", line.into()));
    }

    fn label(&mut self, name: &str) {
        self.out.push(format!("{name}:"));
    }

    fn fresh(&mut self, hint: &str) -> String {
        self.next_label += 1;
        format!("L{}_{}", hint, self.next_label)
    }

    /// Words reserved for the runtime stack (expression temporaries,
    /// call arguments and return addresses; recursion is rejected, so a
    /// fixed region suffices).
    const STACK_WORDS: u32 = 128;

    fn finish(mut self) -> String {
        let mut text = String::new();
        text.push_str("; generated by r8c\n");
        for line in &self.out {
            text.push_str(line);
            text.push('\n');
        }
        text.push_str("; --- data ---\n");
        self.data.sort();
        for line in &self.data {
            text.push_str(line);
            text.push('\n');
        }
        // The stack lives at the very end of the image, wherever that
        // is, so large programs cannot collide with it. On MultiNoC the
        // whole image (stack included) must fit the 1K local memory.
        text.push_str(&format!(
            "; --- stack ---\n.space {}\nLstack_top:\n",
            Self::STACK_WORDS
        ));
        text
    }

    fn program(&mut self, program: &'a Program) -> Result<(), CompileError> {
        // Globals first (symbols for every function).
        for g in &program.globals {
            if self.globals.contains_key(&g.name) || self.funcs.contains_key(&g.name) {
                return Err(CompileError {
                    line: g.line,
                    kind: ErrorKind::Redefined(g.name.clone()),
                });
            }
            let label = format!("Lg_{}", g.name);
            if g.is_array {
                self.data.push(format!("{label}: .space {}", g.size));
                self.globals.insert(g.name.clone(), Place::Array { label });
            } else {
                self.data.push(format!("{label}: .word {}", g.init));
                self.globals.insert(g.name.clone(), Place::Scalar(label));
            }
        }

        // Startup: zero register, stack, call main, halt. The stack
        // pointer starts at the last word of the reserved region at the
        // end of the image (pushes store at SP, then decrement).
        self.emit("XOR  R0, R0, R0");
        self.emit("LIW  R15, Lstack_top-1");
        self.emit("LDSP R15");
        self.emit("LIW  R13, Lf_main");
        self.emit("JSRR R13");
        self.emit("HALT");

        for f in &program.funcs {
            self.function(f)?;
        }
        Ok(())
    }

    fn function(&mut self, f: &'a Func) -> Result<(), CompileError> {
        self.current_fn = f.name.clone();
        self.locals.clear();
        for p in &f.params {
            let label = format!("Lv_{}_{}", f.name, p);
            if self.locals.insert(p.clone(), label.clone()).is_some() {
                return Err(CompileError {
                    line: f.line,
                    kind: ErrorKind::Redefined(p.clone()),
                });
            }
            self.data.push(format!("{label}: .word 0"));
        }
        self.label(&format!("Lf_{}", f.name));
        self.block(&f.body)?;
        // Implicit `return 0`.
        self.emit("XOR  R1, R1, R1");
        self.emit("RTS");
        Ok(())
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for stmt in stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    /// Stores R1 into the labelled word.
    fn store_slot(&mut self, label: &str) {
        self.emit(format!("LIW  R12, {label}"));
        self.emit("ST   R1, R12, R0");
    }

    /// Loads the labelled word into R1.
    fn load_slot(&mut self, label: &str) {
        self.emit(format!("LIW  R12, {label}"));
        self.emit("LD   R1, R12, R0");
    }

    /// Long unconditional jump (body-size independent).
    fn jump(&mut self, target: &str) {
        self.emit(format!("LIW  R13, {target}"));
        self.emit("JMPR R13");
    }

    /// Long branch to `target` when R1 is zero.
    fn branch_if_zero(&mut self, target: &str) {
        let take = self.fresh("take");
        let cont = self.fresh("cont");
        self.emit("SUB  R3, R1, R0"); // Z := (R1 == 0)
        self.emit(format!("JMPZD {take}"));
        self.emit(format!("JMPD {cont}"));
        self.label(&take);
        self.jump(target);
        self.label(&cont);
    }

    fn resolve(&self, name: &str, line: usize) -> Result<Place, CompileError> {
        if let Some(label) = self.locals.get(name) {
            return Ok(Place::Scalar(label.clone()));
        }
        if let Some(place) = self.globals.get(name) {
            return Ok(place.clone());
        }
        Err(CompileError {
            line,
            kind: ErrorKind::Undefined(name.to_string()),
        })
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Local { name, init, line } => {
                if self.locals.contains_key(name) {
                    return Err(CompileError {
                        line: *line,
                        kind: ErrorKind::Redefined(name.clone()),
                    });
                }
                let label = format!("Lv_{}_{}", self.current_fn, name);
                self.locals.insert(name.clone(), label.clone());
                self.data.push(format!("{label}: .word 0"));
                if let Some(init) = init {
                    self.expr(init, *line)?;
                } else {
                    self.emit("XOR  R1, R1, R1");
                }
                // Locals are re-initialized on every entry to the
                // declaration (static storage would otherwise leak the
                // previous call's value).
                self.store_slot(&label);
            }
            Stmt::Assign { name, value, line } => match self.resolve(name, *line)? {
                Place::Scalar(label) => {
                    self.expr(value, *line)?;
                    self.store_slot(&label);
                }
                Place::Array { .. } => {
                    return Err(CompileError {
                        line: *line,
                        kind: ErrorKind::NotAnArray(name.clone()),
                    })
                }
            },
            Stmt::AssignIndex {
                name,
                index,
                value,
                line,
            } => {
                let Place::Array { label } = self.resolve(name, *line)? else {
                    return Err(CompileError {
                        line: *line,
                        kind: ErrorKind::NotAnArray(name.clone()),
                    });
                };
                self.expr(value, *line)?;
                self.emit("PUSH R1");
                self.expr(index, *line)?;
                self.emit("POP  R2");
                self.emit(format!("LIW  R12, {label}"));
                self.emit("ST   R2, R12, R1");
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                // An else-if chain is generated in a loop; each arm's end
                // label follows everything its else branch holds.
                let (arms, tail) = Stmt::if_chain(cond, then_body, else_body);
                let mut ends = Vec::new();
                for (cond, then_body) in arms {
                    let l_else = self.fresh("else");
                    let l_end = self.fresh("endif");
                    self.expr(cond, 0)?;
                    self.branch_if_zero(&l_else);
                    self.block(then_body)?;
                    self.jump(&l_end);
                    self.label(&l_else);
                    ends.push(l_end);
                }
                self.block(tail)?;
                for l_end in ends.iter().rev() {
                    self.label(l_end);
                }
            }
            Stmt::While { cond, body } => {
                let l_head = self.fresh("while");
                let l_end = self.fresh("wend");
                self.label(&l_head);
                self.expr(cond, 0)?;
                self.branch_if_zero(&l_end);
                self.block(body)?;
                self.jump(&l_head);
                self.label(&l_end);
            }
            Stmt::Return(value) => {
                if let Some(value) = value {
                    self.expr(value, 0)?;
                } else {
                    self.emit("XOR  R1, R1, R1");
                }
                self.emit("RTS");
            }
            Stmt::Printf(value) => {
                self.expr(value, 0)?;
                self.emit("LIW  R12, 0xFFFF");
                self.emit("ST   R1, R12, R0");
            }
            Stmt::Poke { addr, value } => {
                self.expr(value, 0)?;
                self.emit("PUSH R1");
                self.expr(addr, 0)?;
                self.emit("POP  R2");
                // mem[R1 + R0] = R2
                self.emit("ST   R2, R1, R0");
            }
            Stmt::Expr(expr) => {
                self.expr(expr, 0)?;
            }
        }
        Ok(())
    }

    fn expr(&mut self, expr: &Expr, line: usize) -> Result<(), CompileError> {
        match expr {
            Expr::Number(value) => {
                self.emit(format!("LIW  R1, {value}"));
            }
            Expr::Var(name) => match self.resolve(name, line)? {
                Place::Scalar(label) => self.load_slot(&label),
                Place::Array { label } => {
                    // An array name evaluates to its base address, so
                    // programs can pass buffers to peek/poke helpers.
                    self.emit(format!("LIW  R1, {label}"));
                }
            },
            Expr::Index { name, index } => {
                let Place::Array { label } = self.resolve(name, line)? else {
                    return Err(CompileError {
                        line,
                        kind: ErrorKind::NotAnArray(name.clone()),
                    });
                };
                self.expr(index, line)?;
                self.emit(format!("LIW  R12, {label}"));
                self.emit("LD   R1, R12, R1");
            }
            Expr::Unary { op, expr } => {
                self.expr(expr, line)?;
                match op {
                    UnOp::Neg => self.emit("SUB  R1, R0, R1"),
                    UnOp::BitNot => self.emit("NOT  R1, R1"),
                    UnOp::Not => {
                        let l_one = self.fresh("one");
                        let l_end = self.fresh("end");
                        self.emit("SUB  R3, R1, R0");
                        self.emit(format!("JMPZD {l_one}"));
                        self.emit("XOR  R1, R1, R1");
                        self.emit(format!("JMPD {l_end}"));
                        self.label(&l_one);
                        self.emit("LIW  R1, 1");
                        self.label(&l_end);
                    }
                }
            }
            Expr::Binary { .. } => {
                // An operator chain is generated along its left spine in
                // a loop. A short-circuit operator takes its labels before
                // its left operand's code, outermost operator first.
                let (first, spine) = expr.left_spine();
                let mut labels: Vec<_> = (spine.iter().rev())
                    .map(|&(op, _)| {
                        matches!(op, BinOp::LogicAnd | BinOp::LogicOr)
                            .then(|| (self.fresh("short"), self.fresh("lend")))
                    })
                    .collect();
                self.expr(first, line)?;
                for (op, rhs) in spine {
                    let labels = labels.pop().expect("one entry per operator");
                    self.binary(op, rhs, labels, line)?;
                }
            }
            Expr::Call { name, args } => {
                let func = self
                    .funcs
                    .get(name.as_str())
                    .copied()
                    .ok_or_else(|| CompileError {
                        line,
                        kind: ErrorKind::Undefined(name.clone()),
                    })?;
                if func.params.len() != args.len() {
                    return Err(CompileError {
                        line,
                        kind: ErrorKind::Arity {
                            name: name.clone(),
                            expected: func.params.len(),
                            found: args.len(),
                        },
                    });
                }
                let param_labels: Vec<String> = func
                    .params
                    .iter()
                    .map(|p| format!("Lv_{}_{}", func.name, p))
                    .collect();
                // Evaluate every argument first (onto the stack), then
                // fill the parameter slots — nested calls stay correct.
                for arg in args {
                    self.expr(arg, line)?;
                    self.emit("PUSH R1");
                }
                for label in param_labels.iter().rev() {
                    self.emit("POP  R1");
                    self.store_slot(label);
                }
                self.emit(format!("LIW  R13, Lf_{name}"));
                self.emit("JSRR R13");
            }
            Expr::Scanf => {
                self.emit("LIW  R12, 0xFFFF");
                self.emit("LD   R1, R12, R0");
            }
            Expr::Peek(addr) => {
                self.expr(addr, line)?;
                self.emit("LD   R1, R1, R0");
            }
        }
        Ok(())
    }

    /// Result of `flag_select`: after a SUB sets the flags, pick 1 or 0.
    fn flag_select(&mut self, jump_mnemonic: &str, value_if_taken: u16) {
        let l_take = self.fresh("ft");
        let l_end = self.fresh("fe");
        self.emit(format!("{jump_mnemonic} {l_take}"));
        self.emit(format!("LIW  R1, {}", 1 - value_if_taken));
        self.emit(format!("JMPD {l_end}"));
        self.label(&l_take);
        self.emit(format!("LIW  R1, {value_if_taken}"));
        self.label(&l_end);
    }

    /// Applies `op` to the left operand, already in R1, and `rhs`, leaving
    /// the result in R1. A short-circuit operator comes with the labels
    /// it took before its left operand's code.
    fn binary(
        &mut self,
        op: BinOp,
        rhs: &Expr,
        labels: Option<(String, String)>,
        line: usize,
    ) -> Result<(), CompileError> {
        // Short-circuit forms first (they must not evaluate rhs eagerly).
        if let Some((l_short, l_end)) = labels {
            if op == BinOp::LogicAnd {
                // lhs == 0 → 0 without evaluating rhs.
                self.branch_if_zero(&l_short);
            } else {
                // lhs != 0 → 1 without evaluating rhs.
                let l_rhs = self.fresh("rhs");
                self.branch_if_zero(&l_rhs);
                self.jump(&l_short);
                self.label(&l_rhs);
            }
            self.expr(rhs, line)?;
            // Normalize rhs to 0/1.
            let l_one = self.fresh("one");
            let l_norm_end = self.fresh("nend");
            self.emit("SUB  R3, R1, R0");
            self.emit(format!("JMPZD {l_one}"));
            self.emit("LIW  R1, 1");
            self.emit(format!("JMPD {l_norm_end}"));
            self.label(&l_one);
            self.emit("XOR  R1, R1, R1");
            self.label(&l_norm_end);
            self.jump(&l_end);
            self.label(&l_short);
            if op == BinOp::LogicAnd {
                self.emit("XOR  R1, R1, R1");
            } else {
                self.emit("LIW  R1, 1");
            }
            self.label(&l_end);
            return Ok(());
        }

        // Strict operators: lhs in R1, rhs in R2. Simple right operands
        // (literals, scalar variables) load directly into R2, skipping
        // the PUSH/POP round trip.
        match rhs {
            Expr::Number(value) if self.fast_operands => {
                self.emit(format!("LIW  R2, {value}"));
            }
            Expr::Var(name)
                if self.fast_operands
                    && matches!(self.resolve(name, line), Ok(Place::Scalar(_))) =>
            {
                let Place::Scalar(label) = self.resolve(name, line)? else {
                    unreachable!("guarded by the match arm");
                };
                self.emit(format!("LIW  R12, {label}"));
                self.emit("LD   R2, R12, R0");
            }
            _ => {
                self.emit("PUSH R1");
                self.expr(rhs, line)?;
                self.emit("ADD  R2, R1, R0"); // R2 = rhs
                self.emit("POP  R1"); //          R1 = lhs
            }
        }
        match op {
            BinOp::Add => self.emit("ADD  R1, R1, R2"),
            BinOp::Sub => self.emit("SUB  R1, R1, R2"),
            BinOp::Mul => self.emit("MUL  R1, R1, R2"),
            BinOp::Div => self.emit("DIV  R1, R1, R2"),
            BinOp::Rem => {
                self.emit("DIV  R3, R1, R2");
                self.emit("MUL  R3, R3, R2");
                self.emit("SUB  R1, R1, R3");
            }
            BinOp::And => self.emit("AND  R1, R1, R2"),
            BinOp::Or => self.emit("OR   R1, R1, R2"),
            BinOp::Xor => self.emit("XOR  R1, R1, R2"),
            BinOp::Shl | BinOp::Shr => {
                let l_head = self.fresh("sh");
                let l_end = self.fresh("she");
                self.label(&l_head);
                self.emit("SUB  R3, R2, R0");
                self.emit(format!("JMPZD {l_end}"));
                if op == BinOp::Shl {
                    self.emit("SL0  R1, R1");
                } else {
                    self.emit("SR0  R1, R1");
                }
                self.emit("SUBI R2, 1");
                self.emit(format!("JMPD {l_head}"));
                self.label(&l_end);
            }
            BinOp::Eq => {
                self.emit("SUB  R3, R1, R2");
                self.flag_select("JMPZD", 1);
            }
            BinOp::Ne => {
                self.emit("SUB  R3, R1, R2");
                self.flag_select("JMPZD", 0);
            }
            BinOp::Lt => {
                // C = lhs >= rhs (no borrow); lhs < rhs = !C.
                self.emit("SUB  R3, R1, R2");
                self.flag_select("JMPCD", 0);
            }
            BinOp::Ge => {
                self.emit("SUB  R3, R1, R2");
                self.flag_select("JMPCD", 1);
            }
            BinOp::Gt => {
                // lhs > rhs  ==  !(rhs >= lhs).
                self.emit("SUB  R3, R2, R1");
                self.flag_select("JMPCD", 0);
            }
            BinOp::Le => {
                self.emit("SUB  R3, R2, R1");
                self.flag_select("JMPCD", 1);
            }
            BinOp::LogicAnd | BinOp::LogicOr => unreachable!("handled above"),
        }
        Ok(())
    }
}

/// Rejects direct or mutual recursion: static storage cannot support it.
fn check_recursion(program: &Program) -> Result<(), CompileError> {
    let mut calls: HashMap<&str, HashSet<String>> = HashMap::new();
    for f in &program.funcs {
        let mut out = HashSet::new();
        collect_calls_block(&f.body, &mut out);
        calls.insert(&f.name, out);
    }
    for f in &program.funcs {
        // DFS from every function looking for a cycle back to it.
        let mut stack: Vec<&str> = calls
            .get(f.name.as_str())
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default();
        let mut seen: HashSet<&str> = HashSet::new();
        while let Some(name) = stack.pop() {
            if name == f.name {
                return Err(CompileError {
                    line: f.line,
                    kind: ErrorKind::Recursion(f.name.clone()),
                });
            }
            if !seen.insert(name) {
                continue;
            }
            if let Some(next) = calls.get(name) {
                stack.extend(next.iter().map(String::as_str));
            }
        }
    }
    Ok(())
}

/// Adds the name of every function `stmts` call to `out`. Walks a work
/// list, so no nesting or chain length costs stack.
fn collect_calls_block(stmts: &[Stmt], out: &mut HashSet<String>) {
    let mut blocks = vec![stmts];
    let mut exprs: Vec<&Expr> = Vec::new();
    while let Some(stmts) = blocks.pop() {
        for stmt in stmts {
            match stmt {
                Stmt::Local { init, .. } => exprs.extend(init),
                Stmt::Assign { value, .. } => exprs.push(value),
                Stmt::AssignIndex { index, value, .. } => exprs.extend([index, value]),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    exprs.push(cond);
                    blocks.extend([then_body.as_slice(), else_body]);
                }
                Stmt::While { cond, body } => {
                    exprs.push(cond);
                    blocks.push(body);
                }
                Stmt::Return(Some(e)) | Stmt::Printf(e) | Stmt::Expr(e) => exprs.push(e),
                Stmt::Poke { addr, value } => exprs.extend([addr, value]),
                Stmt::Return(None) => {}
            }
        }
    }
    while let Some(expr) = exprs.pop() {
        match expr {
            Expr::Number(_) | Expr::Var(_) | Expr::Scanf => {}
            Expr::Index { index: e, .. } | Expr::Unary { expr: e, .. } | Expr::Peek(e) => {
                exprs.push(e);
            }
            Expr::Binary { lhs, rhs, .. } => exprs.extend([&**lhs, &**rhs]),
            Expr::Call { name, args } => {
                out.insert(name.clone());
                exprs.extend(args);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::error::ErrorKind;
    use r8::core::{Cpu, RamBus};

    fn run(source: &str) -> (Cpu, RamBus) {
        let program = crate::build(source).expect("compiles");
        let mut bus = RamBus::new(4096);
        bus.load(0, program.words());
        let mut cpu = Cpu::new();
        cpu.run(&mut bus, 10_000_000).expect("halts");
        (cpu, bus)
    }

    fn result_of(expr: &str) -> u16 {
        let (_, bus) = run(&format!("func main() {{ poke(0x700, {expr}); }}"));
        bus.peek(0x700)
    }

    #[test]
    fn arithmetic_expressions() {
        assert_eq!(result_of("1 + 2 * 3"), 7);
        assert_eq!(result_of("(1 + 2) * 3"), 9);
        assert_eq!(result_of("100 - 58"), 42);
        assert_eq!(result_of("100 / 7"), 14);
        assert_eq!(result_of("100 % 7"), 2);
        assert_eq!(result_of("0 - 1"), 0xFFFF);
        assert_eq!(result_of("-1"), 0xFFFF);
    }

    #[test]
    fn bitwise_and_shifts() {
        assert_eq!(result_of("0xF0F0 & 0xFF00"), 0xF000);
        assert_eq!(result_of("0x0F0F | 0x00F0"), 0x0FFF);
        assert_eq!(result_of("0xFFFF ^ 0x00FF"), 0xFF00);
        assert_eq!(result_of("~0"), 0xFFFF);
        assert_eq!(result_of("1 << 4"), 16);
        assert_eq!(result_of("0x8000 >> 15"), 1);
        assert_eq!(result_of("3 << 0"), 3);
        assert_eq!(result_of("0xFFFF >> 16"), 0);
    }

    #[test]
    fn comparisons_are_unsigned() {
        assert_eq!(result_of("3 < 5"), 1);
        assert_eq!(result_of("5 < 3"), 0);
        assert_eq!(result_of("5 <= 5"), 1);
        assert_eq!(result_of("5 > 5"), 0);
        assert_eq!(result_of("6 >= 5"), 1);
        assert_eq!(result_of("5 == 5"), 1);
        assert_eq!(result_of("5 != 5"), 0);
        // 0xFFFF is large unsigned, not -1.
        assert_eq!(result_of("0xFFFF > 1"), 1);
    }

    #[test]
    fn logical_operators_short_circuit() {
        assert_eq!(result_of("1 && 2"), 1);
        assert_eq!(result_of("0 && 1"), 0);
        assert_eq!(result_of("0 || 3"), 1);
        assert_eq!(result_of("0 || 0"), 0);
        assert_eq!(result_of("!0"), 1);
        assert_eq!(result_of("!7"), 0);
        // Short circuit: the rhs poke must not run.
        let (_, bus) = run("var x = 0;
             func side() { x = 99; return 1; }
             func main() {
                 var r = 0 && side();
                 poke(0x700, x);
             }");
        assert_eq!(bus.peek(0x700), 0);
    }

    #[test]
    fn globals_locals_and_loops() {
        let (_, bus) = run("var total = 0;
             func main() {
                 var i = 1;
                 while (i <= 10) {
                     total = total + i;
                     i = i + 1;
                 }
                 poke(0x700, total);
             }");
        assert_eq!(bus.peek(0x700), 55);
    }

    #[test]
    fn if_else_chains() {
        let (_, bus) = run("func classify(x) {
                 if (x < 10) { return 1; }
                 else if (x < 100) { return 2; }
                 else { return 3; }
             }
             func main() {
                 poke(0x700, classify(5));
                 poke(0x701, classify(50));
                 poke(0x702, classify(500));
             }");
        assert_eq!(bus.peek(0x700), 1);
        assert_eq!(bus.peek(0x701), 2);
        assert_eq!(bus.peek(0x702), 3);
    }

    #[test]
    fn functions_and_nested_calls() {
        let (_, bus) = run("func add(a, b) { return a + b; }
             func twice(x) { return add(x, x); }
             func main() {
                 poke(0x700, add(twice(10), add(1, 2)));
             }");
        assert_eq!(bus.peek(0x700), 23);
    }

    #[test]
    fn call_of_same_function_inside_its_own_arguments() {
        // f(f(2)) is not recursion: the inner call completes first.
        let (_, bus) = run("func double(x) { return x * 2; }
             func main() { poke(0x700, double(double(2))); }");
        assert_eq!(bus.peek(0x700), 8);
    }

    #[test]
    fn arrays() {
        let (_, bus) = run("var squares[10];
             func main() {
                 var i = 0;
                 while (i < 10) {
                     squares[i] = i * i;
                     i = i + 1;
                 }
                 poke(0x700, squares[7]);
                 poke(0x701, squares[0]);
             }");
        assert_eq!(bus.peek(0x700), 49);
        assert_eq!(bus.peek(0x701), 0);
    }

    #[test]
    fn array_name_is_its_address() {
        let (_, bus) = run("var buf[4];
             func main() {
                 buf[2] = 77;
                 poke(0x700, peek(buf + 2));
             }");
        assert_eq!(bus.peek(0x700), 77);
    }

    #[test]
    fn locals_reinitialize_per_entry() {
        // Static storage, but `var x = 0` re-zeroes on each call.
        let (_, bus) = run("func count() { var x = 0; x = x + 1; return x; }
             func main() {
                 count();
                 poke(0x700, count());
             }");
        assert_eq!(bus.peek(0x700), 1);
    }

    #[test]
    fn peek_poke_round_trip() {
        let (_, bus) = run("func main() {
                 poke(0x340, 0xBEEF);
                 poke(0x700, peek(0x340));
             }");
        assert_eq!(bus.peek(0x340), 0xBEEF);
        assert_eq!(bus.peek(0x700), 0xBEEF);
    }

    #[test]
    fn error_no_main() {
        let e = crate::compile("func helper() { }").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::NoMain));
    }

    #[test]
    fn error_undefined_and_redefined() {
        let e = crate::compile("func main() { x = 3; }").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Undefined(_)));
        let e = crate::compile("func main() { missing(); }").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Undefined(_)));
        let e = crate::compile("var a = 1; var a = 2; func main() { }").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Redefined(_)));
        let e = crate::compile("func main() { var a = 1; var a = 2; }").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Redefined(_)));
    }

    #[test]
    fn error_arity() {
        let e = crate::compile("func f(a, b) { return a; } func main() { f(1); }").unwrap_err();
        assert!(matches!(
            e.kind,
            ErrorKind::Arity {
                expected: 2,
                found: 1,
                ..
            }
        ));
    }

    #[test]
    fn error_recursion_direct_and_mutual() {
        let e = crate::compile("func f(x) { return f(x); } func main() { f(1); }").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Recursion(_)));
        let e = crate::compile(
            "func a() { return b(); }
             func b() { return a(); }
             func main() { a(); }",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ErrorKind::Recursion(_)));
    }

    #[test]
    fn error_not_an_array() {
        let e = crate::compile("var s = 1; func main() { s[0] = 1; }").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::NotAnArray(_)));
        let e = crate::compile("var a[4]; func main() { a = 1; }").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::NotAnArray(_)));
    }

    #[test]
    fn programs_larger_than_1k_words_do_not_collide_with_the_stack() {
        // Regression: the stack used to be hardcoded at 0x3FE, so any
        // image larger than 1K words put executable code under the
        // stack and crashed (found by tests/stmt_properties.rs).
        let mut body = String::new();
        for i in 0..300 {
            body.push_str(&format!("x = x + {i};\ny = y ^ x;\n"));
        }
        let src = format!(
            "var x = 1;
             var y = 0;
             func main() {{
                 {body}
                 poke(0x2000, x);
                 poke(0x2001, y);
             }}"
        );
        let program = crate::build(&src).unwrap();
        assert!(
            program.len() > 1024,
            "regression needs a >1K image, got {}",
            program.len()
        );
        let mut bus = RamBus::new(16384);
        bus.load(0, program.words());
        let mut cpu = Cpu::new();
        cpu.run(&mut bus, 10_000_000).unwrap();
        // Host-side reference.
        let (mut x, mut y) = (1u16, 0u16);
        for i in 0..300u16 {
            x = x.wrapping_add(i);
            y ^= x;
        }
        assert_eq!(bus.peek(0x2000), x);
        assert_eq!(bus.peek(0x2001), y);
    }

    #[test]
    fn long_chains_compute_what_short_ones_do() {
        // 1,000 additions, 200 `&&`s, 200 `||`s and 300 `else if`s.
        let sum = " + x".repeat(999);
        let all = " && x".repeat(200);
        let any = " || x".repeat(200);
        let pick: String = (0..300)
            .map(|k| format!("if (v == {k}) {{ return {}; }} else ", 1000 + k))
            .collect();
        let src = format!(
            "var x = 3;
             var zero = 0;
             func pick(v) {{ {pick}{{ return 7; }} }}
             func main() {{
                 poke(0xF000, x{sum});
                 poke(0xF001, x{all});
                 poke(0xF002, zero{any});
                 poke(0xF003, pick(0));
                 poke(0xF004, pick(299));
                 poke(0xF005, pick(300));
             }}"
        );
        let program = crate::build(&src).unwrap();
        let mut bus = RamBus::new(0x10000);
        bus.load(0, program.words());
        let mut cpu = Cpu::new();
        cpu.run(&mut bus, 10_000_000).unwrap();
        let got: Vec<u16> = (0xF000..0xF006).map(|a| bus.peek(a)).collect();
        assert_eq!(got, [3000, 1, 1, 1000, 1299, 7]);
    }

    #[test]
    fn big_function_bodies_use_long_branches() {
        // A while body long enough to overflow an 8-bit displacement if
        // short jumps were used for control flow.
        let mut body = String::new();
        for i in 0..80 {
            body.push_str(&format!("total = total + {i};\n"));
        }
        let src = format!(
            "var total = 0;
             func main() {{
                 var i = 0;
                 while (i < 2) {{
                     {body}
                     i = i + 1;
                 }}
                 poke(0x700, total);
             }}"
        );
        let (_, bus) = run(&src);
        let expected: u16 = (0..80).sum::<u16>() * 2;
        assert_eq!(bus.peek(0x700), expected);
    }
}
