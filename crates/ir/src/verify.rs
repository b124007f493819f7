//! SSA well-formedness and type verification.

use crate::cfg::Cfg;
use crate::constant::Const;
use crate::dom::DomTree;
use crate::function::{BlockId, DefSite, Function, RegId};
use crate::inst::{CastOp, Inst, Term};
use crate::module::Module;
use crate::types::Type;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A function has no blocks.
    EmptyFunction {
        /// Function name.
        func: String,
    },
    /// The entry block has predecessors.
    EntryHasPredecessors {
        /// Function name.
        func: String,
    },
    /// A register has more than one definition.
    MultipleDefinitions {
        /// Function name.
        func: String,
        /// The register.
        reg: String,
    },
    /// A used register has no definition.
    UndefinedRegister {
        /// Function name.
        func: String,
        /// The register.
        reg: String,
    },
    /// A use is not dominated by its definition.
    UseNotDominated {
        /// Function name.
        func: String,
        /// The register.
        reg: String,
        /// The block containing the offending use.
        in_block: String,
    },
    /// Phi incoming blocks do not match the block's predecessors.
    PhiIncomingMismatch {
        /// Function name.
        func: String,
        /// The block containing the phi.
        block: String,
    },
    /// A phi has an unfilled incoming slot.
    IncompletePhi {
        /// Function name.
        func: String,
        /// The block containing the phi.
        block: String,
    },
    /// A type error.
    TypeMismatch {
        /// Function name.
        func: String,
        /// Description of the mismatch.
        detail: String,
    },
    /// A call references an unknown function or with a wrong signature.
    BadCall {
        /// Function name.
        func: String,
        /// Callee name.
        callee: String,
        /// Description.
        detail: String,
    },
    /// A constant references an unknown global.
    UnknownGlobal {
        /// Function name.
        func: String,
        /// Global name.
        global: String,
    },
    /// Two globals, declarations or definitions share a name.
    Redefinition {
        /// The name defined twice.
        name: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyFunction { func } => write!(f, "function @{func} has no blocks"),
            VerifyError::EntryHasPredecessors { func } => {
                write!(f, "entry block of @{func} has predecessors")
            }
            VerifyError::MultipleDefinitions { func, reg } => {
                write!(f, "register %{reg} defined more than once in @{func}")
            }
            VerifyError::UndefinedRegister { func, reg } => {
                write!(f, "register %{reg} used but never defined in @{func}")
            }
            VerifyError::UseNotDominated {
                func,
                reg,
                in_block,
            } => {
                write!(f, "use of %{reg} in block {in_block} of @{func} is not dominated by its definition")
            }
            VerifyError::PhiIncomingMismatch { func, block } => {
                write!(
                    f,
                    "phi incoming edges of block {block} in @{func} do not match its predecessors"
                )
            }
            VerifyError::IncompletePhi { func, block } => {
                write!(
                    f,
                    "phi with an unfilled incoming slot in block {block} of @{func}"
                )
            }
            VerifyError::TypeMismatch { func, detail } => {
                write!(f, "type error in @{func}: {detail}")
            }
            VerifyError::BadCall {
                func,
                callee,
                detail,
            } => {
                write!(f, "bad call to @{callee} in @{func}: {detail}")
            }
            VerifyError::UnknownGlobal { func, global } => {
                write!(f, "unknown global @{global} referenced in @{func}")
            }
            VerifyError::Redefinition { name } => write!(f, "redefinition of @{name}"),
        }
    }
}

impl std::error::Error for VerifyError {}

struct Verifier<'a> {
    module: &'a Module,
    func: &'a Function,
    cfg: Cfg,
    dom: DomTree,
    def_block: HashMap<RegId, DefSite>,
}

impl<'a> Verifier<'a> {
    fn type_err(&self, detail: impl Into<String>) -> VerifyError {
        VerifyError::TypeMismatch {
            func: self.func.name.clone(),
            detail: detail.into(),
        }
    }

    fn check_defs_unique(&mut self) -> Result<(), VerifyError> {
        let mut seen: HashMap<RegId, DefSite> = HashMap::new();
        let mut insert = |r: RegId, site: DefSite, func: &Function| -> Result<(), VerifyError> {
            if seen.insert(r, site).is_some() {
                return Err(VerifyError::MultipleDefinitions {
                    func: func.name.clone(),
                    reg: func.reg_name(r).to_string(),
                });
            }
            Ok(())
        };
        for (i, (_, p)) in self.func.params.iter().enumerate() {
            insert(*p, DefSite::Param(i), self.func)?;
        }
        for bid in self.func.block_ids() {
            let b = self.func.block(bid);
            for (i, (r, _)) in b.phis.iter().enumerate() {
                insert(*r, DefSite::Phi(bid, i), self.func)?;
            }
            for (i, s) in b.stmts.iter().enumerate() {
                if let Some(r) = s.result {
                    insert(r, DefSite::Stmt(bid, i), self.func)?;
                }
            }
        }
        self.def_block = seen;
        Ok(())
    }

    /// Does the definition of `r` dominate the *use point* `(block, stmt
    /// index)` (index = usize::MAX means the terminator)?
    fn def_dominates_use(&self, r: RegId, use_block: BlockId, use_idx: usize) -> bool {
        match self.def_block.get(&r) {
            None => false,
            Some(DefSite::Param(_)) => true,
            Some(DefSite::Phi(db, _)) => {
                if *db == use_block {
                    true // phis precede all statements of their block
                } else {
                    self.dom.strictly_dominates(*db, use_block)
                }
            }
            Some(DefSite::Stmt(db, di)) => {
                if *db == use_block {
                    *di < use_idx
                } else {
                    self.dom.strictly_dominates(*db, use_block)
                }
            }
        }
    }

    fn check_const(&self, c: &Const) -> Result<(), VerifyError> {
        match c {
            Const::Global(g) if self.module.global(g).is_none() => {
                return Err(VerifyError::UnknownGlobal {
                    func: self.func.name.clone(),
                    global: g.clone(),
                });
            }
            Const::Expr(e) => match &**e {
                crate::constant::ConstExpr::PtrToInt(inner, _) => self.check_const(inner)?,
                crate::constant::ConstExpr::Bin(_, _, a, b) => {
                    self.check_const(a)?;
                    self.check_const(b)?;
                }
            },
            _ => {}
        }
        Ok(())
    }

    fn check_operand(&self, v: &Value, expected: Type) -> Result<(), VerifyError> {
        match v {
            Value::Reg(r) => {
                let ty = self
                    .func
                    .reg_ty(*r)
                    .ok_or_else(|| VerifyError::UndefinedRegister {
                        func: self.func.name.clone(),
                        reg: self.func.reg_name(*r).to_string(),
                    })?;
                if ty != expected {
                    return Err(self.type_err(format!(
                        "register %{} has type {ty}, expected {expected}",
                        self.func.reg_name(*r)
                    )));
                }
            }
            Value::Const(c) => {
                self.check_const(c)?;
                if c.ty() != expected {
                    return Err(self.type_err(format!(
                        "constant {c} has type {}, expected {expected}",
                        c.ty()
                    )));
                }
            }
        }
        Ok(())
    }

    fn check_inst_types(&self, inst: &Inst) -> Result<(), VerifyError> {
        match inst {
            Inst::Bin { ty, lhs, rhs, .. } => {
                if !ty.is_int() {
                    return Err(self.type_err(format!("binary op on non-integer type {ty}")));
                }
                self.check_operand(lhs, *ty)?;
                self.check_operand(rhs, *ty)
            }
            Inst::Icmp { ty, lhs, rhs, .. } => {
                if !ty.is_int() {
                    return Err(self.type_err(format!("icmp on non-integer type {ty}")));
                }
                self.check_operand(lhs, *ty)?;
                self.check_operand(rhs, *ty)
            }
            Inst::Select {
                ty,
                cond,
                on_true,
                on_false,
            } => {
                self.check_operand(cond, Type::I1)?;
                self.check_operand(on_true, *ty)?;
                self.check_operand(on_false, *ty)
            }
            Inst::Cast { op, from, val, to } => {
                self.check_operand(val, *from)?;
                let ok = match op {
                    CastOp::Trunc => from.is_int() && to.is_int() && from.bits() > to.bits(),
                    CastOp::Zext | CastOp::Sext => {
                        from.is_int() && to.is_int() && from.bits() < to.bits()
                    }
                    CastOp::PtrToInt => *from == Type::Ptr && to.is_int(),
                    CastOp::IntToPtr => from.is_int() && *to == Type::Ptr,
                    CastOp::Bitcast => from == to && from.is_value(),
                };
                if !ok {
                    return Err(self.type_err(format!("invalid cast {op} {from} -> {to}")));
                }
                Ok(())
            }
            Inst::Alloca { ty, count } => {
                if !ty.is_value() || *count == 0 {
                    return Err(self.type_err("alloca of void or zero slots".to_string()));
                }
                Ok(())
            }
            Inst::Load { ty, ptr } => {
                if !ty.is_value() {
                    return Err(self.type_err("load of void".to_string()));
                }
                self.check_operand(ptr, Type::Ptr)
            }
            Inst::Store { ty, val, ptr } => {
                self.check_operand(val, *ty)?;
                self.check_operand(ptr, Type::Ptr)
            }
            Inst::Gep { ptr, offset, .. } => {
                self.check_operand(ptr, Type::Ptr)?;
                self.check_operand(offset, Type::I64)
            }
            Inst::Call { ret, callee, args } => {
                for (t, v) in args {
                    self.check_operand(v, *t)?;
                }
                let sig: Option<(Option<Type>, Vec<Type>)> =
                    if let Some(d) = self.module.declare(callee) {
                        Some((d.ret, d.params.clone()))
                    } else {
                        self.module
                            .function(callee)
                            .map(|f| (f.ret, f.params.iter().map(|(t, _)| *t).collect()))
                    };
                let (sig_ret, sig_params) = sig.ok_or_else(|| VerifyError::BadCall {
                    func: self.func.name.clone(),
                    callee: callee.clone(),
                    detail: "callee is neither declared nor defined".into(),
                })?;
                if sig_ret != *ret {
                    return Err(VerifyError::BadCall {
                        func: self.func.name.clone(),
                        callee: callee.clone(),
                        detail: format!(
                            "return type mismatch: call says {ret:?}, signature says {sig_ret:?}"
                        ),
                    });
                }
                let arg_tys: Vec<Type> = args.iter().map(|(t, _)| *t).collect();
                if arg_tys != sig_params {
                    return Err(VerifyError::BadCall {
                        func: self.func.name.clone(),
                        callee: callee.clone(),
                        detail: format!(
                            "argument types {arg_tys:?} do not match parameters {sig_params:?}"
                        ),
                    });
                }
                Ok(())
            }
            Inst::Unsupported { .. } => Ok(()),
        }
    }

    fn run(&mut self) -> Result<(), VerifyError> {
        let func_name = self.func.name.clone();
        if self.func.blocks.is_empty() {
            return Err(VerifyError::EmptyFunction { func: func_name });
        }
        if !self.cfg.preds(self.func.entry()).is_empty() {
            return Err(VerifyError::EntryHasPredecessors { func: func_name });
        }
        self.check_defs_unique()?;

        for bid in self.func.block_ids() {
            let b = self.func.block(bid);
            let reachable = self.cfg.is_reachable(bid);

            // Phi structure.
            let mut preds: Vec<BlockId> = self.cfg.preds(bid).to_vec();
            preds.sort();
            for (_, phi) in &b.phis {
                let mut inc: Vec<BlockId> = phi.incoming.iter().map(|(p, _)| *p).collect();
                inc.sort();
                if reachable && inc != preds {
                    return Err(VerifyError::PhiIncomingMismatch {
                        func: func_name.clone(),
                        block: b.name.clone(),
                    });
                }
                if !phi.is_complete() {
                    return Err(VerifyError::IncompletePhi {
                        func: func_name.clone(),
                        block: b.name.clone(),
                    });
                }
                for (p, v) in &phi.incoming {
                    if let Some(v) = v {
                        self.check_operand(v, phi.ty)?;
                        // The value must dominate the *end* of the incoming block.
                        if reachable {
                            if let Some(r) = v.as_reg() {
                                if !self.def_dominates_use(r, *p, usize::MAX) {
                                    return Err(VerifyError::UseNotDominated {
                                        func: func_name.clone(),
                                        reg: self.func.reg_name(r).to_string(),
                                        in_block: self.func.block(*p).name.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }

            for (i, s) in b.stmts.iter().enumerate() {
                self.check_inst_types(&s.inst)?;
                if reachable {
                    for r in s.inst.used_regs() {
                        if !self.def_dominates_use(r, bid, i) {
                            return Err(VerifyError::UseNotDominated {
                                func: func_name.clone(),
                                reg: self.func.reg_name(r).to_string(),
                                in_block: b.name.clone(),
                            });
                        }
                    }
                }
            }

            // Terminator.
            match &b.term {
                Term::Ret(None) => {
                    if self.func.ret.is_some() {
                        return Err(self.type_err("ret void in a non-void function".to_string()));
                    }
                }
                Term::Ret(Some((ty, v))) => {
                    if self.func.ret != Some(*ty) {
                        return Err(self.type_err(format!(
                            "returning {ty} from a function of return type {:?}",
                            self.func.ret
                        )));
                    }
                    self.check_operand(v, *ty)?;
                }
                Term::CondBr { cond, .. } => self.check_operand(cond, Type::I1)?,
                Term::Switch { ty, val, .. } => {
                    if !ty.is_int() {
                        return Err(self.type_err("switch on non-integer".to_string()));
                    }
                    self.check_operand(val, *ty)?;
                }
                Term::Br(_) | Term::Unreachable => {}
            }
            for t in b.term.successors() {
                if t.index() >= self.func.blocks.len() {
                    return Err(self.type_err(format!("branch to out-of-range block {t}")));
                }
            }
            if reachable {
                let check_term_use = |v: &Value| -> Result<(), VerifyError> {
                    if let Some(r) = v.as_reg() {
                        if !self.def_dominates_use(r, bid, usize::MAX) {
                            return Err(VerifyError::UseNotDominated {
                                func: func_name.clone(),
                                reg: self.func.reg_name(r).to_string(),
                                in_block: b.name.clone(),
                            });
                        }
                    }
                    Ok(())
                };
                let mut result = Ok(());
                b.term.for_each_value(|v| {
                    if result.is_ok() {
                        result = check_term_use(v);
                    }
                });
                result?;
            }
        }
        Ok(())
    }
}

/// Verify a single function against its module.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found: multiple definitions, uses not
/// dominated by definitions, malformed phi-nodes, type errors, bad calls,
/// or unknown globals.
pub fn verify_function(module: &Module, func: &Function) -> Result<(), VerifyError> {
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);
    Verifier {
        module,
        func,
        cfg,
        dom,
        def_block: HashMap::new(),
    }
    .run()
}

/// Verify a module: no name is given to two of its globals, declarations
/// and definitions (they share one namespace, as in LLVM), and every
/// function verifies.
///
/// # Errors
///
/// [`VerifyError::Redefinition`] for the first name seen twice, else see
/// [`verify_function`].
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    let mut names = HashSet::new();
    let globals = module.globals.iter().map(|g| &g.name);
    let declares = module.declares.iter().map(|d| &d.name);
    let functions = module.functions.iter().map(|f| &f.name);
    if let Some(name) = globals
        .chain(declares)
        .chain(functions)
        .find(|n| !names.insert(*n))
    {
        return Err(VerifyError::Redefinition { name: name.clone() });
    }
    for f in &module.functions {
        verify_function(module, f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn check(src: &str) -> Result<(), VerifyError> {
        let m = parse_module(src).expect("parse");
        verify_module(&m)
    }

    #[test]
    fn accepts_well_formed() {
        check(
            r#"
            define @f(i32 %n) -> i32 {
            entry:
              %x = add i32 %n, 1
              ret i32 %x
            }
            "#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let err = check(
            r#"
            define @f() -> i32 {
            entry:
              %y = add i32 %x, 1
              %x = add i32 1, 1
              ret i32 %y
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::UseNotDominated { .. }));
    }

    #[test]
    fn rejects_use_across_non_dominating_blocks() {
        let err = check(
            r#"
            define @f(i1 %c) -> i32 {
            entry:
              br i1 %c, label a, label b
            a:
              %x = add i32 1, 1
              br label b
            b:
              ret i32 %x
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::UseNotDominated { .. }));
    }

    #[test]
    fn accepts_phi_merging_paths() {
        check(
            r#"
            define @f(i1 %c) -> i32 {
            entry:
              br i1 %c, label a, label b
            a:
              %x = add i32 1, 1
              br label j
            b:
              br label j
            j:
              %p = phi i32 [ %x, a ], [ 0, b ]
              ret i32 %p
            }
            "#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_phi_missing_pred() {
        let err = check(
            r#"
            define @f(i1 %c) -> i32 {
            entry:
              br i1 %c, label a, label j
            a:
              br label j
            j:
              %p = phi i32 [ 1, a ]
              ret i32 %p
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::PhiIncomingMismatch { .. }));
    }

    #[test]
    fn rejects_type_mismatch() {
        let err = check(
            r#"
            define @f() -> i32 {
            entry:
              %x = add i32 1, 1
              %y = add i64 %x, 1
              ret i32 %x
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::TypeMismatch { .. }));
    }

    #[test]
    fn rejects_unknown_callee_and_bad_signature() {
        let err = check(
            r#"
            define @f() {
            entry:
              call void @nothere()
              ret void
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::BadCall { .. }));

        let err = check(
            r#"
            declare @p(i32)
            define @f() {
            entry:
              call void @p(i64 1)
              ret void
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::BadCall { .. }));
    }

    #[test]
    fn rejects_unknown_global() {
        let err = check(
            r#"
            define @f() {
            entry:
              store i32 1, ptr @G
              ret void
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::UnknownGlobal { .. }));
    }

    #[test]
    fn rejects_redefinitions() {
        for src in [
            "define @f() {\nentry:\n  ret void\n}\ndefine @f() {\nentry:\n  ret void\n}\n",
            "global @G : i32\nglobal @G : i64\n",
            "declare @f()\ndefine @f() {\nentry:\n  ret void\n}\n",
        ] {
            let err = check(src).unwrap_err();
            assert!(matches!(err, VerifyError::Redefinition { .. }), "{src:?}");
            assert!(err.to_string().starts_with("redefinition of @"), "{err}");
        }
    }

    #[test]
    fn rejects_double_definition() {
        let err = check(
            r#"
            define @f() -> i32 {
            entry:
              %x = add i32 1, 1
              %x = add i32 2, 2
              ret i32 %x
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::MultipleDefinitions { .. }));
    }

    #[test]
    fn rejects_branch_to_entry() {
        let err = check(
            r#"
            define @f() {
            entry:
              br label entry
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::EntryHasPredecessors { .. }));
    }

    #[test]
    fn accepts_loop_carried_phi() {
        check(
            r#"
            declare @print(i32)
            define @f(i32 %n) {
            entry:
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %i2, loop ]
              %i2 = add i32 %i, 1
              call void @print(i32 %i)
              %c = icmp slt i32 %i2, %n
              br i1 %c, label loop, label exit
            exit:
              ret void
            }
            "#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_invalid_cast() {
        let err = check(
            r#"
            define @f(i32 %x) -> i32 {
            entry:
              %y = zext i32 %x to i32
              ret i32 %y
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::TypeMismatch { .. }));
    }
}
