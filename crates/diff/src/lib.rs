//! # crellvm-diff
//!
//! Alpha-equivalence checking of IR modules — the `llvm-diff` analogue.
//!
//! The Crellvm framework runs the *original* optimizer and the
//! *proof-generating* optimizer separately, then confirms with `llvm-diff`
//! that the two produced the same program up to register naming (paper
//! §1.1: the proof-generating compiler gives explicit names to unnamed
//! registers, so plain syntactic equality would be too strict).
//!
//! [`diff_modules`] builds a register bijection incrementally while
//! walking both modules in lockstep and reports the first structural
//! difference.
//!
//! # Example
//!
//! ```
//! use crellvm_ir::parse_module;
//! use crellvm_diff::diff_modules;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = parse_module("define @f(i32 %x) -> i32 {\nentry:\n  %y = add i32 %x, 1\n  ret i32 %y\n}\n")?;
//! let b = parse_module("define @f(i32 %in) -> i32 {\nentry:\n  %out = add i32 %in, 1\n  ret i32 %out\n}\n")?;
//! assert!(diff_modules(&a, &b).is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use crellvm_ir::{Function, Inst, Module, RegId, Term, Value};
use std::collections::HashMap;
use std::fmt;

/// A structural difference between two modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffError {
    /// Where the difference was found.
    pub at: String,
    /// What differs.
    pub detail: String,
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "modules differ at {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for DiffError {}

fn err(at: impl Into<String>, detail: impl Into<String>) -> DiffError {
    DiffError {
        at: at.into(),
        detail: detail.into(),
    }
}

/// The register bijection built during the walk.
#[derive(Default)]
struct RegMap {
    fwd: HashMap<RegId, RegId>,
    bwd: HashMap<RegId, RegId>,
}

impl RegMap {
    fn bind(&mut self, a: RegId, b: RegId, at: &str) -> Result<(), DiffError> {
        match (self.fwd.get(&a), self.bwd.get(&b)) {
            (None, None) => {
                self.fwd.insert(a, b);
                self.bwd.insert(b, a);
                Ok(())
            }
            (Some(&b2), _) if b2 == b => Ok(()),
            _ => Err(err(at, format!("register binding conflict: {a} vs {b}"))),
        }
    }

    fn check(&mut self, a: &Value, b: &Value, at: &str) -> Result<(), DiffError> {
        match (a, b) {
            (Value::Reg(ra), Value::Reg(rb)) => {
                // Uses must already be bound (defs dominate uses), but a
                // first encounter also binds (e.g. parameter-order quirks).
                self.bind(*ra, *rb, at)
            }
            (Value::Const(ca), Value::Const(cb)) if ca == cb => Ok(()),
            _ => Err(err(at, format!("operands differ: {a:?} vs {b:?}"))),
        }
    }
}

fn diff_inst(m: &mut RegMap, a: &Inst, b: &Inst, at: &str) -> Result<(), DiffError> {
    use Inst::*;
    match (a, b) {
        (
            Bin {
                op: o1,
                ty: t1,
                lhs: l1,
                rhs: r1,
            },
            Bin {
                op: o2,
                ty: t2,
                lhs: l2,
                rhs: r2,
            },
        ) => {
            if o1 != o2 || t1 != t2 {
                return Err(err(at, "binary operator or type differs"));
            }
            m.check(l1, l2, at)?;
            m.check(r1, r2, at)
        }
        (
            Icmp {
                pred: p1,
                ty: t1,
                lhs: l1,
                rhs: r1,
            },
            Icmp {
                pred: p2,
                ty: t2,
                lhs: l2,
                rhs: r2,
            },
        ) => {
            if p1 != p2 || t1 != t2 {
                return Err(err(at, "icmp predicate or type differs"));
            }
            m.check(l1, l2, at)?;
            m.check(r1, r2, at)
        }
        (
            Select {
                ty: t1,
                cond: c1,
                on_true: x1,
                on_false: y1,
            },
            Select {
                ty: t2,
                cond: c2,
                on_true: x2,
                on_false: y2,
            },
        ) => {
            if t1 != t2 {
                return Err(err(at, "select type differs"));
            }
            m.check(c1, c2, at)?;
            m.check(x1, x2, at)?;
            m.check(y1, y2, at)
        }
        (
            Cast {
                op: o1,
                from: f1,
                val: v1,
                to: to1,
            },
            Cast {
                op: o2,
                from: f2,
                val: v2,
                to: to2,
            },
        ) => {
            if o1 != o2 || f1 != f2 || to1 != to2 {
                return Err(err(at, "cast differs"));
            }
            m.check(v1, v2, at)
        }
        (Alloca { ty: t1, count: c1 }, Alloca { ty: t2, count: c2 }) => {
            if t1 != t2 || c1 != c2 {
                return Err(err(at, "alloca differs"));
            }
            Ok(())
        }
        (Load { ty: t1, ptr: p1 }, Load { ty: t2, ptr: p2 }) => {
            if t1 != t2 {
                return Err(err(at, "load type differs"));
            }
            m.check(p1, p2, at)
        }
        (
            Store {
                ty: t1,
                val: v1,
                ptr: p1,
            },
            Store {
                ty: t2,
                val: v2,
                ptr: p2,
            },
        ) => {
            if t1 != t2 {
                return Err(err(at, "store type differs"));
            }
            m.check(v1, v2, at)?;
            m.check(p1, p2, at)
        }
        (
            Gep {
                inbounds: i1,
                ptr: p1,
                offset: o1,
            },
            Gep {
                inbounds: i2,
                ptr: p2,
                offset: o2,
            },
        ) => {
            if i1 != i2 {
                return Err(err(at, "gep inbounds flag differs"));
            }
            m.check(p1, p2, at)?;
            m.check(o1, o2, at)
        }
        (
            Call {
                ret: r1,
                callee: c1,
                args: a1,
            },
            Call {
                ret: r2,
                callee: c2,
                args: a2,
            },
        ) => {
            if r1 != r2 || c1 != c2 || a1.len() != a2.len() {
                return Err(err(at, "call signature differs"));
            }
            for ((t1, v1), (t2, v2)) in a1.iter().zip(a2) {
                if t1 != t2 {
                    return Err(err(at, "call argument type differs"));
                }
                m.check(v1, v2, at)?;
            }
            Ok(())
        }
        (Unsupported { feature: f1 }, Unsupported { feature: f2 }) => {
            if f1 == f2 {
                Ok(())
            } else {
                Err(err(at, "unsupported features differ"))
            }
        }
        _ => Err(err(at, "instruction kinds differ")),
    }
}

fn diff_term(m: &mut RegMap, a: &Term, b: &Term, at: &str) -> Result<(), DiffError> {
    match (a, b) {
        (Term::Ret(None), Term::Ret(None)) => Ok(()),
        (Term::Ret(Some((t1, v1))), Term::Ret(Some((t2, v2)))) => {
            if t1 != t2 {
                return Err(err(at, "return type differs"));
            }
            m.check(v1, v2, at)
        }
        (Term::Br(x), Term::Br(y)) => {
            if x == y {
                Ok(())
            } else {
                Err(err(at, "branch target differs"))
            }
        }
        (
            Term::CondBr {
                cond: c1,
                if_true: t1,
                if_false: f1,
            },
            Term::CondBr {
                cond: c2,
                if_true: t2,
                if_false: f2,
            },
        ) => {
            if t1 != t2 || f1 != f2 {
                return Err(err(at, "branch targets differ"));
            }
            m.check(c1, c2, at)
        }
        (
            Term::Switch {
                ty: t1,
                val: v1,
                default: d1,
                cases: c1,
            },
            Term::Switch {
                ty: t2,
                val: v2,
                default: d2,
                cases: c2,
            },
        ) => {
            if t1 != t2 || d1 != d2 || c1 != c2 {
                return Err(err(at, "switch structure differs"));
            }
            m.check(v1, v2, at)
        }
        (Term::Unreachable, Term::Unreachable) => Ok(()),
        _ => Err(err(at, "terminator kinds differ")),
    }
}

/// Check alpha-equivalence of two functions.
///
/// # Errors
///
/// Returns the first structural [`DiffError`].
pub fn diff_functions(a: &Function, b: &Function) -> Result<(), DiffError> {
    let name = &a.name;
    if a.name != b.name {
        return Err(err(
            "function",
            format!("names differ: {} vs {}", a.name, b.name),
        ));
    }
    if a.ret != b.ret || a.params.len() != b.params.len() {
        return Err(err(format!("@{name}"), "signatures differ"));
    }
    let mut m = RegMap::default();
    for ((t1, p1), (t2, p2)) in a.params.iter().zip(&b.params) {
        if t1 != t2 {
            return Err(err(format!("@{name}"), "parameter types differ"));
        }
        m.bind(*p1, *p2, "parameters")?;
    }
    if a.blocks.len() != b.blocks.len() {
        return Err(err(format!("@{name}"), "block counts differ"));
    }
    for (i, (ba, bb)) in a.blocks.iter().zip(&b.blocks).enumerate() {
        // Block labels are positional (`BlockId`); like `llvm-diff`, names
        // carry no meaning and are not compared.
        let at = format!("@{name}, block {} (#{i})", ba.name);
        if ba.phis.len() != bb.phis.len() {
            return Err(err(&at, "phi counts differ"));
        }
        for ((r1, p1), (r2, p2)) in ba.phis.iter().zip(&bb.phis) {
            m.bind(*r1, *r2, &at)?;
            if p1.ty != p2.ty || p1.incoming.len() != p2.incoming.len() {
                return Err(err(&at, "phi shapes differ"));
            }
            for (pred, v1) in &p1.incoming {
                let v2 = p2.incoming.iter().find(|(q, _)| q == pred).map(|(_, v)| v);
                match (v1, v2) {
                    (Some(v1), Some(Some(v2))) => m.check(v1, v2, &at)?,
                    (None, Some(None)) => {}
                    _ => return Err(err(&at, "phi incoming values differ")),
                }
            }
        }
        if ba.stmts.len() != bb.stmts.len() {
            return Err(err(
                &at,
                format!(
                    "statement counts differ: {} vs {}",
                    ba.stmts.len(),
                    bb.stmts.len()
                ),
            ));
        }
        for (j, (s1, s2)) in ba.stmts.iter().zip(&bb.stmts).enumerate() {
            let at = format!("{at}, statement {j}");
            match (s1.result, s2.result) {
                (Some(r1), Some(r2)) => m.bind(r1, r2, &at)?,
                (None, None) => {}
                _ => return Err(err(&at, "one side has a result, the other does not")),
            }
            diff_inst(&mut m, &s1.inst, &s2.inst, &at)?;
        }
        diff_term(&mut m, &ba.term, &bb.term, &at)?;
    }
    Ok(())
}

/// Check alpha-equivalence of two modules (globals and declarations must
/// match exactly; functions up to register and block-label renaming).
///
/// # Errors
///
/// Returns the first structural [`DiffError`].
pub fn diff_modules(a: &Module, b: &Module) -> Result<(), DiffError> {
    if a.globals != b.globals {
        return Err(err("globals", "global variables differ"));
    }
    if a.declares != b.declares {
        return Err(err("declares", "external declarations differ"));
    }
    if a.functions.len() != b.functions.len() {
        return Err(err("module", "function counts differ"));
    }
    for fa in &a.functions {
        let fb = b.function(&fa.name).ok_or_else(|| {
            err(
                "module",
                format!("function @{} missing on one side", fa.name),
            )
        })?;
        diff_functions(fa, fb)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_ir::parse_module;

    const A: &str = r#"
        declare @print(i32)
        define @f(i32 %x, i1 %c) -> i32 {
        entry:
          %y = add i32 %x, 1
          br i1 %c, label t, label e
        t:
          %z = mul i32 %y, 2
          br label j
        e:
          br label j
        j:
          %p = phi i32 [ %z, t ], [ %y, e ]
          call void @print(i32 %p)
          ret i32 %p
        }
    "#;

    #[test]
    fn identical_modules_are_equal() {
        let a = parse_module(A).unwrap();
        assert_eq!(diff_modules(&a, &a), Ok(()));
    }

    #[test]
    fn renamed_registers_are_equal() {
        let a = parse_module(A).unwrap();
        let renamed = A
            .replace("%y", "%val0")
            .replace("%z", "%val1")
            .replace("%p", "%val2");
        let b = parse_module(&renamed).unwrap();
        assert_eq!(diff_modules(&a, &b), Ok(()));
    }

    #[test]
    fn different_constant_is_detected() {
        let a = parse_module(A).unwrap();
        let b = parse_module(&A.replace("add i32 %x, 1", "add i32 %x, 2")).unwrap();
        let e = diff_modules(&a, &b).unwrap_err();
        assert!(e.detail.contains("operands differ"));
    }

    #[test]
    fn inconsistent_renaming_is_detected() {
        // Using %y where %x was expected breaks the bijection.
        let a = parse_module(
            "define @f(i32 %x) -> i32 {\nentry:\n  %y = add i32 %x, 1\n  %z = add i32 %y, %y\n  ret i32 %z\n}\n",
        )
        .unwrap();
        let b = parse_module(
            "define @f(i32 %x) -> i32 {\nentry:\n  %y = add i32 %x, 1\n  %z = add i32 %y, %x\n  ret i32 %z\n}\n",
        )
        .unwrap();
        assert!(diff_modules(&a, &b).is_err());
    }

    #[test]
    fn structural_changes_detected() {
        let a = parse_module(A).unwrap();
        // Missing statement.
        let b = parse_module(&A.replace("          %z = mul i32 %y, 2\n", "")).unwrap();
        assert!(diff_modules(&a, &b).is_err());
        // Different gep flag elsewhere: build tiny modules.
        let g1 = parse_module("define @g(ptr %p) -> ptr {\nentry:\n  %q = gep inbounds ptr %p, i64 1\n  ret ptr %q\n}\n").unwrap();
        let g2 = parse_module(
            "define @g(ptr %p) -> ptr {\nentry:\n  %q = gep ptr %p, i64 1\n  ret ptr %q\n}\n",
        )
        .unwrap();
        let e = diff_modules(&g1, &g2).unwrap_err();
        assert!(e.detail.contains("inbounds"));
    }

    #[test]
    fn missing_function_detected() {
        let a = parse_module(A).unwrap();
        let mut b = a.clone();
        b.functions[0].name = "other".into();
        assert!(diff_modules(&a, &b).is_err());
    }
}
