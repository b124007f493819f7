//! Textual output of the IR (the `.cll` format accepted by [`crate::parser`]).

use crate::function::{Block, BlockId, Function, RegId};
use crate::inst::{Inst, Term};
use crate::module::Module;
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt::Write;

/// Computes stable, unique display names for a function's registers.
#[derive(Debug)]
pub struct NameMap {
    names: Vec<String>,
}

impl NameMap {
    /// Build display names: the base name if unique, otherwise
    /// `base.index`.
    pub fn new(f: &Function) -> NameMap {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for i in 0..f.reg_count() {
            *counts.entry(f.reg_name(RegId::from_index(i))).or_insert(0) += 1;
        }
        let names = (0..f.reg_count())
            .map(|i| {
                let base = f.reg_name(RegId::from_index(i));
                if counts[base] == 1 && !base.is_empty() {
                    base.to_string()
                } else {
                    format!("{base}.{i}")
                }
            })
            .collect();
        NameMap { names }
    }

    /// Display name of `r`.
    pub fn name(&self, r: RegId) -> &str {
        &self.names[r.index()]
    }
}

fn fmt_value(v: &Value, names: &NameMap) -> String {
    match v {
        Value::Reg(r) => format!("%{}", names.name(*r)),
        Value::Const(c) => c.to_string(),
    }
}

fn fmt_inst(result: Option<RegId>, inst: &Inst, names: &NameMap) -> String {
    let lhs = match result {
        Some(r) => format!("%{} = ", names.name(r)),
        None => String::new(),
    };
    let rhs = match inst {
        Inst::Bin { op, ty, lhs, rhs } => {
            format!(
                "{op} {ty} {}, {}",
                fmt_value(lhs, names),
                fmt_value(rhs, names)
            )
        }
        Inst::Icmp { pred, ty, lhs, rhs } => {
            format!(
                "icmp {pred} {ty} {}, {}",
                fmt_value(lhs, names),
                fmt_value(rhs, names)
            )
        }
        Inst::Select {
            ty,
            cond,
            on_true,
            on_false,
        } => format!(
            "select i1 {}, {ty} {}, {ty} {}",
            fmt_value(cond, names),
            fmt_value(on_true, names),
            fmt_value(on_false, names)
        ),
        Inst::Cast { op, from, val, to } => {
            format!("{op} {from} {} to {to}", fmt_value(val, names))
        }
        Inst::Alloca { ty, count } => format!("alloca {ty}, {count}"),
        Inst::Load { ty, ptr } => format!("load {ty}, ptr {}", fmt_value(ptr, names)),
        Inst::Store { ty, val, ptr } => {
            format!(
                "store {ty} {}, ptr {}",
                fmt_value(val, names),
                fmt_value(ptr, names)
            )
        }
        Inst::Gep {
            inbounds,
            ptr,
            offset,
        } => format!(
            "gep{} ptr {}, i64 {}",
            if *inbounds { " inbounds" } else { "" },
            fmt_value(ptr, names),
            fmt_value(offset, names)
        ),
        Inst::Call { ret, callee, args } => {
            let args: Vec<String> = args
                .iter()
                .map(|(t, v)| format!("{t} {}", fmt_value(v, names)))
                .collect();
            let ret = match ret {
                Some(t) => t.to_string(),
                None => "void".to_string(),
            };
            format!("call {ret} @{callee}({})", args.join(", "))
        }
        Inst::Unsupported { feature } => format!("unsupported \"{feature}\""),
    };
    format!("{lhs}{rhs}")
}

fn fmt_term(t: &Term, f: &Function, names: &NameMap) -> String {
    let label = |b: &BlockId| f.block(*b).name.clone();
    match t {
        Term::Ret(None) => "ret void".to_string(),
        Term::Ret(Some((ty, v))) => format!("ret {ty} {}", fmt_value(v, names)),
        Term::Br(b) => format!("br label {}", label(b)),
        Term::CondBr {
            cond,
            if_true,
            if_false,
        } => {
            format!(
                "br i1 {}, label {}, label {}",
                fmt_value(cond, names),
                label(if_true),
                label(if_false)
            )
        }
        Term::Switch {
            ty,
            val,
            default,
            cases,
        } => {
            let cases: Vec<String> = cases
                .iter()
                .map(|(c, b)| format!("{}: {}", *c as i64, label(b)))
                .collect();
            format!(
                "switch {ty} {}, label {} [ {} ]",
                fmt_value(val, names),
                label(default),
                cases.join(", ")
            )
        }
        Term::Unreachable => "unreachable".to_string(),
    }
}

fn fmt_block(f: &Function, b: &Block, names: &NameMap, out: &mut String) {
    let _ = writeln!(out, "{}:", b.name);
    for (r, phi) in &b.phis {
        let inc: Vec<String> = phi
            .incoming
            .iter()
            .map(|(src, v)| match v {
                Some(v) => format!("[ {}, {} ]", fmt_value(v, names), f.block(*src).name),
                None => format!("[ _, {} ]", f.block(*src).name),
            })
            .collect();
        let _ = writeln!(
            out,
            "  %{} = phi {} {}",
            names.name(*r),
            phi.ty,
            inc.join(", ")
        );
    }
    for s in &b.stmts {
        let _ = writeln!(out, "  {}", fmt_inst(s.result, &s.inst, names));
    }
    let _ = writeln!(out, "  {}", fmt_term(&b.term, f, names));
}

/// Render a single function.
pub fn print_function(f: &Function) -> String {
    let names = NameMap::new(f);
    let mut out = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .map(|(t, r)| format!("{t} %{}", names.name(*r)))
        .collect();
    let ret = match f.ret {
        Some(t) => format!(" -> {t}"),
        None => String::new(),
    };
    let _ = writeln!(out, "define @{}({}){ret} {{", f.name, params.join(", "));
    for bid in f.block_ids() {
        fmt_block(f, f.block(bid), &names, &mut out);
    }
    out.push_str("}\n");
    out
}

/// Render a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for g in &m.globals {
        let init = match &g.init {
            Some(c) => format!(" = {c}"),
            None => String::new(),
        };
        let _ = writeln!(out, "global @{} : {}[{}]{}", g.name, g.ty, g.size, init);
    }
    for d in &m.declares {
        let params: Vec<String> = d.params.iter().map(Type::to_string).collect();
        let ret = match d.ret {
            Some(t) => format!(" -> {t}"),
            None => String::new(),
        };
        let _ = writeln!(out, "declare @{}({}){}", d.name, params.join(", "), ret);
    }
    for f in &m.functions {
        out.push('\n');
        out.push_str(&print_function(f));
    }
    out
}

impl std::fmt::Display for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&print_module(self))
    }
}

impl std::fmt::Display for Function {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&print_function(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, IcmpPred};

    #[test]
    fn prints_a_function() {
        let mut b = FunctionBuilder::new("f", Some(Type::I32));
        let n = b.param(Type::I32, "n");
        b.start_block("entry");
        let x = b.bin("x", BinOp::Add, Type::I32, n, 1i64);
        let c = b.icmp("c", IcmpPred::Slt, Type::I32, x, 10i64);
        let s = b.select("s", Type::I32, c, x, 0i64);
        b.ret(Type::I32, s);
        let f = b.finish();
        let text = print_function(&f);
        assert!(text.contains("define @f(i32 %n) -> i32 {"));
        assert!(text.contains("%x = add i32 %n, 1"));
        assert!(text.contains("%c = icmp slt i32 %x, 10"));
        assert!(text.contains("%s = select i1 %c, i32 %x, i32 0"));
        assert!(text.contains("ret i32 %s"));
    }

    #[test]
    fn duplicate_base_names_are_disambiguated() {
        let mut b = FunctionBuilder::new("f", None);
        b.start_block("entry");
        let x1 = b.bin("x", BinOp::Add, Type::I32, 1i64, 2i64);
        let _x2 = b.bin("x", BinOp::Add, Type::I32, x1, 3i64);
        b.ret_void();
        let f = b.finish();
        let text = print_function(&f);
        assert!(text.contains("%x.0 ="));
        assert!(text.contains("%x.1 ="));
    }
}
