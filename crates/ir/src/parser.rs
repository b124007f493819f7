//! Parser for the textual `.cll` IR format produced by [`crate::printer`].

use crate::constant::{Const, ConstExpr};
use crate::function::{Block, BlockId, Function, Phi, RegId, Stmt};
use crate::inst::{BinOp, CastOp, IcmpPred, Inst, Term};
use crate::module::{ExternDecl, Global, Module};
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Reg(String),
    Global(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Eq,
    Arrow,
}

fn lex_line(line: &str, lineno: usize) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    let err = |msg: String| ParseError {
        line: lineno,
        message: msg,
    };
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' | '\r' => i += 1,
            ';' => break,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            '{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '"' {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(err("unterminated string".into()));
                }
                toks.push(Tok::Str(bytes[start..j].iter().collect()));
                i = j + 1;
            }
            '%' | '@' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len()
                    && (bytes[j].is_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                {
                    j += 1;
                }
                if j == start {
                    return Err(err(format!("expected name after '{c}'")));
                }
                let name: String = bytes[start..j].iter().collect();
                toks.push(if c == '%' {
                    Tok::Reg(name)
                } else {
                    Tok::Global(name)
                });
                i = j;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '>' {
                    toks.push(Tok::Arrow);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                    let s: String = bytes[i..j].iter().collect();
                    toks.push(Tok::Int(
                        s.parse().map_err(|_| err(format!("bad integer {s}")))?,
                    ));
                    i = j;
                } else {
                    return Err(err("stray '-'".into()));
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let s: String = bytes[i..j].iter().collect();
                let v: i64 = s
                    .parse::<i64>()
                    .or_else(|_| s.parse::<u64>().map(|u| u as i64))
                    .map_err(|_| err(format!("bad integer {s}")))?;
                toks.push(Tok::Int(v));
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                {
                    j += 1;
                }
                toks.push(Tok::Ident(bytes[i..j].iter().collect()));
                i = j;
            }
            other => return Err(err(format!("unexpected character '{other}'"))),
        }
    }
    Ok(toks)
}

/// A cursor over one line's tokens.
struct Cursor {
    toks: Vec<Tok>,
    pos: usize,
    line: usize,
}

impl Cursor {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(self.err(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(self.err(format!("expected identifier, got {got:?}"))),
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let s = self.ident()?;
        s.parse().map_err(|_| self.err(format!("unknown type {s}")))
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(v),
            got => Err(self.err(format!("expected integer, got {got:?}"))),
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.toks.len()
    }
}

/// Function-scoped parse state mapping names to ids.
struct FnCtx {
    regs: HashMap<String, RegId>,
    blocks: HashMap<String, BlockId>,
}

impl FnCtx {
    fn reg(&mut self, f: &mut Function, name: &str) -> RegId {
        if let Some(&r) = self.regs.get(name) {
            r
        } else {
            let r = f.fresh_reg(name);
            self.regs.insert(name.to_string(), r);
            r
        }
    }

    fn block(&self, cur: &Cursor, name: &str) -> Result<BlockId, ParseError> {
        self.blocks
            .get(name)
            .copied()
            .ok_or_else(|| cur.err(format!("unknown block label {name}")))
    }
}

/// Deepest constant-expression nesting the parser accepts. Generated
/// modules nest at most 3 levels; the cap turns a hostile input (a
/// megabyte of nested `sub(...)`) into a parse error instead of a stack
/// overflow here or in any later recursive walk of the constant.
const MAX_CONST_DEPTH: usize = 256;

/// Parse a constant nested `depth` levels inside constant expressions.
fn parse_const(cur: &mut Cursor, ty: Type, depth: usize) -> Result<Const, ParseError> {
    if depth > MAX_CONST_DEPTH {
        return Err(cur.err(format!(
            "constant expression nested deeper than {MAX_CONST_DEPTH} levels"
        )));
    }
    match cur.next() {
        Some(Tok::Int(v)) => Ok(Const::int(ty, v)),
        Some(Tok::Global(g)) => Ok(Const::Global(g)),
        Some(Tok::Ident(id)) => match id.as_str() {
            "undef" => Ok(Const::Undef(ty)),
            "null" => Ok(Const::Null),
            "ptrtoint" => {
                cur.expect(Tok::LParen)?;
                let inner = parse_const(cur, Type::Ptr, depth + 1)?;
                let to_kw = cur.ident()?;
                if to_kw != "to" {
                    return Err(cur.err("expected 'to' in ptrtoint constexpr"));
                }
                let to = cur.ty()?;
                cur.expect(Tok::RParen)?;
                Ok(ConstExpr::PtrToInt(inner, to).into())
            }
            op_name => {
                let op: BinOp = op_name
                    .parse()
                    .map_err(|_| cur.err(format!("unknown constant head '{op_name}'")))?;
                cur.expect(Tok::LParen)?;
                let ety = cur.ty()?;
                let a = parse_const(cur, ety, depth + 1)?;
                cur.expect(Tok::Comma)?;
                let b = parse_const(cur, ety, depth + 1)?;
                cur.expect(Tok::RParen)?;
                Ok(ConstExpr::Bin(op, ety, a, b).into())
            }
        },
        got => Err(cur.err(format!("expected constant, got {got:?}"))),
    }
}

fn parse_value(
    cur: &mut Cursor,
    f: &mut Function,
    ctx: &mut FnCtx,
    ty: Type,
) -> Result<Value, ParseError> {
    if let Some(Tok::Reg(name)) = cur.peek().cloned() {
        cur.next();
        Ok(Value::Reg(ctx.reg(f, &name)))
    } else {
        Ok(Value::Const(parse_const(cur, ty, 0)?))
    }
}

/// Parse `ty value` (a typed operand).
fn parse_typed_value(
    cur: &mut Cursor,
    f: &mut Function,
    ctx: &mut FnCtx,
) -> Result<(Type, Value), ParseError> {
    let ty = cur.ty()?;
    let v = parse_value(cur, f, ctx, ty)?;
    Ok((ty, v))
}

fn parse_rhs(
    cur: &mut Cursor,
    f: &mut Function,
    ctx: &mut FnCtx,
    head: &str,
) -> Result<Inst, ParseError> {
    if let Ok(op) = head.parse::<BinOp>() {
        let ty = cur.ty()?;
        let lhs = parse_value(cur, f, ctx, ty)?;
        cur.expect(Tok::Comma)?;
        let rhs = parse_value(cur, f, ctx, ty)?;
        return Ok(Inst::Bin { op, ty, lhs, rhs });
    }
    if let Ok(op) = head.parse::<CastOp>() {
        let from = cur.ty()?;
        let val = parse_value(cur, f, ctx, from)?;
        let kw = cur.ident()?;
        if kw != "to" {
            return Err(cur.err("expected 'to' in cast"));
        }
        let to = cur.ty()?;
        return Ok(Inst::Cast { op, from, val, to });
    }
    match head {
        "icmp" => {
            let pred: IcmpPred = {
                let s = cur.ident()?;
                s.parse()
                    .map_err(|_| cur.err(format!("unknown icmp predicate {s}")))?
            };
            let ty = cur.ty()?;
            let lhs = parse_value(cur, f, ctx, ty)?;
            cur.expect(Tok::Comma)?;
            let rhs = parse_value(cur, f, ctx, ty)?;
            Ok(Inst::Icmp { pred, ty, lhs, rhs })
        }
        "select" => {
            let _i1 = cur.ty()?;
            let cond = parse_value(cur, f, ctx, Type::I1)?;
            cur.expect(Tok::Comma)?;
            let ty = cur.ty()?;
            let on_true = parse_value(cur, f, ctx, ty)?;
            cur.expect(Tok::Comma)?;
            let _ty2 = cur.ty()?;
            let on_false = parse_value(cur, f, ctx, ty)?;
            Ok(Inst::Select {
                ty,
                cond,
                on_true,
                on_false,
            })
        }
        "alloca" => {
            let ty = cur.ty()?;
            let count = if cur.eat(&Tok::Comma) {
                cur.int()? as u64
            } else {
                1
            };
            Ok(Inst::Alloca { ty, count })
        }
        "load" => {
            let ty = cur.ty()?;
            cur.expect(Tok::Comma)?;
            let _ptr_ty = cur.ty()?;
            let ptr = parse_value(cur, f, ctx, Type::Ptr)?;
            Ok(Inst::Load { ty, ptr })
        }
        "store" => {
            let ty = cur.ty()?;
            let val = parse_value(cur, f, ctx, ty)?;
            cur.expect(Tok::Comma)?;
            let _ptr_ty = cur.ty()?;
            let ptr = parse_value(cur, f, ctx, Type::Ptr)?;
            Ok(Inst::Store { ty, val, ptr })
        }
        "gep" => {
            let mut inbounds = false;
            if let Some(Tok::Ident(id)) = cur.peek() {
                if id == "inbounds" {
                    inbounds = true;
                    cur.next();
                }
            }
            let _ptr_ty = cur.ty()?;
            let ptr = parse_value(cur, f, ctx, Type::Ptr)?;
            cur.expect(Tok::Comma)?;
            let _off_ty = cur.ty()?;
            let offset = parse_value(cur, f, ctx, Type::I64)?;
            Ok(Inst::Gep {
                inbounds,
                ptr,
                offset,
            })
        }
        "call" => {
            let ret_s = cur.ident()?;
            let ret = if ret_s == "void" {
                None
            } else {
                Some(
                    ret_s
                        .parse::<Type>()
                        .map_err(|_| cur.err(format!("bad return type {ret_s}")))?,
                )
            };
            let callee = match cur.next() {
                Some(Tok::Global(g)) => g,
                got => return Err(cur.err(format!("expected @callee, got {got:?}"))),
            };
            cur.expect(Tok::LParen)?;
            let mut args = Vec::new();
            if !cur.eat(&Tok::RParen) {
                loop {
                    args.push(parse_typed_value(cur, f, ctx)?);
                    if cur.eat(&Tok::RParen) {
                        break;
                    }
                    cur.expect(Tok::Comma)?;
                }
            }
            Ok(Inst::Call { ret, callee, args })
        }
        "unsupported" => match cur.next() {
            Some(Tok::Str(s)) => Ok(Inst::Unsupported { feature: s }),
            got => Err(cur.err(format!("expected feature string, got {got:?}"))),
        },
        other => Err(cur.err(format!("unknown instruction '{other}'"))),
    }
}

fn parse_term(
    cur: &mut Cursor,
    f: &mut Function,
    ctx: &mut FnCtx,
    head: &str,
) -> Result<Term, ParseError> {
    match head {
        "ret" => {
            let s = cur.ident()?;
            if s == "void" {
                Ok(Term::Ret(None))
            } else {
                let ty: Type = s
                    .parse()
                    .map_err(|_| cur.err(format!("bad return type {s}")))?;
                let v = parse_value(cur, f, ctx, ty)?;
                Ok(Term::Ret(Some((ty, v))))
            }
        }
        "br" => {
            let s = cur.ident()?;
            if s == "label" {
                let name = cur.ident()?;
                Ok(Term::Br(ctx.block(cur, &name)?))
            } else if s == "i1" {
                let cond = parse_value(cur, f, ctx, Type::I1)?;
                cur.expect(Tok::Comma)?;
                let kw = cur.ident()?;
                if kw != "label" {
                    return Err(cur.err("expected 'label'"));
                }
                let t = cur.ident()?;
                cur.expect(Tok::Comma)?;
                let kw = cur.ident()?;
                if kw != "label" {
                    return Err(cur.err("expected 'label'"));
                }
                let e = cur.ident()?;
                Ok(Term::CondBr {
                    cond,
                    if_true: ctx.block(cur, &t)?,
                    if_false: ctx.block(cur, &e)?,
                })
            } else {
                Err(cur.err("expected 'label' or 'i1' after br"))
            }
        }
        "switch" => {
            let ty = cur.ty()?;
            let val = parse_value(cur, f, ctx, ty)?;
            cur.expect(Tok::Comma)?;
            let kw = cur.ident()?;
            if kw != "label" {
                return Err(cur.err("expected 'label'"));
            }
            let default = {
                let name = cur.ident()?;
                ctx.block(cur, &name)?
            };
            cur.expect(Tok::LBracket)?;
            let mut cases = Vec::new();
            if !cur.eat(&Tok::RBracket) {
                loop {
                    let v = cur.int()?;
                    cur.expect(Tok::Colon)?;
                    let name = cur.ident()?;
                    cases.push((ty.truncate(v as u64), ctx.block(cur, &name)?));
                    if cur.eat(&Tok::RBracket) {
                        break;
                    }
                    cur.expect(Tok::Comma)?;
                }
            }
            Ok(Term::Switch {
                ty,
                val,
                default,
                cases,
            })
        }
        "unreachable" => Ok(Term::Unreachable),
        other => Err(cur.err(format!("unknown terminator '{other}'"))),
    }
}

fn parse_phi(cur: &mut Cursor, f: &mut Function, ctx: &mut FnCtx) -> Result<Phi, ParseError> {
    let ty = cur.ty()?;
    let mut incoming = Vec::new();
    loop {
        cur.expect(Tok::LBracket)?;
        let v = if let Some(Tok::Ident(id)) = cur.peek() {
            if id == "_" {
                cur.next();
                None
            } else {
                Some(parse_value(cur, f, ctx, ty)?)
            }
        } else {
            Some(parse_value(cur, f, ctx, ty)?)
        };
        cur.expect(Tok::Comma)?;
        let label = cur.ident()?;
        cur.expect(Tok::RBracket)?;
        incoming.push((ctx.block(cur, &label)?, v));
        if !cur.eat(&Tok::Comma) {
            break;
        }
    }
    Ok(Phi { ty, incoming })
}

/// Parse a whole module from text.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new();
    let lines: Vec<(usize, Vec<Tok>)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| lex_line(l, i + 1).map(|t| (i + 1, t)))
        .collect::<Result<_, _>>()?;
    let lines: Vec<(usize, Vec<Tok>)> = lines.into_iter().filter(|(_, t)| !t.is_empty()).collect();

    let mut i = 0;
    while i < lines.len() {
        let (lineno, toks) = &lines[i];
        let mut cur = Cursor {
            toks: toks.clone(),
            pos: 0,
            line: *lineno,
        };
        let head = cur.ident()?;
        match head.as_str() {
            "global" => {
                let name = match cur.next() {
                    Some(Tok::Global(g)) => g,
                    got => return Err(cur.err(format!("expected @name, got {got:?}"))),
                };
                cur.expect(Tok::Colon)?;
                let ty = cur.ty()?;
                let size = if cur.eat(&Tok::LBracket) {
                    let s = cur.int()? as u64;
                    cur.expect(Tok::RBracket)?;
                    s
                } else {
                    1
                };
                let init = if cur.eat(&Tok::Eq) {
                    Some(parse_const(&mut cur, ty, 0)?)
                } else {
                    None
                };
                module.globals.push(Global {
                    name,
                    ty,
                    size,
                    init,
                });
                i += 1;
            }
            "declare" => {
                let name = match cur.next() {
                    Some(Tok::Global(g)) => g,
                    got => return Err(cur.err(format!("expected @name, got {got:?}"))),
                };
                cur.expect(Tok::LParen)?;
                let mut params = Vec::new();
                if !cur.eat(&Tok::RParen) {
                    loop {
                        params.push(cur.ty()?);
                        if cur.eat(&Tok::RParen) {
                            break;
                        }
                        cur.expect(Tok::Comma)?;
                    }
                }
                let ret = if cur.eat(&Tok::Arrow) {
                    Some(cur.ty()?)
                } else {
                    None
                };
                module.declares.push(ExternDecl { name, ret, params });
                i += 1;
            }
            "define" => {
                let name = match cur.next() {
                    Some(Tok::Global(g)) => g,
                    got => return Err(cur.err(format!("expected @name, got {got:?}"))),
                };
                cur.expect(Tok::LParen)?;
                let mut params: Vec<(Type, String)> = Vec::new();
                if !cur.eat(&Tok::RParen) {
                    loop {
                        let ty = cur.ty()?;
                        let pname = match cur.next() {
                            Some(Tok::Reg(r)) => r,
                            got => return Err(cur.err(format!("expected %param, got {got:?}"))),
                        };
                        params.push((ty, pname));
                        if cur.eat(&Tok::RParen) {
                            break;
                        }
                        cur.expect(Tok::Comma)?;
                    }
                }
                let ret = if cur.eat(&Tok::Arrow) {
                    Some(cur.ty()?)
                } else {
                    None
                };
                cur.expect(Tok::LBrace)?;

                let mut func = Function::new(name, ret);
                let mut ctx = FnCtx {
                    regs: HashMap::new(),
                    blocks: HashMap::new(),
                };
                for (ty, pname) in params {
                    let r = func.add_param(ty, &pname);
                    ctx.regs.insert(pname, r);
                }

                // Find the closing brace and pre-create blocks for all labels.
                let mut j = i + 1;
                let mut body = Vec::new();
                let mut closed = false;
                while j < lines.len() {
                    let (ln, toks) = &lines[j];
                    if toks == &[Tok::RBrace] {
                        closed = true;
                        break;
                    }
                    body.push((*ln, toks.clone()));
                    j += 1;
                }
                if !closed {
                    return Err(ParseError {
                        line: *lineno,
                        message: "unclosed function body".into(),
                    });
                }
                for (ln, toks) in &body {
                    if let [Tok::Ident(label), Tok::Colon] = toks.as_slice() {
                        if ctx.blocks.contains_key(label) {
                            return Err(ParseError {
                                line: *ln,
                                message: format!("duplicate label {label}"),
                            });
                        }
                        let b = func.add_block(Block::new(label.clone()));
                        ctx.blocks.insert(label.clone(), b);
                    }
                }

                let mut current: Option<BlockId> = None;
                for (ln, toks) in body {
                    if let [Tok::Ident(label), Tok::Colon] = toks.as_slice() {
                        current = Some(ctx.blocks[label]);
                        continue;
                    }
                    let bid = current.ok_or_else(|| ParseError {
                        line: ln,
                        message: "instruction before first label".into(),
                    })?;
                    let mut cur = Cursor {
                        toks,
                        pos: 0,
                        line: ln,
                    };
                    // Result-producing statement or phi?
                    if let Some(Tok::Reg(res_name)) = cur.peek().cloned() {
                        cur.next();
                        cur.expect(Tok::Eq)?;
                        let res = ctx.reg(&mut func, &res_name);
                        let head = cur.ident()?;
                        if head == "phi" {
                            let phi = parse_phi(&mut cur, &mut func, &mut ctx)?;
                            func.block_mut(bid).phis.push((res, phi));
                        } else {
                            let inst = parse_rhs(&mut cur, &mut func, &mut ctx, &head)?;
                            func.block_mut(bid).stmts.push(Stmt {
                                result: Some(res),
                                inst,
                            });
                        }
                    } else {
                        let head = cur.ident()?;
                        if matches!(head.as_str(), "ret" | "br" | "switch" | "unreachable") {
                            let term = parse_term(&mut cur, &mut func, &mut ctx, &head)?;
                            func.block_mut(bid).term = term;
                        } else {
                            let inst = parse_rhs(&mut cur, &mut func, &mut ctx, &head)?;
                            func.block_mut(bid).stmts.push(Stmt { result: None, inst });
                        }
                    }
                    if !cur.done() {
                        return Err(cur.err("trailing tokens"));
                    }
                }
                module.functions.push(func);
                i = j + 1;
            }
            other => {
                return Err(ParseError {
                    line: *lineno,
                    message: format!("unknown top-level item '{other}'"),
                })
            }
        }
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    const SAMPLE: &str = r#"
        ; A small module exercising every construct.
        global @G : i32[4] = 7
        declare @print(i32)
        declare @get() -> i32

        define @main(i32 %n, ptr %q) -> i32 {
        entry:
          %p = alloca i32, 2
          store i32 42, ptr %p
          %a = load i32, ptr %p
          %g = gep inbounds ptr %p, i64 1
          %h = gep ptr %p, i64 1
          %x = add i32 %n, 1
          %c = icmp slt i32 %x, 10
          %s = select i1 %c, i32 %x, i32 0
          %w = zext i32 %s to i64
          %e = call i32 @get()
          call void @print(i32 %e)
          br i1 %c, label loop, label exit
        loop:
          %i = phi i32 [ 0, entry ], [ %i2, loop ]
          %i2 = add i32 %i, 1
          %d = icmp eq i32 %i2, %n
          br i1 %d, label exit, label loop
        exit:
          %r = phi i32 [ %x, entry ], [ %i2, loop ]
          switch i32 %r, label done [ 1: done, 2: done ]
        done:
          ret i32 %r
        }
    "#;

    #[test]
    fn parses_sample() {
        let m = parse_module(SAMPLE).unwrap();
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.declares.len(), 2);
        let f = m.function("main").unwrap();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.params.len(), 2);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn print_parse_fixpoint() {
        let m = parse_module(SAMPLE).unwrap();
        let printed = print_module(&m);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(print_module(&m2), printed);
    }

    #[test]
    fn parses_trapping_constexpr() {
        let m = parse_module(
            r#"
            global @G : i32[1]
            define @f() -> i32 {
            entry:
              %x = add i32 sdiv(i32 1, sub(i32 ptrtoint(@G to i32), ptrtoint(@G to i32))), 0
              ret i32 %x
            }
            "#,
        )
        .unwrap();
        let f = m.function("f").unwrap();
        let inst = &f.block(f.entry()).stmts[0].inst;
        match inst {
            Inst::Bin {
                lhs: Value::Const(c),
                ..
            } => assert!(c.may_trap()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let err = parse_module("define @f() {\nentry:\n  %x = bogus i32 1\n}\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("bogus"));
    }

    /// `%x = add i32 <c>, 0` where `<c>` is `depth` nested `sub`s.
    fn nested_const_module(depth: usize) -> String {
        format!(
            "define @f() -> i32 {{\nentry:\n  %x = add i32 {}1{}, 0\n  ret i32 %x\n}}\n",
            "sub(i32 ".repeat(depth),
            ", 1)".repeat(depth)
        )
    }

    #[test]
    fn constant_nesting_is_capped() {
        assert!(parse_module(&nested_const_module(MAX_CONST_DEPTH)).is_ok());
        let err = parse_module(&nested_const_module(MAX_CONST_DEPTH + 1)).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("nested deeper"), "{err}");
        // Deep enough to overflow the stack without the cap.
        let err = parse_module(&nested_const_module(200_000)).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn rejects_duplicate_labels() {
        let err = parse_module("define @f() {\na:\n  ret void\na:\n  ret void\n}\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn rejects_unknown_block_target() {
        let err = parse_module("define @f() {\nentry:\n  br label nowhere\n}\n").unwrap_err();
        assert!(err.message.contains("unknown block"));
    }

    #[test]
    fn parses_empty_phi_slot() {
        let m = parse_module(
            "define @f(i1 %c) {\nentry:\n  br label next\nnext:\n  %p = phi i32 [ _, entry ]\n  ret void\n}\n",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        let (_, phi) = &f.block(BlockId::from_index(1)).phis[0];
        assert!(!phi.is_complete());
    }
}
