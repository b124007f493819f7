//! Parser for the textual `.cll` IR format produced by [`crate::printer`].
//!
//! The whole text is lexed in one pass before parsing starts, so a lex
//! error on any line is reported before any parse error. Tokens borrow
//! from the text: a name is copied once, when it enters the IR.

use crate::constant::{Const, ConstExpr};
use crate::function::{Block, BlockId, Function, Phi, RegId, Stmt};
use crate::inst::{BinOp, CastOp, IcmpPred, Inst, Term};
use crate::module::{ExternDecl, Global, Module};
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

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

/// A token, borrowing its text from the source. Its `Debug` form is what
/// error messages quote.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Reg(&'a str),
    Global(&'a str),
    Int(i64),
    Str(&'a str),
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

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.'
}

/// Byte offset of the first character at or after `from` that fails `pred`.
fn scan(line: &str, from: usize, pred: impl Fn(char) -> bool) -> usize {
    line[from..]
        .find(|c| !pred(c))
        .map_or(line.len(), |j| from + j)
}

/// Lex one line, appending its tokens to `toks`.
fn lex_line<'a>(line: &'a str, lineno: usize, toks: &mut Vec<Tok<'a>>) -> Result<(), ParseError> {
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let mut i = 0;
    while let Some(c) = line[i..].chars().next() {
        let next = i + c.len_utf8();
        let (tok, end) = match c {
            ' ' | '\t' | '\r' => {
                i = next;
                continue;
            }
            ';' => break,
            '(' => (Tok::LParen, next),
            ')' => (Tok::RParen, next),
            '[' => (Tok::LBracket, next),
            ']' => (Tok::RBracket, next),
            '{' => (Tok::LBrace, next),
            '}' => (Tok::RBrace, next),
            ',' => (Tok::Comma, next),
            ':' => (Tok::Colon, next),
            '=' => (Tok::Eq, next),
            '"' => {
                let Some(len) = line[next..].find('"') else {
                    return Err(err("unterminated string".into()));
                };
                (Tok::Str(&line[next..next + len]), next + len + 1)
            }
            '%' | '@' => {
                let end = scan(line, next, is_name_char);
                if end == next {
                    return Err(err(format!("expected name after '{c}'")));
                }
                let name = &line[next..end];
                (
                    if c == '%' {
                        Tok::Reg(name)
                    } else {
                        Tok::Global(name)
                    },
                    end,
                )
            }
            '-' if line[next..].starts_with('>') => (Tok::Arrow, next + 1),
            '-' | '0'..='9' => {
                let end = scan(line, next, |d| d.is_ascii_digit());
                if end == next && c == '-' {
                    return Err(err("stray '-'".into()));
                }
                // Literals past `i64::MAX` keep their 64-bit pattern.
                let s = &line[i..end];
                let v = s
                    .parse::<i64>()
                    .or_else(|_| s.parse::<u64>().map(|u| u as i64))
                    .map_err(|_| err(format!("bad integer {s}")))?;
                (Tok::Int(v), end)
            }
            c if c.is_alphabetic() || c == '_' => {
                let end = scan(line, next, is_name_char);
                (Tok::Ident(&line[i..end]), end)
            }
            other => return Err(err(format!("unexpected character '{other}'"))),
        };
        toks.push(tok);
        i = end;
    }
    Ok(())
}

/// The tokens of a whole text, with one row per line that has any: its
/// 1-based number and the range of its tokens.
struct Lexed<'a> {
    toks: Vec<Tok<'a>>,
    lines: Vec<(usize, Range<usize>)>,
}

impl<'a> Lexed<'a> {
    fn new(text: &'a str) -> Result<Lexed<'a>, ParseError> {
        let mut lexed = Lexed {
            toks: Vec::new(),
            lines: Vec::new(),
        };
        for (i, line) in text.lines().enumerate() {
            let start = lexed.toks.len();
            lex_line(line, i + 1, &mut lexed.toks)?;
            if lexed.toks.len() > start {
                lexed.lines.push((i + 1, start..lexed.toks.len()));
            }
        }
        Ok(lexed)
    }

    /// A cursor over row `k`.
    fn cursor(&self, k: usize) -> Cursor<'_> {
        let (line, range) = &self.lines[k];
        Cursor {
            toks: &self.toks[range.clone()],
            pos: 0,
            line: *line,
        }
    }
}

/// A cursor over one line's tokens.
struct Cursor<'a> {
    toks: &'a [Tok<'a>],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok<'a>) -> Result<(), ParseError> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(self.err(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn eat(&mut self, t: Tok<'a>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(self.err(format!("expected identifier, got {got:?}"))),
        }
    }

    /// The identifier `kw`, or an "expected 'kw'" error with `context`.
    fn keyword(&mut self, kw: &str, context: &str) -> Result<(), ParseError> {
        if self.ident()? == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}'{context}")))
        }
    }

    fn global(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Tok::Global(g)) => Ok(g),
            got => Err(self.err(format!("expected @{what}, got {got:?}"))),
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let s = self.ident()?;
        s.parse().map_err(|_| self.err(format!("unknown type {s}")))
    }

    /// A return type: `void` or a type.
    fn ret_ty(&mut self) -> Result<Option<Type>, ParseError> {
        match self.ident()? {
            "void" => Ok(None),
            s => s
                .parse()
                .map(Some)
                .map_err(|_| self.err(format!("bad return type {s}"))),
        }
    }

    /// An optional `-> type`.
    fn arrow_ty(&mut self) -> Result<Option<Type>, ParseError> {
        if self.eat(Tok::Arrow) {
            self.ty().map(Some)
        } else {
            Ok(None)
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(v),
            got => Err(self.err(format!("expected integer, got {got:?}"))),
        }
    }

    /// Comma-separated items up to `close` (its opener already eaten).
    fn list<T>(
        &mut self,
        close: Tok<'a>,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                items.push(item(self)?);
                if self.eat(close) {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        Ok(items)
    }

    /// The end of the line: a token left over is an error.
    fn end(&self) -> Result<(), ParseError> {
        if self.pos >= self.toks.len() {
            Ok(())
        } else {
            Err(self.err("trailing tokens"))
        }
    }
}

/// The integer literal `v` of type `ty`. Only integer types have them:
/// a literal typed `ptr` or `void` is an error, not a panic later.
fn int_literal(cur: &Cursor, ty: Type, v: i64) -> Result<u64, ParseError> {
    if ty.is_int() {
        Ok(ty.truncate(v as u64))
    } else {
        Err(cur.err(format!("integer literal {v} of non-integer type {ty}")))
    }
}

/// The function being parsed, with its names in scope. Registers are
/// numbered in the order their names first appear, parameters first.
struct FnCtx<'a> {
    func: Function,
    regs: HashMap<&'a str, RegId>,
    blocks: HashMap<&'a str, BlockId>,
}

impl<'a> FnCtx<'a> {
    fn reg(&mut self, name: &'a str) -> RegId {
        let func = &mut self.func;
        *self
            .regs
            .entry(name)
            .or_insert_with(|| func.fresh_reg(name))
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
        Some(Tok::Int(v)) => Ok(Const::Int {
            ty,
            bits: int_literal(cur, ty, v)?,
        }),
        Some(Tok::Global(g)) => Ok(Const::Global(g.to_string())),
        Some(Tok::Ident("undef")) => Ok(Const::Undef(ty)),
        Some(Tok::Ident("null")) => Ok(Const::Null),
        Some(Tok::Ident("ptrtoint")) => {
            cur.expect(Tok::LParen)?;
            let inner = parse_const(cur, Type::Ptr, depth + 1)?;
            cur.keyword("to", " in ptrtoint constexpr")?;
            let to = cur.ty()?;
            cur.expect(Tok::RParen)?;
            Ok(ConstExpr::PtrToInt(inner, to).into())
        }
        Some(Tok::Ident(op_name)) => {
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
        got => Err(cur.err(format!("expected constant, got {got:?}"))),
    }
}

fn parse_value<'a>(
    cur: &mut Cursor<'a>,
    ctx: &mut FnCtx<'a>,
    ty: Type,
) -> Result<Value, ParseError> {
    if let Some(Tok::Reg(name)) = cur.peek() {
        cur.next();
        Ok(Value::Reg(ctx.reg(name)))
    } else {
        Ok(Value::Const(parse_const(cur, ty, 0)?))
    }
}

/// Parse `ty value` (a typed operand).
fn parse_typed_value<'a>(
    cur: &mut Cursor<'a>,
    ctx: &mut FnCtx<'a>,
) -> Result<(Type, Value), ParseError> {
    let ty = cur.ty()?;
    let v = parse_value(cur, ctx, ty)?;
    Ok((ty, v))
}

/// Parse `ty lhs, rhs`.
fn parse_operands<'a>(
    cur: &mut Cursor<'a>,
    ctx: &mut FnCtx<'a>,
) -> Result<(Type, Value, Value), ParseError> {
    let (ty, lhs) = parse_typed_value(cur, ctx)?;
    cur.expect(Tok::Comma)?;
    let rhs = parse_value(cur, ctx, ty)?;
    Ok((ty, lhs, rhs))
}

fn parse_rhs<'a>(
    cur: &mut Cursor<'a>,
    ctx: &mut FnCtx<'a>,
    head: &str,
) -> Result<Inst, ParseError> {
    if let Ok(op) = head.parse::<BinOp>() {
        let (ty, lhs, rhs) = parse_operands(cur, ctx)?;
        return Ok(Inst::Bin { op, ty, lhs, rhs });
    }
    if let Ok(op) = head.parse::<CastOp>() {
        let (from, val) = parse_typed_value(cur, ctx)?;
        cur.keyword("to", " in cast")?;
        let to = cur.ty()?;
        return Ok(Inst::Cast { op, from, val, to });
    }
    match head {
        "icmp" => {
            let s = cur.ident()?;
            let pred: IcmpPred = s
                .parse()
                .map_err(|_| cur.err(format!("unknown icmp predicate {s}")))?;
            let (ty, lhs, rhs) = parse_operands(cur, ctx)?;
            Ok(Inst::Icmp { pred, ty, lhs, rhs })
        }
        "select" => {
            let _i1 = cur.ty()?;
            let cond = parse_value(cur, ctx, Type::I1)?;
            cur.expect(Tok::Comma)?;
            let (ty, on_true) = parse_typed_value(cur, ctx)?;
            cur.expect(Tok::Comma)?;
            let _ty2 = cur.ty()?;
            let on_false = parse_value(cur, ctx, ty)?;
            Ok(Inst::Select {
                ty,
                cond,
                on_true,
                on_false,
            })
        }
        "alloca" => {
            let ty = cur.ty()?;
            let count = if cur.eat(Tok::Comma) {
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
            let ptr = parse_value(cur, ctx, Type::Ptr)?;
            Ok(Inst::Load { ty, ptr })
        }
        "store" => {
            let (ty, val) = parse_typed_value(cur, ctx)?;
            cur.expect(Tok::Comma)?;
            let _ptr_ty = cur.ty()?;
            let ptr = parse_value(cur, ctx, Type::Ptr)?;
            Ok(Inst::Store { ty, val, ptr })
        }
        "gep" => {
            let inbounds = cur.eat(Tok::Ident("inbounds"));
            let _ptr_ty = cur.ty()?;
            let ptr = parse_value(cur, ctx, Type::Ptr)?;
            cur.expect(Tok::Comma)?;
            let _off_ty = cur.ty()?;
            let offset = parse_value(cur, ctx, Type::I64)?;
            Ok(Inst::Gep {
                inbounds,
                ptr,
                offset,
            })
        }
        "call" => {
            let ret = cur.ret_ty()?;
            let callee = cur.global("callee")?.to_string();
            cur.expect(Tok::LParen)?;
            let args = cur.list(Tok::RParen, |cur| parse_typed_value(cur, ctx))?;
            Ok(Inst::Call { ret, callee, args })
        }
        "unsupported" => match cur.next() {
            Some(Tok::Str(s)) => Ok(Inst::Unsupported {
                feature: s.to_string(),
            }),
            got => Err(cur.err(format!("expected feature string, got {got:?}"))),
        },
        other => Err(cur.err(format!("unknown instruction '{other}'"))),
    }
}

/// Parse a terminator, or `None` when `head` names none.
fn parse_term<'a>(
    cur: &mut Cursor<'a>,
    ctx: &mut FnCtx<'a>,
    head: &str,
) -> Result<Option<Term>, ParseError> {
    let term = match head {
        "ret" => match cur.ret_ty()? {
            None => Term::Ret(None),
            Some(ty) => Term::Ret(Some((ty, parse_value(cur, ctx, ty)?))),
        },
        "br" => match cur.ident()? {
            "label" => {
                let name = cur.ident()?;
                Term::Br(ctx.block(cur, name)?)
            }
            "i1" => {
                let cond = parse_value(cur, ctx, Type::I1)?;
                cur.expect(Tok::Comma)?;
                cur.keyword("label", "")?;
                let t = cur.ident()?;
                cur.expect(Tok::Comma)?;
                cur.keyword("label", "")?;
                let e = cur.ident()?;
                Term::CondBr {
                    cond,
                    if_true: ctx.block(cur, t)?,
                    if_false: ctx.block(cur, e)?,
                }
            }
            _ => return Err(cur.err("expected 'label' or 'i1' after br")),
        },
        "switch" => {
            let (ty, val) = parse_typed_value(cur, ctx)?;
            cur.expect(Tok::Comma)?;
            cur.keyword("label", "")?;
            let name = cur.ident()?;
            let default = ctx.block(cur, name)?;
            cur.expect(Tok::LBracket)?;
            let cases = cur.list(Tok::RBracket, |cur| {
                let v = cur.int()?;
                cur.expect(Tok::Colon)?;
                let name = cur.ident()?;
                Ok((int_literal(cur, ty, v)?, ctx.block(cur, name)?))
            })?;
            Term::Switch {
                ty,
                val,
                default,
                cases,
            }
        }
        "unreachable" => Term::Unreachable,
        _ => return Ok(None),
    };
    Ok(Some(term))
}

fn parse_phi<'a>(cur: &mut Cursor<'a>, ctx: &mut FnCtx<'a>) -> Result<Phi, ParseError> {
    let ty = cur.ty()?;
    let mut incoming = Vec::new();
    loop {
        cur.expect(Tok::LBracket)?;
        let v = if cur.eat(Tok::Ident("_")) {
            None
        } else {
            Some(parse_value(cur, ctx, ty)?)
        };
        cur.expect(Tok::Comma)?;
        let label = cur.ident()?;
        cur.expect(Tok::RBracket)?;
        incoming.push((ctx.block(cur, label)?, v));
        if !cur.eat(Tok::Comma) {
            break;
        }
    }
    Ok(Phi { ty, incoming })
}

/// Parse one body line into block `bid`.
fn parse_line<'a>(
    cur: &mut Cursor<'a>,
    ctx: &mut FnCtx<'a>,
    bid: BlockId,
) -> Result<(), ParseError> {
    // Result-producing statement or phi?
    if let Some(Tok::Reg(res_name)) = cur.peek() {
        cur.next();
        cur.expect(Tok::Eq)?;
        let res = ctx.reg(res_name);
        let head = cur.ident()?;
        if head == "phi" {
            let phi = parse_phi(cur, ctx)?;
            ctx.func.block_mut(bid).phis.push((res, phi));
        } else {
            let inst = parse_rhs(cur, ctx, head)?;
            ctx.func.block_mut(bid).stmts.push(Stmt {
                result: Some(res),
                inst,
            });
        }
    } else {
        let head = cur.ident()?;
        if let Some(term) = parse_term(cur, ctx, head)? {
            ctx.func.block_mut(bid).term = term;
        } else {
            let inst = parse_rhs(cur, ctx, head)?;
            ctx.func
                .block_mut(bid)
                .stmts
                .push(Stmt { result: None, inst });
        }
    }
    cur.end()
}

/// Parse a `define` whose header follows `cur` and whose body starts at
/// row `first`. Returns the function and the row after its closing brace.
fn parse_define(
    lexed: &Lexed,
    cur: &mut Cursor,
    first: usize,
) -> Result<(Function, usize), ParseError> {
    let name = cur.global("name")?;
    cur.expect(Tok::LParen)?;
    let params = cur.list(Tok::RParen, |cur| {
        let ty = cur.ty()?;
        match cur.next() {
            Some(Tok::Reg(r)) => Ok((ty, r)),
            got => Err(cur.err(format!("expected %param, got {got:?}"))),
        }
    })?;
    let ret = cur.arrow_ty()?;
    cur.expect(Tok::LBrace)?;
    cur.end()?;
    let mut ctx = FnCtx {
        func: Function::new(name, ret),
        regs: HashMap::new(),
        blocks: HashMap::new(),
    };
    for (ty, pname) in params {
        let r = ctx.func.add_param(ty, pname);
        ctx.regs.insert(pname, r);
    }

    // Find the closing brace and pre-create blocks for all labels.
    let end = (first..lexed.lines.len())
        .find(|&k| matches!(lexed.cursor(k).toks, [Tok::RBrace]))
        .ok_or_else(|| cur.err("unclosed function body"))?;
    for k in first..end {
        let label_line = lexed.cursor(k);
        if let [Tok::Ident(label), Tok::Colon] = *label_line.toks {
            if ctx.blocks.contains_key(label) {
                return Err(label_line.err(format!("duplicate label {label}")));
            }
            let b = ctx.func.add_block(Block::new(label));
            ctx.blocks.insert(label, b);
        }
    }

    let mut current: Option<BlockId> = None;
    for k in first..end {
        let mut cur = lexed.cursor(k);
        if let [Tok::Ident(label), Tok::Colon] = *cur.toks {
            current = Some(ctx.blocks[label]);
            continue;
        }
        let bid = current.ok_or_else(|| cur.err("instruction before first label"))?;
        parse_line(&mut cur, &mut ctx, bid)?;
    }
    Ok((ctx.func, end + 1))
}

/// Parse a whole module from text.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let lexed = Lexed::new(text)?;
    let mut module = Module::new();
    let mut i = 0;
    while i < lexed.lines.len() {
        let mut cur = lexed.cursor(i);
        i += 1;
        match cur.ident()? {
            "global" => {
                let name = cur.global("name")?.to_string();
                cur.expect(Tok::Colon)?;
                let ty = cur.ty()?;
                let size = if cur.eat(Tok::LBracket) {
                    let s = cur.int()? as u64;
                    cur.expect(Tok::RBracket)?;
                    s
                } else {
                    1
                };
                let init = if cur.eat(Tok::Eq) {
                    Some(parse_const(&mut cur, ty, 0)?)
                } else {
                    None
                };
                cur.end()?;
                module.globals.push(Global {
                    name,
                    ty,
                    size,
                    init,
                });
            }
            "declare" => {
                let name = cur.global("name")?.to_string();
                cur.expect(Tok::LParen)?;
                let params = cur.list(Tok::RParen, Cursor::ty)?;
                let ret = cur.arrow_ty()?;
                cur.end()?;
                module.declares.push(ExternDecl { name, ret, params });
            }
            "define" => {
                let (func, next) = parse_define(&lexed, &mut cur, i)?;
                module.functions.push(func);
                i = next;
            }
            other => return Err(cur.err(format!("unknown top-level item '{other}'"))),
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
