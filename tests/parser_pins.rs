//! Pins the IR parser's answers: the exact `(line, message)` of every
//! parse error it can report, and the bytes of every function it builds
//! from the printed corpus. Every cache key starts from those bytes, so a
//! parser change that moves one cold-starts every cache written before.

use crellvm::erhl::serialize_bin::{fnv64_extend, to_bytes};
use crellvm::ir::{parse_module, printer::print_module};

/// One input per `ParseError` site of the parser, plus rows for the
/// debug rendering of each token kind and for error precedence. Each
/// row is `(input, line, message)`.
const ERRORS: &[(&str, usize, &str)] = &[
    // Lexer.
    (
        "define @f() {\nentry:\n  unsupported \"abc\n}\n",
        3,
        "unterminated string",
    ),
    (
        "define @f() {\nentry:\n  % = add i32 1, 2\n}\n",
        3,
        "expected name after '%'",
    ),
    ("declare @(i32)", 1, "expected name after '@'"),
    (
        "global @G : i64 = -99999999999999999999",
        1,
        "bad integer -99999999999999999999",
    ),
    ("global @G : i32 = - 1", 1, "stray '-'"),
    (
        "global @G : i64 = 99999999999999999999",
        1,
        "bad integer 99999999999999999999",
    ),
    ("global @G : i32 = 1 $", 1, "unexpected character '$'"),
    // The whole text is lexed first: a lex error on a later line wins
    // over a parse error on an earlier one.
    (
        "bogus\nglobal @G : i32 = 1 #",
        2,
        "unexpected character '#'",
    ),
    // Cursor.
    (
        "global @G i32",
        1,
        "expected Colon, got Some(Ident(\"i32\"))",
    ),
    ("global @G -> i32", 1, "expected Colon, got Some(Arrow)"),
    ("global @G : 5", 1, "expected identifier, got Some(Int(5))"),
    ("global @G :", 1, "expected identifier, got None"),
    ("global @G : i33", 1, "unknown type i33"),
    ("global @G : é", 1, "unknown type é"),
    (
        "global @G : i32[x]",
        1,
        "expected integer, got Some(Ident(\"x\"))",
    ),
    (
        "define @f() {\nentry:\n  br label nowhere\n}\n",
        3,
        "unknown block label nowhere",
    ),
    // Constants.
    (
        "global @G : i64 = ptrtoint(@G as i64)",
        1,
        "expected 'to' in ptrtoint constexpr",
    ),
    (
        "global @G : i32 = foo(i32 1, 2)",
        1,
        "unknown constant head 'foo'",
    ),
    (
        "global @G : i32 = (",
        1,
        "expected constant, got Some(LParen)",
    ),
    // Instructions.
    (
        "define @f() {\nentry:\n  %x = zext i8 1 as i32\n  ret void\n}\n",
        3,
        "expected 'to' in cast",
    ),
    (
        "define @f() {\nentry:\n  %x = icmp foo i32 1, 2\n  ret void\n}\n",
        3,
        "unknown icmp predicate foo",
    ),
    (
        "define @f() {\nentry:\n  %x = call i33 @g()\n  ret void\n}\n",
        3,
        "bad return type i33",
    ),
    (
        "define @f() {\nentry:\n  call void g()\n  ret void\n}\n",
        3,
        "expected @callee, got Some(Ident(\"g\"))",
    ),
    (
        "define @f() {\nentry:\n  call void \"a\\b\"()\n  ret void\n}\n",
        3,
        "expected @callee, got Some(Str(\"a\\\\b\"))",
    ),
    (
        "define @f() {\nentry:\n  unsupported 5\n  ret void\n}\n",
        3,
        "expected feature string, got Some(Int(5))",
    ),
    (
        "define @f() {\nentry:\n  %x = bogus i32 1\n}\n",
        3,
        "unknown instruction 'bogus'",
    ),
    (
        "define @f() {\nentry:\n  %x = ret void\n}\n",
        3,
        "unknown instruction 'ret'",
    ),
    // Terminators. (`parse_term` is reached only on the four terminator
    // heads, so its "unknown terminator" arm has no input.)
    (
        "define @f() {\nentry:\n  ret i33 1\n}\n",
        3,
        "bad return type i33",
    ),
    (
        "define @f() {\na:\n  br i1 1, lable a, label a\n}\n",
        3,
        "expected 'label'",
    ),
    (
        "define @f() {\na:\n  br i1 1, label a, lable a\n}\n",
        3,
        "expected 'label'",
    ),
    (
        "define @f() {\na:\n  br foo\n}\n",
        3,
        "expected 'label' or 'i1' after br",
    ),
    (
        "define @f() {\na:\n  switch i32 1, lable a [ ]\n}\n",
        3,
        "expected 'label'",
    ),
    // Top-level items.
    (
        "global G : i32",
        1,
        "expected @name, got Some(Ident(\"G\"))",
    ),
    ("global %ü : i32", 1, "expected @name, got Some(Reg(\"ü\"))"),
    (
        "declare f(i32)",
        1,
        "expected @name, got Some(Ident(\"f\"))",
    ),
    ("define f() {", 1, "expected @name, got Some(Ident(\"f\"))"),
    (
        "define @f(i32 n) {",
        1,
        "expected %param, got Some(Ident(\"n\"))",
    ),
    (
        "define @f() {\nentry:\n  ret void\n",
        1,
        "unclosed function body",
    ),
    (
        "define @f() {\na:\n  ret void\na:\n  ret void\n}\n",
        4,
        "duplicate label a",
    ),
    (
        "define @f() {\n  ret void\n}\n",
        2,
        "instruction before first label",
    ),
    (
        "define @f() {\nentry:\n  ret void 5\n}\n",
        3,
        "trailing tokens",
    ),
    ("5", 1, "expected identifier, got Some(Int(5))"),
    // A top-level line ends where its item does, as a body line does.
    ("global @G : i32 = 5 7 garbage", 1, "trailing tokens"),
    ("declare @print(i32) junk", 1, "trailing tokens"),
    (
        "define @main() -> i32 { trailing\nentry:\n  ret i32 0\n}\n",
        1,
        "trailing tokens",
    ),
    // Integer literals need integer types.
    (
        "define @f() {\nentry:\n  %a = load i32, ptr 5\n  ret void\n}\n",
        3,
        "integer literal 5 of non-integer type ptr",
    ),
    (
        "define @f(ptr %p) {\na:\n  switch ptr %p, label a [ -1: a ]\n}\n",
        3,
        "integer literal -1 of non-integer type ptr",
    ),
    (
        "global @G : ptr = 5",
        1,
        "integer literal 5 of non-integer type ptr",
    ),
    (
        "define @f() {\nentry:\n  %x = add void 1, 2\n  ret void\n}\n",
        3,
        "integer literal 1 of non-integer type void",
    ),
    (
        "\n; a comment\n\nbogus",
        4,
        "unknown top-level item 'bogus'",
    ),
];

#[test]
fn every_parse_error_keeps_its_line_and_message() {
    for &(input, line, message) in ERRORS {
        let err = parse_module(input).expect_err(input);
        assert_eq!(
            (err.line, err.message.as_str()),
            (line, message),
            "{input:?}"
        );
    }
    // Constant nesting past the cap.
    let deep = format!(
        "define @f() -> i32 {{\nentry:\n  %x = add i32 {}1{}, 0\n  ret i32 %x\n}}\n",
        "sub(i32 ".repeat(257),
        ", 1)".repeat(257)
    );
    let err = parse_module(&deep).unwrap_err();
    assert_eq!(
        (err.line, err.message.as_str()),
        (3, "constant expression nested deeper than 256 levels")
    );
}

/// FNV-1a over `to_bytes` of every function parsed back from the printed
/// `corpus(0.05, 0)`, in corpus order.
#[test]
fn corpus_function_bytes_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut functions = 0;
    for (_, modules) in crellvm::gen::corpus(0.05, 0) {
        for m in &modules {
            let parsed = parse_module(&print_module(m)).expect("corpus module parses");
            for f in &parsed.functions {
                h = fnv64_extend(h, &to_bytes(f).expect("function encodes"));
                functions += 1;
            }
        }
    }
    assert_eq!((functions, h), (350, 0xcf72_8551_44f9_8461));
}
