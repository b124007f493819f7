//! Hostile IR shared by several test crates, each of which uses its own
//! part of it.
//!
//! [`MODULES`] are modules that every way into the system must refuse
//! cleanly (the CLI with exit 2, the daemon with 400), each with a piece
//! of its refusal: integer literals typed `ptr` or `void`, names defined
//! twice, and top-level lines with trailing tokens. [`MEMORY_HOGS`] are
//! valid modules whose runs ask for more memory than the interpreter's
//! budget allows.

#![allow(dead_code)]

pub const MODULES: [(&str, &str); 10] = [
    (
        "define @f() {\nentry:\n  %a = load i32, ptr 5\n  ret void\n}\n",
        "line 3: integer literal 5 of non-integer type ptr",
    ),
    (
        "define @f(ptr %p) {\na:\n  switch ptr %p, label a [ 1: a ]\n}\n",
        "line 3: integer literal 1 of non-integer type ptr",
    ),
    (
        "global @G : ptr = 5\n",
        "line 1: integer literal 5 of non-integer type ptr",
    ),
    (
        "define @f() {\nentry:\n  %x = add void 1, 2\n  ret void\n}\n",
        "line 3: integer literal 1 of non-integer type void",
    ),
    (
        "define @f() {\nentry:\n  ret void\n}\ndefine @f() {\nentry:\n  ret void\n}\n",
        "redefinition of @f",
    ),
    ("global @G : i32\nglobal @G : i64\n", "redefinition of @G"),
    (
        "declare @f()\ndefine @f() {\nentry:\n  ret void\n}\n",
        "redefinition of @f",
    ),
    ("global @G : i32 = 5 7 garbage\n", "line 1: trailing tokens"),
    ("declare @print(i32) junk\n", "line 1: trailing tokens"),
    (
        "define @main() -> i32 { trailing\nentry:\n  ret i32 0\n}\n",
        "line 1: trailing tokens",
    ),
];

/// Runs past the interpreter's memory budget: an alloca of `-1` slots, a
/// global of 2^62 slots, and a 1000-iteration loop allocating 2 000 000
/// slots per iteration (about 48 GB over the run). Each ends `OutOfFuel`,
/// the inconclusive end.
pub const MEMORY_HOGS: [&str; 3] = [
    "define @main() {\nentry:\n  %p = alloca i32, -1\n  ret void\n}\n",
    "global @G : i32[4611686018427387904]\ndefine @main() {\nentry:\n  ret void\n}\n",
    concat!(
        "declare @print(i32)\n",
        "define @main() {\n",
        "entry:\n",
        "  br label loop\n",
        "loop:\n",
        "  %i = phi i32 [ 0, entry ], [ %j, loop ]\n",
        "  %p = alloca i32, 2000000\n",
        "  store i32 %i, ptr %p\n",
        "  %j = add i32 %i, 1\n",
        "  %c = icmp slt i32 %j, 1000\n",
        "  br i1 %c, label loop, label exit\n",
        "exit:\n",
        "  call void @print(i32 %j)\n",
        "  ret void\n",
        "}\n",
    ),
];
