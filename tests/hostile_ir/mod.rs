//! IR modules that every way into the system must refuse cleanly (the
//! CLI with exit 2, the daemon with 400), each with a piece of its
//! refusal: integer literals typed `ptr` or `void`, and names defined
//! twice.

pub const MODULES: [(&str, &str); 7] = [
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
];
