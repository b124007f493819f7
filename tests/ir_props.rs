//! Property tests for the IR substrate: the dominator implementation
//! against a naive fixpoint, parser totality, and generator/verifier
//! agreement.

use crellvm::gen::{generate_module, GenConfig};
use crellvm::ir::{parse_module, printer::print_module, verify_module, BlockId, Cfg, DomTree};
use proptest::prelude::*;
use std::collections::HashSet;

/// Naive dominator computation: iterate `dom(b) = {b} ∪ ⋂ dom(preds)` to
/// a fixpoint.
fn naive_dominators(f: &crellvm::ir::Function, cfg: &Cfg) -> Vec<HashSet<BlockId>> {
    let n = f.blocks.len();
    let all: HashSet<BlockId> = f.block_ids().collect();
    let mut dom: Vec<HashSet<BlockId>> = vec![all; n];
    dom[f.entry().index()] = [f.entry()].into_iter().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in f.block_ids() {
            if b == f.entry() || !cfg.is_reachable(b) {
                continue;
            }
            let mut next: Option<HashSet<BlockId>> = None;
            for p in cfg.preds(b) {
                if !cfg.is_reachable(*p) {
                    continue;
                }
                next = Some(match next {
                    None => dom[p.index()].clone(),
                    Some(acc) => acc.intersection(&dom[p.index()]).copied().collect(),
                });
            }
            let mut next = next.unwrap_or_default();
            next.insert(b);
            if next != dom[b.index()] {
                dom[b.index()] = next;
                changed = true;
            }
        }
    }
    dom
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cooper–Harvey–Kennedy agrees with the naive fixpoint on every
    /// generated CFG.
    #[test]
    fn dominators_agree_with_naive(seed in 0u64..5000) {
        let m = generate_module(&GenConfig { seed, functions: 2, max_depth: 3, ..GenConfig::default() });
        for f in &m.functions {
            let cfg = Cfg::new(f);
            let dom = DomTree::new(f, &cfg);
            let naive = naive_dominators(f, &cfg);
            for a in f.block_ids() {
                for b in f.block_ids() {
                    if !cfg.is_reachable(a) || !cfg.is_reachable(b) {
                        continue;
                    }
                    let fast = dom.dominates(a, b);
                    let slow = naive[b.index()].contains(&a);
                    prop_assert_eq!(fast, slow, "@{} {} dom {}", f.name, a, b);
                }
            }
        }
    }

    /// Every generated module verifies and round-trips through the
    /// printer/parser.
    #[test]
    fn generate_verify_roundtrip(seed in 5000u64..9000) {
        let m = generate_module(&GenConfig { seed, functions: 2, unsupported_rate: 0.2, ..GenConfig::default() });
        verify_module(&m).unwrap();
        let text = print_module(&m);
        let m2 = parse_module(&text).unwrap();
        verify_module(&m2).unwrap();
        prop_assert_eq!(print_module(&m2), text);
    }

    /// The parser is total: arbitrary input never panics (it may error).
    #[test]
    fn parser_never_panics(input in "\\PC{0,200}") {
        let _ = parse_module(&input);
    }

    /// Mutating one character of valid IR never panics the parser, and
    /// whatever still parses still verifies or errors cleanly.
    #[test]
    fn parser_single_char_mutations(seed in 0u64..200, pos_frac in 0.0f64..1.0, ch in any::<char>()) {
        let m = generate_module(&GenConfig { seed, functions: 1, ..GenConfig::default() });
        let mut text = print_module(&m);
        let pos = ((text.len() as f64) * pos_frac) as usize;
        let Some((idx, _)) = text.char_indices().nth(pos.min(text.chars().count().saturating_sub(1))) else {
            return Ok(());
        };
        text.replace_range(idx..text[idx..].chars().next().map(|c| idx + c.len_utf8()).unwrap_or(idx), &ch.to_string());
        if let Ok(m2) = parse_module(&text) {
            let _ = verify_module(&m2); // may fail, must not panic
        }
    }
}

/// Tokens a mutation inserts or substitutes: pieces of the grammar, plus
/// literals and types that need not fit where they land.
const TOKENS: &[&str] = &[
    "ptr",
    "void",
    "-5",
    "0",
    "7",
    "i1",
    "i32",
    "i64",
    "%x",
    "@G",
    "label",
    ",",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    ":",
    "=",
    "->",
    "_",
    "undef",
    "null",
    "add",
    "phi",
    "ret",
    "br",
    "switch",
    "to",
    "18446744073709551615",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Replacing, inserting or deleting one space-separated token of valid
    /// IR never panics the parser, and whatever still parses verifies or
    /// errors cleanly.
    #[test]
    fn parser_token_mutations(
        seed in 0u64..200,
        line_frac in 0.0f64..1.0,
        tok_frac in 0.0f64..1.0,
        op in 0usize..3,
        word in 0usize..TOKENS.len(),
    ) {
        let m = generate_module(&GenConfig { seed, functions: 1, ..GenConfig::default() });
        let text = print_module(&m);
        let mut lines: Vec<&str> = text.lines().collect();
        let li = ((lines.len() as f64 * line_frac) as usize).min(lines.len() - 1);
        let mut toks: Vec<&str> = lines[li].split(' ').collect();
        let ti = ((toks.len() as f64 * tok_frac) as usize).min(toks.len() - 1);
        match op {
            0 => toks[ti] = TOKENS[word],
            1 => toks.insert(ti, TOKENS[word]),
            _ => {
                toks.remove(ti);
            }
        }
        let line = toks.join(" ");
        lines[li] = &line;
        if let Ok(m2) = parse_module(&lines.join("\n")) {
            let _ = verify_module(&m2); // may fail, must not panic
        }
    }
}

/// Only integer types have integer literals: one typed `ptr` or `void` is
/// a parse error on its line, where the same literal with an integer type
/// parses.
#[test]
fn integer_literals_need_integer_types() {
    for (bad, good, line) in [
        (
            "define @f() {\nentry:\n  %a = load i32, ptr 5\n  ret void\n}\n",
            "define @f() {\nentry:\n  %a = load i32, ptr null\n  ret void\n}\n",
            3,
        ),
        (
            "define @f(ptr %p) {\na:\n  switch ptr %p, label a [ 1: a ]\n}\n",
            "define @f(i32 %p) {\na:\n  switch i32 %p, label a [ 1: a ]\n}\n",
            3,
        ),
        ("global @G : ptr = 5", "global @G : i64 = 5", 1),
        (
            "define @f() {\nentry:\n  %x = add void 1, 2\n  ret void\n}\n",
            "define @f() {\nentry:\n  %x = add i8 1, 2\n  ret void\n}\n",
            3,
        ),
    ] {
        let err = parse_module(bad).unwrap_err();
        assert_eq!(err.line, line, "{bad:?}");
        assert!(err.message.contains("of non-integer type"), "{err}");
        parse_module(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
    }
}
