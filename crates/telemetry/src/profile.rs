//! Cost profiles folded from causal span trees: where validation time
//! goes, at phase → pass → inference-rule granularity.
//!
//! The paper's Fig 6/8 time columns answer "how much"; a [`Profile`]
//! answers "where". It folds a [`SpanTree`](crate::SpanTree) into
//! aggregated stacks keyed by the full frame path (module → function →
//! pass → phase → proof command → rule), attributing to every stack:
//!
//! * **total weight** — the summed duration (or span count) of all spans
//!   at that exact stack;
//! * **self weight** — total minus the children's totals (clamped at
//!   zero), i.e. time spent *in* the frame rather than below it;
//! * **attribution** — every numeric span field summed per stack
//!   (`proof_bytes`, ...).
//!
//! Two weight models mirror the workspace's determinism contract:
//!
//! * [`ProfileWeight::Time`] — nanoseconds, the flamegraph view. Varies
//!   run to run like any wall-clock measurement.
//! * [`ProfileWeight::Cost`] — one unit per recorded span (a phase
//!   execution, a proof command, a rule application). A pure function of
//!   the proof, so the folded output is **byte-identical at any `--jobs`
//!   count** — the profile analogue of
//!   [`Snapshot::deterministic`](crate::Snapshot::deterministic).
//!
//! [`Profile::folded`] emits the collapsed-stack format
//! (`frame;frame;frame weight`) consumed by `inferno` and
//! `flamegraph.pl`; [`Profile::top_table`] renders the top-N self-weight
//! table behind `crellvm report --format profile`.

use crate::span::SpanTree;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The weight model a profile view is rendered under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileWeight {
    /// Recorded wall-clock nanoseconds (varies run to run).
    Time,
    /// One unit per span: a deterministic work count, byte-identical at
    /// any thread count.
    Cost,
}

/// One aggregated stack of a folded profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// The frame path from the root, sanitized for the folded format.
    pub stack: Vec<String>,
    /// Category of the leaf frame (`module`, `pass`, `phase`, `proof`,
    /// `rule`, ...).
    pub cat: String,
    /// Summed duration of all spans at this stack.
    pub total_ns: u64,
    /// Summed self time: duration minus children's durations.
    pub self_ns: u64,
    /// Number of spans folded into this stack.
    pub count: u64,
    /// Numeric span fields summed over the folded spans.
    pub attrs: BTreeMap<String, u64>,
}

impl ProfileEntry {
    /// The entry's self weight under a model.
    pub fn self_weight(&self, weight: ProfileWeight) -> u64 {
        match weight {
            ProfileWeight::Time => self.self_ns,
            ProfileWeight::Cost => self.count,
        }
    }
}

/// A cost profile: aggregated stacks in lexicographic stack order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// The aggregated stacks, sorted by frame path.
    pub entries: Vec<ProfileEntry>,
}

/// Folded-format frame sanitization: the format reserves `;` as the
/// frame separator and newline as the record separator, and the weight
/// is the last space-separated token — so spaces inside frames are fine,
/// but separators are not.
fn frame(name: &str) -> String {
    name.replace(';', ",").replace(['\n', '\r'], " ")
}

impl Profile {
    /// Fold a span tree into a profile.
    pub fn from_tree(tree: &SpanTree) -> Profile {
        // Children's summed duration per span id, for self-time.
        let mut child_ns = vec![0u64; tree.records.len()];
        for r in &tree.records {
            if let Some(p) = r.parent {
                child_ns[p as usize] += r.dur_ns;
            }
        }
        // Frame path per span id, built in DFS preorder (parents precede
        // children in the flattened representation).
        let mut paths: Vec<Vec<String>> = Vec::with_capacity(tree.records.len());
        let mut agg: BTreeMap<Vec<String>, ProfileEntry> = BTreeMap::new();
        for r in &tree.records {
            let mut path = match r.parent {
                Some(p) => paths[p as usize].clone(),
                None => Vec::new(),
            };
            path.push(frame(&r.name));
            paths.push(path.clone());

            let entry = agg.entry(path.clone()).or_insert_with(|| ProfileEntry {
                stack: path,
                cat: r.cat.clone(),
                total_ns: 0,
                self_ns: 0,
                count: 0,
                attrs: BTreeMap::new(),
            });
            entry.total_ns += r.dur_ns;
            entry.self_ns += r.dur_ns.saturating_sub(child_ns[r.id as usize]);
            entry.count += 1;
            for (k, v) in &r.fields {
                if let Some(n) = v.as_u64() {
                    *entry.attrs.entry(k.clone()).or_insert(0) += n;
                }
            }
        }
        Profile {
            entries: agg.into_values().collect(),
        }
    }

    /// The collapsed-stack flamegraph lines: one `a;b;c weight` line per
    /// stack with a nonzero self weight, in lexicographic stack order.
    /// Under [`ProfileWeight::Cost`] every stack appears (each folded at
    /// least one span) and the output is byte-identical at any thread
    /// count.
    pub fn folded(&self, weight: ProfileWeight) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let w = e.self_weight(weight);
            if w == 0 {
                continue;
            }
            let _ = writeln!(out, "{} {w}", e.stack.join(";"));
        }
        out
    }

    /// Total root weight: the summed total weight of the root stacks
    /// (for [`ProfileWeight::Time`]) or the total span count (for
    /// [`ProfileWeight::Cost`]). Because every span's duration is
    /// contained in its parent's, this equals the sum of all folded self
    /// weights exactly.
    pub fn root_total(&self, weight: ProfileWeight) -> u64 {
        match weight {
            ProfileWeight::Time => self
                .entries
                .iter()
                .filter(|e| e.stack.len() == 1)
                .map(|e| e.total_ns)
                .sum(),
            ProfileWeight::Cost => self.entries.iter().map(|e| e.count).sum(),
        }
    }

    /// Aggregate per leaf frame `(name, cat)`: summed self weight, total
    /// weight, span count, and attribution fields, sorted by self weight
    /// (descending, then by name for ties).
    fn rollup(&self, weight: ProfileWeight) -> Vec<FrameStat> {
        let mut by_frame: BTreeMap<(String, String), FrameStat> = BTreeMap::new();
        for e in &self.entries {
            let leaf = e.stack.last().cloned().unwrap_or_default();
            let stat = by_frame
                .entry((leaf.clone(), e.cat.clone()))
                .or_insert_with(|| FrameStat {
                    frame: leaf,
                    cat: e.cat.clone(),
                    self_weight: 0,
                    total_weight: 0,
                    count: 0,
                    attrs: BTreeMap::new(),
                });
            stat.self_weight += e.self_weight(weight);
            stat.total_weight += match weight {
                ProfileWeight::Time => e.total_ns,
                ProfileWeight::Cost => e.count,
            };
            stat.count += e.count;
            for (k, v) in &e.attrs {
                *stat.attrs.entry(k.clone()).or_insert(0) += v;
            }
        }
        let mut stats: Vec<FrameStat> = by_frame.into_values().collect();
        stats.sort_by(|a, b| {
            b.self_weight
                .cmp(&a.self_weight)
                .then_with(|| a.frame.cmp(&b.frame))
                .then_with(|| a.cat.cmp(&b.cat))
        });
        stats
    }

    /// The top-N self-weight table (`crellvm report --format profile`).
    /// Frames are aggregated by `(name, category)` over every stack they
    /// appear in; attribution fields are appended after the frame name.
    pub fn top_table(&self, weight: ProfileWeight, top: usize) -> String {
        let stats = self.rollup(weight);
        let shown = stats.len().min(top.max(1));
        let mut out = String::new();
        let (self_h, total_h) = match weight {
            ProfileWeight::Time => ("self(ms)", "total(ms)"),
            ProfileWeight::Cost => ("self", "total"),
        };
        let _ = writeln!(
            out,
            "{self_h:>10} {total_h:>10} {spans:>8}  {cat:<10} frame",
            spans = "spans",
            cat = "category",
        );
        for s in &stats[..shown] {
            let (sw, tw) = match weight {
                ProfileWeight::Time => (
                    format!("{:.2}", s.self_weight as f64 / 1e6),
                    format!("{:.2}", s.total_weight as f64 / 1e6),
                ),
                ProfileWeight::Cost => (s.self_weight.to_string(), s.total_weight.to_string()),
            };
            let _ = write!(
                out,
                "{sw:>10} {tw:>10} {:>8}  {:<10} {}",
                s.count, s.cat, s.frame
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, " {k}={v}");
            }
            let _ = writeln!(out);
        }
        if stats.len() > shown {
            let _ = writeln!(
                out,
                "... ({} more frames; raise --top)",
                stats.len() - shown
            );
        }
        out
    }
}

/// Per-frame aggregate behind [`Profile::top_table`].
struct FrameStat {
    frame: String,
    cat: String,
    self_weight: u64,
    total_weight: u64,
    count: u64,
    attrs: BTreeMap<String, u64>,
}

/// Convenience: numeric field extraction shared with the folding loop.
impl ProfileEntry {
    /// A named attribution value (0 when absent).
    pub fn attr(&self, key: &str) -> u64 {
        self.attrs.get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::span::{SpanNode, SpanTree};

    /// module(m) -> function(@f) -> pass(gvn) -> {phase(pcheck) ->
    /// proof(row) -> rule(x2)}; durations chosen so self-times are
    /// distinguishable.
    fn tree() -> SpanTree {
        let mut rule1 = SpanNode::new("add_commutative", "rule");
        rule1.dur_ns = 10;
        let mut rule2 = SpanNode::new("add_commutative", "rule");
        rule2.dur_ns = 20;
        let mut row = SpanNode::new("block entry, row 0", "proof");
        row.dur_ns = 50;
        row.fields.insert("preds".into(), Value::UInt(7));
        row.children = vec![rule1, rule2];
        let mut pcheck = SpanNode::new("pcheck", "phase");
        pcheck.dur_ns = 80;
        pcheck.children = vec![row];
        let mut pass = SpanNode::new("gvn", "pass");
        pass.dur_ns = 100;
        pass.fields.insert("proof_bytes".into(), Value::UInt(321));
        pass.children = vec![pcheck];
        let mut f = SpanNode::new("@f", "function");
        f.dur_ns = 100;
        f.children = vec![pass];
        let mut m = SpanNode::new("m", "module");
        m.dur_ns = 100;
        m.children = vec![f];
        SpanTree::from_root(&m)
    }

    #[test]
    fn folds_self_time_and_merges_same_stack_spans() {
        let p = Profile::from_tree(&tree());
        let find = |leaf: &str| {
            p.entries
                .iter()
                .find(|e| e.stack.last().map(String::as_str) == Some(leaf))
                .unwrap()
        };
        // The two rule spans fold into one stack.
        let rules = find("add_commutative");
        assert_eq!(rules.count, 2);
        assert_eq!(rules.total_ns, 30);
        assert_eq!(rules.self_ns, 30);
        // The row's self time excludes its rules.
        let row = find("block entry, row 0");
        assert_eq!(row.self_ns, 20);
        assert_eq!(row.attr("preds"), 7);
        // Module and function frames are pure parents: zero self time.
        assert_eq!(find("m").self_ns, 0);
        assert_eq!(find("@f").self_ns, 0);
        assert_eq!(find("gvn").attr("proof_bytes"), 321);
    }

    #[test]
    fn folded_self_weights_sum_to_the_root_total() {
        let p = Profile::from_tree(&tree());
        for weight in [ProfileWeight::Time, ProfileWeight::Cost] {
            let sum: u64 = p
                .folded(weight)
                .lines()
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(sum, p.root_total(weight));
        }
        assert_eq!(p.root_total(ProfileWeight::Time), 100);
        assert_eq!(p.root_total(ProfileWeight::Cost), 7);
    }

    #[test]
    fn folded_lines_are_sorted_and_separator_free() {
        let mut bad = SpanNode::new("a;b\nc", "proof");
        bad.dur_ns = 5;
        let mut root = SpanNode::new("m", "module");
        root.dur_ns = 5;
        root.children = vec![bad];
        let p = Profile::from_tree(&SpanTree::from_root(&root));
        let folded = p.folded(ProfileWeight::Cost);
        assert!(folded.contains("m;a,b c 1"), "{folded}");
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "folded output must be sorted");
    }

    #[test]
    fn top_table_ranks_by_self_weight_and_caps_rows() {
        let p = Profile::from_tree(&tree());
        let table = p.top_table(ProfileWeight::Cost, 2);
        let mut lines = table.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("frame"), "{header}");
        // Highest self-cost frames first: the 2-application rule stack.
        let first = lines.next().unwrap();
        assert!(first.contains("add_commutative"), "{first}");
        assert!(table.contains("more frames"), "{table}");
        // Attribution fields ride along.
        let full = p.top_table(ProfileWeight::Time, 50);
        assert!(full.contains("proof_bytes=321"), "{full}");
        assert!(!full.contains("more frames"));
    }
}
