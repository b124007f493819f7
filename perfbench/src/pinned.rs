//! Known answers pinned from the program's own output, one table per
//! workload, compiled into the benchmark. `perfbench pin` regenerates
//! them; a change to verdicts shows up as a failed known-answer check
//! until the tables are deliberately re-pinned.
//!
//! `opt.txt`: one line per corpus module, in corpus order: the FNV-1a
//! digest of the module's step lines.
//!
//! `fuzz.txt`: one line per campaign seed, `<seed> <verdicts> <findings>
//! <attributed>`: the seed's oracle verdicts in pass order (one letter
//! each, see [`verdict_letter`]), its finding count, and the historical
//! bugs its findings were attributed to (`-` for none).

use crate::{fuzz, opt};
use crellvm_fuzz::OracleVerdict;
use std::process::ExitCode;

const OPT_TABLE: &str = include_str!("../pinned/opt.txt");
const FUZZ_TABLE: &str = include_str!("../pinned/fuzz.txt");

/// FNV-1a over the step lines of one module, joined by newlines.
pub fn digest(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            h = (h ^ u64::from(b'\n')).wrapping_mul(0x0100_0000_01b3);
        }
        for b in line.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Pinned digest of every corpus module, in corpus order.
pub fn opt_table() -> Vec<u64> {
    OPT_TABLE
        .lines()
        .filter_map(|l| u64::from_str_radix(l.trim(), 16).ok())
        .collect()
}

/// One campaign seed's pinned answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedAnswer {
    pub verdicts: String,
    pub findings: u64,
    pub attributed: Vec<String>,
}

pub fn verdict_letter(v: OracleVerdict) -> char {
    match v {
        OracleVerdict::Agree => 'a',
        OracleVerdict::Inconclusive => 'i',
        OracleVerdict::CompletenessGap => 'g',
        OracleVerdict::SoundnessAlarm => 's',
        OracleVerdict::TierDivergence => 't',
    }
}

/// One pinned campaign seed.
#[derive(Debug, Clone)]
pub struct PinnedSeed {
    pub seed: u64,
    pub answer: SeedAnswer,
}

/// Every pinned campaign seed, in table order.
pub fn fuzz_table() -> Vec<PinnedSeed> {
    FUZZ_TABLE.lines().filter_map(parse_seed).collect()
}

fn parse_seed(line: &str) -> Option<PinnedSeed> {
    let mut f = line.split_whitespace();
    let seed = f.next()?.parse().ok()?;
    let verdicts = f.next()?.to_string();
    let findings = f.next()?.parse().ok()?;
    let attributed = match f.next()? {
        "-" => Vec::new(),
        list => list.split(',').map(str::to_string).collect(),
    };
    Some(PinnedSeed {
        seed,
        answer: SeedAnswer {
            verdicts,
            findings,
            attributed,
        },
    })
}

fn format_seed(p: &PinnedSeed) -> String {
    let a = &p.answer;
    let attributed = if a.attributed.is_empty() {
        "-".to_string()
    } else {
        a.attributed.join(",")
    };
    format!("{} {} {} {attributed}", p.seed, a.verdicts, a.findings)
}

/// Regenerate both tables from the program's current output (run from
/// the repository root; rebuild afterwards to compile them in).
pub fn regenerate() -> Result<ExitCode, String> {
    let dir = std::path::Path::new("perfbench/pinned");
    let opt_lines: Vec<String> = opt::pin_modules()?
        .iter()
        .map(|digest| format!("{digest:016x}"))
        .collect();
    eprintln!("pinned {} opt modules", opt_lines.len());
    let fuzz_lines: Vec<String> = fuzz::pin_seeds()?.iter().map(format_seed).collect();
    eprintln!("pinned {} fuzz seeds", fuzz_lines.len());
    let write = |name: &str, lines: &[String]| {
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n") + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    write("opt.txt", &opt_lines)?;
    write("fuzz.txt", &fuzz_lines)?;
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_lines() {
        let a = digest(&["ab".to_string(), "c".to_string()]);
        let b = digest(&["a".to_string(), "bc".to_string()]);
        assert_ne!(a, b);
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn seed_lines_round_trip() {
        let p = PinnedSeed {
            seed: 7,
            answer: SeedAnswer {
                verdicts: "aagi".into(),
                findings: 2,
                attributed: vec!["pr28562".into(), "pr28562".into()],
            },
        };
        let line = format_seed(&p);
        assert_eq!(line, "7 aagi 2 pr28562,pr28562");
        let back = parse_seed(&line).unwrap();
        assert_eq!((back.seed, back.answer), (7, p.answer));
    }
}
