//! The regression-gate harness shared by the eight `bench_*` binaries
//! that `scripts/check.sh` runs against the committed `BENCH_*.json`.
//!
//! A gated binary parses its flags with [`Args::parse`], measures, builds
//! its output document, then hands it to [`Args::finish`] together with
//! its gates. `finish` writes the document and, under `--check`,
//! evaluates every gate against the committed baseline, prints one line
//! per gate and exits 1 if any failed — listing all of them, not just
//! the first.
//!
//! Flags: `--out FILE` (output document), `--steps N` (measured
//! steps/reps), `--secs S` (per-arm duration, read only by
//! `bench_serve`) and `--check BASELINE` (committed document to gate
//! against; read at parse time so a missing baseline fails before any
//! measuring starts). Unknown flags panic.
//!
//! Baseline fields are read by dotted path: `recycled.bytes_per_step`;
//! a `key=value` segment selects the element of an array whose `key`
//! matches, as in `cases.name=matmul_512.simd_speedup`.

use sagdfn_json::Json;
use std::time::Instant;

/// Parsed flags of a gated bench binary.
pub struct Args {
    /// Where the output document is written.
    pub out: String,
    /// Measured steps (or timing reps) per arm.
    pub steps: usize,
    /// Seconds per closed-loop arm (`bench_serve` only).
    pub secs: f64,
    check: Option<Baseline>,
}

impl Args {
    /// Parses `std::env::args()` with the binary's default output file
    /// and step count.
    pub fn parse(default_out: &str, default_steps: usize) -> Args {
        Args::parse_from(std::env::args().skip(1), default_out, default_steps)
    }

    fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
        default_steps: usize,
    ) -> Args {
        let mut out = Args {
            out: default_out.to_string(),
            steps: default_steps,
            secs: 1.0,
            check: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
            match flag.as_str() {
                "--out" => out.out = value(),
                "--steps" => out.steps = value().parse().expect("--steps wants an integer"),
                "--secs" => out.secs = value().parse().expect("--secs wants a number"),
                "--check" => out.check = Some(Baseline::read(&value())),
                other => {
                    panic!("unknown flag '{other}' (expected --out / --steps / --secs / --check)")
                }
            }
        }
        out
    }

    /// Writes `doc` to `--out`; under `--check`, evaluates the gates
    /// `gates` builds from the baseline and exits 1 if any failed.
    pub fn finish(&self, doc: Json, gates: impl FnOnce(&Baseline) -> Vec<Gate>) {
        std::fs::write(&self.out, doc.to_string_pretty().expect("serialize"))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.out));
        println!("wrote {}", self.out);
        if let Some(base) = &self.check {
            let gates = gates(base);
            let failed = report(&gates);
            if failed > 0 {
                eprintln!(
                    "{failed} of {} gates failed against {}",
                    gates.len(),
                    base.path
                );
                std::process::exit(1);
            }
        }
    }
}

/// A committed baseline document.
pub struct Baseline {
    path: String,
    doc: Json,
}

impl Baseline {
    /// Reads and parses `path`, panicking with the path on failure.
    fn read(path: &str) -> Baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        Baseline {
            path: path.to_string(),
            doc,
        }
    }

    /// The node at dotted `path`, panicking with the path when absent.
    pub fn at(&self, path: &str) -> &Json {
        path.split('.')
            .try_fold(&self.doc, |node, seg| match (node, seg.split_once('=')) {
                (Json::Arr(items), Some((key, want))) => items
                    .iter()
                    .find(|it| it.get(key).is_some_and(|v| matches(v, want))),
                _ => node.get(seg),
            })
            .unwrap_or_else(|| panic!("baseline {} has no field '{path}'", self.path))
    }

    /// The number at dotted `path`.
    pub fn f64(&self, path: &str) -> f64 {
        self.at(path)
            .as_f64()
            .unwrap_or_else(|e| panic!("baseline {} field '{path}': {e}", self.path))
    }
}

fn matches(v: &Json, want: &str) -> bool {
    match v {
        Json::Str(s) => s == want,
        Json::Num(x) => want.parse() == Ok(*x),
        _ => false,
    }
}

/// One pass/fail check of a measured value.
#[derive(Debug)]
pub struct Gate {
    name: String,
    /// `value op limit` as printed; empty for [`Gate::holds`].
    test: String,
    pass: bool,
}

impl Gate {
    /// Passes when `value >= limit` (a NaN value fails).
    pub fn at_least(name: impl Into<String>, value: f64, limit: f64) -> Gate {
        let test = format!("{} >= {}", num(value), num(limit));
        Gate {
            name: name.into(),
            test,
            pass: value >= limit,
        }
    }

    /// Passes when `value <= limit` (a NaN value fails).
    pub fn at_most(name: impl Into<String>, value: f64, limit: f64) -> Gate {
        let test = format!("{} <= {}", num(value), num(limit));
        Gate {
            name: name.into(),
            test,
            pass: value <= limit,
        }
    }

    /// Passes when `ok`: a structural condition with no threshold.
    pub fn holds(name: impl Into<String>, ok: bool) -> Gate {
        Gate {
            name: name.into(),
            test: String::new(),
            pass: ok,
        }
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "  gate {}: ", self.name)?;
        if !self.test.is_empty() {
            write!(f, "{}: ", self.test)?;
        }
        f.write_str(if self.pass { "pass" } else { "FAIL" })
    }
}

/// Four significant digits, integers without a fraction.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let digits = (3.0 - v.abs().log10().floor()).clamp(0.0, 12.0) as usize;
        format!("{v:.digits$}")
    }
}

/// Prints one line per gate and returns how many failed.
fn report(gates: &[Gate]) -> usize {
    for gate in gates {
        println!("{gate}");
    }
    gates.iter().filter(|g| !g.pass).count()
}

/// Runs `f` once and returns its result with the elapsed wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Min-of-reps wall timing: `warmup` untimed calls, then the fastest of
/// `reps` timed calls — the least noisy estimate on a shared machine
/// (drift and interrupts only ever add time). In `full` trace mode each
/// timed rep is also recorded as a `name` span.
pub fn time_min<R>(
    name: &'static str,
    warmup: usize,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let _s = sagdfn_obs::span(name);
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(|s| s.to_string()), "BENCH_x.json", 7)
    }

    fn baseline() -> Baseline {
        let doc = Json::parse(
            r#"{"recycled": {"bytes_per_step": 512},
                "cases": [{"name": "a", "n": 2000, "s": 1.5}, {"name": "b", "n": 8000, "s": 2.5}]}"#,
        )
        .unwrap();
        Baseline {
            path: "BENCH_x.json".to_string(),
            doc,
        }
    }

    #[test]
    fn at_least_and_at_most_pass_at_the_limit_and_fail_past_it() {
        let limit = 2.0f64;
        let (below, above) = (limit.next_down(), limit.next_up());
        assert!(Gate::at_least("g", limit, limit).pass);
        assert!(Gate::at_least("g", above, limit).pass);
        assert!(!Gate::at_least("g", below, limit).pass);
        assert!(Gate::at_most("g", limit, limit).pass);
        assert!(Gate::at_most("g", below, limit).pass);
        assert!(!Gate::at_most("g", above, limit).pass);
        assert!(!Gate::at_least("g", f64::NAN, limit).pass);
        assert!(!Gate::at_most("g", f64::NAN, limit).pass);
        assert!(Gate::holds("g", true).pass && !Gate::holds("g", false).pass);
    }

    #[test]
    fn every_failing_gate_is_reported_and_counted() {
        let gates = [
            Gate::at_least("speedup", 1.0, 3.0),
            Gate::at_most("acquires", 0.0, 0.0),
            Gate::holds("dispatch dense", false),
        ];
        assert_eq!(report(&gates), 2);
        assert_eq!(gates[0].to_string(), "  gate speedup: 1 >= 3: FAIL");
        assert_eq!(gates[1].to_string(), "  gate acquires: 0 <= 0: pass");
        assert_eq!(gates[2].to_string(), "  gate dispatch dense: FAIL");
        assert_eq!(report(&gates[1..2]), 0);
    }

    #[test]
    fn baseline_fields_are_read_by_path() {
        let b = baseline();
        assert_eq!(b.f64("recycled.bytes_per_step"), 512.0);
        assert_eq!(b.f64("cases.name=b.s"), 2.5);
        assert_eq!(b.f64("cases.n=2000.s"), 1.5);
        assert_eq!(b.at("cases.n=8000.name").as_str().unwrap(), "b");
    }

    #[test]
    #[should_panic(expected = "has no field 'cases.n=20000.s'")]
    fn a_missing_baseline_path_panics_and_names_it() {
        baseline().f64("cases.n=20000.s");
    }

    #[test]
    #[should_panic(expected = "cannot read baseline /nonexistent/BENCH_x.json")]
    fn a_missing_baseline_file_panics_and_names_it() {
        parse(&["--check", "/nonexistent/BENCH_x.json"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag '--reps'")]
    fn an_unknown_flag_panics() {
        parse(&["--reps", "3"]);
    }

    #[test]
    fn flags_override_the_defaults() {
        let a = parse(&[]);
        assert_eq!((a.out.as_str(), a.steps, a.secs), ("BENCH_x.json", 7, 1.0));
        let a = parse(&["--out", "o.json", "--steps", "3", "--secs", "0.5"]);
        assert_eq!((a.out.as_str(), a.steps, a.secs), ("o.json", 3, 0.5));
        assert!(a.check.is_none());
    }

    #[test]
    fn numbers_print_with_four_significant_digits() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(3.28027), "3.280");
        assert_eq!(num(0.00512345), "0.005123");
        assert_eq!(num(123456.7), "123457");
        assert_eq!(num(f64::NAN), "NaN");
    }
}
