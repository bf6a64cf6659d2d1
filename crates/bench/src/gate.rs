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
//! Flags: `--out FILE` (output document) and `--check BASELINE`
//! (committed document to gate against; read at parse time so a missing
//! baseline fails before any measuring starts). Unknown flags panic.
//! Run sizes are constants of each binary, so a check runs exactly the
//! measurement its baseline was recorded with.
//!
//! Every timing a gate reads comes from [`race`]: the arms it compares
//! run interleaved, round by round, and each keeps its fastest round.
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
    check: Option<Baseline>,
}

impl Args {
    /// Parses `std::env::args()` with the binary's default output file.
    pub fn parse(default_out: &str) -> Args {
        Args::parse_from(std::env::args().skip(1), default_out)
    }

    fn parse_from(args: impl IntoIterator<Item = String>, default_out: &str) -> Args {
        let mut out = Args {
            out: default_out.to_string(),
            check: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
            match flag.as_str() {
                "--out" => out.out = value(),
                "--check" => out.check = Some(Baseline::read(&value())),
                other => panic!("unknown flag '{other}' (expected --out / --check)"),
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

/// Races `arms` against each other and returns each arm's fastest
/// wall time in seconds. `warmup` untimed rounds come first, then `reps`
/// timed ones; every round runs each arm once, in order on even rounds
/// and reversed on odd ones. A change in host speed thus hits every arm
/// alike, no arm always inherits the caches and clocks the one before it
/// left, and the minimum drops the rounds a stall or interrupt slowed.
/// With three or more arms the middle ones never follow themselves while
/// the end ones do every other round, so a gated comparison races its
/// two arms alone.
pub fn race(warmup: usize, reps: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let t0 = Instant::now();
    race_by(|| t0.elapsed().as_secs_f64(), warmup, reps, arms)
}

/// [`race`] reading seconds from `now`.
fn race_by(
    mut now: impl FnMut() -> f64,
    warmup: usize,
    reps: usize,
    arms: &mut [&mut dyn FnMut()],
) -> Vec<f64> {
    assert!(reps > 0, "a race needs at least one timed round");
    let mut best = vec![f64::INFINITY; arms.len()];
    for round in 0..warmup + reps {
        for i in 0..arms.len() {
            let k = if round % 2 == 0 { i } else { arms.len() - 1 - i };
            let start = now();
            arms[k]();
            let sec = now() - start;
            if round >= warmup {
                best[k] = best[k].min(sec);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(|s| s.to_string()), "BENCH_x.json")
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
    fn out_overrides_the_default() {
        assert_eq!(parse(&[]).out, "BENCH_x.json");
        let a = parse(&["--out", "o.json"]);
        assert_eq!(a.out, "o.json");
        assert!(a.check.is_none());
    }

    #[test]
    #[should_panic(expected = "unknown flag '--steps'")]
    fn steps_is_an_unknown_flag() {
        parse(&["--steps", "3"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag '--secs'")]
    fn secs_is_an_unknown_flag() {
        parse(&["--secs", "0.5"]);
    }

    /// Three arms on a fake clock: arm `k`'s `c`-th call takes
    /// `(k + 1) * [5, 3, 4, 1, 2, 6][c]` seconds. Returns the race result
    /// and the order the arms ran in.
    fn fake_race(warmup: usize, reps: usize) -> (Vec<f64>, Vec<usize>) {
        use std::cell::{Cell, RefCell};
        let clock = Cell::new(0.0);
        let log = RefCell::new(Vec::new());
        let calls = [Cell::new(0), Cell::new(0), Cell::new(0)];
        let arm = |k: usize| {
            let c = calls[k].replace(calls[k].get() + 1);
            clock.set(clock.get() + (k + 1) as f64 * [5.0, 3.0, 4.0, 1.0, 2.0, 6.0][c]);
            log.borrow_mut().push(k);
        };
        let (mut a0, mut a1, mut a2) = (|| arm(0), || arm(1), || arm(2));
        let best = race_by(|| clock.get(), warmup, reps, &mut [&mut a0, &mut a1, &mut a2]);
        (best, log.into_inner())
    }

    #[test]
    fn each_arm_runs_warmup_plus_reps_times() {
        let (best, log) = fake_race(2, 3);
        assert_eq!(best.len(), 3);
        for k in 0..3 {
            assert_eq!(log.iter().filter(|&&a| a == k).count(), 5);
        }
    }

    #[test]
    fn the_order_reverses_on_odd_rounds() {
        let (_, log) = fake_race(1, 3);
        assert_eq!(log, [0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0]);
    }

    #[test]
    fn each_arm_keeps_its_fastest_timed_round() {
        // Timed calls are 3, 4, 1 (the 5 is warm-up); the minimum is the
        // third call's 1 s, scaled per arm.
        assert_eq!(fake_race(1, 3).0, [1.0, 2.0, 3.0]);
        // With all warm-up but one round, only the sixth call counts.
        assert_eq!(fake_race(5, 1).0, [6.0, 12.0, 18.0]);
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
