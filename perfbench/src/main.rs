//! One benchmark command for the SAGDFN library's user-facing paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_city2000|stream_ft|serve_http|serve_core> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the library's
//! instrumentation off. `--trace 1` is the separate traced run: it times
//! each public call into a layer from this benchmark's own code, reads
//! the library's `sagdfn_obs` counters, prints a per-layer table whose
//! rows sum to the operation's wall time (residual shown), and reports
//! the tracing overhead against an untraced half of the same run.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness check makes the exit code 1.

mod inputs;
mod report;
mod serve_core;
mod serve_http;
mod serving;
mod stats;
mod stream;
mod train;

use inputs::{Inputs, LoadTimes};
use report::Report;
use sagdfn_json::Json;
use sagdfn_obs as obs;
use sagdfn_tensor::alloc;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The metrics a run reports, read from `BENCHMARK.json` in the
/// working directory (the repository root): its `end_to_end` list for an
/// untraced run and its `per_layer` list for a traced one, as
/// `(name, unit)` pairs. The list lives there and only there.
fn listed_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json from the working directory: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let field = |m: &Json, k: &str| Some(m.get(k)?.as_str().ok()?.to_string());
    doc.get(key)
        .and_then(|list| list.as_arr().ok())
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            field(m, "name")
                .zip(field(m, "unit"))
                .ok_or_else(|| format!("a {key} entry of BENCHMARK.json lacks a name or unit"))
        })
        .collect()
}

/// Wall time accumulated per layer name across the timed operations.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, d: Duration) {
        *self.0.entry(name).or_default() += d.as_secs_f64() * 1e3;
    }

    /// Total milliseconds charged to `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A delta of the library's `sagdfn_obs` counters (plus the allocator's
/// always-on churn counter), grouped by layer.
pub struct Counters {
    snap: obs::Snapshot,
    churn_bytes: usize,
    pub matmul_ms: f64,
    pub sparse_ms: f64,
    pub entmax_ms: f64,
    pub tape_nodes: f64,
    pub acquires: f64,
    pub churn_mb: f64,
    pub pool_regions: f64,
    pub plan_compiles: f64,
    pub plan_builds: f64,
    pub plan_rebinds: f64,
    pub ft_steps: f64,
    pub serve_batches: f64,
    pub serve_batched: f64,
    pub serve_shed: f64,
    pub serve_expired: f64,
    pub queue_high_water: f64,
}

/// The counters now; take `since` of a later reading for a delta.
pub fn counters() -> Counters {
    Counters::from(obs::snapshot(), alloc::churn_bytes())
}

impl Counters {
    fn from(snap: obs::Snapshot, churn_bytes: usize) -> Counters {
        use obs::Kernel as K;
        let ms = |ks: &[K]| ks.iter().map(|&k| snap.stats(k).ns as f64).sum::<f64>() / 1e6;
        Counters {
            matmul_ms: ms(&[K::Matmul, K::MatmulNt, K::MatmulTn]),
            sparse_ms: ms(&[K::Spmm, K::SpmmT, K::Dadj, K::CsrBuild]),
            entmax_ms: ms(&[K::Entmax, K::EntmaxBackward]),
            tape_nodes: snap.stats(K::Forward).calls as f64,
            acquires: snap.alloc_acquires as f64,
            churn_mb: churn_bytes as f64 / (1 << 20) as f64,
            pool_regions: snap.pool_regions as f64,
            plan_compiles: snap.plan_compiles as f64,
            plan_builds: snap.plan_builds as f64,
            plan_rebinds: snap.plan_rebinds as f64,
            ft_steps: snap.stream_ft_steps as f64,
            serve_batches: snap.serve_batches as f64,
            serve_batched: snap.serve_batched_requests as f64,
            serve_shed: snap.serve_shed as f64,
            serve_expired: snap.serve_expired as f64,
            queue_high_water: snap.serve_queue_hw as f64,
            snap,
            churn_bytes,
        }
    }

    pub fn since(&self, base: &Counters) -> Counters {
        Counters::from(
            self.snap.since(&base.snap),
            self.churn_bytes.saturating_sub(base.churn_bytes),
        )
    }
}

/// Runs `setup` `reps` times and keeps the last result, returning it
/// with the median wall time and the median of each loading step.
/// Earlier results are dropped before the next repetition starts.
pub fn setup_median<T>(
    reps: usize,
    mut setup: impl FnMut() -> (T, LoadTimes),
) -> (T, f64, LoadTimes) {
    let mut walls = Vec::new();
    let mut loads = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let (value, times) = setup();
        walls.push(t.elapsed().as_secs_f64());
        loads.push(times);
        last = Some(value);
    }
    let med = |f: fn(&LoadTimes) -> f64| stats::median(&loads.iter().map(f).collect::<Vec<_>>());
    let times = LoadTimes {
        read_csv_s: med(|t| t.read_csv_s),
        model_new_s: med(|t| t.model_new_s),
        checkpoint_load_s: med(|t| t.checkpoint_load_s),
    };
    (
        last.expect("at least one setup repetition"),
        stats::median(&walls),
        times,
    )
}

/// The set-up layer metrics every traced run reports.
pub fn load_metrics(rep: &mut Report, times: &LoadTimes) {
    rep.metric("data.io.read_csv_s", times.read_csv_s, "s");
    rep.metric("core.model.new_s", times.model_new_s, "s");
    rep.metric("nn.checkpoint.load_s", times.checkpoint_load_s, "s");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?
            }
            "--trace" => args.trace = value()? != "0",
            "--scaling-child" => args.workload = "scaling-child".into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Reports a usage or set-up error and exits with code 2.
fn die(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(e));
    // The end-to-end run measures with the library's instrumentation off;
    // only the traced run turns counters on, around its traced phase.
    obs::set_trace_mode(obs::TraceMode::Off);
    if args.workload == "scaling-child" {
        train::scaling_child(args.seed);
        return;
    }
    let wanted = listed_metrics(args.trace).unwrap_or_else(|e| die(e));
    let run: fn(&Inputs, u64, f64, bool, &mut Report) = match args.workload.as_str() {
        "train_city2000" => train::run,
        "stream_ft" => stream::run,
        "serve_http" => serve_http::run,
        "serve_core" => serve_core::run,
        other => die(format!("unknown workload {other:?}")),
    };
    let inputs = Inputs::open(args.seed);
    let mut rep = Report::default();
    run(&inputs, args.seed, args.seconds, args.trace, &mut rep);
    // Every metric the run measured must be listed, with the listed unit,
    // so a rename on either side fails loudly instead of dropping a
    // figure. A listed per-layer metric of a layer this workload never
    // calls reads 0; a listed end-to-end metric must be measured.
    let unlisted: Vec<String> = rep
        .units()
        .into_iter()
        .filter(|m| !wanted.contains(m))
        .map(|(name, unit)| format!("{name} ({unit})"))
        .collect();
    rep.check(
        unlisted.is_empty(),
        &format!("every metric measured is listed in BENCHMARK.json with its unit: {unlisted:?}"),
    );
    for (name, unit) in &wanted {
        if !rep.has_metric(name) {
            if args.trace {
                rep.metric(name, 0.0, unit);
            } else {
                rep.check(false, &format!("end-to-end metric {name} was measured"));
            }
        }
    }
    rep.print();
    if !rep.correct() {
        std::process::exit(1);
    }
}
