//! `train_city2000`: training steps at the paper's N = 2000 through the
//! same public calls `trainer::fit` makes per step, and, in the traced
//! run, an eval sweep through the calls `trainer::predict` makes per
//! batch.

use crate::inputs::{Dataset, Inputs, LoadTimes, Model, F, H, TRAIN_BATCH};
use crate::report::{Report, Table};
use crate::stats::{median, tail};
use crate::{counters, setup_median, Counters, Layers};
use sagdfn_autodiff::Tape;
use sagdfn_core::{set_plan_mode, PlanMode, Sagdfn};
use sagdfn_data::{SplitSpec, ThreeWaySplit};
use sagdfn_nn::{Adam, Mode, Optimizer};
use sagdfn_obs as obs;
use sagdfn_tensor::{alloc, Rng64, Tensor};
use std::time::Instant;

/// Eval batch size (small, so a run holds dozens of batches) and how
/// many batches of fixed validation windows one sweep covers.
const EVAL_BATCH: usize = 2;
const EVAL_BATCHES: usize = 4;
/// Share of the traced run that trains (half untraced, half traced);
/// the eval sweep runs the rest.
const TRAIN_SHARE: f64 = 0.8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Steps the thread-scaling child times, after one warm-up step.
const SCALING_STEPS: usize = 4;

/// What set-up loads: the data and the checkpoint's model, which
/// answers the eval sweep with its weights frozen.
struct State {
    split: ThreeWaySplit,
    model: Sagdfn,
    eval_ids: Vec<Vec<usize>>,
}

fn eval_ids() -> Vec<Vec<usize>> {
    (0..EVAL_BATCHES)
        .map(|b| (b * EVAL_BATCH..(b + 1) * EVAL_BATCH).collect())
        .collect()
}

/// Loads what a user resuming training would load, then answers the
/// first forecast (plan compile included).
fn setup(inputs: &Inputs) -> (State, LoadTimes) {
    let mut times = LoadTimes::default();
    let data = inputs.read_csv(Dataset::City2000, &mut times);
    let split = ThreeWaySplit::new(data, SplitSpec::paper(H, F));
    let model = inputs.load_model(Model::Train2000, &mut times);
    let state = State {
        split,
        model,
        eval_ids: eval_ids(),
    };
    let tape = Tape::new();
    let _no_grad = tape.no_grad();
    eval_batch(&state, &tape, &state.eval_ids[0]);
    (state, times)
}

/// One eval batch exactly as `trainer::predict` runs it.
fn eval_batch(s: &State, tape: &Tape, ids: &[usize]) -> Tensor {
    let batch = s.split.val.make_batch(ids);
    tape.reset();
    let bind = s.model.params.bind(tape);
    s.model
        .forward(tape, &bind, &batch, s.split.scaler, Mode::Eval)
        .value()
}

/// The training loop of `trainer::fit`, one step per call.
struct Trainer {
    opt: Adam,
    tape: Tape,
    rng: Rng64,
    order: Vec<Vec<usize>>,
    next: usize,
}

impl Trainer {
    fn new(model: &Sagdfn, seed: u64) -> Trainer {
        let cfg = model.config();
        Trainer {
            opt: Adam::new(cfg.lr).with_clip(cfg.grad_clip),
            tape: Tape::new(),
            rng: Rng64::new(seed ^ 0x5EED),
            order: Vec::new(),
            next: 0,
        }
    }

    /// Runs one step; returns the loss. With `layers`, times each call.
    fn step(
        &mut self,
        split: &ThreeWaySplit,
        model: &mut Sagdfn,
        mut layers: Option<&mut Layers>,
    ) -> f32 {
        if self.next == self.order.len() {
            self.order = split.train.batch_ids(TRAIN_BATCH, Some(&mut self.rng));
            self.order.retain(|ids| ids.len() == TRAIN_BATCH);
            self.next = 0;
        }
        let ids = &self.order[self.next];
        self.next += 1;
        let mut lap = Lap::new();
        let batch = split.train.make_batch(ids);
        lap.to(&mut layers, "data.window.make_batch_ms");
        model.maybe_resample();
        lap.to(&mut layers, "core.sns.resample_ms");
        self.tape.reset();
        let bind = model.params.bind(&self.tape);
        let pred =
            model.forward_scheduled(&self.tape, &bind, &batch, split.scaler, &[], Mode::Train);
        lap.to(&mut layers, "core.model.forward_train_ms");
        let mask = Sagdfn::loss_mask(&batch.y);
        let loss = model.loss(pred, &batch.y, &mask);
        let value = loss.item();
        lap.to(&mut layers, "core.head.loss_ms");
        let grads = loss.backward();
        lap.to(&mut layers, "autodiff.tape.backward_ms");
        self.opt.step(&mut model.params, &bind, &grads);
        self.tape.recycle_gradients(grads);
        lap.to(&mut layers, "nn.optim.step_ms");
        model.tick();
        value
    }
}

/// Splits a step into consecutive laps, each charged to a layer.
struct Lap(Instant);

impl Lap {
    fn new() -> Lap {
        Lap(Instant::now())
    }

    fn to(&mut self, layers: &mut Option<&mut Layers>, name: &'static str) {
        if let Some(l) = layers.as_deref_mut() {
            let now = Instant::now();
            l.add(name, now - self.0);
            self.0 = now;
        }
    }
}

/// Sweeps the fixed eval windows for `secs` seconds on the frozen
/// checkpoint model, counting each batch. Returns each batch's wall
/// milliseconds and the counter delta.
fn eval_phase(s: &State, secs: f64, rep: &mut Report) -> (Vec<f64>, Counters) {
    let tape = Tape::new();
    let _no_grad = tape.no_grad();
    let before = counters();
    let mut eval_ms = Vec::new();
    let t0 = Instant::now();
    for ids in s.eval_ids.iter().cycle() {
        let t = Instant::now();
        let pred = eval_batch(s, &tape, ids);
        eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rep.op(pred.as_slice().iter().all(|v| v.is_finite()));
        if t0.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
    (eval_ms, counters().since(&before))
}

struct TrainPhase {
    step_ms: Vec<f64>,
    wall_s: f64,
    layers: Layers,
    counters: Counters,
}

impl TrainPhase {
    /// Training windows per second over the phase's wall time, so a slow
    /// step (an SNS resample, a stall) counts in full.
    fn windows_per_s(&self) -> f64 {
        (TRAIN_BATCH * self.step_ms.len()) as f64 / self.wall_s
    }
}

/// Trains `learner` for `secs` seconds, counting each step; a non-finite
/// loss fails its step and the phase's correctness check. With `trace`,
/// times each call.
fn train_phase(
    split: &ThreeWaySplit,
    learner: &mut Sagdfn,
    tr: &mut Trainer,
    secs: f64,
    trace: bool,
    rep: &mut Report,
) -> TrainPhase {
    let mut layers = Layers::default();
    let mut step_ms = Vec::new();
    let mut losses_finite = true;
    let before = counters();
    let t0 = Instant::now();
    while step_ms.is_empty() || t0.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let loss = tr.step(split, learner, trace.then_some(&mut layers));
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rep.op(loss.is_finite());
        losses_finite &= loss.is_finite();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    rep.check(losses_finite, "every training loss is finite");
    TrainPhase {
        step_ms,
        wall_s,
        layers,
        counters: counters().since(&before),
    }
}

/// Planned eval must be bit-identical to the interpreted eval
/// (`PlanMode::Off`) on the same batch.
fn check_plan_bits(s: &State, rep: &mut Report) {
    let tape = Tape::new();
    let _no_grad = tape.no_grad();
    let prev = sagdfn_core::plan_mode();
    set_plan_mode(PlanMode::On);
    let planned = eval_batch(s, &tape, &s.eval_ids[1]);
    set_plan_mode(PlanMode::Off);
    let interpreted = eval_batch(s, &tape, &s.eval_ids[1]);
    set_plan_mode(prev);
    let same = planned.dims() == interpreted.dims()
        && planned
            .as_slice()
            .iter()
            .zip(interpreted.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    rep.check(same, "planned eval batch is bit-identical to PlanMode::Off");
}

pub fn run(inputs: &Inputs, seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let (s, setup_s, times) = setup_median(SETUPS, || setup(inputs));
    // Training runs on its own copy of the checkpoint, so the eval sweep
    // keeps the checkpoint's weights: the same adjacency, and so the same
    // kernel dispatch, for every seed. One untimed step fills the tape
    // arena and the allocator pool.
    let mut learner = inputs.load_model(Model::Train2000, &mut LoadTimes::default());
    let mut tr = Trainer::new(&learner, seed);
    let warm = tr.step(&s.split, &mut learner, None);
    rep.check(warm.is_finite(), "warm-up training loss is finite");
    if !trace {
        alloc::reset_peak();
        let p = train_phase(&s.split, &mut learner, &mut tr, seconds, false, rep);
        let peak_mb = alloc::peak_bytes() as f64 / (1 << 20) as f64;
        check_plan_bits(&s, rep);
        let t = tail(&p.step_ms);
        rep.note(format!(
            "train_city2000: N=2000 h=f=12, {} train steps of B={TRAIN_BATCH} in {:.3} s; \
             tail {:.3} ms at p{:.1} of {}",
            p.step_ms.len(),
            p.wall_s,
            t.value,
            t.percentile,
            t.samples
        ));
        rep.metric("setup_s", setup_s, "s");
        rep.metric("peak_mb", peak_mb, "MB");
        rep.metric("throughput_per_s", p.windows_per_s(), "1/s");
        rep.metric("latency_p50_ms", median(&p.step_ms), "ms");
        return;
    }

    // Traced run: training, half untraced and half with counters on and
    // per-call timers; then the eval sweep with counters on.
    let train_s = seconds * TRAIN_SHARE / 2.0;
    let plain = train_phase(&s.split, &mut learner, &mut tr, train_s, false, rep);
    let prev = obs::set_trace_mode(obs::TraceMode::Counters);
    let p = train_phase(&s.split, &mut learner, &mut tr, train_s, true, rep);
    let (eval_ms, eval_counters) = eval_phase(&s, seconds * (1.0 - TRAIN_SHARE), rep);
    obs::set_trace_mode(prev);
    check_plan_bits(&s, rep);
    let scaling = thread_scaling(seed, rep);

    let per_step = |v: f64| v / p.step_ms.len() as f64;
    let mean_ms = p.step_ms.iter().sum::<f64>() / p.step_ms.len() as f64;
    let mut table = Table::new("train_city2000 training step (mean)", mean_ms);
    for name in [
        "data.window.make_batch_ms",
        "core.sns.resample_ms",
        "core.model.forward_train_ms",
        "core.head.loss_ms",
        "autodiff.tape.backward_ms",
        "nn.optim.step_ms",
    ] {
        let ms = per_step(p.layers.ms(name));
        table.row(name, ms);
        rep.metric(name, ms, "ms");
    }
    rep.note(table.render());
    rep.metric("core.model.step_residual_ms", table.residual_ms(), "ms");
    let c = &p.counters;
    rep.metric("tensor.matmul.ms", per_step(c.matmul_ms), "ms");
    rep.metric("tensor.sparse.ms", per_step(c.sparse_ms), "ms");
    rep.metric("entmax.ms", per_step(c.entmax_ms), "ms");
    rep.metric("autodiff.tape.nodes", per_step(c.tape_nodes), "count");
    rep.metric("tensor.alloc.acquires", per_step(c.acquires), "count");
    rep.metric("tensor.alloc.churn_mb", per_step(c.churn_mb), "MB");
    rep.metric("tensor.pool.regions", per_step(c.pool_regions), "count");
    rep.metric("tensor.pool.scaling", scaling, "x");
    rep.metric("core.trainer.eval_batch_ms", median(&eval_ms), "ms");
    rep.metric("core.plan.compiles", eval_counters.plan_compiles, "count");
    rep.metric("core.plan.builds", eval_counters.plan_builds, "count");
    rep.metric(
        "trace.overhead",
        100.0 * (plain.windows_per_s() / p.windows_per_s() - 1.0),
        "%",
    );
    rep.tail_metrics(&plain.step_ms);
    crate::load_metrics(rep, &times);
}

/// Throughput at the default thread count over throughput at one
/// thread. The tensor pool reads `SAGDFN_THREADS` once per process, so
/// each arm is a child process; no arm uses more threads than the
/// machine has.
fn thread_scaling(seed: u64, rep: &mut Report) -> f64 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut rate = |threads: usize| -> f64 {
        let out = std::process::Command::new(&exe)
            .args(["--scaling-child", "--seed", &seed.to_string()])
            .env("SAGDFN_THREADS", threads.to_string())
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run the thread-scaling child");
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok());
        rep.check(
            out.status.success() && value.is_some(),
            "thread-scaling child ran",
        );
        value.unwrap_or(0.0)
    };
    let one = rate(1);
    let many = rate(nproc);
    rep.note(format!(
        "thread scaling: {many:.3} windows/s at {nproc} threads, {one:.3} at 1 thread"
    ));
    if one > 0.0 {
        many / one
    } else {
        0.0
    }
}

/// Child side of [`thread_scaling`]: prints training windows per second.
pub fn scaling_child(seed: u64) {
    let inputs = Inputs::open(seed);
    let (mut s, _) = setup(&inputs);
    let mut tr = Trainer::new(&s.model, seed);
    let mut rep = Report::default();
    tr.step(&s.split, &mut s.model, None);
    let t0 = Instant::now();
    for _ in 0..SCALING_STEPS {
        rep.op(tr.step(&s.split, &mut s.model, None).is_finite());
    }
    let rate = (SCALING_STEPS * TRAIN_BATCH) as f64 / t0.elapsed().as_secs_f64();
    if rep.failed > 0 {
        std::process::exit(1);
    }
    println!("{rate}");
}
