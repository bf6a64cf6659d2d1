//! Paper-scale node-sharding benchmark: trains and evaluates a slim
//! SAGDFN at N ∈ {2000, 8000, 20000} through the node-sharded diffusion
//! stack (DESIGN.md §14) and records seconds/step plus peak live bytes
//! for both phases, alongside the `sagdfn-memsim` shard plan that picked
//! each shard count. Writes `BENCH_scale.json`.
//!
//! Each phase's step races a fixed scalar [`reference`] loop
//! ([`gate::race`]), and the gate reads step time / reference time. The
//! reference calls no `sagdfn_*` code, so a slower host moves both arms
//! while a slower library moves only the step.
//!
//! The N = 20000 row carries the PR's scalability claim: the memsim model
//! shows a dense `N×N`-adjacency baseline (GTS-shaped, Table I) is orders
//! of magnitude past a V100-32GB at that size, and even SAGDFN's own
//! unsharded slim working set overflows the card — while the sharded
//! plan fits. The run itself proves the sharded path trains and evals
//! end-to-end at that node count on CPU.
//!
//! The model here is deliberately slim (embed 16, M 32, hidden 16) so the
//! sweep stays CI-sized; the shard *planning* always uses the paper's
//! dims, which is what the fits/OOM verdicts are about.
//!
//! Usage: `bench_scale [--out FILE] [--check BASELINE]`
//!
//! With `--check`, the gates are: every N completes train+eval; at
//! N = 20000 the sharded plan fits a V100-32GB while the unsharded
//! SAGDFN working set and the dense-adjacency baseline both exceed it
//! (per memsim, so the dense path would provably OOM); the resolved shard
//! count matches the plan; and each phase's step/reference ratio stays
//! within 1.5× of the recorded baseline, plus 1 ms of step time in
//! reference units.

use sagdfn_autodiff::Tape;
use sagdfn_bench::gate::{self, Gate};
use sagdfn_core::{Sagdfn, SagdfnConfig};
use sagdfn_data::{Batch, ZScore};
use sagdfn_json::Json;
use sagdfn_memsim::{plan_shards, ModelFamily, WorkloadDims, V100_32GB};
use sagdfn_nn::{masked_mae, Adam, Mode, Optimizer};
use sagdfn_tensor::{alloc, pool, Rng64, Tensor};

const H_LEN: usize = 4;
const F_LEN: usize = 4;
const BATCH: usize = 2;
const WARMUP_STEPS: usize = 1;
/// Timed rounds per race.
const REPS: usize = 5;
/// The reference arm's buffer: 16 MiB, past the per-core caches.
const REFERENCE_LEN: usize = 1 << 22;

/// The reference arm: eight passes of a dependent scalar multiply-add
/// chain over `buf` (about 0.1 s), which the compiler can neither
/// vectorize nor reorder.
fn reference(buf: &[f32]) -> f32 {
    (0..8).fold(0.0f32, |acc, _| buf.iter().fold(acc, |acc, &x| acc * 0.999 + x))
}

/// A synthetic traffic-shaped batch for `n` nodes. The dataset
/// generators build dense `N×N` latent graphs, which is exactly what
/// this benchmark must avoid at N = 20000, so the batch is drawn
/// directly in window layout.
fn make_batch(n: usize, rng: &mut Rng64) -> Batch {
    Batch {
        x: Tensor::rand_uniform([H_LEN, BATCH, n, 3], -1.0, 1.0, rng),
        y: Tensor::rand_uniform([F_LEN, BATCH, n], 10.0, 60.0, rng),
        x_last_raw: Tensor::rand_uniform([BATCH, n], 10.0, 60.0, rng),
        future_cov: Tensor::rand_uniform([F_LEN, BATCH, n, 2], 0.0, 1.0, rng),
    }
}

struct Phase {
    seconds_per_step: f64,
    /// Step time / reference time, raced in the same rounds.
    per_reference: f64,
    peak_bytes: usize,
}

/// Races `step` (after its warm-up, which is outside the peak) against
/// the reference arm.
fn race_phase(buf: &[f32], mut step: impl FnMut()) -> Phase {
    for _ in 0..WARMUP_STEPS {
        step();
    }
    alloc::reset_peak();
    let t = gate::race(0, REPS, &mut [&mut step, &mut || {
        std::hint::black_box(reference(buf));
    }]);
    Phase {
        seconds_per_step: t[0],
        per_reference: t[0] / t[1],
        peak_bytes: alloc::peak_bytes(),
    }
}

struct Case {
    n: usize,
    shards: usize,
    train: Phase,
    eval: Phase,
    plan: sagdfn_memsim::ShardPlan,
    sagdfn_unsharded_bytes: u64,
    dense_baseline_bytes: u64,
    dense_would_oom: bool,
}

fn run_case(n: usize, buf: &[f32]) -> Case {
    let cfg = SagdfnConfig {
        embed_dim: 16,
        m: 32,
        top_k: 24,
        heads: 2,
        attn_hidden: 8,
        alpha: 2.0,
        hidden: 16,
        diffusion_steps: 2,
        convergence_iter: 0, // deterministic sampling from step 0
        sns_every: 1_000_000,
        epochs: 1,
        batch_size: BATCH,
        patience: 1,
        seed: 7,
        ..SagdfnConfig::default()
    };
    let mut model = Sagdfn::new(n, cfg.clone());
    let shards = model.shards();
    let mut opt = Adam::new(cfg.lr).with_clip(cfg.grad_clip);
    let mut rng = Rng64::new(0x5ca1e ^ n as u64);
    let batch = make_batch(n, &mut rng);
    let scaler = ZScore { mean: 30.0, std: 10.0 };
    let tape = Tape::new();

    let mut train_step = |model: &mut Sagdfn| {
        model.maybe_resample();
        tape.reset();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, scaler, Mode::Train);
        let mask = Sagdfn::loss_mask(&batch.y);
        let loss = masked_mae(pred, &batch.y, &mask);
        let _ = loss.item();
        let grads = loss.backward();
        opt.step(&mut model.params, &bind, &grads);
        tape.recycle_gradients(grads);
        model.tick();
    };
    let train = race_phase(buf, || train_step(&mut model));

    // Warmup builds the frozen adjacency (sharded assembly when k > 1)
    // and compiles the plan-executor schedule.
    let eval = race_phase(buf, || {
        let eval_tape = Tape::new();
        let _guard = eval_tape.no_grad();
        let bind = model.params.bind(&eval_tape);
        let pred = model.forward(&eval_tape, &bind, &batch, scaler, Mode::Eval);
        std::hint::black_box(pred.value());
    });

    // The memory verdicts are at the *paper's* dims for this N: what the
    // shard planner is solving for on real hardware.
    let plan = plan_shards(n, BATCH, V100_32GB.capacity_bytes);
    let dims = WorkloadDims::paper(n, BATCH);
    Case {
        n,
        shards,
        train,
        eval,
        plan,
        sagdfn_unsharded_bytes: ModelFamily::Sagdfn.training_bytes(&dims),
        dense_baseline_bytes: ModelFamily::Gts.training_bytes(&dims),
        dense_would_oom: ModelFamily::Gts.would_oom(&dims, &V100_32GB),
    }
}

fn case_json(c: &Case) -> Json {
    Json::obj([
        ("n", Json::from(c.n)),
        ("shards", Json::from(c.shards)),
        ("train_sec_per_step", Json::from(c.train.seconds_per_step)),
        ("train_per_reference", Json::from(c.train.per_reference)),
        ("train_peak_bytes", Json::from(c.train.peak_bytes)),
        ("eval_sec_per_step", Json::from(c.eval.seconds_per_step)),
        ("eval_per_reference", Json::from(c.eval.per_reference)),
        ("eval_peak_bytes", Json::from(c.eval.peak_bytes)),
        ("plan_shards", Json::from(c.plan.shards)),
        ("plan_shard_rows", Json::from(c.plan.shard_rows)),
        ("plan_bytes_per_shard", Json::from(c.plan.bytes_per_shard)),
        ("plan_total_bytes", Json::from(c.plan.total_bytes)),
        ("plan_fits", Json::from(c.plan.fits)),
        ("sagdfn_unsharded_bytes", Json::from(c.sagdfn_unsharded_bytes)),
        ("dense_baseline_bytes", Json::from(c.dense_baseline_bytes)),
        ("dense_would_oom", Json::from(c.dense_would_oom)),
    ])
}

fn main() {
    let args = gate::Args::parse("BENCH_scale.json");
    let mut rng = Rng64::new(0xbe7c);
    let buf: Vec<f32> = (0..REFERENCE_LEN).map(|_| rng.next_f32()).collect();

    println!(
        "paper-scale sharding benchmark: {} worker threads, {REPS} measured steps, \
         B={BATCH} h={H_LEN} f={F_LEN}",
        pool::num_threads()
    );
    println!(
        "{:>7} {:>7} {:>12} {:>9} {:>12} {:>9} {:>14} {:>14} {:>10} {:>10}",
        "N",
        "shards",
        "train ms",
        "/ ref",
        "eval ms",
        "/ ref",
        "train peak MB",
        "eval peak MB",
        "plan fits",
        "dense OOM"
    );

    let mut cases = Vec::new();
    for &n in &[2000usize, 8000, 20000] {
        let c = run_case(n, &buf);
        println!(
            "{:>7} {:>7} {:>12.1} {:>9.3} {:>12.1} {:>9.3} {:>14.1} {:>14.1} {:>10} {:>10}",
            c.n,
            c.shards,
            c.train.seconds_per_step * 1e3,
            c.train.per_reference,
            c.eval.seconds_per_step * 1e3,
            c.eval.per_reference,
            c.train.peak_bytes as f64 / 1e6,
            c.eval.peak_bytes as f64 / 1e6,
            c.plan.fits,
            c.dense_would_oom,
        );
        println!(
            "        memsim @paper dims: sharded peak {:.1} GB ({} shards), unsharded \
             SAGDFN {:.1} GB, dense baseline {:.1} GB (V100-32GB = {:.1} GB)",
            c.plan.total_bytes as f64 / 1e9,
            c.plan.shards,
            c.sagdfn_unsharded_bytes as f64 / 1e9,
            c.dense_baseline_bytes as f64 / 1e9,
            V100_32GB.capacity_bytes as f64 / 1e9,
        );
        cases.push(c);
    }

    let doc = Json::obj([
        ("threads", Json::from(pool::num_threads())),
        ("steps", Json::from(REPS)),
        ("batch", Json::from(BATCH)),
        ("cases", Json::Arr(cases.iter().map(case_json).collect())),
    ]);
    args.finish(doc, |base| {
        let frontier = cases.last().expect("cases nonempty");
        assert_eq!(frontier.n, 20000);
        let cap = V100_32GB.capacity_bytes;
        // Structural gates (baseline-independent): at N = 20000 the
        // sharded plan must fit the V100 while both dense alternatives
        // provably OOM per the memsim model.
        let mut gates = vec![
            Gate::holds("N=20000 sharded plan fits a V100-32GB", frontier.plan.fits),
            Gate::holds(
                "N=20000 unsharded SAGDFN overflows a V100-32GB",
                frontier.sagdfn_unsharded_bytes > cap,
            ),
            Gate::holds("N=20000 dense N x N baseline OOMs", frontier.dense_would_oom),
            Gate::at_least("N=20000 planned shards", frontier.plan.shards as f64, 2.0),
            Gate::holds(
                format!(
                    "N=20000 resolved shards ({}) = planned ({})",
                    frontier.shards, frontier.plan.shards
                ),
                frontier.shards == frontier.plan.shards,
            ),
        ];
        for c in &cases {
            for (phase, p) in [("train_per_reference", &c.train), ("eval_per_reference", &c.eval)] {
                // 1.5x slack, plus 1 ms of step time in reference units.
                let reference_sec = p.seconds_per_step / p.per_reference;
                let limit =
                    base.f64(&format!("cases.n={}.{phase}", c.n)) * 1.5 + 1e-3 / reference_sec;
                gates.push(Gate::at_most(format!("N={} {phase}", c.n), p.per_reference, limit));
            }
        }
        gates
    });
}
