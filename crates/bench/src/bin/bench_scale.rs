//! Paper-scale node-sharding benchmark: trains and evaluates a slim
//! SAGDFN at N ∈ {2000, 8000, 20000} through the node-sharded diffusion
//! stack (DESIGN.md §14) and records seconds/step (min over the measured
//! steps, the repo's stall-immune timing idiom) plus peak live bytes
//! for both phases, alongside the `sagdfn-memsim` shard plan that picked
//! each shard count. Writes `BENCH_scale.json`.
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
//! Usage: `bench_scale [--out FILE] [--steps N] [--check BASELINE]`
//!
//! With `--check`, the gates are: every N completes train+eval; at
//! N = 20000 the sharded plan fits a V100-32GB while the unsharded
//! SAGDFN working set and the dense-adjacency baseline both exceed it
//! (per memsim, so the dense path would provably OOM); the resolved shard
//! count matches the plan (when `SAGDFN_SHARDS` does not override it);
//! and seconds/step stays within 1.5× of the recorded baseline.

use sagdfn_autodiff::Tape;
use sagdfn_bench::gate::{self, time_min, Gate};
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
    peak_bytes: usize,
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

fn run_case(n: usize, steps: usize) -> Case {
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
    for _ in 0..WARMUP_STEPS {
        train_step(&mut model);
    }
    alloc::reset_peak();
    // Min over the measured steps (the repo's standard for regression-gated
    // timings): a single scheduler stall on a busy CI box would otherwise
    // inflate a mean and trip the 1.5× guard without any code change.
    let train_sec = time_min("bench_scale.train_step", 0, steps, || train_step(&mut model));
    let train = Phase { seconds_per_step: train_sec, peak_bytes: alloc::peak_bytes() };

    let eval_step = |model: &Sagdfn| {
        let eval_tape = Tape::new();
        let _guard = eval_tape.no_grad();
        let bind = model.params.bind(&eval_tape);
        let pred = model.forward(&eval_tape, &bind, &batch, scaler, Mode::Eval);
        std::hint::black_box(pred.value());
    };
    // Warmup builds the frozen adjacency (sharded assembly when k > 1)
    // and compiles the plan-executor schedule.
    for _ in 0..WARMUP_STEPS {
        eval_step(&model);
    }
    alloc::reset_peak();
    let eval_sec = time_min("bench_scale.eval_step", 0, steps, || eval_step(&model));
    let eval = Phase { seconds_per_step: eval_sec, peak_bytes: alloc::peak_bytes() };

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
        ("train_peak_bytes", Json::from(c.train.peak_bytes)),
        ("eval_sec_per_step", Json::from(c.eval.seconds_per_step)),
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
    let args = gate::Args::parse("BENCH_scale.json", 3);
    let steps = args.steps;

    println!(
        "paper-scale sharding benchmark: {} worker threads, {steps} measured steps, \
         B={BATCH} h={H_LEN} f={F_LEN}",
        pool::num_threads()
    );
    println!(
        "{:>7} {:>7} {:>12} {:>12} {:>14} {:>14} {:>10} {:>10}",
        "N", "shards", "train ms", "eval ms", "train peak MB", "eval peak MB", "plan fits", "dense OOM"
    );

    let mut cases = Vec::new();
    for &n in &[2000usize, 8000, 20000] {
        let c = run_case(n, steps);
        println!(
            "{:>7} {:>7} {:>12.1} {:>12.1} {:>14.1} {:>14.1} {:>10} {:>10}",
            c.n,
            c.shards,
            c.train.seconds_per_step * 1e3,
            c.eval.seconds_per_step * 1e3,
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
        ("steps", Json::from(steps)),
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
        ];
        if std::env::var("SAGDFN_SHARDS").is_err() {
            gates.push(Gate::holds(
                format!(
                    "N=20000 resolved shards ({}) = planned ({})",
                    frontier.shards, frontier.plan.shards
                ),
                frontier.shards == frontier.plan.shards,
            ));
        }
        for c in &cases {
            for (phase, sec) in [
                ("train_sec_per_step", c.train.seconds_per_step),
                ("eval_sec_per_step", c.eval.seconds_per_step),
            ] {
                // 1.5x slack: wall-clock gates on shared CI need room.
                let limit = base.f64(&format!("cases.n={}.{phase}", c.n)) * 1.5 + 1e-3;
                gates.push(Gate::at_most(format!("N={} {phase}", c.n), sec, limit));
            }
        }
        gates
    });
}
