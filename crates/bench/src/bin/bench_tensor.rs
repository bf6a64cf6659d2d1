//! Tensor-substrate perf baseline: times the pooled hot kernels against
//! their forced-serial paths — and the SIMD dispatch against the forced
//! scalar kernels — then writes `BENCH_tensor.json`.
//!
//! The pooled and serial arms of one case race each other, then the
//! serial SIMD and forced-scalar arms ([`gate::race`]), so no arm pays
//! the page-fault and cache-warmup cost of going first.
//!
//! Usage: `bench_tensor [--out FILE] [--check BASELINE]`
//!
//! With `--check` (exit nonzero on failure), each GEMM case in
//! [`SIMD_FLOORS`] — `matmul_512` and three of training's narrow shapes,
//! whose column and row remainders run the masked edge tiles — must
//! keep its single-thread SIMD-over-scalar speedup above its tier's
//! floor and within 25 % of a baseline recorded on the same tier
//! (skipped on tiers without a floor). At `threads=1` the pooled arm
//! must open no pool region: pooled and serial then run the same code,
//! which the obs counter shows exactly, so their timed ratio is only
//! host noise and is recorded ungated. `scripts/check.sh` runs this as
//! the tensor regression guard.

use sagdfn_bench::gate::{self, Gate};
use sagdfn_entmax::entmax_rows;
use sagdfn_json::Json;
use sagdfn_obs as obs;
use sagdfn_tensor::{dispatch, pool, set_simd_mode, simd_tier, Rng64, SimdMode, SimdTier, Tensor};
use std::hint::black_box;

/// Timed rounds per case.
const REPS: usize = 20;

/// Per-tier floors `(avx512, avx2, neon)` on the SIMD-over-scalar
/// speedup of the gated GEMM cases. The narrow shapes gate only the x86
/// tiers, whose edges run masked tiles (NEON's edges stay scalar), at
/// levels the scalar-edge kernels with a packed `matmul_tn` did not
/// reach: 1.5× / 6.0× / 1.5× on avx512 and 2.4× / 6.1× / 1.3× on avx2.
const SIMD_FLOORS: [(&str, [Option<f64>; 3]); 4] = [
    ("matmul_512", [Some(3.0), Some(1.5), Some(1.2)]),
    ("matmul_tn_64000x64x16", [Some(6.0), Some(4.0), None]),
    ("matmul_nt_4000x32x35", [Some(8.0), Some(7.0), None]),
    ("matmul_2000x32x35", [Some(2.0), Some(1.7), None]),
];

fn rand(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
}

/// Runs `f` once with the scalar kernels forced, restoring the previous
/// dispatch mode afterwards.
fn with_scalar<R>(f: impl FnOnce() -> R) -> R {
    let prev = set_simd_mode(SimdMode::Scalar);
    let r = f();
    set_simd_mode(prev);
    r
}

struct Case {
    name: &'static str,
    pooled_s: f64,
    serial_s: f64,
    simd_serial_s: f64,
    scalar_serial_s: f64,
    flops: u64,
    /// Pool regions one pooled run opens.
    pool_regions: u64,
}

impl Case {
    fn measure(name: &'static str, f: impl Fn()) -> Case {
        // One counted pooled run gives the flops and pool-region columns
        // (and faults in the output pages before anything is timed).
        let prev_trace = obs::set_trace_mode(obs::TraceMode::Counters);
        let base = obs::snapshot();
        f();
        let counted = obs::snapshot().since(&base);
        let flops: u64 = counted.kernels.iter().map(|k| k.flops).sum();
        obs::set_trace_mode(prev_trace);

        // Two pairs, each racing alone (see `gate::race`): pooled vs
        // serial — at threads=1 identical code, so a systematic gap would
        // be a measurement artifact — and serial SIMD vs serial scalar
        // kernels, timed under the same machine load.
        let pool_race = gate::race(1, REPS, &mut [&mut || f(), &mut || pool::run_serial(&f)]);
        let simd_race = gate::race(1, REPS, &mut [
            &mut || pool::run_serial(&f),
            &mut || with_scalar(|| pool::run_serial(&f)),
        ]);
        Case {
            name,
            pooled_s: pool_race[0],
            serial_s: pool_race[1],
            simd_serial_s: simd_race[0],
            scalar_serial_s: simd_race[1],
            flops,
            pool_regions: counted.pool_regions,
        }
    }

    fn speedup(&self) -> f64 {
        self.serial_s / self.pooled_s
    }

    /// Single-thread scalar-kernels / SIMD-kernels time ratio, from the
    /// race that times both.
    fn simd_speedup(&self) -> f64 {
        self.scalar_serial_s / self.simd_serial_s
    }

    /// Counted flops over the best single-thread SIMD time.
    fn gflops(&self) -> f64 {
        self.flops as f64 / self.serial_s.min(self.simd_serial_s) / 1e9
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name)),
            ("pooled_s", Json::from(self.pooled_s)),
            ("serial_s", Json::from(self.serial_s)),
            ("simd_serial_s", Json::from(self.simd_serial_s)),
            ("scalar_serial_s", Json::from(self.scalar_serial_s)),
            ("speedup", Json::from(self.speedup())),
            ("simd_speedup", Json::from(self.simd_speedup())),
            ("gflops", Json::from(self.gflops())),
            ("pool_regions", Json::from(self.pool_regions)),
        ])
    }
}

fn main() {
    let args = gate::Args::parse("BENCH_tensor.json");

    println!(
        "tensor perf baseline: {} worker threads, {REPS} reps (min kept)",
        pool::num_threads()
    );
    println!("{}", dispatch::description());

    let m512 = (rand(&[512, 512], 1), rand(&[512, 512], 2));
    let m256 = (rand(&[256, 256], 3), rand(&[256, 256], 4));
    let batched = (rand(&[16, 64, 64], 5), rand(&[16, 64, 64], 6));
    // Training's narrow GEMMs at N = 2000, B = 2 (Small preset): the SSMA
    // first-layer weight gradient over the (N·M, 64) pair table, a gate
    // linear's input gradient, and a diffusion product with c = 35.
    let tn_pairs = (rand(&[64000, 64], 12), rand(&[64000, 16], 13));
    let nt_gate = (rand(&[4000, 32], 14), rand(&[35, 32], 15));
    let mm_diffuse = (rand(&[2000, 32], 16), rand(&[32, 35], 17));
    let wide = (rand(&[4096, 2048], 7), rand(&[4096, 2048], 8));
    let reduce_in = rand(&[4_000_000], 9);
    let trans_in = rand(&[1024, 1024], 10);
    let entmax_in: Vec<f32> = {
        let mut rng = Rng64::new(11);
        (0..2000 * 100).map(|_| rng.next_gaussian()).collect()
    };

    let cases = vec![
        Case::measure("matmul_512", || {
            black_box(m512.0.matmul(&m512.1));
        }),
        Case::measure("matmul_512_nt", || {
            black_box(m512.0.matmul_nt(&m512.1));
        }),
        Case::measure("matmul_256", || {
            black_box(m256.0.matmul(&m256.1));
        }),
        Case::measure("batched_matmul_16x64", || {
            black_box(batched.0.matmul(&batched.1));
        }),
        Case::measure("matmul_tn_64000x64x16", || {
            black_box(tn_pairs.0.matmul_tn(&tn_pairs.1));
        }),
        Case::measure("matmul_nt_4000x32x35", || {
            black_box(nt_gate.0.matmul_nt(&nt_gate.1));
        }),
        Case::measure("matmul_2000x32x35", || {
            black_box(mm_diffuse.0.matmul(&mm_diffuse.1));
        }),
        Case::measure("elementwise_add_4096x2048", || {
            black_box(wide.0.add(&wide.1));
        }),
        Case::measure("sigmoid_4096x2048", || {
            black_box(wide.0.sigmoid());
        }),
        Case::measure("sum_4M", || {
            black_box(reduce_in.sum());
        }),
        Case::measure("transpose_1024", || {
            black_box(trans_in.transpose_last2());
        }),
        Case::measure("entmax_rows_2000x100", || {
            black_box(entmax_rows(&entmax_in, 100, 1.5));
        }),
    ];

    println!(
        "  {:<28} {:>11} {:>11} {:>7} {:>11} {:>7} {:>8}",
        "case", "pooled ms", "serial ms", "pool x", "scalar ms", "simd x", "gflops"
    );
    for c in &cases {
        // Kernels whose obs formula charges no flops (pure data movement)
        // show "-" rather than a misleading 0.00.
        let gflops = if c.flops > 0 {
            format!("{:8.2}", c.gflops())
        } else {
            format!("{:>8}", "-")
        };
        println!(
            "  {:<28} {:>11.3} {:>11.3} {:>6.2}x {:>11.3} {:>6.2}x {gflops}",
            c.name,
            c.pooled_s * 1e3,
            c.serial_s * 1e3,
            c.speedup(),
            c.scalar_serial_s * 1e3,
            c.simd_speedup(),
        );
    }

    let doc = Json::obj([
        ("threads", Json::from(pool::num_threads())),
        ("reps", Json::from(REPS)),
        ("simd_tier", Json::from(simd_tier().name())),
        (
            "cases",
            Json::Arr(cases.iter().map(Case::to_json).collect()),
        ),
    ]);
    args.finish(doc, |base| {
        // Each gated GEMM's SIMD win must hold absolutely per tier and not
        // regress more than 25% against a baseline recorded on the same
        // tier. Tiers without a floor have nothing to compare.
        let tier = simd_tier();
        let same_tier = base.at("simd_tier").as_str() == Ok(tier.name());
        let mut gates = Vec::new();
        for (name, floors) in SIMD_FLOORS {
            let tier_floor = match tier {
                SimdTier::Avx512 => floors[0],
                SimdTier::Avx2 => floors[1],
                SimdTier::Neon => floors[2],
                SimdTier::Scalar => None,
            };
            let Some(tier_floor) = tier_floor else {
                println!("  {name}: no SIMD speedup floor on {}", tier.name());
                continue;
            };
            let case = cases.iter().find(|c| c.name == name).expect("gated case");
            let floor = if same_tier {
                (base.f64(&format!("cases.name={name}.simd_speedup")) * 0.75).max(tier_floor)
            } else {
                tier_floor
            };
            gates.push(Gate::at_least(
                format!("{name} simd speedup on {}", tier.name()),
                case.simd_speedup(),
                floor,
            ));
        }
        // At threads=1 the pooled arm must take the serial path: no case
        // may fan out to the pool.
        if pool::num_threads() == 1 {
            gates.extend(cases.iter().map(|c| {
                Gate::at_most(
                    format!("{} pool regions at threads=1", c.name),
                    c.pool_regions as f64,
                    0.0,
                )
            }));
        }
        gates
    });
}
