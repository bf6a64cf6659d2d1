//! Cross-crate checks of the paper's headline claims, at test-sized
//! scales (full reproductions live in the `sagdfn-bench` binaries).

use sagdfn_repro::data::{Scale, SplitSpec, ThreeWaySplit};
use sagdfn_repro::graph::SlimAdj;
use sagdfn_repro::memsim::{ModelFamily, WorkloadDims, V100_32GB};
use sagdfn_repro::sagdfn::{trainer, Mode, Sagdfn, SagdfnConfig, Variant};
use sagdfn_repro::tensor::{Rng64, Tensor};

/// Table I / Example 2: slim diffusion beats dense diffusion in time as N
/// grows (measured, not just asymptotic), with M at 5 % of N.
#[test]
fn slim_diffusion_faster_than_dense_at_scale() {
    for n in [1000, 1500, 2000] {
        let m = n / 20;
        let mut rng = Rng64::new(0);
        let x = Tensor::rand_uniform([n, 32], -1.0, 1.0, &mut rng);
        let slim = SlimAdj::new(
            Tensor::rand_uniform([n, m], 0.0, 1.0, &mut rng),
            rng.sample_indices(n, m),
        );
        let dense = slim.to_dense();

        let time = |f: &dyn Fn() -> Tensor| {
            f(); // warmup
            let start = std::time::Instant::now();
            for _ in 0..3 {
                f();
            }
            start.elapsed()
        };
        let t_slim = time(&|| slim.diffuse_step(&x));
        let t_dense = time(&|| dense.diffuse_step(&x));
        assert!(
            t_slim < t_dense,
            "slim {t_slim:?} should beat dense {t_dense:?} at N={n}, M={m}"
        );
    }
}

/// Tables V–VII: the exact OOM roster at N≈2000 under 32 GB.
#[test]
fn oom_roster_matches_paper_tables() {
    let dims = WorkloadDims::paper(2000, 32);
    let expect_oom = [
        ModelFamily::Stgcn,
        ModelFamily::Gman,
        ModelFamily::Agcrn,
        ModelFamily::Astgcn,
        ModelFamily::Stsgcn,
        ModelFamily::Gts,
        ModelFamily::Step,
        ModelFamily::D2stgnn,
    ];
    for fam in ModelFamily::ALL {
        let should = expect_oom.contains(&fam);
        assert_eq!(
            fam.would_oom(&dims, &V100_32GB),
            should,
            "{} OOM mismatch",
            fam.name()
        );
    }
}

/// Section IV-B: the slim adjacency produced by the attention module is
/// genuinely sparse under α = 2 but dense under α = 1.
#[test]
fn entmax_adjacency_sparser_than_softmax() {
    let data = sagdfn_repro::data::metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let adjacency_zeros = |alpha: f32| -> usize {
        let mut cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
        cfg.alpha = alpha;
        let model = Sagdfn::new(n, cfg);
        let tape = sagdfn_repro::autodiff::Tape::new();
        let bind = model.params.bind(&tape);
        let adj = model.adjacency(&tape, &bind, Mode::Train);
        assert!(adj.is_slim());
        // Count near-zero head outputs via the weight magnitudes.
        let v = adj.weights().value();
        let max = v.abs().max().max(1e-9);
        v.as_slice().iter().filter(|x| x.abs() < 1e-5 * max).count()
    };
    assert!(
        adjacency_zeros(2.0) >= adjacency_zeros(1.0),
        "sparsemax adjacency must not be denser than softmax's"
    );
}

/// Table VIII sanity at test scale: the full model and all four ablations
/// train to finite errors, and the full model is not the worst variant.
#[test]
fn ablation_variants_all_train() {
    let data = sagdfn_repro::data::carpark_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset.subset_steps(0, 500), SplitSpec::paper(8, 4));
    let mut results = Vec::new();
    for variant in Variant::ALL {
        let cfg = SagdfnConfig {
            epochs: 2,
            sns_every: 8,
            convergence_iter: 20,
            ..SagdfnConfig::for_scale(Scale::Tiny, n)
        };
        let topo = (!variant.uses_learned_graph())
            .then(|| data.graph.adj.topk_rows(8).weights().clone());
        let mut model = Sagdfn::with_variant(n, cfg, variant, topo);
        let report = trainer::fit(&mut model, &split);
        let mae = sagdfn_repro::data::average(&report.test).mae;
        assert!(mae.is_finite(), "{} diverged", variant.name());
        results.push((variant.name(), mae));
    }
    let full = results[0].1;
    let worst = results
        .iter()
        .map(|r| r.1)
        .fold(f32::MIN, f32::max);
    assert!(
        full < worst,
        "full model ({full}) must not be the worst variant ({results:?})"
    );
}

/// Definition 3 / Algorithm 2: horizon errors are non-decreasing on
/// average — forecasting further is harder.
#[test]
fn error_grows_with_horizon() {
    let data = sagdfn_repro::data::metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(12, 12));
    let mut model = Sagdfn::new(
        n,
        SagdfnConfig {
            epochs: 3,
            sns_every: 8,
            ..SagdfnConfig::for_scale(Scale::Tiny, n)
        },
    );
    let report = trainer::fit(&mut model, &split);
    let first = report.test[0].mae;
    let last = report.test[11].mae;
    assert!(
        last > first,
        "horizon-12 MAE {last} should exceed horizon-1 {first}"
    );
}
