//! Extension experiment: how sparse is the learned slim adjacency?
//!
//! The paper's Remark (Section IV-B) argues α-entmax suppresses the
//! low-weight noise entries that softmax spreads everywhere. This harness
//! trains SAGDFN at several α values and reports the *exact-zero
//! fraction* of the per-head attention rows plus the effective support
//! size of A_s — the mechanism behind the Table VIII ablation, measured
//! directly.

use sagdfn_baselines::sagdfn_adapter::SagdfnForecaster;
use sagdfn_baselines::Forecaster;
use sagdfn_bench::{load, DatasetKind, RunArgs};
use sagdfn_core::gconv::Adjacency;
use sagdfn_core::SagdfnConfig;
use sagdfn_data::average;
use std::io::Write;
use sagdfn_nn::Mode;

fn main() {
    let args = RunArgs::parse();
    println!(
        "EXTENSION — learned-adjacency sparsity vs alpha (scale {:?})",
        args.scale
    );
    let data = load(DatasetKind::MetrLa, args.scale);
    let n = data.ctx.n;
    let mut csv = args.csv_writer("ext_sparsity").expect("csv");
    writeln!(csv, "alpha,zero_frac,nnz,support_90,mae,train_sec").unwrap();
    println!(
        "{:>6} {:>12} {:>10} {:>22} {:>10} {:>10}",
        "alpha", "zero frac", "nnz", "90%-mass support", "avg MAE", "train s"
    );
    for alpha in [1.0f32, 1.5, 2.0] {
        let mut cfg = SagdfnConfig::for_scale(args.scale, n);
        cfg.alpha = alpha;
        // Wide M so there are irrelevant entries to suppress.
        cfg.m = (n / 2).clamp(4, 100);
        cfg.top_k = (cfg.m * 3 / 5).max(1);
        let mut model = SagdfnForecaster::new(n, cfg);
        let (_summary, train_sec) = sagdfn_bench::gate::timed(|| model.fit(&data.split));
        let mae = average(&model.evaluate(&data.split.test)).mae;

        // Inspect the trained adjacency.
        let tape = sagdfn_autodiff::Tape::new();
        let bind = model.model().params.bind(&tape);
        let adj: Adjacency<'_> = model.model().adjacency(&tape, &bind, Mode::Train);
        assert!(adj.is_slim(), "full model uses a slim adjacency");
        let weights = adj.weights().value();
        let m = weights.dim(1);
        let w = weights.as_slice();
        // Entmax produces *exact* zeros (the CSR kernels rely on this), so
        // count v == 0.0 — an epsilon test would also swallow small live
        // weights and overstate sparsity.
        let nnz: usize = sagdfn_entmax::support_counts(w, m)
            .iter()
            .map(|&c| c as usize)
            .sum();
        let zero_frac = (w.len() - nnz) as f32 / w.len() as f32;
        // Average number of entries holding 90 % of each row's |mass|.
        let mut support_sum = 0usize;
        for row in w.chunks(m) {
            let mut mags: Vec<f32> = row.iter().map(|v| v.abs()).collect();
            mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let total: f32 = mags.iter().sum();
            let mut acc = 0.0;
            let mut k = 0;
            for &v in &mags {
                acc += v;
                k += 1;
                if acc >= 0.9 * total {
                    break;
                }
            }
            support_sum += k;
        }
        let support = support_sum as f32 / n as f32;
        println!(
            "{alpha:>6} {:>11.1}% {nnz:>10} {:>15.1} of {m} {mae:>10.3} {train_sec:>10.2}",
            zero_frac * 100.0,
            support
        );
        writeln!(csv, "{alpha},{zero_frac},{nnz},{support},{mae},{train_sec}").unwrap();
    }
    println!("\nwrote {}/ext_sparsity.csv", args.out_dir);
    println!("expectation: zero fraction and support concentration grow with alpha");
}
