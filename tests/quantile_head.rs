//! Probabilistic-head contracts: monotone quantile rows, plan/tape
//! bit-identity for every head kind, checkpoint round-trips, full
//! gradient coverage, and a shrinking pinball loss.
//!
//! The plan mode is process-global, so every test holds `MODE_LOCK`: a
//! test's `PlanMode::Off` arm must never land in another's planned run.

use sagdfn_repro::{
    autodiff::Tape,
    data::{metr_la_like, prob_metrics, Scale, SplitSpec, ThreeWaySplit},
    nn::{checkpoint, Adam, Mode, Optimizer},
    sagdfn::{set_plan_mode, HeadKind, PlanMode, Sagdfn, SagdfnConfig},
    tensor::Tensor,
};
use std::sync::Mutex;

static MODE_LOCK: Mutex<()> = Mutex::new(());

fn quantile_cfg(n: usize) -> SagdfnConfig {
    let mut cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
    cfg.head = HeadKind::Quantile;
    cfg.quantiles = vec![0.1, 0.25, 0.5, 0.75, 0.9];
    cfg
}

fn workload(head: HeadKind) -> (Sagdfn, ThreeWaySplit) {
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let mut cfg = quantile_cfg(n);
    cfg.head = head;
    let model = Sagdfn::new(n, cfg);
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(4, 4));
    (model, split)
}

fn predict_bits(model: &Sagdfn, split: &ThreeWaySplit, mode: PlanMode) -> Vec<u32> {
    let batch = split.test.make_batch(&[0, 1, 2]);
    let prev = set_plan_mode(mode);
    let mut out = Tensor::zeros(model.output_dims(4, 3).as_slice());
    model.predict_batch_into(&batch, split.scaler, &mut out);
    set_plan_mode(prev);
    out.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn quantile_rows_are_monotone_everywhere() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, split) = workload(HeadKind::Quantile);
    let batch = split.test.make_batch(&[0, 1, 2]);
    let mut out = Tensor::zeros(model.output_dims(4, 3).as_slice());
    model.predict_batch_into(&batch, split.scaler, &mut out);
    let q = model.out_channels();
    assert_eq!(q, 5);
    for row in out.as_slice().chunks_exact(q) {
        for w in row.windows(2) {
            assert!(
                w[0] <= w[1],
                "quantile crossing: {:?} (cumulative-relu stacking must forbid it)",
                row
            );
        }
    }
}

#[test]
fn every_head_is_bit_identical_across_plan_modes() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for head in [HeadKind::Point, HeadKind::Quantile, HeadKind::Sampled] {
        let (model, split) = workload(head);
        let off = predict_bits(&model, &split, PlanMode::Off);
        let on = predict_bits(&model, &split, PlanMode::On);
        assert_eq!(off, on, "plan executor drifted from the tape for {head:?} head");
    }
}

#[test]
fn probabilistic_heads_round_trip_through_checkpoints() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("sagdfn-head-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    for head in [HeadKind::Quantile, HeadKind::Sampled] {
        let (mut model, split) = workload(head);
        // One gradient step first: `Sagdfn::new` is seeded, so an
        // untrained model would be indistinguishable from a fresh one.
        let batch = split.train.make_batch(&[0, 1]);
        let mask = Sagdfn::loss_mask(&batch.y);
        let mut opt = Adam::new(model.config().lr);
        let tape = Tape::new();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
        let loss = model.loss(pred, &batch.y, &mask);
        let grads = loss.backward();
        opt.step(&mut model.params, &bind, &grads);
        model.refresh_index();

        let want = predict_bits(&model, &split, PlanMode::On);
        let path = dir.join(format!("{head:?}.params.json"));
        checkpoint::save_path(&model.params, &path).expect("save");
        // A freshly initialized model diverges; loading must restore the
        // exact bits, including the head parameters.
        let mut reloaded = Sagdfn::new(model.n(), model.config().clone());
        assert_ne!(want, predict_bits(&reloaded, &split, PlanMode::On));
        checkpoint::load_path(&mut reloaded.params, &path).expect("load");
        reloaded.refresh_index();
        assert_eq!(
            want,
            predict_bits(&reloaded, &split, PlanMode::On),
            "{head:?} head predictions drifted across a checkpoint round-trip"
        );
    }
}

#[test]
fn quantile_loss_reaches_every_parameter() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, split) = workload(HeadKind::Quantile);
    let batch = split.train.make_batch(&[0, 1, 2]);
    let tape = Tape::new();
    let bind = model.params.bind(&tape);
    let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
    let mask = Sagdfn::loss_mask(&batch.y);
    let loss = model.loss(pred, &batch.y, &mask);
    assert!(loss.value().as_slice()[0].is_finite());
    let grads = loss.backward();
    for id in model.params.ids() {
        let g = bind
            .grad(&grads, id)
            .unwrap_or_else(|| panic!("no gradient for {}", model.params.name(id)));
        assert!(
            g.as_slice().iter().all(|v| v.is_finite()),
            "non-finite gradient for {}",
            model.params.name(id)
        );
    }
}

#[test]
fn pinball_training_tightens_the_quantiles() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut model, split) = workload(HeadKind::Quantile);
    let lr = model.config().lr;
    let taus = model.config().quantiles.clone();
    let batch = split.train.make_batch(&[0, 1, 2, 3]);
    let mask = Sagdfn::loss_mask(&batch.y);
    let mut opt = Adam::new(lr);
    let tape = Tape::new();
    let mut first = None;
    let mut last = 0.0f32;
    for _ in 0..8 {
        tape.reset();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
        let loss = model.loss(pred, &batch.y, &mask);
        last = loss.value().as_slice()[0];
        first.get_or_insert(last);
        let grads = loss.backward();
        opt.step(&mut model.params, &bind, &grads);
        tape.recycle_gradients(grads);
        model.tick();
    }
    let first = first.unwrap();
    assert!(
        last < first,
        "pinball loss did not decrease: {first} -> {last}"
    );
    // And the resulting grid yields sane probabilistic metrics.
    let test = split.test.make_batch(&[0, 1]);
    let mut out = Tensor::zeros(model.output_dims(4, 2).as_slice());
    model.predict_batch_into(&test, split.scaler, &mut out);
    let pm = prob_metrics(&out, &test.y, &taus);
    assert!(pm.crps.is_finite() && pm.crps >= 0.0);
    assert!((0.0..=1.0).contains(&pm.coverage));
    assert!((pm.nominal - 0.8).abs() < 1e-6);
}
