//! Sparse/dense equivalence of the diffusion path, end to end.
//!
//! The CSR kernels skip terms that are exactly `0.0`; in IEEE-754 that
//! can only flip zero signs, never change a magnitude, so forcing
//! `SparseMode::On` must reproduce the dense run's loss and *every*
//! parameter gradient under `f32` equality — with the buffer pool
//! recycling on or off, on the serial path as well as the pooled one, and
//! at every node-shard count.
//!
//! The sparse mode and the recycling switch are process-global, so every
//! test holds `MODE_LOCK`: one test's forced mode must never land in
//! another's baseline arm.

use sagdfn_repro::autodiff::Tape;
use sagdfn_repro::data::{metr_la_like, Scale, SplitSpec, ThreeWaySplit};
use sagdfn_repro::nn::loss::masked_mae;
use sagdfn_repro::nn::Mode;
use sagdfn_repro::sagdfn::{Sagdfn, SagdfnConfig};
use sagdfn_repro::tensor::{alloc, pool, set_sparse_mode, SparseMode, Tensor};
use std::sync::Mutex;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// One forward + backward pass of the full model under the given sparse
/// mode: returns the loss and every named parameter gradient.
fn forward_backward(mode: SparseMode) -> (f32, Vec<(String, Tensor)>) {
    forward_backward_sharded(mode, 0)
}

/// Same, with the node-shard count pinned (0 = the config default).
fn forward_backward_sharded(mode: SparseMode, shards: usize) -> (f32, Vec<(String, Tensor)>) {
    let prev = set_sparse_mode(mode);
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(12, 12));
    let mut cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
    if shards > 0 {
        cfg.shards = shards;
    }
    let model = Sagdfn::new(n, cfg);
    if shards > 0 {
        assert_eq!(model.shards(), shards, "cfg.shards must reach the model");
    }
    let batch = split.train.make_batch(&[0, 1]);

    let tape = Tape::new();
    let bind = model.params.bind(&tape);
    let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
    let mask = Sagdfn::loss_mask(&batch.y);
    let loss = masked_mae(pred, &batch.y, &mask);
    let loss_value = loss.item();
    let grads = loss.backward();
    let mut out = Vec::new();
    for id in model.params.ids() {
        let g = bind
            .grad(&grads, id)
            .unwrap_or_else(|| panic!("{} has no gradient", model.params.name(id)))
            .clone();
        out.push((model.params.name(id).to_string(), g));
    }
    set_sparse_mode(prev);
    (loss_value, out)
}

fn assert_same(
    (loss_a, grads_a): &(f32, Vec<(String, Tensor)>),
    (loss_b, grads_b): &(f32, Vec<(String, Tensor)>),
    what: &str,
) {
    assert_eq!(loss_a, loss_b, "{what}: loss diverged");
    assert_eq!(grads_a.len(), grads_b.len(), "{what}: param count");
    for ((name_a, ga), (name_b, gb)) in grads_a.iter().zip(grads_b) {
        assert_eq!(name_a, name_b, "{what}: param order");
        assert_eq!(ga, gb, "{what}: gradient of {name_a} diverged");
    }
}

#[test]
fn sparse_and_dense_runs_agree_exactly() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dense = forward_backward(SparseMode::Off);
    let sparse = forward_backward(SparseMode::On);
    assert_same(&sparse, &dense, "sparse vs dense");

    // Auto dispatch must agree with both, whichever of the three
    // pipelines (dense / hybrid / full CSR) the cost model picks.
    let auto = forward_backward(SparseMode::Auto);
    assert_same(&auto, &dense, "auto vs dense");
}

#[test]
fn node_sharded_training_is_bit_identical() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Node sharding (DESIGN.md §14) is a memory-layout decision only:
    // under every sparse mode, shards = 1 and shards = 4 must agree on
    // the loss and every gradient end to end.
    let reference = forward_backward_sharded(SparseMode::On, 1);
    for mode in [SparseMode::On, SparseMode::Off, SparseMode::Auto] {
        for shards in [1, 4] {
            let got = forward_backward_sharded(mode, shards);
            assert_same(&got, &reference, &format!("{mode:?}, shards={shards}"));
        }
    }
}

#[test]
fn sparse_dense_agreement_survives_recycling_toggle() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = forward_backward(SparseMode::Off);
    let prev = alloc::set_recycling(!alloc::recycling_enabled());
    let sparse = forward_backward(SparseMode::On);
    let dense = forward_backward(SparseMode::Off);
    alloc::set_recycling(prev);
    assert_same(&sparse, &baseline, "sparse, recycling toggled");
    assert_same(&dense, &baseline, "dense, recycling toggled");
}

#[test]
fn sparse_dense_agreement_holds_on_serial_path() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pooled = forward_backward(SparseMode::On);
    let serial_sparse = pool::run_serial(|| forward_backward(SparseMode::On));
    let serial_dense = pool::run_serial(|| forward_backward(SparseMode::Off));
    assert_same(&serial_sparse, &pooled, "serial sparse vs pooled sparse");
    assert_same(&serial_dense, &pooled, "serial dense vs pooled sparse");
}
