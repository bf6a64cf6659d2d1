//! SIMD/scalar equivalence of the full training step, end to end.
//!
//! Every SIMD tier is written to the scalar kernels' exact accumulation
//! order (the 4-wide grouping contract, no FMA), so forcing
//! `SimdMode::Scalar` must reproduce the auto-dispatched run's loss and
//! *every* parameter gradient under `f32` equality — with the buffer pool
//! recycling on or off, and on the serial path as well as the pooled one.
//! The Tiny preset's GEMMs are too small to leave the scalar-sized
//! paths; the Small-preset case (N = 120) runs training's narrow shapes
//! (c = 35, n = 16, one head column) through the masked edge tiles and
//! the in-place `matmul_tn`.
//!
//! The SIMD mode and the recycling switch are process-global, so every
//! test holds `MODE_LOCK`: one test's forced mode must never land in
//! another's auto or baseline arm.

use sagdfn_repro::autodiff::Tape;
use sagdfn_repro::data::{city2000_like, metr_la_like, Scale, SplitSpec, ThreeWaySplit};
use sagdfn_repro::nn::loss::masked_mae;
use sagdfn_repro::nn::Mode;
use sagdfn_repro::sagdfn::{Sagdfn, SagdfnConfig};
use sagdfn_repro::tensor::{alloc, pool, set_simd_mode, SimdMode, Tensor};
use std::sync::Mutex;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// One forward + backward pass of the full Tiny-preset model under the
/// given SIMD mode: returns the loss and every named parameter gradient.
fn forward_backward(mode: SimdMode) -> (f32, Vec<(String, Tensor)>) {
    forward_backward_at(mode, Scale::Tiny)
}

/// [`forward_backward`] at `scale`: Tiny runs the METR-LA-like preset
/// (N = 24), Small the city preset (N = 120), both at B = 2.
fn forward_backward_at(mode: SimdMode, scale: Scale) -> (f32, Vec<(String, Tensor)>) {
    let prev = set_simd_mode(mode);
    let data = match scale {
        Scale::Tiny => metr_la_like(scale),
        _ => city2000_like(scale, 0),
    };
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(12, 12));
    let model = Sagdfn::new(n, SagdfnConfig::for_scale(scale, n));
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
    set_simd_mode(prev);
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
fn simd_and_scalar_runs_agree_exactly() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scalar = forward_backward(SimdMode::Scalar);
    let auto = forward_backward(SimdMode::Auto);
    assert_same(&auto, &scalar, "auto vs scalar");
}

#[test]
fn small_preset_simd_and_scalar_runs_agree_exactly() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scalar = forward_backward_at(SimdMode::Scalar, Scale::Small);
    let auto = forward_backward_at(SimdMode::Auto, Scale::Small);
    assert_same(&auto, &scalar, "Small preset, auto vs scalar");
}

#[test]
fn simd_scalar_agreement_survives_recycling_toggle() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = forward_backward(SimdMode::Scalar);
    let prev = alloc::set_recycling(!alloc::recycling_enabled());
    let auto = forward_backward(SimdMode::Auto);
    let scalar = forward_backward(SimdMode::Scalar);
    alloc::set_recycling(prev);
    assert_same(&auto, &baseline, "auto, recycling toggled");
    assert_same(&scalar, &baseline, "scalar, recycling toggled");
}

#[test]
fn simd_scalar_agreement_holds_on_serial_path() {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pooled = forward_backward(SimdMode::Auto);
    let serial_auto = pool::run_serial(|| forward_backward(SimdMode::Auto));
    let serial_scalar = pool::run_serial(|| forward_backward(SimdMode::Scalar));
    assert_same(&serial_auto, &pooled, "serial auto vs pooled auto");
    assert_same(&serial_scalar, &pooled, "serial scalar vs pooled auto");
}
