//! What the two serving workloads share: tenants loaded the way
//! `sagdfn serve` loads them, a seeded pool of request payloads, and the
//! B = 1 reference forecasts every response is checked against.

use crate::inputs::{Inputs, LoadTimes, Model, F, H};
use sagdfn_core::Sagdfn;
use sagdfn_data::{ForecastDataset, SplitSpec, ThreeWaySplit, ZScore};
use sagdfn_serve::{Forecast, Registry, ServeConfig, Tenant};
use sagdfn_tensor::{Rng64, Tensor};
use std::sync::{Arc, Mutex};

/// Distinct windows the clients draw their requests from.
pub const POOL: usize = 32;

/// One request: a window start plus its raw history rows.
pub struct Payload {
    pub start: u64,
    pub history: Vec<f32>,
    window: usize,
}

/// The dataset facts a tenant needs, taken from the loaded CSV.
#[derive(Clone, Copy)]
pub struct Anchor {
    pub scaler: ZScore,
    pub interval_min: u32,
    pub start_minute_of_week: u32,
}

pub fn split(data: ForecastDataset) -> (ThreeWaySplit, Anchor) {
    let (interval_min, start_minute_of_week) = (data.interval_min, data.start_minute_of_week);
    let split = ThreeWaySplit::new(data, SplitSpec::paper(H, F));
    let anchor = Anchor {
        scaler: split.scaler,
        interval_min,
        start_minute_of_week,
    };
    (split, anchor)
}

/// The server configuration: `sagdfn serve` defaults on an ephemeral
/// loopback port.
pub fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// The closure `Server::start` / `ServerCore::start` call to make the
/// registry. It runs on the inference thread, loads each `(name, model)`
/// checkpoint there and leaves its load times in `times`.
pub fn registry(
    inputs: &Inputs,
    tenants: &[(&'static str, Model)],
    anchor: Anchor,
    times: &Arc<Mutex<LoadTimes>>,
) -> impl FnOnce() -> Registry + Send + 'static {
    let inputs = inputs.clone();
    let tenants = tenants.to_vec();
    let times = Arc::clone(times);
    move || {
        let mut registry = Registry::new();
        let mut t = LoadTimes::default();
        for (name, m) in tenants {
            let model = inputs.load_model(m, &mut t);
            registry.add(Tenant::new(
                name,
                model,
                anchor.scaler,
                H,
                F,
                anchor.interval_min,
                anchor.start_minute_of_week,
            ));
        }
        *times.lock().unwrap_or_else(|e| e.into_inner()) = t;
        registry
    }
}

/// `POOL` test windows chosen by the seed.
pub fn payloads(split: &ThreeWaySplit, seed: u64) -> Vec<Payload> {
    let test = &split.test;
    let n = test.nodes();
    let vals = test.dataset().values.as_slice();
    let mut rng = Rng64::new(seed ^ 0x5E4E);
    (0..POOL)
        .map(|_| {
            let window = rng.next_u64() as usize % test.len();
            let s = test.starts()[window];
            Payload {
                start: s as u64,
                history: vals[s * n..(s + H) * n].to_vec(),
                window,
            }
        })
        .collect()
}

/// The forecast `Sagdfn::predict_batch_into` gives for each payload's
/// window at B = 1: the full `(f, 1, N[, C])` output, time-major.
pub fn references(model: &Sagdfn, split: &ThreeWaySplit, pool: &[Payload]) -> Vec<Vec<f32>> {
    pool.iter()
        .map(|p| {
            let mut batch = split.test.make_batch(&[p.window]);
            // A served request carries no targets; the eval forward only
            // reads y's horizon length.
            batch.y.as_mut_slice().fill(0.0);
            let mut out = Tensor::zeros(model.output_dims(F, 1).as_slice());
            model.predict_batch_into(&batch, split.scaler, &mut out);
            out.as_slice().to_vec()
        })
        .collect()
}

/// Bit-for-bit comparison of a served forecast with its reference: the
/// point values, and for a quantile tenant every quantile row.
pub fn matches(model: &Sagdfn, reference: &[f32], fc: &Forecast) -> bool {
    let c = model.out_channels();
    let ch = model
        .head()
        .map_or(0, sagdfn_core::ForecastHead::feedback_channel);
    let same = |a: &[f32], b: &mut dyn Iterator<Item = &f32>| {
        a.iter().map(|x| x.to_bits()).eq(b.map(|y| y.to_bits()))
    };
    let values_ok = same(&fc.values, &mut reference.iter().skip(ch).step_by(c));
    let quantiles_ok = match &fc.quantiles {
        Some(q) => c > 1 && same(q, &mut reference.iter()),
        None => c == 1,
    };
    values_ok && quantiles_ok
}
