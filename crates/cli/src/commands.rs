//! CLI subcommand implementations.

use sagdfn_core::{trainer, Backbone, HeadKind, Mode, Sagdfn, SagdfnConfig};
use sagdfn_data::{io as dataio, Scale, SplitSpec, ThreeWaySplit};
use sagdfn_json::{Json, JsonError};
use std::collections::HashMap;

/// Top-level usage text.
pub const USAGE: &str = "\
sagdfn — Scalable Adaptive Graph Diffusion Forecasting Network (ICDE 2024 reproduction)

USAGE:
  sagdfn generate --dataset <metr-la|london|newyork|carpark> [--scale tiny|small|paper] --out <file.csv>
  sagdfn train    --data <file.csv> [--h 12] [--f 12] [--epochs N] [--backbone gru|tcn|attention]
                  [--m M] [--alpha A] [--dropout R] [--scale tiny|small|paper]
                  [--head point|quantile|sampled] [--quantiles 0.1,0.5,0.9] --model <stem>
  sagdfn evaluate --data <file.csv> --model <stem>
  sagdfn forecast --data <file.csv> --model <stem>
  sagdfn stream   --data <file.csv> --model <stem> [--start S] [--ticks N]
                  [--drift none|level|ramp] [--drift-at T] [--drift-mag X] [--drift-ramp K]
                  [--fine-tune on|off] [--ft-every K]
  sagdfn inspect  --data <file.csv>
  sagdfn profile  [--steps 20] [--scale tiny|small|paper] [--mode counters|full] [--out trace.jsonl]
  sagdfn serve    --data <file.csv> --model <stem> [--name default] [--addr 127.0.0.1:7878]
                  [--batch-max 32] [--queue 1024] [--deadline-ms 0]
                  [--tenants name=stem:data.csv,...]
  sagdfn help";

/// Sidecar metadata saved next to the weights.
struct ModelMeta {
    n: usize,
    h: usize,
    f: usize,
    config: SagdfnConfig,
}

impl ModelMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("h", Json::from(self.h)),
            ("f", Json::from(self.f)),
            ("config", self.config.to_json()),
        ])
    }

    fn from_json(doc: &Json) -> Result<ModelMeta, JsonError> {
        Ok(ModelMeta {
            n: doc.req("n")?.as_usize()?,
            h: doc.req("h")?.as_usize()?,
            f: doc.req("f")?.as_usize()?,
            config: SagdfnConfig::from_json(doc.req("config")?)?,
        })
    }
}

/// Tiny flag parser: `--key value` pairs into a map.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{flag}'"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn required<'m>(flags: &'m HashMap<String, String>, key: &str) -> Result<&'m str, String> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parse_scale(flags: &HashMap<String, String>) -> Result<Scale, String> {
    match flags.get("scale") {
        None => Ok(Scale::Tiny),
        Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale '{s}'")),
    }
}

fn parse_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: '{v}'")),
    }
}

/// `sagdfn generate`: write a synthetic dataset as CSV.
pub fn generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let scale = parse_scale(&flags)?;
    let out = required(&flags, "out")?;
    let dataset = match required(&flags, "dataset")? {
        "metr-la" => sagdfn_data::metr_la_like(scale).dataset,
        "london" => sagdfn_data::city2000_like(scale, 0).dataset,
        "newyork" => sagdfn_data::city2000_like(scale, 1).dataset,
        "carpark" => sagdfn_data::carpark_like(scale).dataset,
        other => return Err(format!("unknown dataset '{other}'")),
    };
    dataio::write_csv_path(&dataset, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} nodes x {} steps ({}-minute interval)",
        out,
        dataset.nodes(),
        dataset.steps(),
        dataset.interval_min
    );
    Ok(())
}

fn load_split(
    flags: &HashMap<String, String>,
    h: usize,
    f: usize,
) -> Result<(usize, ThreeWaySplit), String> {
    let path = required(flags, "data")?;
    let dataset = dataio::read_csv_path(path).map_err(|e| e.to_string())?;
    let n = dataset.nodes();
    Ok((n, ThreeWaySplit::new(dataset, SplitSpec::paper(h, f))))
}

/// `sagdfn train`: fit SAGDFN on a CSV dataset and save the model.
pub fn train(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let stem = required(&flags, "model")?.to_string();
    let scale = parse_scale(&flags)?;
    let h = parse_num(&flags, "h", 12usize)?;
    let f = parse_num(&flags, "f", 12usize)?;
    let (n, split) = load_split(&flags, h, f)?;

    let mut cfg = SagdfnConfig::for_scale(scale, n);
    cfg.epochs = parse_num(&flags, "epochs", cfg.epochs)?;
    cfg.alpha = parse_num(&flags, "alpha", cfg.alpha)?;
    cfg.dropout = parse_num(&flags, "dropout", cfg.dropout)?;
    if let Some(m) = flags.get("m") {
        cfg.m = m.parse().map_err(|_| "bad --m")?;
        cfg.top_k = (cfg.m * 4 / 5).max(1).min(cfg.m - 1);
    }
    if let Some(b) = flags.get("backbone") {
        cfg.backbone = match b.as_str() {
            "gru" => Backbone::Gru,
            "tcn" => Backbone::Tcn,
            "attention" => Backbone::SelfAttention,
            other => return Err(format!("unknown backbone '{other}'")),
        };
    }
    if let Some(hd) = flags.get("head") {
        cfg.head = match hd.as_str() {
            "point" => HeadKind::Point,
            "quantile" => HeadKind::Quantile,
            "sampled" => HeadKind::Sampled,
            other => return Err(format!("unknown head '{other}' (point|quantile|sampled)")),
        };
    }
    if let Some(qs) = flags.get("quantiles") {
        cfg.quantiles = qs
            .split(',')
            .map(|s| s.trim().parse::<f32>().map_err(|_| format!("bad quantile '{s}'")))
            .collect::<Result<Vec<f32>, String>>()?;
        let sorted = cfg.quantiles.windows(2).all(|w| w[0] < w[1]);
        if cfg.quantiles.is_empty()
            || !sorted
            || !cfg.quantiles.iter().all(|&q| q > 0.0 && q < 1.0)
        {
            return Err("--quantiles must be strictly increasing values in (0, 1)".into());
        }
    }
    println!(
        "training SAGDFN on {n} nodes (h={h}, f={f}, M={}, α={}, {:?} backbone, {:?} head)",
        cfg.m, cfg.alpha, cfg.backbone, cfg.head
    );
    let mut model = Sagdfn::new(n, cfg.clone());
    let report = trainer::fit(&mut model, &split);
    for e in &report.epochs {
        println!(
            "epoch {:>3}: train {:.4}  val {:.4}  ({:.1}s)",
            e.epoch, e.train_loss, e.val_mae, e.seconds
        );
    }
    println!("\ntest metrics:");
    for hz in [3usize, 6, 12] {
        println!("  horizon {hz:>2}: {}", report.at_horizon(hz).row());
    }
    if let Some(prob) = &report.prob {
        println!("  probabilistic: {}", prob.row());
    }

    sagdfn_nn::checkpoint::save_path(&model.params, format!("{stem}.params.json"))
        .map_err(|e| e.to_string())?;
    let meta = ModelMeta { n, h, f, config: cfg };
    std::fs::write(
        format!("{stem}.config.json"),
        meta.to_json().to_string_pretty().map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    println!("\nsaved {stem}.params.json and {stem}.config.json");
    Ok(())
}

fn load_model(flags: &HashMap<String, String>) -> Result<(Sagdfn, ModelMeta), String> {
    load_model_stem(required(flags, "model")?)
}

fn load_model_stem(stem: &str) -> Result<(Sagdfn, ModelMeta), String> {
    let text =
        std::fs::read_to_string(format!("{stem}.config.json")).map_err(|e| e.to_string())?;
    let meta = Json::parse(&text)
        .and_then(|doc| ModelMeta::from_json(&doc))
        .map_err(|e| e.to_string())?;
    let mut model = Sagdfn::new(meta.n, meta.config.clone());
    sagdfn_nn::checkpoint::load_path(&mut model.params, format!("{stem}.params.json"))
        .map_err(|e| e.to_string())?;
    // The significant index is a function of the (now loaded) embeddings.
    model.refresh_index();
    Ok((model, meta))
}

/// `sagdfn inspect`: statistical characterization of a CSV dataset.
pub fn inspect(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let path = required(&flags, "data")?;
    let dataset = dataio::read_csv_path(path).map_err(|e| e.to_string())?;
    let report = sagdfn_data::inspect(&dataset);
    println!("dataset '{}' ({path})", dataset.name);
    println!("{}", report.render());
    if report.daily_autocorr < 0.2 {
        println!("note: weak daily seasonality — temporal models will struggle");
    }
    if report.mean_cross_corr < 0.1 {
        println!("note: weak cross-series correlation — graph models may not help");
    }
    Ok(())
}

/// `sagdfn evaluate`: per-horizon metrics of a saved model on a dataset.
pub fn evaluate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let (model, meta) = load_model(&flags)?;
    let (n, split) = load_split(&flags, meta.h, meta.f)?;
    if n != meta.n {
        return Err(format!("model was trained on {} nodes, data has {n}", meta.n));
    }
    let metrics = trainer::evaluate(&model, &split.test, meta.config.batch_size);
    println!("test metrics over {} windows:", split.test.len());
    for (i, m) in metrics.iter().enumerate() {
        println!("  horizon {:>2}: {}", i + 1, m.row());
    }
    Ok(())
}

/// `sagdfn forecast`: print the forecast for the most recent window.
pub fn forecast(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let (model, meta) = load_model(&flags)?;
    let (n, split) = load_split(&flags, meta.h, meta.f)?;
    if n != meta.n {
        return Err(format!("model was trained on {} nodes, data has {n}", meta.n));
    }
    let last = split.test.len() - 1;
    let (pred, _) = {
        let batch = split.test.make_batch(&[last]);
        let tape = sagdfn_autodiff_tape();
        let _no_grad = tape.no_grad();
        let bind = model.params.bind(&tape);
        let p = model
            .forward(&tape, &bind, &batch, split.scaler, Mode::Eval)
            .value();
        (p, batch)
    };
    println!(
        "forecast for the most recent window ({} steps ahead, {} nodes):",
        meta.f, n
    );
    let show_n = n.min(8);
    print!("{:>6}", "step");
    for node in 0..show_n {
        print!(" {:>8}", format!("node{node}"));
    }
    println!("{}", if n > show_n { "  ..." } else { "" });
    for t in 0..meta.f {
        print!("{:>6}", t + 1);
        for node in 0..show_n {
            print!(" {:>8.2}", pred.at(&[t, 0, node]));
        }
        println!();
    }
    Ok(())
}

// Local alias to keep the forecast body readable.
fn sagdfn_autodiff_tape() -> sagdfn_autodiff::Tape {
    sagdfn_autodiff::Tape::new()
}

/// `sagdfn stream`: replay a CSV dataset one tick at a time through the
/// online [`StreamEngine`](sagdfn_core::StreamEngine) — rolling-window
/// forecasts, incremental scaler updates, anomaly flags, and (when
/// enabled) bounded fine-tune bursts. `--drift` injects a synthetic
/// distribution shift mid-stream to exercise the adaptation path.
pub fn stream(args: &[String]) -> Result<(), String> {
    use sagdfn_core::{StreamConfig, StreamEngine};
    use sagdfn_data::{DriftConfig, DriftKind, TickStream};
    use sagdfn_obs as obs;

    let flags = parse_flags(args)?;
    let (model, meta) = load_model(&flags)?;
    let path = required(&flags, "data")?;
    let dataset = dataio::read_csv_path(path).map_err(|e| e.to_string())?;
    if dataset.nodes() != meta.n {
        return Err(format!(
            "model was trained on {} nodes, data has {}",
            meta.n,
            dataset.nodes()
        ));
    }
    let interval = dataset.interval_min;
    // Scaler seed = the training-split scaler, the same derivation as
    // `evaluate`/`serve`, so the stream starts from the deployed state.
    let split = ThreeWaySplit::new(dataset, SplitSpec::paper(meta.h, meta.f));
    let data = split.test.dataset();

    let drift = match flags.get("drift").map(|s| s.as_str()) {
        None | Some("none") => DriftConfig::none(),
        Some(kind) => DriftConfig {
            kind: match kind {
                "level" => DriftKind::LevelShift,
                "ramp" => DriftKind::Ramp,
                other => return Err(format!("unknown --drift '{other}' (none|level|ramp)")),
            },
            onset: parse_num(&flags, "drift-at", data.steps() / 2)?,
            magnitude: parse_num(&flags, "drift-mag", 10.0f32)?,
            ramp_steps: parse_num(&flags, "drift-ramp", 50usize)?.max(1),
        },
    };

    let start = parse_num(&flags, "start", 0usize)?;
    let max_ticks = parse_num(&flags, "ticks", data.steps().saturating_sub(start))?;
    let mut cfg = StreamConfig::new(meta.h, meta.f);
    if let Some(v) = flags.get("fine-tune") {
        cfg.fine_tune = matches!(v.as_str(), "1" | "on" | "true");
    }
    cfg.ft_every = parse_num(&flags, "ft-every", cfg.ft_every)?.max(1);

    let mut ticks = TickStream::new(data, drift).starting_at(start);
    let smow = ticks.minute_of_week(start);
    let mut engine = StreamEngine::new(model, split.scaler, cfg, interval, smow);

    println!(
        "streaming up to {} ticks from step {} ({} nodes, {}-minute interval{})",
        max_ticks.min(ticks.remaining()),
        start,
        meta.n,
        interval,
        match drift.kind {
            DriftKind::None => String::new(),
            k => format!(", {k:?} drift of {} at step {}", drift.magnitude, drift.onset),
        }
    );
    let base = obs::snapshot();
    let (mut anomalies, mut flagged_ticks, mut ft_bursts) = (0u64, 0u64, 0u64);
    let mut count = 0usize;
    while count < max_ticks {
        let Some(row) = ticks.next_tick() else { break };
        let summary = engine.push(row);
        anomalies += u64::from(summary.anomalies);
        flagged_ticks += u64::from(summary.anomalies > 0);
        ft_bursts += u64::from(summary.fine_tuned);
        count += 1;
    }
    println!(
        "stream done: {count} ticks, {anomalies} anomaly flags on {flagged_ticks} ticks, \
         {ft_bursts} fine-tune bursts"
    );
    if let Some(fc) = engine.forecast() {
        let show_n = meta.n.min(6);
        print!("next-step forecast:");
        for node in 0..show_n {
            let c = engine.model().out_channels();
            let point = if c == 1 {
                fc.at(&[0, 0, node])
            } else {
                let ch = engine
                    .model()
                    .head()
                    .map_or(0, sagdfn_core::ForecastHead::feedback_channel);
                fc.at(&[0, 0, node, ch])
            };
            print!(" {point:.2}");
        }
        println!("{}", if meta.n > show_n { " ..." } else { "" });
    }
    println!("\n{}", obs::format_table(&obs::snapshot().since(&base)));
    Ok(())
}

/// `sagdfn profile`: run N training steps on a synthetic workload with
/// kernel tracing on, print the per-kernel table (sorted by elapsed
/// time), and write the span trace as JSONL (`full` mode only) —
/// convertible to chrome://tracing with the `trace2chrome` bench binary.
pub fn profile(args: &[String]) -> Result<(), String> {
    use sagdfn_nn::{masked_mae, Adam, Optimizer};
    use sagdfn_obs as obs;

    let flags = parse_flags(args)?;
    let steps = parse_num(&flags, "steps", 20usize)?;
    let scale = parse_scale(&flags)?;
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "trace.jsonl".to_string());
    let mode = match flags.get("mode").map(|s| s.as_str()) {
        None | Some("full") => obs::TraceMode::Full,
        Some("counters") => obs::TraceMode::Counters,
        Some(other) => return Err(format!("unknown --mode '{other}' (counters|full)")),
    };

    // Same synthetic workload as the train-step benchmark: metr-la-like
    // data, paper split, SNS resampling pinned off for steady state.
    let data = sagdfn_data::metr_la_like(scale);
    let n = data.dataset.nodes();
    let steps_avail = data.dataset.steps().min(500);
    let split = ThreeWaySplit::new(data.dataset.subset_steps(0, steps_avail), SplitSpec::paper(4, 4));
    let mut cfg = SagdfnConfig::for_scale(scale, n);
    cfg.sns_every = 1_000_000;
    cfg.convergence_iter = 10;
    let batch_size = cfg.batch_size.min(split.train.len());
    let lr = cfg.lr;
    let mut model = Sagdfn::new(n, cfg);
    let mut opt = Adam::new(lr);
    let tape = sagdfn_autodiff_tape();
    let ids: Vec<usize> = (0..batch_size).collect();

    let prev_mode = obs::set_trace_mode(mode);
    obs::drain_spans(); // start from an empty span buffer
    let base = obs::snapshot();
    println!("profiling {steps} training steps on {n} nodes ({scale:?} scale, {mode:?} mode)");
    println!("{}", sagdfn_tensor::dispatch::description());
    // The resolved shard plan (SAGDFN_SHARDS > cfg.shards > memsim auto)
    // and the memory split that justified it.
    let plan = sagdfn_memsim::plan_shards(
        n,
        batch_size,
        sagdfn_memsim::V100_32GB.capacity_bytes,
    );
    println!(
        "node shards: {} (auto plan: {} shards of {} rows, {:.2} MB graph/shard, \
         {:.2} MB modeled peak{})",
        model.shards(),
        plan.shards,
        plan.shard_rows,
        plan.bytes_per_shard as f64 / 1e6,
        plan.total_bytes as f64 / 1e6,
        if plan.fits { "" } else { ", exceeds V100-32GB" },
    );
    for step in 0..steps {
        let step_guard = obs::kernel(obs::Kernel::TrainStep, 0, 0, 0);
        let batch = split.train.make_batch(&ids);
        model.maybe_resample();
        tape.reset();
        let bind = model.params.bind(&tape);
        let pred =
            model.forward_scheduled(&tape, &bind, &batch, split.scaler, &[], Mode::Train);
        let mask = Sagdfn::loss_mask(&batch.y);
        let loss = masked_mae(pred, &batch.y, &mask);
        let _ = loss.item();
        let grads = loss.backward();
        opt.step(&mut model.params, &bind, &grads);
        tape.recycle_gradients(grads);
        model.tick();
        drop(step_guard);
        obs::step_rollup(step as u64 + 1);
    }
    // A short eval sweep so the inference-path counters (eval_step,
    // plan-cache builds/hits) show up alongside the training kernels.
    if !split.val.is_empty() {
        let _ = trainer::predict(&model, &split.val, batch_size);
    }
    let delta = obs::snapshot().since(&base);
    println!("\n{}", obs::format_table(&delta));
    // The eval sweep above ran through the plan executor (unless
    // SAGDFN_PLAN=off): show the compiled schedule with per-op times.
    if let Some(table) = model.plan_table() {
        println!("{table}");
    }

    if mode == obs::TraceMode::Full {
        let records = obs::write_trace(&out).map_err(|e| e.to_string())?;
        println!("wrote {records} trace records to {out}");
        if obs::dropped_records() > 0 {
            println!("note: {} records dropped (buffer full)", obs::dropped_records());
        }
    } else {
        println!("(no span trace in counters mode; use --mode full for {out})");
    }
    obs::set_trace_mode(prev_mode);
    Ok(())
}

/// One `name=stem:data.csv` tenant to serve.
struct TenantSpec {
    name: String,
    stem: String,
    data: String,
}

impl TenantSpec {
    fn parse(spec: &str) -> Result<TenantSpec, String> {
        let (name, rest) = spec
            .split_once('=')
            .ok_or_else(|| format!("tenant spec '{spec}' is not name=stem:data.csv"))?;
        let (stem, data) = rest
            .split_once(':')
            .ok_or_else(|| format!("tenant spec '{spec}' is not name=stem:data.csv"))?;
        if name.is_empty() || stem.is_empty() || data.is_empty() {
            return Err(format!("tenant spec '{spec}' has an empty field"));
        }
        Ok(TenantSpec { name: name.into(), stem: stem.into(), data: data.into() })
    }

    /// Loads the model + dataset into a ready tenant. The scaler is the
    /// training-split scaler (same derivation as `evaluate`), so served
    /// inputs are encoded exactly like evaluation batches.
    fn build(&self) -> Result<sagdfn_serve::Tenant, String> {
        let (model, meta) = load_model_stem(&self.stem)?;
        let dataset = dataio::read_csv_path(&self.data).map_err(|e| e.to_string())?;
        if dataset.nodes() != meta.n {
            return Err(format!(
                "tenant '{}': model was trained on {} nodes, data has {}",
                self.name,
                meta.n,
                dataset.nodes()
            ));
        }
        let (interval, smow) = (dataset.interval_min, dataset.start_minute_of_week);
        let split = ThreeWaySplit::new(dataset, SplitSpec::paper(meta.h, meta.f));
        Ok(sagdfn_serve::Tenant::new(
            self.name.clone(),
            model,
            split.scaler,
            meta.h,
            meta.f,
            interval,
            smow,
        ))
    }
}

/// Every flag `sagdfn serve` reads; any other is an error, so a stale
/// flag (such as the removed `--hold-ms`) cannot pass unnoticed.
const SERVE_FLAGS: [&str; 8] =
    ["data", "model", "name", "addr", "batch-max", "queue", "deadline-ms", "tenants"];

/// Parses serve flags into a config and tenant list, then binds and
/// starts the server (split out so tests can drive a live instance on
/// an ephemeral port).
fn start_server(flags: &HashMap<String, String>) -> Result<sagdfn_serve::Server, String> {
    let mut unknown: Vec<&String> =
        flags.keys().filter(|k| !SERVE_FLAGS.contains(&k.as_str())).collect();
    unknown.sort();
    if let Some(flag) = unknown.first() {
        return Err(format!("serve does not take --{flag}"));
    }
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".into());
    let max_batch = parse_num(flags, "batch-max", 32usize)?;
    let queue_cap = parse_num(flags, "queue", 1024usize)?;
    let deadline_ms = parse_num(flags, "deadline-ms", 0u64)?;
    if max_batch == 0 || queue_cap == 0 {
        return Err("batch-max and queue must be >= 1".into());
    }

    let mut specs = Vec::new();
    if let Some(stem) = flags.get("model") {
        let data = required(flags, "data")?;
        let name = flags.get("name").cloned().unwrap_or_else(|| "default".into());
        specs.push(TenantSpec { name, stem: stem.clone(), data: data.into() });
    }
    if let Some(list) = flags.get("tenants") {
        for spec in list.split(',') {
            specs.push(TenantSpec::parse(spec)?);
        }
    }
    if specs.is_empty() {
        return Err("nothing to serve: pass --model/--data and/or --tenants".into());
    }
    // Surface config-file problems on the calling thread; weights load
    // on the inference thread where the model must live.
    for spec in &specs {
        if !std::path::Path::new(&format!("{}.config.json", spec.stem)).exists() {
            return Err(format!("tenant '{}': no {}.config.json", spec.name, spec.stem));
        }
    }

    let cfg = sagdfn_serve::ServeConfig {
        addr,
        max_batch,
        queue_cap,
        default_deadline_ns: (deadline_ms > 0).then(|| deadline_ms * 1_000_000),
    };
    sagdfn_serve::Server::start(cfg, move || {
        let mut registry = sagdfn_serve::Registry::new();
        for spec in &specs {
            match spec.build() {
                Ok(tenant) => {
                    registry.add(tenant);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        registry
    })
    .map_err(|e| e.to_string())
}

/// `sagdfn serve`: micro-batched HTTP forecast server over the frozen
/// eval path. Blocks until the process is killed.
pub fn serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let server = start_server(&flags)?;
    println!("sagdfn serve listening on {}", server.addr());
    for m in server.core().metadata() {
        println!(
            "  model '{}': {} nodes, history {} -> horizon {}",
            m.name, m.n, m.h, m.f
        );
    }
    println!("POST /v1/forecast | GET /v1/models | GET /healthz");
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parser_roundtrip() {
        let flags = parse_flags(&strs(&["--a", "1", "--b", "two"])).unwrap();
        assert_eq!(flags.get("a").unwrap(), "1");
        assert_eq!(flags.get("b").unwrap(), "two");
    }

    #[test]
    fn flag_parser_rejects_bare_values() {
        assert!(parse_flags(&strs(&["oops"])).is_err());
        assert!(parse_flags(&strs(&["--dangling"])).is_err());
    }

    #[test]
    fn required_reports_flag_name() {
        let flags = parse_flags(&[]).unwrap();
        let err = required(&flags, "data").unwrap_err();
        assert!(err.contains("--data"), "{err}");
    }

    #[test]
    fn parse_num_default_and_error() {
        let flags = parse_flags(&strs(&["--epochs", "zzz"])).unwrap();
        assert_eq!(parse_num(&flags, "h", 12usize).unwrap(), 12);
        assert!(parse_num(&flags, "epochs", 1usize).is_err());
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let err = generate(&strs(&["--dataset", "mars", "--out", "/tmp/x.csv"])).unwrap_err();
        assert!(err.contains("unknown dataset"), "{err}");
    }

    #[test]
    fn full_cli_cycle_in_tempdir() {
        // generate -> train (1 epoch) -> evaluate -> forecast, via the
        // command functions directly.
        let dir = std::env::temp_dir().join("sagdfn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv").to_string_lossy().to_string();
        let stem = dir.join("m").to_string_lossy().to_string();

        generate(&strs(&["--dataset", "metr-la", "--out", &csv])).expect("generate");
        train(&strs(&[
            "--data", &csv, "--epochs", "1", "--h", "4", "--f", "4", "--model", &stem,
        ]))
        .expect("train");
        assert!(std::path::Path::new(&format!("{stem}.params.json")).exists());
        assert!(std::path::Path::new(&format!("{stem}.config.json")).exists());
        evaluate(&strs(&["--data", &csv, "--model", &stem])).expect("evaluate");
        forecast(&strs(&["--data", &csv, "--model", &stem])).expect("forecast");
    }

    #[test]
    fn quantile_train_then_stream_with_drift() {
        // train --head quantile -> evaluate -> stream with a level shift,
        // exercising checkpoint round-trip of the head config and the
        // online engine end-to-end through the command layer.
        let dir = std::env::temp_dir().join("sagdfn-cli-stream");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv").to_string_lossy().to_string();
        let stem = dir.join("q").to_string_lossy().to_string();

        generate(&strs(&["--dataset", "metr-la", "--out", &csv])).expect("generate");
        train(&strs(&[
            "--data", &csv, "--epochs", "1", "--h", "4", "--f", "4",
            "--head", "quantile", "--quantiles", "0.1,0.5,0.9", "--model", &stem,
        ]))
        .expect("train quantile");
        // The sidecar records the head so reload reconstructs it.
        let cfg_text = std::fs::read_to_string(format!("{stem}.config.json")).unwrap();
        assert!(cfg_text.contains("Quantile"), "{cfg_text}");
        evaluate(&strs(&["--data", &csv, "--model", &stem])).expect("evaluate quantile");
        stream(&strs(&[
            "--data", &csv, "--model", &stem, "--ticks", "12",
            "--drift", "level", "--drift-at", "6", "--drift-mag", "30",
        ]))
        .expect("stream");
        // Bad flag values fail fast with readable errors.
        assert!(train(&strs(&[
            "--data", &csv, "--head", "fuzzy", "--model", &stem,
        ]))
        .unwrap_err()
        .contains("unknown head"));
        assert!(train(&strs(&[
            "--data", &csv, "--quantiles", "0.9,0.1", "--model", &stem,
        ]))
        .unwrap_err()
        .contains("strictly increasing"));
        assert!(stream(&strs(&[
            "--data", &csv, "--model", &stem, "--drift", "sideways",
        ]))
        .unwrap_err()
        .contains("unknown --drift"));
    }

    #[test]
    fn serve_starts_and_answers_over_loopback() {
        use std::io::{BufRead, BufReader, Read, Write};

        let dir = std::env::temp_dir().join("sagdfn-cli-serve");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv").to_string_lossy().to_string();
        let stem = dir.join("m").to_string_lossy().to_string();
        generate(&strs(&["--dataset", "metr-la", "--out", &csv])).expect("generate");
        train(&strs(&[
            "--data", &csv, "--epochs", "1", "--h", "4", "--f", "4", "--model", &stem,
        ]))
        .expect("train");

        let flags = parse_flags(&strs(&[
            "--data", &csv, "--model", &stem, "--name", "metr", "--addr", "127.0.0.1:0",
            "--batch-max", "4",
        ]))
        .unwrap();
        let server = start_server(&flags).expect("bind ephemeral port");
        let meta = server.core().metadata()[0].clone();
        assert_eq!(meta.name, "metr");

        // One forecast over real HTTP: history taken as a flat array.
        let history: Vec<String> = (0..meta.h * meta.n).map(|i| format!("{}", 40 + i % 7)).collect();
        let body = format!(
            "{{\"model\":\"metr\",\"start\":0,\"history\":[{}]}}",
            history.join(",")
        );
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                format!(
                    "POST /v1/forecast HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                )
                .as_bytes(),
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.contains("200"), "expected 200, got {status:?}");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("\"forecast\":["), "{rest:?}");

        server.shutdown();

        // Bad tenant specs fail fast, before any thread spawns.
        assert!(TenantSpec::parse("no-equals").is_err());
        assert!(TenantSpec::parse("a=no-colon").is_err());
        let flags = parse_flags(&strs(&["--addr", "127.0.0.1:0"])).unwrap();
        match start_server(&flags) {
            Err(e) => assert!(e.contains("nothing to serve"), "{e}"),
            Ok(_) => panic!("tenant-less serve must fail"),
        }

        // A flag serve does not read is an error naming it, before any
        // thread spawns — including the removed batch hold.
        let flags = parse_flags(&strs(&[
            "--data", &csv, "--model", &stem, "--addr", "127.0.0.1:0", "--hold-ms", "2",
        ]))
        .unwrap();
        match start_server(&flags) {
            Err(e) => assert_eq!(e, "serve does not take --hold-ms"),
            Ok(_) => panic!("an unknown serve flag must fail"),
        }
    }

    #[test]
    fn profile_writes_table_and_trace() {
        let dir = std::env::temp_dir().join("sagdfn-cli-profile");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.jsonl").to_string_lossy().to_string();
        profile(&strs(&["--steps", "2", "--out", &out])).expect("profile");
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(!text.is_empty(), "trace file should have records");
        for line in text.lines() {
            sagdfn_json::Json::parse(line).expect("every trace line is valid JSON");
        }
        // Counters mode must succeed without touching the trace file.
        std::fs::remove_file(&out).unwrap();
        profile(&strs(&["--steps", "1", "--mode", "counters", "--out", &out]))
            .expect("profile counters");
        assert!(!std::path::Path::new(&out).exists());
    }

    #[test]
    fn evaluate_rejects_node_mismatch() {
        let dir = std::env::temp_dir().join("sagdfn-cli-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_a = dir.join("a.csv").to_string_lossy().to_string();
        let stem = dir.join("m").to_string_lossy().to_string();
        generate(&strs(&["--dataset", "metr-la", "--out", &csv_a])).unwrap();
        train(&strs(&[
            "--data", &csv_a, "--epochs", "1", "--h", "4", "--f", "4", "--model", &stem,
        ]))
        .unwrap();
        // A dataset with a different node count must be refused.
        let csv_b = dir.join("b.csv").to_string_lossy().to_string();
        generate(&strs(&["--dataset", "carpark", "--out", &csv_b])).unwrap();
        let err = evaluate(&strs(&["--data", &csv_b, "--model", &stem])).unwrap_err();
        assert!(err.contains("nodes"), "{err}");
    }
}
