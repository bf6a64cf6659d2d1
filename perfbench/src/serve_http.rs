//! `serve_http`: two keep-alive loopback connections in a closed loop
//! against one N = 120 point-head tenant of `sagdfn_serve::Server`.
//!
//! This is the only workload through sockets, `serve::http` framing,
//! `sagdfn_json` decode/encode and the connection threads. The client
//! sends each request in one write and sets no socket options, like a
//! plain HTTP client.

use crate::inputs::{Dataset, Inputs, LoadTimes, Model, TENANT_SETUPS};
use crate::report::{Report, Table};
use crate::serving::{self, Payload};
use crate::stats::{median, tail};
use crate::{load_metrics, setup_median};
use sagdfn_json::Json;
use sagdfn_obs as obs;
use sagdfn_serve::{Forecast, Server};
use sagdfn_tensor::{alloc, Rng64};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const TENANT: &str = "city";
/// Closed-loop clients, one keep-alive connection each.
const CLIENTS: usize = 2;

/// One keep-alive HTTP/1.1 connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the server");
        let reader = BufReader::new(writer.try_clone().expect("clone the client socket"));
        Client { reader, writer }
    }

    /// Sends one request and reads the whole response: status and body.
    fn call(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// The wire body of one forecast request.
fn request_body(p: &Payload, n: usize) -> String {
    let rows = p
        .history
        .chunks(n)
        .map(|row| Json::Arr(row.iter().map(|&v| Json::from(v)).collect()))
        .collect();
    Json::obj([
        ("model", Json::from(TENANT)),
        ("start", Json::from(p.start)),
        ("history", Json::Arr(rows)),
    ])
    .to_compact()
    .expect("encode request")
}

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/forecast HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Decodes a 200 response's `forecast` rows.
fn decode(body: &[u8]) -> Option<Forecast> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let rows = doc.req("forecast").ok()?.as_arr().ok()?;
    let mut values = Vec::new();
    for row in rows {
        for v in row.as_arr().ok()? {
            values.push(v.as_f32().ok()?);
        }
    }
    let n = rows.first()?.as_arr().ok()?.len();
    Some(Forecast {
        values,
        quantiles: None,
        levels: Vec::new(),
        f: rows.len(),
        n,
    })
}

struct State {
    server: Server,
    split: sagdfn_data::ThreeWaySplit,
}

/// Loads the CSV, starts the server (the checkpoint loads on its
/// inference thread) and answers the first forecast through
/// `Server::core()`. The first HTTP round trip is timed apart
/// ([`first_request_ms`]): on a fresh connection it either meets the
/// delayed-ACK stall or escapes it, so it would make set-up bimodal.
fn setup(inputs: &Inputs, seed: u64) -> (State, LoadTimes) {
    let mut times = LoadTimes::default();
    let data = inputs.read_csv(Dataset::City120, &mut times);
    let (split, anchor) = serving::split(data);
    let loaded = Arc::new(Mutex::new(LoadTimes::default()));
    let build = serving::registry(inputs, &[(TENANT, Model::Point120)], anchor, &loaded);
    let server = Server::start(serving::config(), build).expect("start the server");
    let l = *loaded.lock().unwrap_or_else(|e| e.into_inner());
    times.model_new_s += l.model_new_s;
    times.checkpoint_load_s += l.checkpoint_load_s;
    let first = &serving::payloads(&split, seed)[0];
    let answer = server
        .core()
        .submit(TENANT, first.start, first.history.clone(), None)
        .and_then(|h| h.wait());
    assert!(answer.is_ok(), "first forecast answered");
    (State { server, split }, times)
}

/// Fresh connections on which the first request is timed.
const FIRST_REQUESTS: usize = 21;

/// Median milliseconds of the first request on a fresh connection,
/// connect included; a non-200 fails its operation.
fn first_request_ms(addr: SocketAddr, req: &[u8], rep: &mut Report) -> f64 {
    let ms: Vec<f64> = (0..FIRST_REQUESTS)
        .map(|_| {
            let t = Instant::now();
            let status = Client::connect(addr).call(req).map_or(0, |r| r.0);
            rep.op(status == 200);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// One answered request: which payload, how long, and what came back.
struct Sample {
    payload: usize,
    ms: f64,
    status: u16,
    body: Vec<u8>,
}

struct Phase {
    samples: Vec<Sample>,
    secs: f64,
}

impl Phase {
    fn per_s(&self) -> f64 {
        self.samples.len() as f64 / self.secs
    }

    fn ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }
}

/// `CLIENTS` threads, each on its own warm keep-alive connection, send
/// seeded requests back to back for `secs` seconds.
fn closed_loop(addr: SocketAddr, reqs: &[Vec<u8>], seed: u64, secs: f64) -> Phase {
    let mut clients: Vec<Client> = (0..CLIENTS).map(|_| Client::connect(addr)).collect();
    for c in &mut clients {
        let _ = c.call(&reqs[0]);
    }
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|scope| {
        let joins: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(ci, mut client)| {
                scope.spawn(move || {
                    let mut rng = Rng64::new(seed.wrapping_mul(31).wrapping_add(ci as u64));
                    let mut samples = Vec::new();
                    let mut last = t0;
                    while t0.elapsed().as_secs_f64() < secs {
                        let payload = rng.next_u64() as usize % reqs.len();
                        let t = Instant::now();
                        let (status, body) = client.call(&reqs[payload]).unwrap_or((0, Vec::new()));
                        last = Instant::now();
                        let ms = (last - t).as_secs_f64() * 1e3;
                        samples.push(Sample {
                            payload,
                            ms,
                            status,
                            body,
                        });
                    }
                    (samples, last)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let end = per_client.iter().map(|c| c.1).max().unwrap_or(t0);
    let samples = per_client.into_iter().flat_map(|c| c.0).collect();
    Phase {
        samples,
        secs: (end - t0).as_secs_f64(),
    }
}

/// The same requests through `Server::core().submit` at the same
/// concurrency: the serving pipeline without sockets, framing or JSON.
/// Returns each answered request's milliseconds and the failure count.
fn core_loop(server: &Server, pool: &[Payload], seed: u64, secs: f64) -> (Vec<f64>, u64) {
    let core = server.core();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|ci| {
                scope.spawn(move || {
                    let mut rng = Rng64::new(seed.wrapping_mul(31).wrapping_add(ci as u64));
                    let (mut ms, mut failed) = (Vec::new(), 0u64);
                    while t0.elapsed().as_secs_f64() < secs {
                        let p = &pool[rng.next_u64() as usize % pool.len()];
                        let t = Instant::now();
                        let answer = core.submit(TENANT, p.start, p.history.clone(), None);
                        match answer.and_then(|h| h.wait()) {
                            Ok(_) => ms.push(t.elapsed().as_secs_f64() * 1e3),
                            Err(_) => failed += 1,
                        }
                    }
                    (ms, failed)
                })
            })
            .collect();
        let (mut ms, mut failed) = (Vec::new(), 0);
        for j in joins {
            let (m, f) = j.join().expect("core client thread");
            ms.extend(m);
            failed += f;
        }
        (ms, failed)
    })
}

/// Counts every sample as an operation; a non-200 fails it, and a 200
/// whose forecast is not bit-identical to the B = 1 reference fails the
/// correctness check.
fn verify(phase: &Phase, check: &dyn Fn(usize, &Forecast) -> bool, rep: &mut Report) {
    let mut mismatched = 0usize;
    for s in &phase.samples {
        let ok = s.status == 200;
        rep.op(ok);
        if ok && !decode(&s.body).is_some_and(|fc| check(s.payload, &fc)) {
            mismatched += 1;
        }
    }
    rep.check(
        mismatched == 0,
        &format!("every 200 response is bit-identical to predict_batch_into at B=1 ({mismatched} differ)"),
    );
}

pub fn run(inputs: &Inputs, seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let (s, setup_s, times) = setup_median(TENANT_SETUPS, || setup(inputs, seed));
    let pool = serving::payloads(&s.split, seed);
    let n = s.split.test.nodes();
    let bodies: Vec<String> = pool.iter().map(|p| request_body(p, n)).collect();
    let reqs: Vec<Vec<u8>> = bodies.iter().map(|b| request_bytes(b)).collect();
    let model = inputs.load_model(Model::Point120, &mut LoadTimes::default());
    let refs = serving::references(&model, &s.split, &pool);
    let check = |i: usize, fc: &Forecast| serving::matches(&model, &refs[i], fc);
    let addr = s.server.addr();

    if !trace {
        alloc::reset_peak();
        let p = closed_loop(addr, &reqs, seed, seconds);
        let peak_mb = alloc::peak_bytes() as f64 / (1 << 20) as f64;
        verify(&p, &check, rep);
        let ms = p.ms();
        let t = tail(&ms);
        rep.note(format!(
            "serve_http: closed loop, {CLIENTS} keep-alive clients, N=120 point tenant, {} \
             requests; tail {:.3} ms at p{:.1} of {}",
            p.samples.len(),
            t.value,
            t.percentile,
            t.samples
        ));
        rep.metric("setup_s", setup_s, "s");
        rep.metric("peak_mb", peak_mb, "MB");
        rep.metric("throughput_per_s", p.per_s(), "1/s");
        rep.metric("latency_p50_ms", median(&ms), "ms");
        s.server.shutdown();
        return;
    }

    let first_ms = first_request_ms(addr, &reqs[0], rep);
    let third = seconds / 3.0;
    let plain = closed_loop(addr, &reqs, seed, third);
    let prev = obs::set_trace_mode(obs::TraceMode::Counters);
    let p = closed_loop(addr, &reqs, seed, third);
    obs::set_trace_mode(prev);
    let (core_ms, core_failed) = core_loop(&s.server, &pool, seed, third);
    s.server.shutdown();
    verify(&plain, &check, rep);
    verify(&p, &check, rep);
    rep.ops(core_ms.len() as u64 + core_failed, core_failed);

    // The JSON layer's share, timed on the same bytes through the same
    // public calls: the request decode the server runs, and an encode of
    // a response-shaped document.
    let parse_ms = median(
        &bodies
            .iter()
            .map(|b| time_ms(|| Json::parse(b).is_ok()))
            .collect::<Vec<_>>(),
    );
    let encode_ms = median(
        &refs
            .iter()
            .map(|r| {
                let doc = Json::obj([
                    ("model", Json::from(TENANT)),
                    ("start", Json::from(0u64)),
                    (
                        "forecast",
                        Json::Arr(
                            r.chunks(n)
                                .map(|row| Json::Arr(row.iter().map(|&v| Json::from(v)).collect()))
                                .collect(),
                        ),
                    ),
                ]);
                time_ms(|| doc.to_compact().is_ok())
            })
            .collect::<Vec<_>>(),
    );
    let http_p50 = median(&p.ms());
    let core_p50 = median(&core_ms);
    let mut table = Table::new("serve_http request (p50)", http_p50);
    table
        .row("serve core: queue, batch, forward", core_p50)
        .row("json.parse (request)", parse_ms)
        .row("json.encode (response)", encode_ms);
    rep.note(table.render());
    rep.note("the residual is socket and HTTP framing time (serve.http.wire_ms less JSON)".into());
    rep.metric("json.parse_ms", parse_ms, "ms");
    rep.metric("json.encode_ms", encode_ms, "ms");
    rep.metric("serve.core_latency_p50_ms", core_p50, "ms");
    rep.metric("serve.http.wire_ms", http_p50 - core_p50, "ms");
    rep.metric("serve.http.first_request_ms", first_ms, "ms");
    rep.metric(
        "trace.overhead",
        100.0 * (plain.per_s() / p.per_s() - 1.0),
        "%",
    );
    rep.tail_metrics(&plain.ms());
    load_metrics(rep, &times);
}

/// Wall milliseconds of one call.
fn time_ms(f: impl FnOnce() -> bool) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}
