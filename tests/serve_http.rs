//! Loopback regression test for the serve HTTP wire path.
//!
//! Sequential requests on one keep-alive connection are where Nagle's
//! algorithm meets the client's delayed ACK: a response that leaves in
//! two segments (or a socket without `TCP_NODELAY`) holds its tail for
//! about 40 ms per request. Twenty round trips against a Tiny tenant
//! must keep a median far below that stall, and every forecast read
//! off the wire must equal, bit for bit, what `ServerCore::submit`
//! answers for the same payload. The same wire path also pins the
//! admission rules: covariates exact at any `start`, and 400 for an
//! out-of-range `start` or a non-finite history value.

use sagdfn_json::Json;
use sagdfn_repro::data::{metr_la_like, Scale, SplitSpec, ThreeWaySplit};
use sagdfn_repro::sagdfn::{Sagdfn, SagdfnConfig};
use sagdfn_repro::serve::{Registry, ServeConfig, Server, Tenant};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const H: usize = 4;
const F: usize = 4;
const ROUND_TRIPS: usize = 20;
/// Well under the ~40 ms delayed-ACK stall, well over a Tiny forward
/// plus a 0.5 ms hold in the debug profile.
const MEDIAN_BUDGET: Duration = Duration::from_millis(25);

fn tiny_registry() -> Registry {
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let (interval, smow) = (data.dataset.interval_min, data.dataset.start_minute_of_week);
    let model = Sagdfn::new(n, SagdfnConfig::for_scale(Scale::Tiny, n));
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(H, F));
    let mut registry = Registry::new();
    registry.add(Tenant::new("tiny", model, split.scaler, H, F, interval, smow));
    registry
}

/// `(start, raw history)` payloads from the Tiny test split.
fn payloads(count: usize) -> Vec<(u64, Vec<f32>)> {
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(H, F));
    let vals = split.test.dataset().values.as_slice();
    split.test.starts()[..count]
        .iter()
        .map(|&s| (s as u64, vals[s * n..(s + H) * n].to_vec()))
        .collect()
}

/// One `POST /v1/forecast` request, written so the client sends it in a
/// single segment. Debug-formatted floats parse back to the same f32.
fn forecast_request(start: u64, history: &[f32]) -> Vec<u8> {
    let values: Vec<String> = history.iter().map(|v| format!("{v:?}")).collect();
    raw_forecast_request(&start.to_string(), &values.join(","))
}

/// A forecast request carrying `start` and the flat `history` values
/// as literal JSON text, for payloads a typed value cannot express.
fn raw_forecast_request(start: &str, history: &str) -> Vec<u8> {
    let body = format!("{{\"model\":\"tiny\",\"start\":{start},\"history\":[{history}]}}");
    format!(
        "POST /v1/forecast HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one response off the keep-alive connection: status code and body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    let code = status.split_whitespace().nth(1).and_then(|c| c.parse().ok()).expect("status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (code, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn keep_alive_round_trips_skip_the_delayed_ack_stall_and_stay_bit_exact() {
    let cfg = ServeConfig { hold_ns: 500_000, ..ServeConfig::default() };
    let server = Server::start(cfg, tiny_registry).expect("bind loopback");
    let payloads = payloads(ROUND_TRIPS);

    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut round_trips = Vec::with_capacity(ROUND_TRIPS);
    let mut served = Vec::with_capacity(ROUND_TRIPS);
    for (start, history) in &payloads {
        let request = forecast_request(*start, history);
        let t0 = Instant::now();
        writer.write_all(&request).expect("send request");
        let (code, body) = read_response(&mut reader);
        round_trips.push(t0.elapsed());
        assert_eq!(code, 200, "forecast failed: {body}");
        served.push(body);
    }

    round_trips.sort();
    let median = round_trips[ROUND_TRIPS / 2];
    assert!(
        median < MEDIAN_BUDGET,
        "median keep-alive round trip {median:?} is not under {MEDIAN_BUDGET:?} \
         (sorted: {round_trips:?})"
    );

    for ((start, history), body) in payloads.iter().zip(&served) {
        let expected = server
            .core()
            .submit("tiny", *start, history.clone(), None)
            .expect("admitted")
            .wait()
            .expect("forecast");
        let wire = forecast_values(body);
        assert_eq!(wire.len(), expected.values.len());
        for (i, (w, e)) in wire.iter().zip(&expected.values).enumerate() {
            assert_eq!(w.to_bits(), e.to_bits(), "start {start}, value {i}: {w:?} vs {e:?}");
        }
    }
    server.shutdown();
}

/// The raw-unit forecast values of a 200 response body.
fn forecast_values(body: &str) -> Vec<f32> {
    let parsed = Json::parse(body).expect("response is JSON");
    let rows = parsed.req("forecast").and_then(Json::as_arr).expect("forecast rows");
    rows.iter()
        .flat_map(|row| row.as_arr().expect("row"))
        .map(|v| v.as_f32().expect("number"))
        .collect()
}

#[test]
fn covariates_repeat_weekly_past_the_u32_minute_range() {
    // 2016 five-minute steps are one week, so shifting `start` by whole
    // weeks must leave every covariate, and so every forecast bit,
    // unchanged. The shifted start puts step * 5 minutes past 2^32,
    // where 32-bit minute arithmetic wraps onto the wrong time of day.
    const WEEK_STEPS: u64 = 7 * 24 * 60 / 5;
    const WEEKS: u64 = 426_089;
    let cfg = ServeConfig { hold_ns: 500_000, ..ServeConfig::default() };
    let server = Server::start(cfg, tiny_registry).expect("bind loopback");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    for (start, history) in payloads(3) {
        let shifted = start + WEEKS * WEEK_STEPS;
        assert!(shifted * 5 > 1 << 32);
        let mut answers = Vec::new();
        for at in [start, shifted] {
            writer.write_all(&forecast_request(at, &history)).expect("send request");
            let (code, body) = read_response(&mut reader);
            assert_eq!(code, 200, "forecast at start {at} failed: {body}");
            answers.push(forecast_values(&body));
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&answers[0]), bits(&answers[1]), "start {start} vs {shifted}");
    }
    server.shutdown();
}

#[test]
fn out_of_range_start_and_non_finite_history_answer_400_and_the_tenant_keeps_serving() {
    let cfg = ServeConfig { hold_ns: 500_000, ..ServeConfig::default() };
    let server = Server::start(cfg, tiny_registry).expect("bind loopback");
    let (start, history) = payloads(1).remove(0);
    let values: Vec<String> = history.iter().map(|v| format!("{v:?}")).collect();
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    // 2^64 is one past u64::MAX; 2^64 - 2048 is the largest integer
    // JSON's f64 numbers can carry below it, and start + h + f still
    // fits in a u64, so that one is served.
    let mut inf = values.clone();
    inf[1] = "1e39".into(); // overflows f32 to +inf
    // 100 000 nested arrays would overflow the connection thread's stack
    // without the parser's depth bound.
    let rejected = [
        raw_forecast_request("18446744073709551616", &values.join(",")),
        raw_forecast_request(&start.to_string(), &inf.join(",")),
        raw_forecast_request(&start.to_string(), &"[".repeat(100_000)),
    ];
    for request in &rejected {
        writer.write_all(request).expect("send request");
        let (code, body) = read_response(&mut reader);
        assert_eq!(code, 400, "expected 400, got {code}: {body}");
        assert!(body.contains("\"error\""), "error body: {body}");
    }
    let reference = server
        .core()
        .submit("tiny", start, history.clone(), None)
        .expect("admitted")
        .wait()
        .expect("forecast");
    for at in [start, 18_446_744_073_709_549_568] {
        writer.write_all(&forecast_request(at, &history)).expect("send request");
        let (code, body) = read_response(&mut reader);
        assert_eq!(code, 200, "forecast at start {at} failed: {body}");
        if at == start {
            assert_eq!(forecast_values(&body), reference.values);
        }
    }
    server.shutdown();
}
