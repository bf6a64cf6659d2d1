//! The serving pipeline: admission queue → inference thread →
//! micro-batched forwards → HTTP responses.
//!
//! Threading model: `Sagdfn` is deliberately not `Send` (interior
//! `Rc`/`RefCell` plan caches), so the entire [`Registry`] is built *on*
//! the inference thread and never leaves it. Connection threads hold
//! only [`TenantMeta`] for routing/validation and talk to the model
//! through the bounded queue; answers come back through each request's
//! one-shot responder. [`ServerCore`] is that pipeline without sockets
//! (the bench and in-process clients drive it directly); [`Server`]
//! adds the TCP accept loop and HTTP framing.

use crate::clock::{Clock, RealClock};
use crate::engine::{
    admit_to_queue, response_channel, Dispatcher, Forecast, ForecastRequest, Registry,
    ResponseHandle, ServeError, TenantMeta,
};
use crate::http;
use crate::queue::Bounded;
use sagdfn_json::Json;
use sagdfn_obs as obs;
use std::fmt::Write as _;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// Tunables for one server instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7878`; port 0 for an ephemeral port).
    pub addr: String,
    /// Micro-batch cap: a tenant's batch runs once it holds this many
    /// requests, or at the end of the dispatch pass, whichever is first.
    pub max_batch: usize,
    /// Admission queue capacity (shed with 429 beyond it).
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own
    /// `timeout_ms`; `None` means such requests wait forever.
    pub default_deadline_ns: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_batch: 32,
            queue_cap: 1024,
            default_deadline_ns: None,
        }
    }
}

struct CoreShared {
    queue: Bounded<ForecastRequest>,
    clock: RealClock,
    /// Set exactly once by the inference thread after the registry is
    /// built, before `ServerCore::start` returns.
    meta: std::sync::OnceLock<Vec<TenantMeta>>,
}

impl CoreShared {
    fn meta(&self) -> &[TenantMeta] {
        self.meta.get().map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The socket-free serving pipeline: bounded admission queue plus the
/// dedicated inference thread running a [`Dispatcher`].
pub struct ServerCore {
    shared: Arc<CoreShared>,
    infer: Option<std::thread::JoinHandle<()>>,
}

impl ServerCore {
    /// Builds the registry on a fresh inference thread (`build` runs
    /// there — `Sagdfn` never crosses threads) and starts dispatching.
    pub fn start<B>(cfg: &ServeConfig, build: B) -> ServerCore
    where
        B: FnOnce() -> Registry + Send + 'static,
    {
        let queue = Bounded::new(cfg.queue_cap);
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let max_batch = cfg.max_batch;

        let shared = Arc::new(CoreShared {
            queue,
            clock: RealClock::new(),
            meta: std::sync::OnceLock::new(),
        });

        let thread_shared = Arc::clone(&shared);
        let infer = std::thread::Builder::new()
            .name("sagdfn-infer".into())
            .spawn(move || {
                let registry = build();
                let _ = thread_shared.meta.set(registry.metadata());
                let _ = ready_tx.send(());
                // One dispatch pass per wake-up until the queue is
                // closed and drained.
                let mut disp = Dispatcher::new(registry, max_batch);
                while disp.pass(&thread_shared.queue, &thread_shared.clock) {}
            })
            .expect("spawn inference thread");

        ready_rx.recv().expect("inference thread died during registry build");
        ServerCore { shared, infer: Some(infer) }
    }

    /// Tenant metadata in slot order.
    pub fn metadata(&self) -> &[TenantMeta] {
        self.shared.meta()
    }

    /// Current admission-queue depth.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Nanoseconds since the core's clock epoch (for relative deadlines).
    pub fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    /// Validates and enqueues one forecast request. Non-blocking: a
    /// full queue sheds immediately with [`ServeError::QueueFull`].
    /// `timeout_ms` overrides the config default deadline.
    pub fn submit(
        &self,
        model: &str,
        start: u64,
        history: Vec<f32>,
        deadline_ns: Option<u64>,
    ) -> Result<ResponseHandle, ServeError> {
        let meta = self.shared.meta();
        let slot = meta
            .iter()
            .position(|m| m.name == model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        meta[slot].check(start, &history)?;
        let (responder, handle) = response_channel();
        let req = ForecastRequest { tenant: slot, start, history, deadline_ns, responder };
        admit_to_queue(&self.shared.queue, req)?;
        Ok(handle)
    }

    /// Graceful shutdown: closes admissions, lets the inference thread
    /// answer everything still queued, then joins it.
    pub fn shutdown(mut self) {
        self.shared.queue.close();
        if let Some(j) = self.infer.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shared.queue.close();
        if let Some(j) = self.infer.take() {
            let _ = j.join();
        }
    }
}

// ---------------------------------------------------------------------------
// TCP front end
// ---------------------------------------------------------------------------

/// A running `sagdfn serve` instance: [`ServerCore`] plus the TCP
/// accept loop and per-connection HTTP handler threads.
pub struct Server {
    core: Option<ServerCore>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, builds the registry on the inference thread,
    /// and starts accepting connections.
    pub fn start<B>(cfg: ServeConfig, build: B) -> std::io::Result<Server>
    where
        B: FnOnce() -> Registry + Send + 'static,
    {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let core = ServerCore::start(&cfg, build);
        let stop = Arc::new(AtomicBool::new(false));

        let accept_stop = Arc::clone(&stop);
        let handler_shared = Arc::new(HandlerShared {
            shared: Arc::clone(&core.shared),
            default_deadline_ns: cfg.default_deadline_ns,
        });
        let accept = std::thread::Builder::new()
            .name("sagdfn-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let hs = Arc::clone(&handler_shared);
                    let _ = std::thread::Builder::new()
                        .name("sagdfn-conn".into())
                        .spawn(move || handle_connection(stream, &hs));
                }
            })
            .expect("spawn accept thread");

        Ok(Server { core: Some(core), addr, stop, accept: Some(accept) })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The socket-free pipeline, for in-process submissions.
    pub fn core(&self) -> &ServerCore {
        self.core.as_ref().expect("core present until shutdown")
    }

    /// Graceful shutdown: stop accepting, close admissions, answer
    /// everything still queued, join the pipeline. In-flight connections receive
    /// their answers (or 503 once admissions are closed).
    pub fn shutdown(mut self) {
        self.stop_accepting();
        if let Some(core) = self.core.take() {
            core.shutdown();
        }
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a sentinel connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.core.is_some() {
            self.stop_accepting();
            if let Some(core) = self.core.take() {
                core.shutdown();
            }
        }
    }
}

struct HandlerShared {
    shared: Arc<CoreShared>,
    default_deadline_ns: Option<u64>,
}

fn handle_connection(stream: TcpStream, hs: &HandlerShared) {
    // Each response is one write (`http::write_response`); with Nagle on,
    // a response larger than one segment would still hold its tail until
    // the client's delayed ACK (~40 ms on keep-alive). A socket that
    // refuses the option still serves, only slower.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean EOF between requests
            Err(_) => {
                let body = error_body("malformed request");
                let _ = http::write_response(&mut writer, 400, &body, false);
                return;
            }
        };
        let keep_alive = !req.close;
        let (status, body) = route(&req, hs);
        if http::write_response(&mut writer, status, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn route(req: &http::Request, hs: &HandlerShared) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".to_string()),
        ("GET", "/v1/models") => (200, models_body(hs.shared.meta())),
        ("POST", "/v1/forecast") => forecast(req, hs),
        ("POST", _) | ("GET", _) => (404, error_body("no such endpoint")),
        _ => (405, error_body("method not allowed")),
    }
}

fn models_body(meta: &[TenantMeta]) -> String {
    let models: Vec<Json> = meta
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name.as_str())),
                ("nodes", Json::from(m.n)),
                ("history", Json::from(m.h)),
                ("horizon", Json::from(m.f)),
            ])
        })
        .collect();
    Json::obj([("models", Json::Arr(models))])
        .to_compact()
        .unwrap_or_else(|_| "{}".into())
}

fn error_body(msg: &str) -> String {
    Json::obj([("error", Json::from(msg))])
        .to_compact()
        .unwrap_or_else(|_| "{}".into())
}

/// Parses the forecast body, submits, and blocks for the answer.
///
/// Wire format:
/// ```json
/// {"model": "metr-la", "start": 0,
///  "history": [[v_node0, v_node1, ...], ... h rows],
///  "timeout_ms": 250}
/// ```
/// `history` also accepts one flat array of `h*n` values. The response
/// carries `forecast` as `f` rows of `n` raw-unit predictions.
fn forecast(req: &http::Request, hs: &HandlerShared) -> (u16, String) {
    let parsed = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(j) => j,
        Err(e) => return (400, error_body(&e)),
    };
    let (model, start, history, timeout_ms) = match parse_forecast(&parsed) {
        Ok(fields) => fields,
        Err(e) => return (400, error_body(&e)),
    };

    let deadline_ns = timeout_ms
        .map(|ms| hs.shared.clock.now_ns().saturating_add(ms.saturating_mul(1_000_000)))
        .or(hs.default_deadline_ns.map(|d| hs.shared.clock.now_ns().saturating_add(d)));

    let meta = hs.shared.meta();
    let Some(slot) = meta.iter().position(|m| m.name == model) else {
        let err = ServeError::UnknownModel(model);
        return (err.status(), error_body(&err.message()));
    };
    let m = &meta[slot];
    if let Err(err) = m.check(start, &history) {
        return (err.status(), error_body(&err.message()));
    }

    let _span = obs::span("serve_request");
    let (responder, handle) = response_channel();
    let freq = ForecastRequest { tenant: slot, start, history, deadline_ns, responder };
    if let Err(err) = admit_to_queue(&hs.shared.queue, freq) {
        return (err.status(), error_body(&err.message()));
    }
    match handle.wait() {
        Ok(fc) => (200, encode_forecast(&m.name, start + m.h as u64, &fc)),
        Err(err) => (err.status(), error_body(&err.message())),
    }
}

/// The forecast response body. Floats are Debug-formatted — the
/// shortest digits that round-trip, so clients recover the exact f32 —
/// and written straight into the body, never through a per-value
/// `String`. Quantile-head tenants additionally ship the levels and the
/// full per-node quantile rows; point clients ignore them.
fn encode_forecast(model: &str, start: u64, fc: &Forecast) -> String {
    let mut body = String::with_capacity(fc.values.len() * 12 + 64);
    let name = Json::from(model).to_compact().unwrap_or_default();
    // Writing into a `String` cannot fail.
    let _ = write!(body, "{{\"model\":{name},\"start\":{start},\"forecast\":");
    push_array(&mut body, &fc.values, &[fc.f, fc.n]);
    if let Some(quants) = &fc.quantiles {
        body.push_str(",\"levels\":");
        push_array(&mut body, &fc.levels, &[fc.levels.len()]);
        body.push_str(",\"quantiles\":");
        push_array(&mut body, quants, &[fc.f, fc.n, fc.levels.len()]);
    }
    body.push('}');
    body
}

/// Appends row-major `values` of shape `dims` as nested JSON arrays.
fn push_array(out: &mut String, values: &[f32], dims: &[usize]) {
    out.push('[');
    match dims {
        [_, inner @ ..] if !inner.is_empty() => {
            let stride: usize = inner.iter().product();
            for (i, row) in values.chunks(stride.max(1)).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_array(out, row, inner);
            }
        }
        _ => {
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v:?}");
            }
        }
    }
    out.push(']');
}

type ForecastFields = (String, u64, Vec<f32>, Option<u64>);

fn parse_forecast(j: &Json) -> Result<ForecastFields, String> {
    let model = j
        .req("model")
        .and_then(Json::as_str)
        .map_err(|e| e.to_string())?
        .to_string();
    let start = j.req("start").and_then(Json::as_u64).map_err(|e| e.to_string())?;
    let rows = j.req("history").and_then(Json::as_arr).map_err(|e| e.to_string())?;
    let mut history = Vec::new();
    for row in rows {
        match row {
            Json::Arr(vals) => {
                for v in vals {
                    history.push(v.as_f32().map_err(|e| e.to_string())?);
                }
            }
            v => history.push(v.as_f32().map_err(|e| e.to_string())?),
        }
    }
    let timeout_ms = match j.get("timeout_ms") {
        Some(v) => Some(v.as_u64().map_err(|e| e.to_string())?),
        None => None,
    };
    Ok((model, start, history, timeout_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_body_bytes_are_pinned() {
        let point = Forecast {
            values: vec![1.0, -0.5, 0.1, 3e-8, 42.25, f32::MAX],
            quantiles: None,
            levels: Vec::new(),
            f: 2,
            n: 3,
        };
        assert_eq!(
            encode_forecast("m\"x", 7, &point),
            "{\"model\":\"m\\\"x\",\"start\":7,\"forecast\":\
             [[1.0,-0.5,0.1],[3e-8,42.25,3.4028235e38]]}"
        );

        let quantile = Forecast {
            values: vec![2.0, 5.0],
            quantiles: Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            levels: vec![0.1, 0.5, 0.9],
            f: 1,
            n: 2,
        };
        assert_eq!(
            encode_forecast("q", 0, &quantile),
            "{\"model\":\"q\",\"start\":0,\"forecast\":[[2.0,5.0]],\
             \"levels\":[0.1,0.5,0.9],\"quantiles\":[[[1.0,2.0,3.0],[4.0,5.0,6.0]]]}"
        );
    }
}
