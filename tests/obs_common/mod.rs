//! Shared counter-exactness cases: kernel counters must equal the
//! analytic call/flop/byte totals derived from operand shapes — and,
//! because every tally happens exactly once at public API entry, the
//! totals must be invariant to the worker-thread count. Two test binaries
//! include this module, one pinning `SAGDFN_THREADS=1` and one `=8`.

use sagdfn_repro::autodiff::Tape;
use sagdfn_repro::data::{metr_la_like, Scale, SplitSpec, ThreeWaySplit};
use sagdfn_repro::obs::{self, Kernel, KernelStats, Snapshot, TraceMode};
use sagdfn_repro::sagdfn::{Sagdfn, SagdfnConfig};
use sagdfn_repro::serve::{
    admit_to_queue, response_channel, Bounded, Dispatcher, ForecastRequest, Registry, Tenant,
};
use sagdfn_repro::tensor::sparse::{DiffusePlan, ShardedCsr};
use sagdfn_repro::tensor::{Rng64, Tensor};
use std::rc::Rc;
use std::sync::Once;

/// Sets the thread-count env var exactly once, before any test in this
/// process can touch the pool.
pub fn init_threads(n: &str) {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("SAGDFN_THREADS", n));
}

fn rand(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    Tensor::rand_uniform(shape, -2.0, 2.0, &mut rng)
}

fn assert_kernel(d: &Snapshot, k: Kernel, calls: u64, flops: u64, b_in: u64, b_out: u64) {
    let s = d.stats(k);
    let want = KernelStats {
        calls,
        ns: s.ns, // wall time is data, not part of the exactness contract
        flops,
        bytes_in: b_in,
        bytes_out: b_out,
    };
    assert_eq!(s, &want, "kernel {} counters diverged from analytic totals", k.name());
}

/// Runs every case under counters mode and restores the previous mode.
pub fn run_all() {
    let prev = obs::set_trace_mode(TraceMode::Counters);

    // --- GEMM family, direct tensor calls --------------------------------
    // matmul: (m,k)·(k,n) — flops 2mkn, 4 bytes per f32 element.
    let (m, k, n) = (5usize, 7, 3);
    let a = rand(&[m, k], 1);
    let b = rand(&[k, n], 2);
    let base = obs::snapshot();
    let _c = a.matmul(&b);
    let d = obs::snapshot().since(&base);
    assert_kernel(
        &d,
        Kernel::Matmul,
        1,
        2 * (m * k * n) as u64,
        4 * (m * k + k * n) as u64,
        4 * (m * n) as u64,
    );

    // Batched matmul: (bt,m,k)·(k,n) — the batch multiplies the flops.
    let bt = 4usize;
    let ab = rand(&[bt, m, k], 3);
    let base = obs::snapshot();
    let _c = ab.matmul(&b);
    let d = obs::snapshot().since(&base);
    assert_kernel(
        &d,
        Kernel::Matmul,
        1,
        2 * (bt * m * k * n) as u64,
        4 * (bt * m * k + k * n) as u64,
        4 * (bt * m * n) as u64,
    );

    // matmul_nt: (m,p)·(n,p)ᵀ — flops 2mpn.
    let p = 6usize;
    let anp = rand(&[m, p], 4);
    let bnp = rand(&[n, p], 5);
    let base = obs::snapshot();
    let _c = anp.matmul_nt(&bnp);
    let d = obs::snapshot().since(&base);
    assert_kernel(
        &d,
        Kernel::MatmulNt,
        1,
        2 * (m * p * n) as u64,
        4 * (m * p + n * p) as u64,
        4 * (m * n) as u64,
    );

    // matmul_tn: (p,m)ᵀ·(p,n) — flops 2pmn.
    let atp = rand(&[p, m], 6);
    let btp = rand(&[p, n], 7);
    let base = obs::snapshot();
    let _c = atp.matmul_tn(&btp);
    let d = obs::snapshot().since(&base);
    assert_kernel(
        &d,
        Kernel::MatmulTn,
        1,
        2 * (p * m * n) as u64,
        4 * (p * m + p * n) as u64,
        4 * (m * n) as u64,
    );

    // --- Autodiff step: (A·X).sum().backward() ---------------------------
    // Forward runs one matmul; the backward rule runs exactly one
    // matmul_nt (dA = G·Xᵀ) and one matmul_tn (dX = Aᵀ·G), all 2mkn flops.
    let tape = Tape::new();
    let base = obs::snapshot();
    let va = tape.leaf(rand(&[m, k], 8));
    let vx = tape.leaf(rand(&[k, n], 9));
    let loss = va.matmul(&vx).sum();
    let _grads = loss.backward();
    let d = obs::snapshot().since(&base);
    let gemm_flops = 2 * (m * k * n) as u64;
    assert_eq!(d.stats(Kernel::Matmul).calls, 1, "graph matmul calls");
    assert_eq!(d.stats(Kernel::Matmul).flops, gemm_flops, "graph matmul flops");
    assert_eq!(d.stats(Kernel::MatmulNt).calls, 1, "graph matmul_nt calls");
    assert_eq!(d.stats(Kernel::MatmulNt).flops, gemm_flops, "graph matmul_nt flops");
    assert_eq!(d.stats(Kernel::MatmulTn).calls, 1, "graph matmul_tn calls");
    assert_eq!(d.stats(Kernel::MatmulTn).flops, gemm_flops, "graph matmul_tn flops");
    // 4 recorded nodes: two leaves, the matmul, the sum.
    assert_eq!(d.stats(Kernel::Forward).calls, 4, "forward node tallies");
    assert_eq!(d.stats(Kernel::Backward).calls, 1, "backward pass tally");

    // --- Sparse family ---------------------------------------------------
    // A hand-sized diffusion: adjacency from α-entmax rows (exact zeros),
    // CSR build, then spmm forward + spmm_t/dadj backward via the graph.
    let (nn, mm, cc, bb) = (8usize, 6, 4, 2);
    let scores = rand(&[nn, mm], 10);

    let tape = Tape::new();
    let v_scores = tape.leaf(scores);
    let vx = tape.leaf(rand(&[bb, mm, cc], 11));

    let base = obs::snapshot();
    let adj = v_scores.entmax_rows(1.5);
    let d = obs::snapshot().since(&base);
    let len = (nn * mm) as u64;
    // Entmax flop convention: 2 ops per element (bisection cost is
    // data-dependent; counters need a shape-derivable definition).
    assert_kernel(&d, Kernel::Entmax, 1, 2 * len, 4 * len, 4 * len);

    let base = obs::snapshot();
    let csr = Rc::new(ShardedCsr::from_dense(&adj.value(), 1));
    let nnz = csr.nnz() as u64;
    assert!(nnz < len, "entmax at alpha=1.5 should produce exact zeros");
    let d = obs::snapshot().since(&base);
    // CsrBuild: reads the dense matrix, writes forward + transposed values.
    assert_kernel(&d, Kernel::CsrBuild, 1, 0, 4 * len, 8 * nnz);

    let base = obs::snapshot();
    let y = adj.spmm_diffuse(&vx, DiffusePlan::Sparse(csr)).sum();
    let _grads = y.backward();
    let d = obs::snapshot().since(&base);
    let spmm_flops = 2 * (bb as u64) * nnz * cc as u64;
    assert_kernel(
        &d,
        Kernel::Spmm,
        1,
        spmm_flops,
        4 * (nnz + (bb * mm * cc) as u64),
        4 * (bb * nn * cc) as u64,
    );
    assert_kernel(
        &d,
        Kernel::SpmmT,
        1,
        spmm_flops,
        4 * (nnz + (bb * nn * cc) as u64),
        4 * (bb * mm * cc) as u64,
    );
    assert_kernel(
        &d,
        Kernel::Dadj,
        1,
        spmm_flops,
        4 * ((bb * nn * cc) as u64 + (bb * mm * cc) as u64 + nnz),
        4 * len,
    );
    // The backward also runs the entmax Jacobian-vector product once.
    assert_kernel(&d, Kernel::EntmaxBackward, 1, 2 * len, 8 * len, 4 * len);
    assert_eq!(d.stats(Kernel::Matmul).calls, 0, "sparse path must not fall back to GEMM");

    obs::set_trace_mode(prev);
}

/// Scripted serving trace with exact counter assertions: the serve_*
/// counters must match a hand-computed trace — 5 submissions into a
/// capacity-3 queue (3 admitted, 2 shed, queue high-water 3), a cap-full
/// batch of 2 plus a pass-end batch of 1 (occupancy histogram buckets
/// `1` and `2-3` each incremented once), and one already-expired request
/// partitioned out at flush time (1 expired, no extra batch).
///
/// Counters are process-global: call this sequentially after
/// [`run_all`], never from a second `#[test]` in the same binary.
pub fn run_serve_trace() {
    let prev = obs::set_trace_mode(TraceMode::Counters);

    // One tiny tenant, same construction as the serving fixtures.
    let (h, f) = (4usize, 4usize);
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let (interval, smow) = (data.dataset.interval_min, data.dataset.start_minute_of_week);
    let model = Sagdfn::new(n, SagdfnConfig::for_scale(Scale::Tiny, n));
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(h, f));
    let vals = split.test.dataset().values.as_slice().to_vec();
    let request = |deadline_ns: Option<u64>| {
        let start = split.test.starts()[0];
        let (responder, handle) = response_channel();
        let req = ForecastRequest {
            tenant: 0,
            start: start as u64,
            history: vals[start * n..(start + h) * n].to_vec(),
            deadline_ns,
            responder,
        };
        (req, handle)
    };
    let mut registry = Registry::new();
    registry.add(Tenant::new("metr".to_string(), model, split.scaler, h, f, interval, smow));
    let queue = Bounded::new(3);
    let mut disp = Dispatcher::new(registry, 2);

    let base = obs::snapshot();

    // 5 submissions into a capacity-3 queue: exactly 3 admitted
    // (depths 1, 2, 3 — high-water 3), the last 2 shed.
    let handles: Vec<_> = (0..5)
        .map(|_| {
            let (req, handle) = request(None);
            (admit_to_queue(&queue, req).is_ok(), handle)
        })
        .collect();
    assert_eq!(handles.iter().filter(|(ok, _)| *ok).count(), 3, "admissions");

    // Drain the queue into the dispatcher at t=0: the cap-2 batch runs
    // once full (occupancy 2), leaving the third request pending.
    let mut now = 0u64;
    while let Some(req) = queue.try_pop() {
        disp.admit(req, now);
    }
    // The pass ends: the partial batch of 1 runs.
    now = 1_000;
    disp.flush(now);

    // One pre-expired request reaches the dispatcher; the flush partitions
    // it out before the forward — expired, not batched.
    let (req, expired_handle) = request(Some(500));
    admit_to_queue(&queue, req).expect("queue drained above");
    let req = queue.try_pop().expect("just pushed");
    now = 2_000;
    disp.admit(req, now);
    disp.flush(now);

    let d = obs::snapshot().since(&base);
    assert_eq!(d.serve_admitted, 4, "admitted = 3 initial + 1 expired-path");
    assert_eq!(d.serve_shed, 2, "shed exactly when the queue was full");
    assert_eq!(d.serve_expired, 1, "expired partitioned at flush time");
    assert_eq!(d.serve_batches, 2, "one cap-full batch + one pass-end batch");
    assert_eq!(d.serve_batched_requests, 3, "2 + 1 requests crossed the forward");
    assert!(d.serve_queue_hw >= 3, "queue high-water saw depth 3");
    let mut hist = [0u64; obs::SERVE_HIST_BUCKETS];
    hist[obs::serve_hist_bucket(1)] = 1;
    hist[obs::serve_hist_bucket(2)] = 1;
    assert_eq!(d.serve_batch_hist, hist, "occupancy histogram: one batch of 1, one of 2");
    assert!(
        expired_handle.try_take().expect("drained").is_err(),
        "the expired request must be answered with an error, not a forecast"
    );
    let table = obs::format_table(&d);
    assert!(table.contains("serve: 4 admitted / 2 shed / 1 expired"), "table: {table}");

    obs::set_trace_mode(prev);
}
