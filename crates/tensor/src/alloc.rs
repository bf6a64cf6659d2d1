//! Allocation bookkeeping and the recycling buffer pool for tensors.
//!
//! `sagdfn-memsim` predicts GPU memory use analytically; this module lets
//! tests cross-check those predictions against the bytes a real (CPU) run
//! actually touches. Counters are global atomics — cheap enough to leave on
//! permanently — and track both currently-live and peak bytes attributed to
//! tensor buffers.
//!
//! On top of the counters sits a size-bucketed free list: buffers from
//! dropped tensors are retained (exact capacity as the bucket key) and
//! handed back out by [`acquire`] instead of hitting the system allocator.
//! Because training repeats the same shapes every step, the steady-state hit
//! rate is essentially 100% and per-step heap churn collapses to zero.
//!
//! Accounting semantics are unchanged by recycling: a buffer counts as live
//! exactly while it is owned by a `Tensor`. Buffers parked in the free list
//! are *not* live, so `live_bytes`/`peak_bytes` report identical values with
//! the pool on or off (see `tests/memory_scaling.rs`).
//!
//! Churn is measured separately: [`requested_bytes`] accumulates every byte
//! a tensor buffer was asked for, [`pool_hit_bytes`] the portion served from
//! the free list, and [`churn_bytes`] the difference — bytes that actually
//! reached the heap allocator through [`acquire`]. `bench_train_step` reads
//! deltas of this counter to report bytes-allocated-per-step.
//!
//! Recycling is always on in production; [`set_recycling`] turns it off
//! in-process for the tests and benches that A/B it against fresh
//! allocation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static POOL_HIT: AtomicUsize = AtomicUsize::new(0);

/// Stop retaining freed buffers once the pool holds this many bytes. The cap
/// only bounds *idle* buffers; a training step's working set cycles through
/// the pool without ever counting against live bytes.
const MAX_RETAINED_BYTES: usize = 4 << 30;

struct FreeList {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    retained_bytes: usize,
}

fn free_list() -> &'static Mutex<FreeList> {
    static FREE: OnceLock<Mutex<FreeList>> = OnceLock::new();
    FREE.get_or_init(|| {
        Mutex::new(FreeList {
            buckets: HashMap::new(),
            retained_bytes: 0,
        })
    })
}

static RECYCLING: AtomicBool = AtomicBool::new(true);

/// Whether freed buffers are currently being recycled.
pub fn recycling_enabled() -> bool {
    RECYCLING.load(Ordering::Relaxed)
}

/// Enables or disables buffer recycling, returning the previous setting.
/// Disabling drains the free list so retained buffers go back to the heap.
pub fn set_recycling(on: bool) -> bool {
    let prev = RECYCLING.swap(on, Ordering::SeqCst);
    if !on {
        trim_pool();
    }
    prev
}

/// Drops every buffer parked in the free list.
pub fn trim_pool() {
    let mut fl = free_list().lock().unwrap();
    fl.buckets.clear();
    fl.retained_bytes = 0;
}

/// Bytes currently parked in the free list (idle, not live).
pub fn pool_retained_bytes() -> usize {
    free_list().lock().unwrap().retained_bytes
}

fn try_pop(len: usize) -> Option<Vec<f32>> {
    if len == 0 || !recycling_enabled() {
        return None;
    }
    let mut fl = free_list().lock().unwrap();
    let buf = fl.buckets.get_mut(&len)?.pop()?;
    fl.retained_bytes -= len * std::mem::size_of::<f32>();
    Some(buf)
}

/// Hands out a buffer of exactly `len` elements, recycled when possible.
///
/// The contents are *unspecified*: zeros when freshly allocated, stale data
/// when served from the free list. Callers must overwrite every element (or
/// use [`acquire_zeroed`]); kernels in this crate are audited for that.
pub fn acquire(len: usize) -> Vec<f32> {
    sagdfn_obs::tally_alloc_acquire((len * std::mem::size_of::<f32>()) as u64);
    match try_pop(len) {
        Some(buf) => {
            POOL_HIT.fetch_add(len * std::mem::size_of::<f32>(), Ordering::Relaxed);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Like [`acquire`] but guarantees all-zero contents, for kernels that
/// accumulate into their output.
pub fn acquire_zeroed(len: usize) -> Vec<f32> {
    sagdfn_obs::tally_alloc_acquire((len * std::mem::size_of::<f32>()) as u64);
    match try_pop(len) {
        Some(mut buf) => {
            POOL_HIT.fetch_add(len * std::mem::size_of::<f32>(), Ordering::Relaxed);
            buf.fill(0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Returns a dropped tensor's buffer to the free list. Buffers whose
/// capacity differs from their length (externally built with slack) are not
/// poolable — bucket keys must equal both — and fall through to the heap.
pub(crate) fn release(buf: Vec<f32>) {
    let len = buf.len();
    sagdfn_obs::tally_alloc_release((len * std::mem::size_of::<f32>()) as u64);
    if len == 0 || buf.capacity() != len || !recycling_enabled() {
        return;
    }
    let bytes = len * std::mem::size_of::<f32>();
    let mut fl = free_list().lock().unwrap();
    if fl.retained_bytes + bytes > MAX_RETAINED_BYTES {
        return;
    }
    fl.retained_bytes += bytes;
    fl.buckets.entry(len).or_default().push(buf);
}

/// Records `bytes` of tensor buffer coming alive.
pub(crate) fn record_alloc(bytes: usize) {
    REQUESTED.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Records `bytes` of tensor buffer being dropped.
pub(crate) fn record_free(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Undoes the `requested` accounting for a buffer leaving tensor ownership
/// with its storage intact (`Tensor::into_vec`): re-wrapping the same buffer
/// via `from_vec` must not count as fresh churn.
pub(crate) fn unrecord_request(bytes: usize) {
    REQUESTED.fetch_sub(bytes, Ordering::Relaxed);
}

/// Bytes of tensor buffers currently alive.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Cumulative bytes of tensor buffer storage requested since process start
/// (fresh or recycled).
pub fn requested_bytes() -> usize {
    REQUESTED.load(Ordering::Relaxed)
}

/// Cumulative bytes served from the free list instead of the heap.
pub fn pool_hit_bytes() -> usize {
    POOL_HIT.load(Ordering::Relaxed)
}

/// Cumulative bytes of tensor buffers that reached the heap allocator: the
/// churn counter. Steady-state training should move this barely at all —
/// benches take deltas across steps to report bytes-allocated-per-step.
pub fn churn_bytes() -> usize {
    requested_bytes().saturating_sub(pool_hit_bytes())
}

/// Resets the peak to the current live byte count, so a subsequent
/// [`peak_bytes`] reflects only allocations made after this call.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn live_and_peak_track_tensor_buffers() {
        // Other tests run concurrently, so assert deltas with slack rather
        // than absolute values: allocate, check growth, drop, check release.
        let before = super::live_bytes();
        let t = Tensor::zeros([256, 256]);
        let after = super::live_bytes();
        assert!(
            after >= before + 256 * 256 * 4,
            "live bytes should grow by at least the buffer size"
        );
        drop(t);
        // Dropping must return those bytes.
        assert!(super::live_bytes() <= after - 256 * 256 * 4 + 1024);
    }

    #[test]
    fn peak_never_below_live() {
        let _t = Tensor::zeros([64, 64]);
        assert!(super::peak_bytes() >= super::live_bytes());
    }

    #[test]
    fn acquire_recycles_freed_buffers() {
        // Use a size no other test allocates so concurrent tests cannot
        // steal the freed buffer out of the bucket between drop and acquire.
        const LEN: usize = 12_347;
        drop(Tensor::zeros([LEN]));
        let hits_before = super::pool_hit_bytes();
        let buf = super::acquire(LEN);
        assert_eq!(buf.len(), LEN);
        assert_eq!(buf.capacity(), LEN);
        assert!(
            super::pool_hit_bytes() >= hits_before + LEN * 4,
            "acquire should have been served from the free list"
        );
    }

    #[test]
    fn acquire_zeroed_clears_stale_contents() {
        const LEN: usize = 9_973;
        drop(Tensor::full([LEN], 3.5));
        let buf = super::acquire_zeroed(LEN);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn churn_counts_fresh_bytes_only() {
        let req = super::requested_bytes();
        let hit = super::pool_hit_bytes();
        assert!(super::churn_bytes() <= req);
        assert_eq!(super::churn_bytes(), req.saturating_sub(hit));
    }
}
