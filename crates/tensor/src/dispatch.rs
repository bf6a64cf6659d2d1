//! Runtime SIMD dispatch: one cached CPU-feature probe, one mode flag.
//!
//! Every vectorized kernel in [`simd`](crate::simd) asks [`simd_tier`]
//! which instruction-set variant to run. The answer combines two inputs:
//!
//! * a **feature probe** run once per process (`is_x86_feature_detected!`
//!   / `is_aarch64_feature_detected!`, cached in a `OnceLock`), and
//! * a **mode flag** read once from `SAGDFN_SIMD`
//!   (`auto`/`avx2`/`neon`/`scalar`, default `auto`; `avx512` is the
//!   widest tier and so parses to `auto`) and adjustable in-process via
//!   [`set_simd_mode`] so tests and benches can A/B the variants without
//!   re-exec'ing.
//!
//! A requested tier the hardware lacks clamps down to the best supported
//! one (ultimately the scalar reference), never up — forcing `scalar` is
//! always honored, which is what the determinism matrix relies on. The
//! clamp makes `SAGDFN_SIMD=avx2` safe on any machine and keeps the
//! variants interchangeable: every tier is bit-identical to scalar (see
//! DESIGN.md §12), so dispatch is purely a performance decision.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Requested dispatch policy (`SAGDFN_SIMD`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// Probe the CPU and pick the widest supported tier.
    Auto,
    /// Request the AVX2 kernels (x86_64).
    Avx2,
    /// Request the NEON kernels (aarch64).
    Neon,
    /// Always run the scalar reference loops.
    Scalar,
}

/// The kernel variant that will actually run, after clamping the mode to
/// what the hardware supports. Discriminants index the per-variant obs
/// counter ([`sagdfn_obs::tally_simd`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdTier {
    /// Portable scalar reference loops.
    Scalar = 0,
    /// aarch64 NEON (128-bit).
    Neon = 1,
    /// x86_64 AVX2 (256-bit).
    Avx2 = 2,
    /// x86_64 AVX-512 (512-bit).
    Avx512 = 3,
}

impl SimdTier {
    /// Stable lowercase name, matching the `SAGDFN_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Neon => "neon",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Index into the obs per-variant counter table.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What the one-time probe found on this CPU.
#[derive(Clone, Copy, Debug)]
pub struct CpuFeatures {
    /// x86_64 AVX2 available.
    pub avx2: bool,
    /// x86_64 AVX-512 Foundation available.
    pub avx512f: bool,
    /// aarch64 Advanced SIMD available.
    pub neon: bool,
}

/// The cached feature probe (run at most once per process).
pub fn cpu_features() -> CpuFeatures {
    static PROBE: OnceLock<CpuFeatures> = OnceLock::new();
    *PROBE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
                neon: false,
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            CpuFeatures {
                avx2: false,
                avx512f: false,
                neon: std::arch::is_aarch64_feature_detected!("neon"),
            }
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            CpuFeatures {
                avx2: false,
                avx512f: false,
                neon: false,
            }
        }
    })
}

fn mode_flag() -> &'static AtomicU8 {
    static FLAG: OnceLock<AtomicU8> = OnceLock::new();
    FLAG.get_or_init(|| {
        let mode = match std::env::var("SAGDFN_SIMD").as_deref() {
            Ok("scalar") | Ok("off") | Ok("0") => SimdMode::Scalar,
            Ok("avx2") => SimdMode::Avx2,
            Ok("neon") => SimdMode::Neon,
            _ => SimdMode::Auto,
        };
        AtomicU8::new(mode as u8)
    })
}

fn mode_from_u8(v: u8) -> SimdMode {
    match v {
        1 => SimdMode::Avx2,
        2 => SimdMode::Neon,
        3 => SimdMode::Scalar,
        _ => SimdMode::Auto,
    }
}

/// The current dispatch mode (`SAGDFN_SIMD`, default `auto`).
pub fn simd_mode() -> SimdMode {
    mode_from_u8(mode_flag().load(Ordering::Relaxed))
}

/// Sets the dispatch mode programmatically (benches and tests run
/// in-process A/B comparisons), returning the previous mode.
pub fn set_simd_mode(mode: SimdMode) -> SimdMode {
    mode_from_u8(mode_flag().swap(mode as u8, Ordering::SeqCst))
}

/// The kernel variant the current mode resolves to on this CPU: the
/// widest *supported* tier no wider than the requested one.
pub fn simd_tier() -> SimdTier {
    let f = cpu_features();
    let supported = |t: SimdTier| match t {
        SimdTier::Scalar => true,
        SimdTier::Neon => f.neon,
        SimdTier::Avx2 => f.avx2,
        SimdTier::Avx512 => f.avx512f,
    };
    let cap = match simd_mode() {
        SimdMode::Auto => SimdTier::Avx512,
        SimdMode::Avx2 => SimdTier::Avx2,
        SimdMode::Neon => SimdTier::Neon,
        SimdMode::Scalar => SimdTier::Scalar,
    };
    [SimdTier::Avx512, SimdTier::Avx2, SimdTier::Neon]
        .into_iter()
        .find(|&t| t <= cap && supported(t))
        .unwrap_or(SimdTier::Scalar)
}

/// `true` when a vectorized (non-scalar) tier is active.
pub fn simd_active() -> bool {
    simd_tier() != SimdTier::Scalar
}

/// One-line description of the probe and the resolved dispatch, for the
/// `sagdfn profile` header (perf reports must say which kernels ran).
pub fn description() -> String {
    let f = cpu_features();
    format!(
        "simd dispatch: {} (mode={:?}, arch={}, detected: avx2={} avx512f={} neon={})",
        simd_tier().name(),
        simd_mode(),
        std::env::consts::ARCH,
        f.avx2,
        f.avx512f,
        f.neon,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_scalar_is_always_honored() {
        let prev = set_simd_mode(SimdMode::Scalar);
        assert_eq!(simd_tier(), SimdTier::Scalar);
        assert!(!simd_active());
        set_simd_mode(prev);
    }

    #[test]
    fn mode_swap_round_trips() {
        let prev = set_simd_mode(SimdMode::Auto);
        assert_eq!(set_simd_mode(SimdMode::Avx2), SimdMode::Auto);
        assert_eq!(set_simd_mode(prev), SimdMode::Avx2);
    }

    #[test]
    fn requested_tier_never_exceeds_probe() {
        let f = cpu_features();
        let prev = set_simd_mode(SimdMode::Auto);
        if !f.avx512f {
            assert_ne!(simd_tier(), SimdTier::Avx512);
        }
        set_simd_mode(SimdMode::Neon);
        if !f.neon {
            assert_eq!(simd_tier(), SimdTier::Scalar);
        }
        set_simd_mode(prev);
    }

    #[test]
    fn description_names_the_tier() {
        assert!(description().contains(simd_tier().name()));
    }
}
