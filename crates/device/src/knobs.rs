//! The `OPC_*` environment-knob surface, consolidated.
//!
//! Every runtime knob that can change behaviour lives behind a typed
//! accessor here, so the determinism surface stays auditable in one
//! place: opclint's `env-read` rule confines `std::env::var("OPC_*")`
//! reads to designated `knobs` modules. Knobs only toggle *strategies*
//! (caching, fan-out) — results are bit-identical across every setting;
//! that invariant is what CI's `OPC_THREADS` matrix pins. They are read
//! through [`crate::ShotPool::from_env`] and [`crate::CalStore::from_env`]
//! (and [`crate::calibrate`], which calls both), at the edge: binaries,
//! examples and tests. The compiler, service and corpus crates take their
//! pool and store by value.
//!
//! | knob | accessor | default |
//! |---|---|---|
//! | `OPC_CAL_CACHE` | [`cal_cache`] | default store under `target/` |
//! | `OPC_THREADS` | [`threads`] | unset (available parallelism) |

/// Resolved `OPC_CAL_CACHE` setting for the persistent calibration store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CalCacheKnob {
    /// Snapshots disabled (`0`/`off`/`false`).
    Disabled,
    /// Store rooted at an explicit directory.
    Dir(String),
    /// Unset or empty: the default store under `target/`.
    Default,
}

/// `OPC_CAL_CACHE`: where (whether) calibration snapshots persist.
pub fn cal_cache() -> CalCacheKnob {
    match std::env::var("OPC_CAL_CACHE") {
        Ok(v) if matches!(v.trim(), "0" | "off" | "false") => CalCacheKnob::Disabled,
        Ok(v) if !v.trim().is_empty() => CalCacheKnob::Dir(v.trim().to_string()),
        _ => CalCacheKnob::Default,
    }
}

/// `OPC_THREADS`: explicit worker count for [`crate::ShotPool`];
/// `None` (unset/unparsable/zero) means use available parallelism.
pub fn threads() -> Option<usize> {
    std::env::var("OPC_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
}
