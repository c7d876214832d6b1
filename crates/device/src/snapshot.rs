//! Persistent calibration snapshots (layer 3 of the calibration fast path).
//!
//! The paper treats the daily tune-up as a reusable artifact: basis gates
//! are calibrated once per epoch and every job reads them from `cmd_def`
//! (§2.3). This module gives the reproduction the same economics. A
//! finished [`Calibration`] is serialized to a small text file keyed by a
//! hash of everything that determines it — the device's physics parameters,
//! the [`CalibrationOptions`], the root RNG seed, and a calibration
//! algorithm version — so repeated experiment, bench and test invocations
//! load the tune-up in milliseconds and only recompute when an input
//! actually changes.
//!
//! **Keying.** [`snapshot_key`] folds, bit-exactly (FNV-1a over `f64::to_bits`
//! words): [`CAL_ALGO_VERSION`]; every qubit's
//! [`TransmonParams`](crate::TransmonParams); every directed edge and its
//! [`CrParams`](crate::CrParams); the [`DriftParams`](crate::DriftParams)
//! (whose `cal_amp_sigma` scales the residual-error draws inside the
//! tune-up); the full [`CalibrationOptions`]; and the root seed. The execution-time drift
//! *multipliers* (`rabi_drift`/`zx_drift`) are deliberately excluded:
//! calibration runs against the calibration-time parameters, so two devices
//! differing only in their drift draws share a tune-up — exactly as on
//! hardware, where one daily calibration serves jobs at every drift age.
//!
//! **Staleness.** A snapshot is only valid for the algorithm that produced
//! it. Any change to the calibration draws or search logic must bump
//! [`CAL_ALGO_VERSION`], which retires every existing snapshot. Parse
//! failures (truncated files, older formats) are treated as misses and
//! recomputed, never errors. Floats round-trip through `to_bits` hex, so a
//! loaded calibration is bit-identical to the one that was saved, and the
//! `cmd_def` — a pure function of the loaded parameters — is rebuilt on
//! load rather than stored.
//!
//! **Knob.** `OPC_CAL_CACHE` selects the store directory; unset, it
//! defaults to `opc-cal-cache/` under the workspace `target/`. Set it to
//! `0`, `off` or `false` to disable persistence (every calibration
//! recomputes). Tests and benches that must not touch the shared store use
//! [`CalStore::disabled`] or [`CalStore::at`] explicitly.

use crate::calibration::{Calibration, CalibrationOptions, PairCalibration, QubitCalibration};
use crate::device::DeviceModel;
use quant_math::{fnv1a, FNV_OFFSET};
use quant_pulse::{Drag, GaussianSquare};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the calibration algorithm baked into every snapshot key.
///
/// Bump this whenever a change alters what [`Calibration::run_seeded_with`]
/// computes for a fixed device and root seed — different RNG draw order,
/// different sweep grids, different search logic. Version 2 was the
/// per-task-stream parallel tune-up (one RNG stream per qubit derived from
/// the root seed, quantized probe inputs). Version 3 tunes each pulse's
/// amplitude and detuning with one 2-D Newton solve. Version 4 integrates
/// the probes on the Hermitian block exponentials (`quant_math::prop`),
/// which move calibrated amplitudes by ulps.
pub const CAL_ALGO_VERSION: u64 = 4;

/// The snapshot key for calibrating `device` with `opts` from `root`.
///
/// Bit-exact over every input that enters the tune-up (see the module docs
/// for what is included and what is deliberately left out).
pub fn snapshot_key(device: &DeviceModel, opts: &CalibrationOptions, root: u64) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, CAL_ALGO_VERSION);
    h = fnv1a(h, device.num_qubits() as u64);
    for q in 0..device.num_qubits() as u32 {
        for w in device.qubit(q).key_words() {
            h = fnv1a(h, w);
        }
    }
    h = fnv1a(h, device.edges().len() as u64);
    for e in device.edges() {
        h = fnv1a(h, (e.control as u64) << 32 | e.target as u64);
        for w in e.cr.key_words() {
            h = fnv1a(h, w);
        }
    }
    for w in device.drift().key_words() {
        h = fnv1a(h, w);
    }
    h = fnv1a(h, opts.shots as u64);
    h = fnv1a(h, opts.pulse_duration);
    h = fnv1a(h, opts.pulse_sigma.to_bits());
    h = fnv1a(h, opts.cr_amp.to_bits());
    h = fnv1a(h, opts.cr_sigma.to_bits());
    h = fnv1a(h, opts.measure_duration);
    fnv1a(h, root)
}

/// On-disk store of calibration snapshots, one text file per key.
#[derive(Clone, Debug)]
pub struct CalStore {
    dir: Option<PathBuf>,
}

impl CalStore {
    /// The store selected by `OPC_CAL_CACHE` (see module docs): a
    /// directory, the default under `target/`, or disabled.
    pub fn from_env() -> Self {
        match crate::knobs::cal_cache() {
            crate::knobs::CalCacheKnob::Disabled => CalStore::disabled(),
            crate::knobs::CalCacheKnob::Dir(dir) => CalStore::at(dir),
            crate::knobs::CalCacheKnob::Default => CalStore::at(default_dir()),
        }
    }

    /// A store rooted at an explicit directory (created on first save).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CalStore {
            dir: Some(dir.into()),
        }
    }

    /// A store that never loads and never saves.
    pub fn disabled() -> Self {
        CalStore { dir: None }
    }

    /// Loads the snapshot for `key`, rebuilding the `cmd_def` pulse library
    /// against `device`. Returns `None` when disabled, absent, or on any
    /// parse failure (stale format, truncation) — callers recompute.
    pub fn load(&self, key: u64, device: &DeviceModel) -> Option<Calibration> {
        let text = std::fs::read_to_string(self.path(key)?).ok()?;
        let mut cal = parse_snapshot(&text, key)?;
        if cal.qubits().len() != device.num_qubits() {
            return None;
        }
        cal.rebuild_cmd_def(device);
        Some(cal)
    }

    /// Saves a snapshot for `key`. Best-effort: the write is atomic
    /// (unique temp file + rename, so concurrent processes never observe a
    /// torn snapshot) and I/O errors are swallowed — persistence is an
    /// optimization, not a correctness requirement.
    pub fn save(&self, key: u64, cal: &Calibration) {
        let Some(path) = self.path(key) else { return };
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            "cal-{key:016x}.tmp.{}.{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, emit_snapshot(key, cal)).is_ok()
            && std::fs::rename(&tmp, &path).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn path(&self, key: u64) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(format!("cal-{key:016x}.txt")))
    }
}

/// The default store directory: `opc-cal-cache/` under the workspace
/// `target/` (honouring `CARGO_TARGET_DIR`), so `cargo clean` retires it.
fn default_dir() -> PathBuf {
    match std::env::var("CARGO_TARGET_DIR") {
        Ok(t) if !t.trim().is_empty() => PathBuf::from(t).join("opc-cal-cache"),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/opc-cal-cache"),
    }
}

// --- Text format -----------------------------------------------------------
//
// Whitespace-separated tokens: `u64` fields in decimal, `f64` fields as the
// 16-hex-digit `to_bits` image (exact round-trip; no float printing is
// involved anywhere). The leading magic carries the format version and the
// key, which `parse_snapshot` checks against the requested key so a renamed
// or corrupted file can never serve the wrong calibration.

fn push_f64(out: &mut String, x: f64) {
    out.push_str(&format!(" {:016x}", x.to_bits()));
}

fn push_u64(out: &mut String, x: u64) {
    out.push_str(&format!(" {x}"));
}

fn emit_snapshot(key: u64, cal: &Calibration) -> String {
    let mut out = format!("opcal {CAL_ALGO_VERSION} {key:016x}");
    push_u64(&mut out, cal.measure_duration());
    let qubits = cal.qubits();
    push_u64(&mut out, qubits.len() as u64);
    for q in qubits {
        out.push('\n');
        for drag in [&q.rx90, &q.rx180] {
            push_u64(&mut out, drag.duration);
            push_f64(&mut out, drag.amp);
            push_f64(&mut out, drag.sigma);
            push_f64(&mut out, drag.beta);
        }
        for x in [
            q.rx90_phase.0,
            q.rx90_phase.1,
            q.rx180_phase.0,
            q.rx180_phase.1,
            q.rx90_detuning,
            q.rx180_detuning,
        ] {
            push_f64(&mut out, x);
        }
        push_u64(&mut out, q.direct_rx_table.len() as u64);
        for &(s, a, c) in &q.direct_rx_table {
            push_f64(&mut out, s);
            push_f64(&mut out, a);
            push_f64(&mut out, c);
        }
    }
    let pairs = cal.pairs();
    out.push('\n');
    push_u64(&mut out, pairs.len() as u64);
    for p in pairs {
        out.push('\n');
        push_u64(&mut out, p.control as u64);
        push_u64(&mut out, p.target as u64);
        push_u64(&mut out, p.cr45.duration);
        push_f64(&mut out, p.cr45.amp);
        push_f64(&mut out, p.cr45.sigma);
        push_u64(&mut out, p.cr45.width);
        push_f64(&mut out, p.zi_residual);
    }
    out.push('\n');
    out
}

struct Tokens<'a>(std::str::SplitWhitespace<'a>);

impl Tokens<'_> {
    fn u64(&mut self) -> Option<u64> {
        self.0.next()?.parse().ok()
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(
            u64::from_str_radix(self.0.next()?, 16).ok()?,
        ))
    }

    fn drag(&mut self) -> Option<Drag> {
        Some(Drag {
            duration: self.u64()?,
            amp: self.f64()?,
            sigma: self.f64()?,
            beta: self.f64()?,
        })
    }
}

fn parse_snapshot(text: &str, expected_key: u64) -> Option<Calibration> {
    let mut t = Tokens(text.split_whitespace());
    if t.0.next()? != "opcal" || t.u64()? != CAL_ALGO_VERSION {
        return None;
    }
    if u64::from_str_radix(t.0.next()?, 16).ok()? != expected_key {
        return None;
    }
    let measure_duration = t.u64()?;
    let n = t.u64()? as usize;
    let mut qubits = Vec::with_capacity(n);
    for _ in 0..n {
        let rx90 = t.drag()?;
        let rx180 = t.drag()?;
        let rx90_phase = (t.f64()?, t.f64()?);
        let rx180_phase = (t.f64()?, t.f64()?);
        let rx90_detuning = t.f64()?;
        let rx180_detuning = t.f64()?;
        let len = t.u64()? as usize;
        let mut direct_rx_table = Vec::with_capacity(len);
        for _ in 0..len {
            direct_rx_table.push((t.f64()?, t.f64()?, t.f64()?));
        }
        qubits.push(QubitCalibration {
            rx90,
            rx180,
            rx90_phase,
            rx180_phase,
            rx90_detuning,
            rx180_detuning,
            direct_rx_table,
        });
    }
    let m = t.u64()? as usize;
    let mut pairs = Vec::with_capacity(m);
    for _ in 0..m {
        pairs.push(PairCalibration {
            control: t.u64()? as u32,
            target: t.u64()? as u32,
            cr45: GaussianSquare {
                duration: t.u64()?,
                amp: t.f64()?,
                sigma: t.f64()?,
                width: t.u64()?,
            },
            zi_residual: t.f64()?,
        });
    }
    if t.0.next().is_some() {
        return None; // trailing garbage: treat as corrupt
    }
    Some(Calibration::from_parts(qubits, pairs, measure_duration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::seeded;

    #[test]
    fn key_value_is_pinned() {
        // On-disk snapshots are named by this key: a hash change orphans
        // every stored calibration, so the value itself is pinned. It moves
        // with `CAL_ALGO_VERSION` (at version 3 it was
        // `0xbfea_b87f_f800_6516`).
        let device = DeviceModel::almaden_like(2, &mut seeded(3));
        let key = snapshot_key(&device, &CalibrationOptions::default(), 77);
        assert_eq!(key, 0xad7b_b334_b33d_e659);
    }

    #[test]
    fn key_is_sensitive_to_every_input() {
        let mut rng = seeded(3);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let opts = CalibrationOptions::default();
        let base = snapshot_key(&device, &opts, 77);

        assert_eq!(base, snapshot_key(&device, &opts, 77), "key is a function");
        assert_ne!(base, snapshot_key(&device, &opts, 78), "root seed");
        let mut o = opts;
        o.shots += 1;
        assert_ne!(base, snapshot_key(&device, &o, 77), "options");
        let other = DeviceModel::almaden_like(2, &mut rng);
        assert_ne!(base, snapshot_key(&other, &opts, 77), "device physics");

        // Drift multipliers are execution-time state: redrawing them must
        // NOT retire the snapshot (one daily calibration serves every
        // drift age).
        let mut drifted = device.clone();
        drifted.redraw_drift(&mut seeded(99));
        assert_eq!(base, snapshot_key(&drifted, &opts, 77));
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = CalStore::disabled();
        let device = DeviceModel::ideal(1);
        assert!(store.load(123, &device).is_none());
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_key() {
        assert!(parse_snapshot("", 1).is_none());
        assert!(parse_snapshot("not a snapshot", 1).is_none());
        assert!(parse_snapshot("opcal 999999 0000000000000001 16000 0 0", 1).is_none());
        // Right magic, wrong key.
        let text = format!("opcal {CAL_ALGO_VERSION} {:016x} 16000 0 0", 2u64);
        assert!(parse_snapshot(&text, 1).is_none());
        // Minimal valid snapshot: zero qubits, zero pairs.
        let text = format!("opcal {CAL_ALGO_VERSION} {:016x} 16000 0 0", 1u64);
        let cal = parse_snapshot(&text, 1).expect("minimal snapshot parses");
        assert_eq!(cal.measure_duration(), 16_000);
        // Trailing garbage is corruption, not a snapshot.
        let text = format!("opcal {CAL_ALGO_VERSION} {:016x} 16000 0 0 7", 1u64);
        assert!(parse_snapshot(&text, 1).is_none());
    }
}
