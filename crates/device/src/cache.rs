//! Content-addressed memoization of integrated pulses: one exact-key
//! cache type, [`ExactCache`], in two instantiations.
//!
//! Integrating a pulse schedule is by far the most expensive step of a
//! simulated experiment: every 0.22 ns sample costs one matrix exponential.
//! But experiment suites replay the *same* waveforms thousands of times — a
//! 41-point θ-sweep executes 41 distinct rotation pulses while the
//! surrounding basis pulses never change, and a device tune-up revisits
//! the same probe points. So:
//!
//! - [`PulseCache`] memoizes the integrated propagator of each distinct
//!   (pulse content, device physics) pair, so each is integrated exactly
//!   once per calibration epoch;
//! - [`ProbeCache`] memoizes noiseless calibration probes across every
//!   qubit task of a tune-up.
//!
//! **Keying.** [`PulseKey`]s are exact: every f64 that enters the
//! Hamiltonian — waveform samples, frame state, transmon/CR parameters
//! *after* drift — is folded bit-for-bit into the key. Two lookups collide
//! only when the integrations would be bit-identical, so a hit can never
//! return a stale or approximate propagator. Calibration drift changes the
//! parameter bits, retiring every stale entry automatically. [`ProbeKey`]s
//! are compact (see its docs) over quantized probe inputs.
//!
//! **Who uses the pulse cache.** Noiseless and zero-jitter executions,
//! whose pulses replay bit-for-bit (calibration sweeps, repeated noiseless
//! runs). A jittered pulse could only ever miss — its samples are fresh
//! draws — so executions that draw jitter integrate directly and never
//! touch the cache: no key is built, nothing is looked up or stored.
//!
//! **Invalidation.** [`crate::DeviceModel::redraw_drift`] and
//! [`crate::DeviceModel::set_drift`] additionally call
//! [`ExactCache::invalidate`] on the pulse cache, dropping all entries and
//! bumping the generation counter. This keeps the map from accumulating
//! entries for parameter sets that can never be looked up again. Probe
//! keys embed the calibration-time physics, which never drifts, so the
//! probe cache is never invalidated.
//!
//! **Switch.** Both caches are on by default. [`ExactCache::with_enabled`]
//! and [`ExactCache::set_enabled`] turn one off — the exactness tests
//! compare results with and without.

use crate::params::{CrParams, TransmonParams};
use crate::transmon::{DriveState, FrameResult};
use quant_math::CMat;
use quant_pulse::{Channel, Instruction, Schedule, Waveform};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A bit-exact content address for one pulse integration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PulseKey {
    words: Vec<u64>,
}

/// Builder folding every input of an integration into a [`PulseKey`].
#[derive(Debug, Default)]
struct KeyBuilder {
    words: Vec<u64>,
}

impl KeyBuilder {
    fn with_capacity(n: usize) -> Self {
        KeyBuilder {
            words: Vec::with_capacity(n),
        }
    }

    fn word(&mut self, w: u64) {
        self.words.push(w);
    }

    fn f64(&mut self, x: f64) {
        self.words.push(x.to_bits());
    }

    fn transmon(&mut self, p: &TransmonParams) {
        // T1/T2 do not enter the coherent integration, but they are two
        // extra words per key and keeping them makes the key a complete
        // record of the parameter struct.
        self.words.extend(p.key_words());
    }

    fn cr(&mut self, p: &CrParams) {
        self.words.extend(p.key_words());
    }

    fn drive_state(&mut self, s: &DriveState) {
        self.f64(s.frame_phase);
        self.f64(s.freq_offset);
        self.f64(s.mod_phase);
        self.f64(s.static_phase);
    }

    fn channel(&mut self, ch: Channel) {
        let (tag, idx) = match ch {
            Channel::Drive(q) => (0u64, q),
            Channel::Control(k) => (1, k),
            Channel::Measure(q) => (2, q),
            Channel::Acquire(q) => (3, q),
        };
        self.word(tag << 32 | idx as u64);
    }

    fn waveform(&mut self, w: &Waveform) {
        let samples = w.samples();
        self.word(samples.len() as u64);
        for s in samples {
            self.f64(s.re);
            self.f64(s.im);
        }
    }

    fn finish(self) -> PulseKey {
        PulseKey { words: self.words }
    }
}

/// Builds the key for a single-qubit `Play` integrated from `state` by a
/// transmon with (drifted) parameters `p`.
pub fn single_play_key(p: &TransmonParams, state: &DriveState, w: &Waveform) -> PulseKey {
    let mut k = KeyBuilder::with_capacity(12 + 2 * w.samples().len());
    k.word(TAG_1Q);
    k.transmon(p);
    k.drive_state(state);
    k.waveform(w);
    k.finish()
}

/// Builds the key for a two-qubit schedule integrated by a [`crate::CrPair`]
/// with (drifted) parameters, bound to the given channel roles.
pub fn pair_schedule_key(
    control: &TransmonParams,
    target: &TransmonParams,
    cr: &CrParams,
    schedule: &Schedule,
    control_drive: Channel,
    target_drive: Channel,
    cr_channel: Channel,
) -> PulseKey {
    let mut k = KeyBuilder::with_capacity(32);
    k.word(TAG_2Q);
    k.transmon(control);
    k.transmon(target);
    k.cr(cr);
    k.channel(control_drive);
    k.channel(target_drive);
    k.channel(cr_channel);
    k.word(schedule.duration());
    for ti in schedule.instructions() {
        k.word(ti.start);
        k.channel(ti.instruction.channel());
        match &ti.instruction {
            Instruction::Play { waveform, .. } => {
                k.word(10);
                k.waveform(waveform);
            }
            Instruction::ShiftPhase { phase, .. } => {
                k.word(11);
                k.f64(*phase);
            }
            Instruction::SetFrequency { frequency, .. } => {
                k.word(12);
                k.f64(*frequency);
            }
            Instruction::ShiftFrequency { delta, .. } => {
                k.word(13);
                k.f64(*delta);
            }
            Instruction::Delay { duration, .. } => {
                k.word(14);
                k.word(*duration);
            }
            Instruction::Acquire {
                duration, qubit, ..
            } => {
                k.word(15);
                k.word(*duration);
                k.word(*qubit as u64);
            }
        }
    }
    k.finish()
}

// Leading tag words keep single- and two-qubit keys in disjoint namespaces.
const TAG_1Q: u64 = 0x5051_3151;
const TAG_2Q: u64 = 0x5051_3251;
const TAG_PROBE: u64 = 0x5051_3351;

/// Snaps a calibration probe input (amplitude, detuning, DRAG β) onto a
/// coarse bit-grid by zeroing the low 20 mantissa bits, leaving a 32-bit
/// mantissa (relative grid ≈ 2.3·10⁻¹⁰ — more than five orders of
/// magnitude below every calibration tolerance).
///
/// The tune-up's Newton solves revisit probe points that differ from
/// earlier ones by only a few ulps (a backtracking step that falls below
/// the grid once the solve has converged), so exact-bit cache keys would
/// never hit. Snapping the inputs to this grid before rendering the
/// waveform makes near-coincident probes bit-identical. The quantization
/// is applied unconditionally — cache enabled or not — so cached and
/// uncached calibrations produce bit-identical results.
pub fn quantize_probe(x: f64) -> f64 {
    f64::from_bits(x.to_bits() & !0xF_FFFF)
}

/// Compact content address of one noiseless calibration probe: the probed
/// transmon's parameter bits plus the rendered waveform's length and
/// 64-bit content hash.
///
/// Unlike [`PulseKey`], the waveform enters by [`Waveform::content_hash64`]
/// rather than by full sample bits: a device calibration issues a few
/// thousand distinct probes, so the collision probability is ≈ n²/2⁶⁵
/// ~ 10⁻¹³ — far below the probability of a cosmic-ray bit flip — and the
/// fixed-size key keeps lookups cheap next to a 3×3 per-sample integration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProbeKey([u64; 8]);

/// Builds the key for a noiseless single-qubit probe integration
/// ([`crate::Transmon::integrate_waveform`] and friends) during tune-up.
pub fn probe_key(p: &TransmonParams, w: &Waveform) -> ProbeKey {
    let t = p.key_words();
    ProbeKey([
        TAG_PROBE,
        t[0],
        t[1],
        t[2],
        t[3],
        t[4],
        w.duration(),
        w.content_hash64(),
    ])
}

/// Cache statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to integrate.
    pub misses: u64,
    /// Resident entries.
    pub entries: usize,
    /// Number of invalidations since construction (drift redraws).
    pub generation: u64,
}

/// An exact content address for an [`ExactCache`], carrying that cache's
/// resident-entry cap.
pub trait CacheKey: Eq + Hash {
    /// Hard cap on resident entries; inserts beyond it are dropped (the
    /// value is still computed and returned, just not stored).
    const MAX_ENTRIES: usize;
}

/// Jittered executions bypass the pulse cache, so this cap only bounds
/// workloads that replay many distinct noiseless pulses (long sweeps
/// between drift redraws).
impl CacheKey for PulseKey {
    const MAX_ENTRIES: usize = 4096;
}

/// A full qubit tune-up issues a few thousand distinct probes; 2¹⁶ covers
/// a 20-qubit device with room to spare while bounding memory at a few
/// tens of MB of 3×3 propagators.
impl CacheKey for ProbeKey {
    const MAX_ENTRIES: usize = 1 << 16;
}

#[derive(Debug)]
struct Inner<K, V> {
    // opclint: allow(unordered-iter): lookup-only memo — get/insert/len/
    // clear via exact content keys; never iterated, so iteration order
    // cannot reach any result. HashMap keeps shot-loop lookups O(1).
    map: HashMap<K, V>,
    hits: u64,
    misses: u64,
    generation: u64,
}

/// Thread-safe memo table from an exact content key to the integration
/// result it addresses. Values are pure functions of their keys, so a hit
/// is bit-identical to a recomputation no matter which thread inserted it,
/// and turning the cache off can change only cost, never a result.
#[derive(Debug)]
pub struct ExactCache<K, V> {
    enabled: AtomicBool,
    inner: Mutex<Inner<K, V>>,
}

/// Pulse content → integrated propagator, owned by each
/// [`crate::DeviceModel`] and consulted by noiseless and zero-jitter
/// executions.
pub type PulseCache = ExactCache<PulseKey, CMat>;

/// Noiseless calibration probe → integrated [`FrameResult`]. One cache is
/// shared by all qubit tasks of a calibration run, so identical probes —
/// converged Newton re-probes on one qubit, or identical sweep points across
/// the identical qubits of an ideal device — integrate once.
pub type ProbeCache = ExactCache<ProbeKey, FrameResult>;

impl<K: CacheKey, V: Clone> Default for ExactCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: CacheKey, V: Clone> ExactCache<K, V> {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// An empty cache with memoization explicitly on or off.
    pub fn with_enabled(enabled: bool) -> Self {
        ExactCache {
            enabled: AtomicBool::new(enabled),
            inner: Mutex::new(Inner {
                // opclint: allow(unordered-iter): constructor of the lookup-only memo declared above.
                map: HashMap::new(),
                hits: 0,
                misses: 0,
                generation: 0,
            }),
        }
    }

    /// Turns memoization on or off (lookups/inserts become no-ops).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Returns the cached value for `key`, or computes it with
    /// `integrate`, stores it, and returns it. The closure runs outside
    /// the lock, so concurrent threads never serialize on an integration
    /// (at worst two threads race to integrate the same new key once).
    pub fn get_or_integrate(&self, key: K, integrate: impl FnOnce() -> V) -> V {
        if !self.enabled.load(Ordering::Relaxed) {
            return integrate();
        }
        {
            let mut inner = self.lock();
            if let Some(v) = inner.map.get(&key) {
                let v = v.clone();
                inner.hits += 1;
                return v;
            }
            inner.misses += 1;
        }
        let v = integrate();
        let mut inner = self.lock();
        if inner.map.len() < K::MAX_ENTRIES {
            inner.map.insert(key, v.clone());
        }
        v
    }

    /// Drops every entry and bumps the generation counter. Called when
    /// calibration drift mutates the device physics.
    pub fn invalidate(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.generation += 1;
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            generation: inner.generation,
        }
    }

    /// Zeroes the hit/miss counters (entries stay resident).
    pub fn reset_stats(&self) {
        let mut inner = self.lock();
        inner.hits = 0;
        inner.misses = 0;
    }

    /// Recovers a poisoned lock: every entry is a pure function of its
    /// key and the counters are statistics, so each single update leaves
    /// the table valid.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::C64;
    use quant_pulse::Gaussian;

    fn wf(amp: f64) -> Waveform {
        Gaussian {
            duration: 32,
            amp,
            sigma: 8.0,
        }
        .waveform("w")
    }

    /// One instantiation of [`ExactCache`] under test: distinct keys and
    /// values indexed by `i`, plus the bits that identify a value.
    struct Case<K, V> {
        key: fn(usize) -> K,
        value: fn(usize) -> V,
        bits: fn(&V) -> u64,
    }

    fn pulse_case() -> Case<PulseKey, CMat> {
        Case {
            key: |i| PulseKey {
                words: vec![TAG_1Q, i as u64],
            },
            value: |i| CMat::identity(1).scale(C64::real(i as f64)),
            bits: |v| v[(0, 0)].re.to_bits(),
        }
    }

    fn probe_case() -> Case<ProbeKey, FrameResult> {
        Case {
            key: |i| ProbeKey([TAG_PROBE, i as u64, 0, 0, 0, 0, 0, 0]),
            value: |i| FrameResult {
                unitary: CMat::identity(1),
                frame_phase: i as f64,
                duration: i as u64,
            },
            bits: |v| v.frame_phase.to_bits(),
        }
    }

    fn hits_identical_keys_and_respects_disable<K: CacheKey + Clone, V: Clone>(c: Case<K, V>) {
        for (enabled, calls_want, stats_want) in [(true, 1, (2, 1, 1)), (false, 3, (0, 0, 0))] {
            let cache = ExactCache::<K, V>::with_enabled(enabled);
            let mut calls = 0;
            for _ in 0..3 {
                let v = cache.get_or_integrate((c.key)(7), || {
                    calls += 1;
                    (c.value)(7)
                });
                assert_eq!((c.bits)(&v), (c.bits)(&(c.value)(7)));
            }
            assert_eq!(calls, calls_want, "enabled = {enabled}");
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.entries), stats_want);
        }
        // The switch also works after construction.
        let cache = ExactCache::<K, V>::new();
        cache.set_enabled(false);
        cache.get_or_integrate((c.key)(1), || (c.value)(1));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    fn invalidate_and_reset_stats<K: CacheKey + Clone, V: Clone>(c: Case<K, V>) {
        let cache = ExactCache::<K, V>::new();
        cache.get_or_integrate((c.key)(3), || (c.value)(3));
        cache.get_or_integrate((c.key)(3), || (c.value)(3));
        cache.reset_stats();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 1));
        cache.invalidate();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.generation), (0, 1));
        // Next lookup must re-integrate.
        let mut calls = 0;
        cache.get_or_integrate((c.key)(3), || {
            calls += 1;
            (c.value)(3)
        });
        assert_eq!(calls, 1);
    }

    fn inserts_past_the_cap_are_dropped<K: CacheKey + Clone, V: Clone>(c: Case<K, V>) {
        let cache = ExactCache::<K, V>::new();
        let cap = K::MAX_ENTRIES;
        for i in 0..=cap {
            cache.get_or_integrate((c.key)(i), || (c.value)(i));
        }
        assert_eq!(cache.stats().entries, cap);
        // The overflow key was computed but not stored: it integrates
        // again, and still returns its own value.
        let mut calls = 0;
        for _ in 0..2 {
            let v = cache.get_or_integrate((c.key)(cap), || {
                calls += 1;
                (c.value)(cap)
            });
            assert_eq!((c.bits)(&v), (c.bits)(&(c.value)(cap)));
        }
        assert_eq!(calls, 2);
        // Resident keys still hit with their own values.
        for i in [0, cap - 1] {
            let v = cache.get_or_integrate((c.key)(i), || unreachable!("key {i} is resident"));
            assert_eq!((c.bits)(&v), (c.bits)(&(c.value)(i)));
        }
        assert_eq!(cache.stats().entries, cap);
    }

    #[test]
    fn pulse_cache_hits_identical_keys_and_respects_disable() {
        hits_identical_keys_and_respects_disable(pulse_case());
    }

    #[test]
    fn probe_cache_hits_identical_keys_and_respects_disable() {
        hits_identical_keys_and_respects_disable(probe_case());
    }

    #[test]
    fn pulse_cache_invalidate_and_reset_stats() {
        invalidate_and_reset_stats(pulse_case());
    }

    #[test]
    fn probe_cache_invalidate_and_reset_stats() {
        invalidate_and_reset_stats(probe_case());
    }

    #[test]
    fn pulse_cache_drops_inserts_past_its_cap() {
        assert_eq!(PulseKey::MAX_ENTRIES, 4096);
        inserts_past_the_cap_are_dropped(pulse_case());
    }

    #[test]
    fn probe_cache_drops_inserts_past_its_cap() {
        assert_eq!(ProbeKey::MAX_ENTRIES, 1 << 16);
        inserts_past_the_cap_are_dropped(probe_case());
    }

    #[test]
    fn probe_hit_is_bit_identical_to_a_real_integration() {
        let p = TransmonParams::almaden_like();
        let t = crate::transmon::Transmon::new(p);
        let w = wf(0.25);
        let cache = ProbeCache::new();
        let first = cache.get_or_integrate(probe_key(&p, &w), || t.integrate_waveform(&w));
        let hit = cache.get_or_integrate(probe_key(&p, &w), || unreachable!("second probe hits"));
        assert_eq!(
            first.unitary[(1, 0)].re.to_bits(),
            hit.unitary[(1, 0)].re.to_bits()
        );
    }

    #[test]
    fn different_content_misses() {
        let p = TransmonParams::almaden_like();
        let s = DriveState::default();
        let k1 = single_play_key(&p, &s, &wf(0.25));
        let k2 = single_play_key(&p, &s, &wf(0.2500001));
        assert_ne!(k1, k2, "amplitude change must change the key");
        let mut drifted = p;
        drifted.rabi_hz_per_amp *= 1.0 + 1e-9;
        let k3 = single_play_key(&drifted, &s, &wf(0.25));
        assert_ne!(k1, k3, "parameter drift must change the key");
    }

    #[test]
    fn pair_key_distinguishes_schedules() {
        let p = TransmonParams::almaden_like();
        let cr = CrParams::almaden_like();
        let mk = |phase: f64| {
            let mut s = Schedule::new("s");
            s.append(Instruction::ShiftPhase {
                phase,
                channel: Channel::Control(0),
            });
            s.append(Instruction::Play {
                waveform: wf(0.3),
                channel: Channel::Control(0),
            });
            pair_schedule_key(
                &p,
                &p,
                &cr,
                &s,
                Channel::Drive(0),
                Channel::Drive(1),
                Channel::Control(0),
            )
        };
        assert_eq!(mk(0.5), mk(0.5));
        assert_ne!(mk(0.5), mk(0.5 + 1e-12));
    }

    #[test]
    fn quantize_probe_snaps_near_coincident_points() {
        // φ-section arithmetic reproduces a probe point only to a few ulps;
        // the grid must merge those while separating genuinely new points.
        let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
        let x = 0.327_f64;
        let y = (x / phi) * phi; // == x mathematically, off by ~1 ulp
        assert_eq!(quantize_probe(x).to_bits(), quantize_probe(y).to_bits());
        assert_ne!(
            quantize_probe(x),
            quantize_probe(x * (1.0 + 1e-6)),
            "distinct probe points must stay distinct"
        );
        assert_eq!(quantize_probe(0.0), 0.0);
        assert!(quantize_probe(-x) < 0.0, "sign must survive quantization");
        assert!((quantize_probe(x) / x - 1.0).abs() < 3e-10);
    }

    #[test]
    fn probe_keys_separate_params_and_waveforms() {
        let p = TransmonParams::almaden_like();
        let mut q = p;
        q.rabi_hz_per_amp *= 1.0 + 1e-12;
        assert_ne!(probe_key(&p, &wf(0.25)), probe_key(&q, &wf(0.25)));
        assert_ne!(probe_key(&p, &wf(0.25)), probe_key(&p, &wf(0.26)));
        assert_eq!(probe_key(&p, &wf(0.25)), probe_key(&p, &wf(0.25)));
    }

    #[test]
    fn keys_carry_complex_sample_bits() {
        // Two waveforms whose samples differ only in the imaginary part.
        let mut a = wf(0.3);
        let b = a.clone();
        let samples: Vec<C64> = a
            .samples()
            .iter()
            .map(|s| C64::new(s.re, s.im + 1e-15))
            .collect();
        a = Waveform::new("w", samples);
        let p = TransmonParams::almaden_like();
        let s = DriveState::default();
        assert_ne!(single_play_key(&p, &s, &a), single_play_key(&p, &s, &b));
    }
}
