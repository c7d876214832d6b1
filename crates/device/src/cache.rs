//! Content-addressed memoization of integrated pulse unitaries.
//!
//! Integrating a pulse schedule is by far the most expensive step of a
//! simulated experiment: every 0.22 ns sample costs one matrix exponential.
//! But experiment suites replay the *same* waveforms thousands of times — a
//! 41-point θ-sweep executes 41 distinct rotation pulses while the
//! surrounding basis pulses never change. [`PulseCache`] memoizes the
//! integrated propagator of each distinct (pulse content, device physics)
//! pair so each is integrated exactly once per calibration epoch.
//!
//! **Keying.** Keys are exact: every f64 that enters the Hamiltonian —
//! waveform samples, frame state, transmon/CR parameters *after* drift —
//! is folded bit-for-bit into the key. Two lookups collide only when the
//! integrations would be bit-identical, so a hit can never return a stale
//! or approximate propagator. Calibration drift changes the parameter
//! bits, retiring every stale entry automatically.
//!
//! **Who uses it.** Noiseless and zero-jitter executions, whose pulses
//! replay bit-for-bit (calibration sweeps, repeated noiseless runs). A
//! jittered pulse could only ever miss — its samples are fresh draws — so
//! executions that draw jitter integrate directly and never touch the
//! cache: no key is built, nothing is looked up or stored.
//!
//! **Invalidation.** [`crate::DeviceModel::redraw_drift`] and
//! [`crate::DeviceModel::set_drift`] additionally call
//! [`PulseCache::invalidate`], dropping all entries and bumping the
//! generation counter. This keeps the map from accumulating entries for
//! parameter sets that can never be looked up again.
//!
//! **Knob.** The cache is on by default; set `OPC_PULSE_CACHE=0` (or call
//! [`crate::DeviceModel::set_pulse_cache_enabled`]) to disable it, e.g.
//! when measuring raw integrator throughput.

use crate::params::{CrParams, TransmonParams};
use crate::transmon::{DriveState, FrameResult};
use quant_math::CMat;
use quant_pulse::{Channel, Instruction, Schedule, Waveform};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Hard cap on resident entries; inserts beyond it are dropped. Jittered
/// executions bypass the cache, so the cap only bounds workloads that
/// replay many distinct noiseless pulses (long sweeps between drift
/// redraws).
const MAX_ENTRIES: usize = 4096;

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
/// Golden-section refinement revisits probe points that coincide
/// *mathematically* (this iteration's lower probe equals the last
/// iteration's upper probe, since φ² = 1 − φ) but differ by a few ulps in
/// floating point, so exact-bit cache keys would never hit. Snapping the
/// inputs to this grid before rendering the waveform makes near-coincident
/// probes bit-identical. The quantization is applied unconditionally —
/// cache enabled or not — so cached and uncached calibrations produce
/// bit-identical results.
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

#[derive(Debug, Default)]
struct Inner {
    // opclint: allow(unordered-iter): lookup-only memo — get/insert/len/
    // clear via exact content keys; never iterated, so iteration order
    // cannot reach any result. HashMap keeps shot-loop lookups O(1).
    map: HashMap<PulseKey, CMat>,
    hits: u64,
    misses: u64,
    generation: u64,
}

/// Thread-safe memo table from pulse content to integrated propagator.
#[derive(Debug)]
pub struct PulseCache {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for PulseCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PulseCache {
    /// An empty cache. Enabled unless `OPC_PULSE_CACHE` is set to `0`,
    /// `off` or `false`.
    pub fn new() -> Self {
        let enabled = crate::knobs::pulse_cache();
        PulseCache {
            enabled: AtomicBool::new(enabled),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Turns memoization on or off (lookups/inserts become no-ops).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether memoization is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Returns the cached propagator for `key`, or computes it with
    /// `integrate`, stores it, and returns it. The closure runs outside
    /// the lock, so concurrent shot threads never serialize on an
    /// integration (at worst two threads race to integrate the same new
    /// pulse once).
    pub fn get_or_integrate(&self, key: PulseKey, integrate: impl FnOnce() -> CMat) -> CMat {
        if !self.is_enabled() {
            return integrate();
        }
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(u) = inner.map.get(&key) {
                let u = u.clone();
                inner.hits += 1;
                return u;
            }
            inner.misses += 1;
        }
        let u = integrate();
        let mut inner = self.inner.lock().unwrap();
        if inner.map.len() < MAX_ENTRIES {
            inner.map.insert(key, u.clone());
        }
        u
    }

    /// Drops every entry and bumps the generation counter. Called when
    /// calibration drift mutates the device physics.
    pub fn invalidate(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.generation += 1;
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            generation: inner.generation,
        }
    }

    /// Zeroes the hit/miss counters (entries stay resident).
    pub fn reset_stats(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.hits = 0;
        inner.misses = 0;
    }
}

/// Cap on resident probe entries. A full qubit tune-up issues a few
/// thousand distinct probes; 2¹⁶ covers a 20-qubit device with room to
/// spare while bounding memory at a few tens of MB of 3×3 propagators.
const MAX_PROBE_ENTRIES: usize = 1 << 16;

#[derive(Debug, Default)]
struct ProbeInner {
    // opclint: allow(unordered-iter): lookup-only memo — get/insert/len
    // via fixed-size content keys; never iterated (values are pure
    // functions of the key, so there is nothing order-dependent to walk).
    map: HashMap<ProbeKey, FrameResult>,
    hits: u64,
    misses: u64,
}

/// Memo table for noiseless calibration probe integrations (layer 2 of the
/// calibration fast path): maps [`ProbeKey`] to the integrated
/// [`FrameResult`].
///
/// One cache is shared by all qubit tasks of a calibration run, so
/// identical probes — golden-section re-probes on one qubit, or identical
/// sweep points across the identical qubits of an ideal device — integrate
/// once. Values are pure functions of the key (quantized inputs, no noise
/// draws), so a hit is bit-identical to a recomputation no matter which
/// task inserted it; enabling or disabling the cache can therefore never
/// change a calibration result, only its cost.
#[derive(Debug)]
pub struct ProbeCache {
    enabled: bool,
    inner: Mutex<ProbeInner>,
}

impl Default for ProbeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeCache {
    /// An empty probe cache. Enabled unless `OPC_PROBE_CACHE` is set to
    /// `0`, `off` or `false`.
    pub fn new() -> Self {
        let enabled = crate::knobs::probe_cache();
        Self::with_enabled(enabled)
    }

    /// An empty probe cache with memoization explicitly on or off
    /// (env-independent — what the equivalence tests and benches use).
    pub fn with_enabled(enabled: bool) -> Self {
        ProbeCache {
            enabled,
            inner: Mutex::new(ProbeInner::default()),
        }
    }

    /// Whether memoization is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the cached probe result for `key`, or computes it with
    /// `integrate`, stores it, and returns it. As with
    /// [`PulseCache::get_or_integrate`], the closure runs outside the lock.
    pub fn get_or_integrate(
        &self,
        key: ProbeKey,
        integrate: impl FnOnce() -> FrameResult,
    ) -> FrameResult {
        if !self.enabled {
            return integrate();
        }
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(r) = inner.map.get(&key) {
                let r = r.clone();
                inner.hits += 1;
                return r;
            }
            inner.misses += 1;
        }
        let r = integrate();
        let mut inner = self.inner.lock().unwrap();
        if inner.map.len() < MAX_PROBE_ENTRIES {
            inner.map.insert(key, r.clone());
        }
        r
    }

    /// Current counters (`generation` is always 0: probe keys embed the
    /// calibration-time physics, which never drifts, so the cache is never
    /// invalidated).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            generation: 0,
        }
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

    #[test]
    fn identical_content_hits() {
        let p = TransmonParams::almaden_like();
        let s = DriveState::default();
        let cache = PulseCache::new();
        cache.set_enabled(true);
        let mut calls = 0;
        for _ in 0..3 {
            let k = single_play_key(&p, &s, &wf(0.25));
            cache.get_or_integrate(k, || {
                calls += 1;
                CMat::identity(3)
            });
        }
        assert_eq!(calls, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
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
    fn invalidate_clears_entries() {
        let cache = PulseCache::new();
        cache.set_enabled(true);
        let p = TransmonParams::almaden_like();
        let k = single_play_key(&p, &DriveState::default(), &wf(0.3));
        cache.get_or_integrate(k.clone(), || CMat::identity(3));
        assert_eq!(cache.stats().entries, 1);
        cache.invalidate();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.generation, 1);
        // Next lookup must re-integrate.
        let mut calls = 0;
        cache.get_or_integrate(k, || {
            calls += 1;
            CMat::identity(3)
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn disabled_cache_always_integrates() {
        let cache = PulseCache::new();
        cache.set_enabled(false);
        let p = TransmonParams::almaden_like();
        let mut calls = 0;
        for _ in 0..2 {
            let k = single_play_key(&p, &DriveState::default(), &wf(0.3));
            cache.get_or_integrate(k, || {
                calls += 1;
                CMat::identity(3)
            });
        }
        assert_eq!(calls, 2);
        assert_eq!(cache.stats().entries, 0);
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
    fn probe_cache_hits_identical_probes_and_respects_disable() {
        let p = TransmonParams::almaden_like();
        let t = crate::transmon::Transmon::new(p);
        let w = wf(0.25);
        for (enabled, expected_calls) in [(true, 1), (false, 2)] {
            let cache = ProbeCache::with_enabled(enabled);
            let mut calls = 0;
            let mut results = Vec::new();
            for _ in 0..2 {
                results.push(cache.get_or_integrate(probe_key(&p, &w), || {
                    calls += 1;
                    t.integrate_waveform(&w)
                }));
            }
            assert_eq!(calls, expected_calls);
            // A hit returns the bit-identical propagator.
            assert_eq!(
                results[0].unitary[(1, 0)].re.to_bits(),
                results[1].unitary[(1, 0)].re.to_bits()
            );
        }
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
