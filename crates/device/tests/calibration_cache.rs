//! Determinism and cache-equivalence contracts of the parallel calibration
//! fast path: bit-identical results at any thread count, with or without
//! the probe cache, and across a snapshot save/load round trip.

use quant_device::cache::ProbeCache;
use quant_device::calibration::{Calibration, CalibrationOptions};
use quant_device::executor::ShotPool;
use quant_device::snapshot::{snapshot_key, CalStore};
use quant_device::DeviceModel;
use quant_math::seeded;

fn test_device() -> DeviceModel {
    DeviceModel::almaden_like(3, &mut seeded(21))
}

fn run(device: &DeviceModel, root: u64, store: &CalStore, pool: &ShotPool) -> Calibration {
    Calibration::run_seeded_with(
        device,
        &CalibrationOptions::default(),
        root,
        store,
        pool,
        &ProbeCache::with_enabled(true),
    )
}

#[test]
fn calibration_is_bit_identical_across_thread_counts() {
    let device = test_device();
    let store = CalStore::disabled();
    let serial = run(&device, 77, &store, &ShotPool::new(1));
    for threads in [2, 4] {
        let parallel = run(&device, 77, &store, &ShotPool::new(threads));
        assert_eq!(
            serial, parallel,
            "calibration diverged at {threads} threads"
        );
    }
}

#[test]
fn probe_cache_does_not_change_results() {
    let device = test_device();
    let pool = ShotPool::new(2);
    let opts = CalibrationOptions::default();
    let cached = Calibration::run_seeded_with(
        &device,
        &opts,
        5,
        &CalStore::disabled(),
        &pool,
        &ProbeCache::with_enabled(true),
    );
    let uncached = Calibration::run_seeded_with(
        &device,
        &opts,
        5,
        &CalStore::disabled(),
        &pool,
        &ProbeCache::with_enabled(false),
    );
    assert_eq!(cached, uncached);
}

#[test]
fn snapshot_round_trip_and_invalidation() {
    let dir = std::env::temp_dir().join(format!("opc-cal-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CalStore::at(&dir);
    let device = test_device();
    let opts = CalibrationOptions::default();
    let pool = ShotPool::new(2);

    let key = snapshot_key(&device, &opts, 9);
    assert!(store.load(key, &device).is_none(), "store starts empty");
    let computed = run(&device, 9, &store, &pool);
    let loaded = store.load(key, &device).expect("calibration was persisted");
    assert_eq!(
        computed, loaded,
        "round trip is bit-exact, cmd_def included"
    );

    // The warm path inside run_seeded_with returns the same thing.
    let warm = run(&device, 9, &store, &pool);
    assert_eq!(computed, warm);

    // Any input change retires the snapshot: different root, different
    // options, different device physics all map to different keys.
    assert_ne!(key, snapshot_key(&device, &opts, 10));
    let mut bigger = opts;
    bigger.shots *= 2;
    assert_ne!(key, snapshot_key(&device, &bigger, 9));
    let other = DeviceModel::almaden_like(3, &mut seeded(22));
    assert_ne!(key, snapshot_key(&other, &opts, 9));
    assert!(store
        .load(snapshot_key(&device, &opts, 10), &device)
        .is_none());

    // Execution-time drift redraws do NOT retire it: the daily tune-up
    // serves every drift age, as on hardware.
    let mut drifted = device.clone();
    drifted.redraw_drift(&mut seeded(1234));
    assert_eq!(key, snapshot_key(&drifted, &opts, 9));

    // A corrupted snapshot is a miss, not an error.
    let path = dir.join(format!("cal-{key:016x}.txt"));
    std::fs::write(&path, "opcal corrupted").unwrap();
    assert!(store.load(key, &device).is_none());
    let recomputed = run(&device, 9, &store, &pool);
    assert_eq!(computed, recomputed, "recompute after corruption matches");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_draws_one_root_from_caller_rng_on_hit_and_miss() {
    // `Calibration::run` must leave the caller's RNG in the same state
    // whether the snapshot store hit or missed, so downstream draws (e.g.
    // drift redraws, shot sampling) are unaffected by cache warmth.
    let dir = std::env::temp_dir().join(format!("opc-cal-root-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let device = DeviceModel::ideal(1);
    let opts = CalibrationOptions::default();

    // Miss path (fresh store), then hit path (warm store), via the
    // explicit entry point with identical roots.
    use rand::Rng;
    let mut rng_miss = seeded(31);
    let mut rng_hit = seeded(31);
    let store = CalStore::at(&dir);
    let root_a = rng_miss.gen::<u64>();
    let cold = Calibration::run_seeded_with(
        &device,
        &opts,
        root_a,
        &store,
        &ShotPool::new(1),
        &ProbeCache::with_enabled(true),
    );
    let root_b = rng_hit.gen::<u64>();
    assert_eq!(root_a, root_b);
    let warm = Calibration::run_seeded_with(
        &device,
        &opts,
        root_b,
        &store,
        &ShotPool::new(1),
        &ProbeCache::with_enabled(true),
    );
    assert_eq!(cold, warm);
    assert_eq!(rng_miss.gen::<u64>(), rng_hit.gen::<u64>());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_tune_up_stays_within_probe_budget() {
    // Each qubit's pulse tune-up integrates at most 300 distinct probes:
    // the fixed Rabi/DRAG/DirectRx sweeps plus three 2-D Newton solves.
    // The budget must hold, and the result must not move, at any pool size.
    let device = DeviceModel::almaden_like(6, &mut seeded(21));
    let cold = |threads: usize| {
        let probes = ProbeCache::new();
        let cal = Calibration::run_seeded_with(
            &device,
            &CalibrationOptions::default(),
            3,
            &CalStore::disabled(),
            &ShotPool::new(threads),
            &probes,
        );
        let misses = probes.stats().misses;
        assert!(
            misses <= 300 * 6,
            "{misses} probe misses at {threads} threads exceed 300 per qubit"
        );
        cal
    };
    assert_eq!(cold(1), cold(4), "calibration diverged between pool sizes");
}
