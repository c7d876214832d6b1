//! The simulated quantum backend — the stand-in for IBM's Almaden and
//! Armonk devices that the paper ran on.
//!
//! Layers:
//!
//! * [`params`] — physical constants and Almaden/Armonk presets.
//! * [`transmon`] — 3-level driven-transmon pulse integration, including
//!   virtual-Z frames and the frequency-shifting that reaches the f12 and
//!   f02/2 qudit transitions.
//! * [`twoqubit`] — effective cross-resonance (ZX + spurious IX/ZI) pair
//!   integration; the physics behind the echoed-CR CNOT.
//! * [`calibration`] — the daily tune-up loop (Rabi, fine amplitude +
//!   Stark detuning, DRAG, CR width, phase corrections) that populates the
//!   backend's `cmd_def` pulse library.
//! * [`device`] — the backend façade with drift between calibration and
//!   execution time.
//! * [`readout`] — confusion-matrix readout error and IQ-cloud simulation.
//! * [`snapshot`] — persistent on-disk calibration snapshots keyed by
//!   device physics + options + seed (`OPC_CAL_CACHE`).
//! * [`knobs`] — the consolidated `OPC_*` environment-knob surface.
//! * [`executor`] — the noisy density-matrix executor for lowered programs.
//!
//! ```no_run
//! use quant_device::{calibrate, DeviceModel};
//!
//! let mut rng = quant_math::seeded(7);
//! let device = DeviceModel::almaden_like(2, &mut rng);
//! // The daily tune-up populates the backend's cmd_def pulse library.
//! let calibration = calibrate(&device, &mut rng);
//! assert!(calibration.cmd_def().contains("rx180", &[0]));
//! assert!(calibration.cmd_def().contains("cx", &[0, 1]));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod calibration;
pub mod device;
pub mod executor;
pub mod knobs;
pub mod params;
pub mod readout;
pub mod snapshot;
mod timeline;
pub mod trajectory;
pub mod transmon;
pub mod tunable;
pub mod twoqubit;

pub use cache::{
    probe_key, quantize_probe, CacheStats, ProbeCache, ProbeKey, PulseCache, PulseKey,
};
pub use calibration::{
    calibrate, Calibration, CalibrationOptions, PairCalibration, QubitCalibration,
};
pub use device::{CouplingEdge, DeviceModel};
pub use executor::{
    Block, ExecError, ExecOutcome, LoweredProgram, PulseExecutor, QutritOutcome, ShotPool,
};
pub use params::{CrParams, DriftParams, ReadoutParams, TransmonParams, DT};
pub use snapshot::{snapshot_key, CalStore, CAL_ALGO_VERSION};
pub use trajectory::TrajectoryExecutor;
pub use transmon::{DriveState, FrameResult, Transmon};
pub use tunable::{calibrate_xy, XyCalibration, XyPair, XyParams};
pub use twoqubit::{
    extract_control_z, extract_zx_angle, lift_qubit_subspace, qubit_block_of, CrPair,
    PairFrameResult,
};
