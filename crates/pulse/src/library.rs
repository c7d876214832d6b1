//! The `cmd_def` pulse library: calibrated gate → schedule translations.
//!
//! OpenPulse backends report the pulse schedule implementing each basis gate
//! on each qubit (tuple). The paper's compiler *reads* these entries to
//! extract hardware primitives (the pre-calibrated `Rx(180°)` pulse, the
//! echoed-CR components inside CNOT) and *writes* new entries for its
//! augmented basis gates (`DirectX`, `DirectRx(θ)` templates, `CR(θ)`).

use crate::schedule::Schedule;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Key identifying one calibration entry: a gate name applied to an ordered
/// qubit tuple.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdKey {
    /// Gate name, e.g. `"x"`, `"u3"`, `"cx"`, `"direct_x"`, `"cr"`.
    pub name: String,
    /// Ordered qubit operands.
    pub qubits: Vec<u32>,
}

impl CmdKey {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, qubits: &[u32]) -> Self {
        CmdKey {
            name: name.into(),
            qubits: qubits.to_vec(),
        }
    }
}

impl fmt::Display for CmdKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, q) in self.qubits.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "q{q}")?;
        }
        write!(f, ")")
    }
}

/// A key as a borrowed `(name, qubits)` pair, ordered as [`CmdKey`]'s
/// derived `Ord` orders the owned key (name first, then the qubit tuple),
/// so [`CmdDef::get`] looks up without building a `CmdKey`.
trait KeyView {
    fn view(&self) -> (&str, &[u32]);
}

impl KeyView for CmdKey {
    fn view(&self) -> (&str, &[u32]) {
        (&self.name, &self.qubits)
    }
}

impl KeyView for (&str, &[u32]) {
    fn view(&self) -> (&str, &[u32]) {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for CmdKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.view().cmp(&other.view())
    }
}

/// The backend-reported gate → pulse-schedule mapping.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CmdDef {
    entries: BTreeMap<CmdKey, Schedule>,
}

impl CmdDef {
    /// Creates an empty library.
    pub fn new() -> Self {
        CmdDef::default()
    }

    /// Registers (or replaces) a calibration entry.
    pub fn insert(&mut self, key: CmdKey, schedule: Schedule) -> Option<Schedule> {
        self.entries.insert(key, schedule)
    }

    /// Looks up the schedule for a gate on specific qubits, allocating
    /// nothing.
    pub fn get(&self, name: &str, qubits: &[u32]) -> Option<&Schedule> {
        self.entries.get(&(name, qubits) as &dyn KeyView)
    }

    /// Whether an entry exists.
    pub fn contains(&self, name: &str, qubits: &[u32]) -> bool {
        self.get(name, qubits).is_some()
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&CmdKey, &Schedule)> {
        self.entries.iter()
    }

    /// Number of calibration entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All gate names with at least one entry.
    pub fn gate_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.entries.keys().map(|k| k.name.as_str()).collect();
        names.sort();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Channel, Instruction};
    use crate::waveform::Gaussian;

    fn sched(dur: u64) -> Schedule {
        let mut s = Schedule::new("s");
        s.append(Instruction::Play {
            waveform: Gaussian {
                duration: dur,
                amp: 0.1,
                sigma: dur as f64 / 4.0,
            }
            .waveform("g"),
            channel: Channel::Drive(0),
        });
        s
    }

    #[test]
    fn insert_and_lookup() {
        let mut lib = CmdDef::new();
        lib.insert(CmdKey::new("x", &[0]), sched(160));
        lib.insert(CmdKey::new("x", &[1]), sched(160));
        lib.insert(CmdKey::new("cx", &[0, 1]), sched(1000));
        assert!(lib.contains("x", &[0]));
        assert!(!lib.contains("x", &[2]));
        assert!(lib.contains("cx", &[0, 1]));
        // Order matters for two-qubit entries.
        assert!(!lib.contains("cx", &[1, 0]));
        assert_eq!(lib.len(), 3);
        assert_eq!(lib.gate_names(), vec!["cx", "x"]);
    }

    #[test]
    fn borrowed_lookup_agrees_with_a_scan() {
        // Names that prefix one another and tuples that prefix one
        // another: the borrowed view must order exactly as `CmdKey` does.
        let names = ["c", "cx", "cx_cancelled", "x", ""];
        let tuples: [&[u32]; 5] = [&[], &[0], &[0, 1], &[1, 0], &[1]];
        let mut lib = CmdDef::new();
        for (i, name) in names.iter().enumerate() {
            for qubits in tuples.iter().skip(i % 2) {
                lib.insert(CmdKey::new(*name, qubits), sched(16 + qubits.len() as u64));
            }
        }
        for name in names.iter().chain(&["cy", "xx"]) {
            for qubits in tuples.iter().chain(&[&[0u32, 1, 2][..], &[2][..]]) {
                let scan = lib
                    .iter()
                    .find(|(k, _)| k.name == *name && k.qubits == *qubits)
                    .map(|(_, s)| s);
                assert_eq!(lib.get(name, qubits), scan, "{name}{qubits:?}");
            }
        }
    }

    #[test]
    fn replace_returns_old_entry() {
        let mut lib = CmdDef::new();
        lib.insert(CmdKey::new("x", &[0]), sched(160));
        let old = lib.insert(CmdKey::new("x", &[0]), sched(80));
        assert_eq!(old.unwrap().duration(), 160);
        assert_eq!(lib.get("x", &[0]).unwrap().duration(), 80);
    }

    #[test]
    fn display_format() {
        let key = CmdKey::new("cx", &[3, 7]);
        assert_eq!(key.to_string(), "cx(q3,q7)");
    }
}
