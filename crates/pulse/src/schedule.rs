//! Channels, instructions, and timed pulse schedules.
//!
//! Mirrors the OpenPulse model: a [`Schedule`] is a set of instructions with
//! absolute start times (in `dt` units) on named [`Channel`]s. `Rz` gates
//! compile to zero-duration [`Instruction::ShiftPhase`] frame changes
//! (virtual-Z); qudit addressing uses [`Instruction::SetFrequency`] /
//! [`Instruction::ShiftFrequency`] to retarget the local oscillator.

use crate::waveform::Waveform;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A hardware channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// Qubit drive channel `d<q>` — resonant single-qubit microwave drive.
    Drive(u32),
    /// Control channel `u<k>` — cross-resonance drive (control qubit driven
    /// at the target qubit's frequency).
    Control(u32),
    /// Measurement stimulus channel `m<q>`.
    Measure(u32),
    /// Acquisition channel `a<q>`.
    Acquire(u32),
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Channel::Drive(q) => write!(f, "d{q}"),
            Channel::Control(k) => write!(f, "u{k}"),
            Channel::Measure(q) => write!(f, "m{q}"),
            Channel::Acquire(q) => write!(f, "a{q}"),
        }
    }
}

/// One schedule instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Instruction {
    /// Emit a waveform on a channel.
    Play {
        /// The envelope to play.
        waveform: Waveform,
        /// Output channel.
        channel: Channel,
    },
    /// Zero-duration frame change: advance the channel's phase by `phase`
    /// radians. This is how virtual-Z gates are realized.
    ShiftPhase {
        /// Phase advance in radians.
        phase: f64,
        /// Affected channel.
        channel: Channel,
    },
    /// Set the channel's local-oscillator frequency (Hz).
    SetFrequency {
        /// New absolute LO frequency in Hz.
        frequency: f64,
        /// Affected channel.
        channel: Channel,
    },
    /// Shift the channel's local-oscillator frequency by `delta` Hz —
    /// the paper's mechanism for addressing the |1⟩→|2⟩ (f12) and |0⟩→|2⟩
    /// (f02/2) qudit transitions.
    ShiftFrequency {
        /// Frequency offset in Hz.
        delta: f64,
        /// Affected channel.
        channel: Channel,
    },
    /// Idle for `duration` samples on a channel (explicit NO-OP padding, as
    /// used by the paper's "optimized-slow" Fig. 13 variant).
    Delay {
        /// Idle time in `dt` samples.
        duration: u64,
        /// Affected channel.
        channel: Channel,
    },
    /// Trigger readout of a qubit.
    Acquire {
        /// Measurement window in `dt` samples.
        duration: u64,
        /// Qubit index being read out.
        qubit: u32,
        /// Acquisition channel.
        channel: Channel,
    },
}

impl Instruction {
    /// The channel the instruction acts on.
    pub fn channel(&self) -> Channel {
        match self {
            Instruction::Play { channel, .. }
            | Instruction::ShiftPhase { channel, .. }
            | Instruction::SetFrequency { channel, .. }
            | Instruction::ShiftFrequency { channel, .. }
            | Instruction::Delay { channel, .. }
            | Instruction::Acquire { channel, .. } => *channel,
        }
    }

    /// Duration in `dt` samples (zero for frame/frequency changes).
    pub fn duration(&self) -> u64 {
        match self {
            Instruction::Play { waveform, .. } => waveform.duration(),
            Instruction::ShiftPhase { .. }
            | Instruction::SetFrequency { .. }
            | Instruction::ShiftFrequency { .. } => 0,
            Instruction::Delay { duration, .. } | Instruction::Acquire { duration, .. } => {
                *duration
            }
        }
    }
}

/// A timed instruction within a schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedInstruction {
    /// Absolute start time in `dt` samples.
    pub start: u64,
    /// The instruction.
    pub instruction: Instruction,
}

/// A pulse schedule: instructions with absolute start times.
///
/// Alongside the instruction list the schedule keeps a per-channel end-time
/// index (sorted by channel, maintained by every insertion), so the
/// alignment queries — [`Schedule::channel_duration`],
/// [`Schedule::duration`], [`Schedule::channels`] and the `append*`
/// family built on them — cost O(channels), not O(instructions). The name
/// is a shared string, so a clone copies no text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    name: Arc<str>,
    instructions: Vec<TimedInstruction>,
    /// `(channel, latest instruction end on it)` for every channel used,
    /// sorted by channel.
    ends: Vec<(Channel, u64)>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Schedule {
            name: name.into(),
            instructions: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Schedule name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the schedule in place, returning `self` for chaining.
    pub fn named(mut self, name: impl Into<Arc<str>>) -> Self {
        self.name = name.into();
        self
    }

    /// All timed instructions, sorted by start time (stable for ties).
    pub fn instructions(&self) -> &[TimedInstruction] {
        &self.instructions
    }

    /// Records that `channel` is busy until at least `end`.
    fn note_end(&mut self, channel: Channel, end: u64) {
        match self.ends.binary_search_by_key(&channel, |&(c, _)| c) {
            Ok(i) => self.ends[i].1 = self.ends[i].1.max(end),
            Err(i) => self.ends.insert(i, (channel, end)),
        }
    }

    /// Inserts an instruction at an absolute time (after any instructions
    /// already at that time).
    pub fn insert(&mut self, start: u64, instruction: Instruction) {
        self.note_end(
            instruction.channel(),
            start.saturating_add(instruction.duration()),
        );
        let pos = self.instructions.partition_point(|ti| ti.start <= start);
        self.instructions
            .insert(pos, TimedInstruction { start, instruction });
    }

    /// Inserts an instruction at time 0, *before* everything else —
    /// needed for entry frame changes that must precede t = 0 pulses.
    pub fn prepend(&mut self, instruction: Instruction) {
        self.note_end(instruction.channel(), instruction.duration());
        self.instructions.insert(
            0,
            TimedInstruction {
                start: 0,
                instruction,
            },
        );
    }

    /// A copy behind one t = 0 `ShiftPhase` per `(channel, phase)` of
    /// `phases`, in that order, ahead of every instruction — what
    /// [`Schedule::prepend`]ing them last-first gives — built in one `Vec`
    /// and sharing the name. Lowering places a calibrated two-qubit block
    /// in its pair's frames this way.
    pub fn behind_phases(&self, phases: impl IntoIterator<Item = (Channel, f64)>) -> Schedule {
        let phases = phases.into_iter();
        let (low, high) = phases.size_hint();
        let mut s = Schedule {
            name: Arc::clone(&self.name),
            instructions: Vec::with_capacity(high.unwrap_or(low) + self.instructions.len()),
            ends: self.ends.clone(),
        };
        for (channel, phase) in phases {
            s.note_end(channel, 0);
            s.instructions.push(TimedInstruction {
                start: 0,
                instruction: Instruction::ShiftPhase { phase, channel },
            });
        }
        s.instructions.extend_from_slice(&self.instructions);
        s
    }

    /// Appends an instruction at the current end of its channel
    /// (left-aligned, per-channel sequencing).
    pub fn append(&mut self, instruction: Instruction) {
        let t = self.channel_duration(instruction.channel());
        self.insert(t, instruction);
    }

    /// Appends an instruction after *all* channels in `barrier` have
    /// finished — models a multi-channel barrier such as the start of a
    /// two-qubit pulse block.
    pub fn append_after(&mut self, instruction: Instruction, barrier: &[Channel]) {
        let t = barrier
            .iter()
            .map(|&c| self.channel_duration(c))
            .max()
            .unwrap_or(0);
        self.insert(
            t.max(self.channel_duration(instruction.channel())),
            instruction,
        );
    }

    /// Appends an entire schedule, shifted so it begins after every channel
    /// it uses has finished in `self` (Qiskit's `Schedule.append` with
    /// left alignment).
    pub fn append_schedule(&mut self, other: &Schedule) {
        let offset = other
            .ends
            .iter()
            .map(|&(c, _)| self.channel_duration(c))
            .max()
            .unwrap_or(0);
        self.insert_schedule(offset, other);
    }

    /// Inserts an entire schedule at an absolute offset.
    pub fn insert_schedule(&mut self, offset: u64, other: &Schedule) {
        for ti in &other.instructions {
            self.insert(offset + ti.start, ti.instruction.clone());
        }
    }

    /// Returns a copy shifted later by `offset` samples.
    pub fn shifted(&self, offset: u64) -> Schedule {
        Schedule {
            name: Arc::clone(&self.name),
            instructions: self
                .instructions
                .iter()
                .map(|ti| TimedInstruction {
                    start: ti.start + offset,
                    instruction: ti.instruction.clone(),
                })
                .collect(),
            ends: self
                .ends
                .iter()
                .map(|&(c, end)| (c, end + offset))
                .collect(),
        }
    }

    /// Total duration: the latest instruction end over all channels.
    pub fn duration(&self) -> u64 {
        self.ends.iter().map(|&(_, end)| end).max().unwrap_or(0)
    }

    /// End time of the busiest point on one channel (0 if unused).
    pub fn channel_duration(&self, channel: Channel) -> u64 {
        match self.ends.binary_search_by_key(&channel, |&(c, _)| c) {
            Ok(i) => self.ends[i].1,
            Err(_) => 0,
        }
    }

    /// The set of channels used, sorted.
    pub fn channels(&self) -> impl ExactSizeIterator<Item = Channel> + '_ {
        self.ends.iter().map(|&(c, _)| c)
    }

    /// Number of `Play` instructions (pulse count) — the unit of §5's
    /// cancellation accounting.
    pub fn pulse_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|ti| matches!(ti.instruction, Instruction::Play { .. }))
            .count()
    }

    /// Timed instructions grouped per channel, each sorted by start time.
    fn per_channel(&self) -> BTreeMap<Channel, Vec<&TimedInstruction>> {
        let mut map: BTreeMap<Channel, Vec<&TimedInstruction>> = BTreeMap::new();
        for ti in &self.instructions {
            map.entry(ti.instruction.channel()).or_default().push(ti);
        }
        map
    }

    /// Renders an ASCII timeline, one row per channel — the textual stand-in
    /// for the paper's pulse-schedule figures.
    pub fn ascii_art(&self, cols: usize) -> String {
        let total = self.duration().max(1);
        let mut out = String::new();
        for (ch, tis) in self.per_channel() {
            let mut row = vec![b'.'; cols];
            for ti in tis {
                let dur = ti.instruction.duration();
                let a = (ti.start as usize * cols) / total as usize;
                let b = (((ti.start + dur.max(1)) as usize * cols) / total as usize)
                    .min(cols)
                    .max(a + 1);
                let glyph = match ti.instruction {
                    Instruction::Play { .. } => b'#',
                    Instruction::ShiftPhase { .. } => b'z',
                    Instruction::SetFrequency { .. } | Instruction::ShiftFrequency { .. } => b'f',
                    Instruction::Delay { .. } => b'-',
                    Instruction::Acquire { .. } => b'M',
                };
                for slot in row.iter_mut().take(b.min(cols)).skip(a.min(cols - 1)) {
                    *slot = glyph;
                }
            }
            out.push_str(&format!("{ch:>4} |{}|\n", String::from_utf8_lossy(&row)));
        }
        out.push_str(&format!("      duration: {} dt\n", self.duration()));
        out
    }
}

/// Assembles a [`Schedule`] from insertions in any time order without
/// mid-vector inserts.
///
/// [`Schedule::insert`] places each instruction after every instruction
/// with an equal or earlier start, which is a stable sort by start in
/// insertion order. The builder appends instead (keeping the per-channel
/// end index current for the alignment queries) and sorts once in
/// [`ScheduleBuilder::build`], so `n` insertions cost O(n log n) instead of
/// O(n²), with the same result (`builder_matches_sequential_inserts` in
/// `tests/schedule_properties.rs`).
#[derive(Clone, Debug)]
pub struct ScheduleBuilder {
    schedule: Schedule,
}

impl ScheduleBuilder {
    /// Starts an empty schedule.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        ScheduleBuilder {
            schedule: Schedule::new(name),
        }
    }

    /// Starts an empty schedule with room for `capacity` instructions.
    pub fn with_capacity(name: impl Into<Arc<str>>, capacity: usize) -> Self {
        let mut schedule = Schedule::new(name);
        schedule.instructions.reserve_exact(capacity);
        ScheduleBuilder { schedule }
    }

    /// [`Schedule::channel_duration`] of the schedule built so far.
    pub fn channel_duration(&self, channel: Channel) -> u64 {
        self.schedule.channel_duration(channel)
    }

    /// [`Schedule::insert`].
    pub fn insert(&mut self, start: u64, instruction: Instruction) {
        let s = &mut self.schedule;
        s.note_end(
            instruction.channel(),
            start.saturating_add(instruction.duration()),
        );
        s.instructions.push(TimedInstruction { start, instruction });
    }

    /// [`Schedule::append`].
    pub fn append(&mut self, instruction: Instruction) {
        let t = self.channel_duration(instruction.channel());
        self.insert(t, instruction);
    }

    /// [`Schedule::insert_schedule`].
    pub fn insert_schedule(&mut self, offset: u64, other: &Schedule) {
        for ti in &other.instructions {
            self.insert(offset + ti.start, ti.instruction.clone());
        }
    }

    /// The schedule, instructions sorted by start (stable for ties).
    pub fn build(mut self) -> Schedule {
        // `sort_by_cached_key` sorts `(start, index)` pairs and permutes
        // the instructions in place: a stable sort whose scratch is 16
        // bytes per instruction, not a copy of the instructions.
        self.schedule.instructions.sort_by_cached_key(|ti| ti.start);
        self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Gaussian;

    fn pulse(n: u64) -> Waveform {
        Gaussian {
            duration: n,
            amp: 0.1,
            sigma: n as f64 / 4.0,
        }
        .waveform("p")
    }

    #[test]
    fn append_sequences_per_channel() {
        let mut s = Schedule::new("test");
        s.append(Instruction::Play {
            waveform: pulse(160),
            channel: Channel::Drive(0),
        });
        s.append(Instruction::Play {
            waveform: pulse(160),
            channel: Channel::Drive(0),
        });
        // Different channel starts at 0 (parallel).
        s.append(Instruction::Play {
            waveform: pulse(100),
            channel: Channel::Drive(1),
        });
        assert_eq!(s.duration(), 320);
        assert_eq!(s.channel_duration(Channel::Drive(0)), 320);
        assert_eq!(s.channel_duration(Channel::Drive(1)), 100);
    }

    #[test]
    fn frame_changes_have_zero_duration() {
        let mut s = Schedule::new("vz");
        s.append(Instruction::ShiftPhase {
            phase: 1.0,
            channel: Channel::Drive(0),
        });
        s.append(Instruction::ShiftPhase {
            phase: -1.0,
            channel: Channel::Drive(0),
        });
        assert_eq!(s.duration(), 0);
        assert_eq!(s.instructions().len(), 2);
    }

    #[test]
    fn append_schedule_aligns_on_shared_channels() {
        let mut a = Schedule::new("a");
        a.append(Instruction::Play {
            waveform: pulse(160),
            channel: Channel::Drive(0),
        });
        let mut b = Schedule::new("b");
        b.append(Instruction::Play {
            waveform: pulse(80),
            channel: Channel::Drive(0),
        });
        b.append(Instruction::Play {
            waveform: pulse(80),
            channel: Channel::Drive(1),
        });
        a.append_schedule(&b);
        // b is shifted by 160 (the busy time of d0).
        assert_eq!(a.duration(), 240);
        assert_eq!(a.channel_duration(Channel::Drive(1)), 240);
    }

    #[test]
    fn append_after_barrier() {
        let mut s = Schedule::new("barrier");
        s.append(Instruction::Play {
            waveform: pulse(200),
            channel: Channel::Drive(0),
        });
        s.append_after(
            Instruction::Play {
                waveform: pulse(50),
                channel: Channel::Drive(1),
            },
            &[Channel::Drive(0), Channel::Drive(1)],
        );
        assert_eq!(s.channel_duration(Channel::Drive(1)), 250);
    }

    #[test]
    fn pulse_count_counts_only_plays() {
        let mut s = Schedule::new("count");
        s.append(Instruction::Play {
            waveform: pulse(10),
            channel: Channel::Drive(0),
        });
        s.append(Instruction::ShiftPhase {
            phase: 0.5,
            channel: Channel::Drive(0),
        });
        s.append(Instruction::Delay {
            duration: 100,
            channel: Channel::Drive(0),
        });
        assert_eq!(s.pulse_count(), 1);
        assert_eq!(s.duration(), 110);
    }

    #[test]
    fn shifted_preserves_structure() {
        let mut s = Schedule::new("s");
        s.append(Instruction::Play {
            waveform: pulse(10),
            channel: Channel::Drive(0),
        });
        let moved = s.shifted(90);
        assert_eq!(moved.instructions()[0].start, 90);
        assert_eq!(moved.duration(), 100);
    }

    #[test]
    fn channels_listing() {
        let mut s = Schedule::new("chs");
        s.append(Instruction::Play {
            waveform: pulse(10),
            channel: Channel::Control(1),
        });
        s.append(Instruction::Play {
            waveform: pulse(10),
            channel: Channel::Drive(0),
        });
        s.append(Instruction::Acquire {
            duration: 100,
            qubit: 0,
            channel: Channel::Acquire(0),
        });
        assert_eq!(
            s.channels().collect::<Vec<_>>(),
            vec![Channel::Drive(0), Channel::Control(1), Channel::Acquire(0)]
        );
    }

    #[test]
    fn ascii_art_renders_rows() {
        let mut s = Schedule::new("art");
        s.append(Instruction::Play {
            waveform: pulse(100),
            channel: Channel::Drive(0),
        });
        let art = s.ascii_art(40);
        assert!(art.contains("d0"));
        assert!(art.contains('#'));
        assert!(art.contains("100 dt"));
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut s = Schedule::new("sort");
        s.insert(
            50,
            Instruction::Play {
                waveform: pulse(10),
                channel: Channel::Drive(0),
            },
        );
        s.insert(
            10,
            Instruction::Play {
                waveform: pulse(10),
                channel: Channel::Drive(0),
            },
        );
        let starts: Vec<u64> = s.instructions().iter().map(|ti| ti.start).collect();
        assert_eq!(starts, vec![10, 50]);
    }
}
