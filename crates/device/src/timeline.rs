//! The one timing rule every executor follows.
//!
//! A lowered program is a list of gate blocks with no wall clock. Each
//! qubit decoheres for exactly as long as it waits, so one rule decides
//! how much relaxation a schedule earns: a two-qubit block starts as soon
//! as both its qubits are free, the earlier qubit idles until then, and
//! every qubit idles until the slowest one finishes and the common
//! measurement happens. [`timeline`] applies that rule in one pass and
//! emits the ordered event stream that the density executor and all
//! three trajectory routes replay:
//!
//! 1. an [`Event::Spam`] per qubit;
//! 2. a relaxation for each `Idle` block, zero-length ones included;
//! 3. each single-qubit waveform, followed by its relaxation;
//! 4. for a pair: the alignment relaxations (control first, only when
//!    greater than 0), then the pair, then the control's and the target's
//!    relaxation for the block's duration;
//! 5. a trailing relaxation for each qubit that finishes before the end
//!    (only when greater than 0).

use crate::device::DeviceModel;
use crate::executor::{Block, ExecError, LoweredProgram};
use crate::twoqubit::CrPair;
use quant_pulse::{Channel, Schedule, Waveform};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One event of a program's timeline.
#[derive(Debug)]
pub(crate) enum Event<'p> {
    /// Thermal SPAM (imperfect reset) on one qubit.
    Spam(u32),
    /// Thermal relaxation: an index into [`Timeline::relax`].
    Relax(usize),
    /// One single-qubit waveform on the qubit's drive channel.
    Play {
        qubit: u32,
        waveform: Cow<'p, Waveform>,
    },
    /// One two-qubit block, its execution-time CR integrator and control
    /// channel resolved from the device topology.
    Pair {
        control: u32,
        target: u32,
        pair: CrPair,
        channel: Channel,
        schedule: Cow<'p, Schedule>,
    },
}

/// A walked program.
pub(crate) struct Timeline<T> {
    /// Every event, as mapped by the walk's visitor, in program order.
    pub events: Vec<T>,
    /// The distinct `(qubit, samples)` relaxations, by index, in order of
    /// first use.
    pub relax: Vec<(u32, u64)>,
    /// When the slowest qubit finishes: the program's duration in `dt`.
    pub end: u64,
}

/// Walks `program` into its timeline, passing each event through `visit`
/// as soon as it is emitted.
///
/// Pairs are resolved lazily, in program order, in the same pass: the
/// first uncoupled pair (or pair without a control channel) is the error
/// returned, and `visit` has then seen exactly the events before it — so
/// a visitor that draws jitter consumes the same random stream whether or
/// not the program fails.
pub(crate) fn timeline<'p, T>(
    device: &DeviceModel,
    program: &'p LoweredProgram,
    mut visit: impl FnMut(Event<'p>) -> T,
) -> Result<Timeline<T>, ExecError> {
    let mut events = Vec::new();
    let mut emit = |event| events.push(visit(event));
    let mut ids = BTreeMap::new();
    let mut relax = Vec::new();
    let mut relax_id = |qubit: u32, samples: u64| {
        *ids.entry((qubit, samples)).or_insert_with(|| {
            relax.push((qubit, samples));
            relax.len() - 1
        })
    };

    for q in 0..program.num_qubits {
        emit(Event::Spam(q));
    }
    let mut cursor = vec![0u64; program.num_qubits as usize];
    for block in &program.blocks {
        match block {
            Block::Idle { qubit, duration } => {
                emit(Event::Relax(relax_id(*qubit, *duration)));
                cursor[*qubit as usize] += duration;
            }
            Block::Gate1Q { qubit, waveforms } => {
                for waveform in waveforms {
                    emit(Event::Play {
                        qubit: *qubit,
                        waveform: Cow::Borrowed(waveform),
                    });
                    emit(Event::Relax(relax_id(*qubit, waveform.duration())));
                    cursor[*qubit as usize] += waveform.duration();
                }
            }
            Block::Gate2Q {
                control,
                target,
                schedule,
            } => {
                let (control, target) = (*control, *target);
                let pair = device
                    .pair_exec(control, target)
                    .ok_or(ExecError::UncoupledPair { control, target })?;
                let channel = device
                    .control_channel(control, target)
                    .ok_or(ExecError::MissingControlChannel { control, target })?;
                let start = cursor[control as usize].max(cursor[target as usize]);
                for q in [control, target] {
                    let idle = start - cursor[q as usize];
                    if idle > 0 {
                        emit(Event::Relax(relax_id(q, idle)));
                    }
                    cursor[q as usize] = start;
                }
                emit(Event::Pair {
                    control,
                    target,
                    pair,
                    channel,
                    schedule: Cow::Borrowed(schedule),
                });
                let duration = schedule.duration();
                for q in [control, target] {
                    emit(Event::Relax(relax_id(q, duration)));
                    cursor[q as usize] += duration;
                }
            }
        }
    }
    let end = cursor.iter().copied().max().unwrap_or(0);
    for (q, &at) in (0u32..).zip(&cursor) {
        if end > at {
            emit(Event::Relax(relax_id(q, end - at)));
        }
    }
    Ok(Timeline { events, relax, end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_pulse::Constant;

    fn pulse(duration: u64) -> Waveform {
        Constant { duration, amp: 0.1 }.waveform("p")
    }

    fn pair_schedule(duration: u64) -> Schedule {
        let mut s = Schedule::new("cr");
        s.append(quant_pulse::Instruction::Play {
            waveform: pulse(duration),
            channel: Channel::Control(0),
        });
        s
    }

    /// An event with the payloads the walk does not compute reduced to
    /// what identifies them.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Spam(u32),
        Relax(usize),
        Play(u32, u64),
        Pair(u32, u32, Channel),
    }

    fn seen(event: Event<'_>) -> Seen {
        match event {
            Event::Spam(q) => Seen::Spam(q),
            Event::Relax(id) => Seen::Relax(id),
            Event::Play { qubit, waveform } => Seen::Play(qubit, waveform.duration()),
            Event::Pair {
                control,
                target,
                channel,
                ..
            } => Seen::Pair(control, target, channel),
        }
    }

    #[test]
    fn walk_aligns_pairs_as_soon_as_possible_and_pads_to_the_end() {
        // ideal(3) couples 0↔1 and 1↔2, both directions.
        let device = DeviceModel::ideal(3);
        let program = LoweredProgram {
            num_qubits: 3,
            blocks: vec![
                Block::Idle {
                    qubit: 2,
                    duration: 0,
                },
                Block::Gate1Q {
                    qubit: 0,
                    waveforms: vec![pulse(32)],
                },
                // q0 is at 32, q1 at 0: only q1 waits.
                Block::Gate2Q {
                    control: 1,
                    target: 0,
                    schedule: pair_schedule(64),
                },
                // Both at 96: no alignment.
                Block::Gate2Q {
                    control: 0,
                    target: 1,
                    schedule: pair_schedule(64),
                },
                Block::Gate1Q {
                    qubit: 0,
                    waveforms: vec![pulse(32)],
                },
            ],
            schedule: Schedule::new("walk"),
        };
        let line = timeline(&device, &program, seen).unwrap();
        let ch = |c, t| device.control_channel(c, t).unwrap();
        assert_eq!(
            line.events,
            vec![
                Seen::Spam(0),
                Seen::Spam(1),
                Seen::Spam(2),
                Seen::Relax(0), // q2 idles 0
                Seen::Play(0, 32),
                Seen::Relax(1), // q0 for the pulse
                Seen::Relax(2), // q1 waits for q0
                Seen::Pair(1, 0, ch(1, 0)),
                Seen::Relax(3), // q1 for the pair
                Seen::Relax(4), // q0 for the pair
                Seen::Pair(0, 1, ch(0, 1)),
                Seen::Relax(4),
                Seen::Relax(3),
                Seen::Play(0, 32),
                Seen::Relax(1),
                // q1 and q2 wait for q0 before the common measurement.
                Seen::Relax(2),
                Seen::Relax(5),
            ]
        );
        assert_eq!(
            line.relax,
            vec![(2, 0), (0, 32), (1, 32), (1, 64), (0, 64), (2, 192)]
        );
        assert_eq!(line.end, 192);
    }

    #[test]
    fn first_uncoupled_pair_in_program_order_is_the_error() {
        let device = DeviceModel::ideal(3);
        let pair = |control, target| Block::Gate2Q {
            control,
            target,
            schedule: pair_schedule(16),
        };
        let program = LoweredProgram {
            num_qubits: 3,
            blocks: vec![
                Block::Gate1Q {
                    qubit: 0,
                    waveforms: vec![pulse(16)],
                },
                pair(0, 2),
                pair(2, 0),
            ],
            schedule: Schedule::new("bad"),
        };
        let mut visited = Vec::new();
        let err = timeline(&device, &program, |e| visited.push(seen(e))).err();
        assert_eq!(
            err,
            Some(ExecError::UncoupledPair {
                control: 0,
                target: 2
            })
        );
        // The visitor saw everything before the bad pair, and nothing after.
        assert_eq!(
            visited,
            vec![
                Seen::Spam(0),
                Seen::Spam(1),
                Seen::Spam(2),
                Seen::Play(0, 16),
                Seen::Relax(0),
            ]
        );
    }
}
