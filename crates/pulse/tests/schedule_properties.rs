//! Randomized property tests of the pulse IR's algebraic laws.
//!
//! Seeded-loop style (the environment is offline, so no proptest): each
//! test draws random pulse shapes from a deterministic RNG and asserts the
//! same invariants the original property suite checked.

use quant_math::{seeded, C64};
use quant_pulse::{
    Channel, Constant, Drag, Gaussian, GaussianSquare, Instruction, Schedule, ScheduleBuilder,
    Waveform,
};
use rand::Rng;

const CASES: usize = 96;

fn rand_gaussian(rng: &mut impl Rng) -> Gaussian {
    // Physical shapes only: σ between duration/6 and duration/4 (real
    // calibrated pulses are ~4σ long); σ ≫ duration makes the lifted
    // envelope degenerate.
    let duration = rng.gen_range(16u64..256);
    let amp = rng.gen_range(0.01..0.9);
    let s = rng.gen_range(0.0..1.0);
    Gaussian {
        duration,
        amp,
        sigma: duration as f64 / 6.0 + s * duration as f64 / 12.0,
    }
}

fn rand_gaussian_square(rng: &mut impl Rng) -> GaussianSquare {
    let sigma = rng.gen_range(8.0..24.0);
    let amp = rng.gen_range(0.05..0.9);
    let width = rng.gen_range(0u64..600);
    GaussianSquare {
        duration: (8.0 * sigma) as u64 + width,
        amp,
        sigma,
        width,
    }
}

#[test]
fn amplitude_scaling_is_linear() {
    let mut rng = seeded(0x21);
    for _ in 0..CASES {
        let g = rand_gaussian(&mut rng);
        let s = rng.gen_range(-1.0..1.0);
        let w = g.waveform("w");
        let scaled = w.scaled(s);
        assert!((scaled.area().re - w.area().re * s).abs() < 1e-9);
        assert_eq!(scaled.duration(), w.duration());
    }
}

#[test]
fn lifted_envelopes_start_and_end_near_zero() {
    let mut rng = seeded(0x22);
    for _ in 0..CASES {
        let g = rand_gaussian(&mut rng);
        // The lift zeroes the envelope one sample *outside* the window, so
        // the boundary samples are bounded by one sample of slope.
        let w = g.waveform("w");
        let s = w.samples();
        let bound = g.amp / g.sigma;
        assert!(s[0].abs() <= bound, "start = {} bound {bound}", s[0].abs());
        assert!(s[s.len() - 1].abs() <= bound);
        // And symmetric.
        assert!((s[0].re - s[s.len() - 1].re).abs() < 1e-9);
    }
}

#[test]
fn drag_imag_part_is_antisymmetric() {
    let mut rng = seeded(0x23);
    for _ in 0..CASES {
        let g = rand_gaussian(&mut rng);
        let beta = rng.gen_range(-3.0..3.0);
        let d = Drag {
            duration: g.duration,
            amp: g.amp,
            sigma: g.sigma,
            beta,
        };
        let w = d.waveform("d");
        // Total imaginary area vanishes (odd function).
        assert!(w.area().im.abs() < 1e-8 * (1.0 + beta.abs()));
    }
}

#[test]
fn stretch_hits_requested_area() {
    let mut rng = seeded(0x24);
    for _ in 0..CASES {
        let gs = rand_gaussian_square(&mut rng);
        let f = rng.gen_range(0.05..2.5);
        let w0 = gs.waveform("a");
        let stretched = gs.stretched_area(f).waveform("b");
        let target = w0.area().re * f;
        // Rounding to whole samples bounds the error by one sample of
        // amplitude.
        assert!(
            (stretched.area().re - target).abs() <= gs.amp + 1e-9,
            "area {} vs target {target}",
            stretched.area().re
        );
    }
}

#[test]
fn flat_top_edges_render_each_stretch_like_the_full_render() {
    let mut rng = seeded(0x25);
    let bits = |w: &Waveform| -> Vec<u64> {
        w.samples()
            .iter()
            .flat_map(|s| [s.re.to_bits(), s.im.to_bits()])
            .collect()
    };
    for case in 0..CASES {
        // Odd and even `duration − width`, so the ramps meet the flat top
        // at whole and at half samples.
        let mut gs = rand_gaussian_square(&mut rng);
        gs.duration += rng.gen_range(0u64..2);
        let edges = gs.edges();
        // Compressions down to the small-angle branch, and stretches.
        for f in [0.0, 1e-3, rng.gen_range(0.0..0.3), rng.gen_range(0.3..3.0)] {
            let stretched = edges.stretched_area(f);
            assert_eq!(stretched, gs.stretched_area(f), "case {case} f={f}");
            let full = stretched.waveform("h");
            let got = edges.render_scaled(&stretched, "h", [-1.0, 1.0, 0.5]);
            for (g, factor) in got.iter().zip([-1.0, 1.0, 0.5]) {
                let want = full.scaled(factor);
                assert_eq!(bits(g), bits(&want), "case {case} f={f} ×{factor}");
                assert_eq!(g.peak().to_bits(), want.peak().to_bits());
                assert_eq!(g.name(), want.name());
            }
        }
    }
}

#[test]
fn behind_phases_is_prepending_last_first() {
    let pool = [
        Channel::Drive(0),
        Channel::Drive(1),
        Channel::Control(0),
        Channel::Control(1),
    ];
    let mut rng = seeded(0x26);
    for _ in 0..CASES {
        let entry = rand_fragment(&mut rng, &pool);
        let phases: Vec<(Channel, f64)> = (0..rng.gen_range(0usize..4))
            .map(|_| (rand_channel(&mut rng, &pool), rng.gen_range(-3.0..3.0)))
            .collect();
        let mut want = entry.clone();
        for &(channel, phase) in phases.iter().rev() {
            want.prepend(Instruction::ShiftPhase { phase, channel });
        }
        let got = entry.behind_phases(phases.iter().copied());
        assert_eq!(got, want);
        assert_index_matches_scan(&got, &pool, 0);
    }
}

#[test]
fn schedule_append_durations_add() {
    let mut rng = seeded(0x25);
    for _ in 0..CASES {
        let g1 = rand_gaussian(&mut rng);
        let g2 = rand_gaussian(&mut rng);
        let mut s = Schedule::new("s");
        let ch = Channel::Drive(0);
        s.append(Instruction::Play {
            waveform: g1.waveform("a"),
            channel: ch,
        });
        s.append(Instruction::Play {
            waveform: g2.waveform("b"),
            channel: ch,
        });
        assert_eq!(s.duration(), g1.duration + g2.duration);
    }
}

#[test]
fn parallel_channels_do_not_serialize() {
    let mut rng = seeded(0x26);
    for _ in 0..CASES {
        let g1 = rand_gaussian(&mut rng);
        let g2 = rand_gaussian(&mut rng);
        let mut s = Schedule::new("s");
        s.append(Instruction::Play {
            waveform: g1.waveform("a"),
            channel: Channel::Drive(0),
        });
        s.append(Instruction::Play {
            waveform: g2.waveform("b"),
            channel: Channel::Drive(1),
        });
        assert_eq!(s.duration(), g1.duration.max(g2.duration));
    }
}

#[test]
fn append_schedule_never_shrinks() {
    let mut rng = seeded(0x27);
    for _ in 0..CASES {
        let g1 = rand_gaussian(&mut rng);
        let g2 = rand_gaussian(&mut rng);
        let mut a = Schedule::new("a");
        a.append(Instruction::Play {
            waveform: g1.waveform("a"),
            channel: Channel::Drive(0),
        });
        let before = a.duration();
        let mut b = Schedule::new("b");
        b.append(Instruction::Play {
            waveform: g2.waveform("b"),
            channel: Channel::Drive(0),
        });
        a.append_schedule(&b);
        assert!(a.duration() >= before);
        assert_eq!(a.duration(), g1.duration + g2.duration);
    }
}

#[test]
fn shift_phase_keeps_duration() {
    let mut rng = seeded(0x28);
    for _ in 0..CASES {
        let g = rand_gaussian(&mut rng);
        let phase = rng.gen_range(-6.3..6.3);
        let mut s = Schedule::new("s");
        let ch = Channel::Drive(0);
        s.append(Instruction::ShiftPhase { phase, channel: ch });
        s.append(Instruction::Play {
            waveform: g.waveform("w"),
            channel: ch,
        });
        s.append(Instruction::ShiftPhase {
            phase: -phase,
            channel: ch,
        });
        assert_eq!(s.duration(), g.duration);
        assert_eq!(s.pulse_count(), 1);
    }
}

#[test]
fn scaled_complex_preserves_magnitudes() {
    let mut rng = seeded(0x29);
    for _ in 0..CASES {
        let g = rand_gaussian(&mut rng);
        let phi = rng.gen_range(-6.3..6.3);
        let w = g.waveform("w");
        let rotated = w.scaled_complex(quant_math::C64::cis(phi));
        for (a, b) in w.samples().iter().zip(rotated.samples()) {
            assert!((a.abs() - b.abs()).abs() < 1e-12);
        }
    }
}

/// Brute-force end of one channel: a scan of every instruction.
fn scan_channel_end(s: &Schedule, ch: Channel) -> u64 {
    s.instructions()
        .iter()
        .filter(|ti| ti.instruction.channel() == ch)
        .map(|ti| ti.start + ti.instruction.duration())
        .max()
        .unwrap_or(0)
}

fn rand_channel(rng: &mut impl Rng, pool: &[Channel]) -> Channel {
    pool[rng.gen_range(0..pool.len())]
}

fn rand_instruction(rng: &mut impl Rng, pool: &[Channel]) -> Instruction {
    let channel = rand_channel(rng, pool);
    match rng.gen_range(0..5) {
        0 | 1 => Instruction::Play {
            waveform: Constant {
                duration: rng.gen_range(1u64..48),
                amp: rng.gen_range(-0.9..0.9),
            }
            .waveform("p"),
            channel,
        },
        2 => Instruction::ShiftPhase {
            phase: rng.gen_range(-3.0..3.0),
            channel,
        },
        3 => Instruction::Delay {
            duration: rng.gen_range(0u64..40),
            channel,
        },
        _ => Instruction::Acquire {
            duration: rng.gen_range(1u64..40),
            qubit: 0,
            channel,
        },
    }
}

/// A short random schedule over the channel pool (used as the operand of
/// `append_schedule` / `insert_schedule`).
fn rand_fragment(rng: &mut impl Rng, pool: &[Channel]) -> Schedule {
    let mut f = Schedule::new("frag");
    for _ in 0..rng.gen_range(0..5) {
        let i = rand_instruction(rng, pool);
        if rng.gen_bool(0.5) {
            f.append(i);
        } else {
            f.insert(rng.gen_range(0u64..64), i);
        }
    }
    f
}

fn assert_index_matches_scan(s: &Schedule, pool: &[Channel], step: usize) {
    let starts: Vec<u64> = s.instructions().iter().map(|ti| ti.start).collect();
    assert!(
        starts.windows(2).all(|w| w[0] <= w[1]),
        "step {step}: starts out of order {starts:?}"
    );
    for &ch in pool {
        assert_eq!(
            s.channel_duration(ch),
            scan_channel_end(s, ch),
            "step {step}: channel {ch}"
        );
    }
    let scan_total = s
        .instructions()
        .iter()
        .map(|ti| ti.start + ti.instruction.duration())
        .max()
        .unwrap_or(0);
    assert_eq!(s.duration(), scan_total, "step {step}: duration");
    let mut scan_channels: Vec<Channel> = s
        .instructions()
        .iter()
        .map(|ti| ti.instruction.channel())
        .collect();
    scan_channels.sort();
    scan_channels.dedup();
    assert_eq!(
        s.channels().collect::<Vec<_>>(),
        scan_channels,
        "step {step}: channels"
    );
}

#[test]
fn channel_index_matches_brute_force_scan() {
    let mut rng = seeded(0x2a);
    let all = [
        Channel::Drive(0),
        Channel::Drive(1),
        Channel::Drive(2),
        Channel::Control(0),
        Channel::Control(1),
        Channel::Measure(0),
        Channel::Acquire(0),
    ];
    for _ in 0..CASES {
        let k = rng.gen_range(2usize..7);
        let start = rng.gen_range(0..all.len() - k + 1);
        let pool = &all[start..start + k];
        let mut s = Schedule::new("s");
        for step in 0..rng.gen_range(1usize..40) {
            match rng.gen_range(0..7) {
                0 => {
                    let i = rand_instruction(&mut rng, pool);
                    s.insert(rng.gen_range(0u64..200), i);
                }
                1 => s.prepend(rand_instruction(&mut rng, pool)),
                2 => s.append(rand_instruction(&mut rng, pool)),
                3 => {
                    let barrier: Vec<Channel> = (0..rng.gen_range(0..3))
                        .map(|_| rand_channel(&mut rng, pool))
                        .collect();
                    s.append_after(rand_instruction(&mut rng, pool), &barrier);
                }
                4 => s.append_schedule(&rand_fragment(&mut rng, pool)),
                5 => {
                    let offset = rng.gen_range(0u64..100);
                    s.insert_schedule(offset, &rand_fragment(&mut rng, pool));
                }
                _ => s = s.shifted(rng.gen_range(0u64..50)),
            }
            assert_index_matches_scan(&s, pool, step);
        }
    }
}

#[test]
fn builder_matches_sequential_inserts() {
    // ScheduleBuilder appends and sorts once; the result, and every
    // alignment query on the way, must equal the mid-vector inserts.
    let mut rng = seeded(0x2c);
    let pool = [Channel::Drive(0), Channel::Drive(1), Channel::Control(0)];
    for _ in 0..CASES {
        let mut want = Schedule::new("s");
        let mut builder = ScheduleBuilder::new("s");
        for step in 0..rng.gen_range(0usize..40) {
            match rng.gen_range(0..3) {
                // Few distinct starts, so ties are common.
                0 => {
                    let (start, i) = (
                        rng.gen_range(0u64..8) * 10,
                        rand_instruction(&mut rng, &pool),
                    );
                    want.insert(start, i.clone());
                    builder.insert(start, i);
                }
                1 => {
                    let i = rand_instruction(&mut rng, &pool);
                    want.append(i.clone());
                    builder.append(i);
                }
                _ => {
                    let (offset, f) = (rng.gen_range(0u64..100), rand_fragment(&mut rng, &pool));
                    want.insert_schedule(offset, &f);
                    builder.insert_schedule(offset, &f);
                }
            }
            for &ch in &pool {
                assert_eq!(
                    builder.channel_duration(ch),
                    want.channel_duration(ch),
                    "step {step}: channel {ch}"
                );
            }
        }
        assert_eq!(builder.build(), want);
    }
}

#[test]
fn append_variants_start_where_the_scan_says() {
    let mut rng = seeded(0x2b);
    let pool = [Channel::Drive(0), Channel::Drive(1), Channel::Control(0)];
    for _ in 0..CASES {
        let mut s = rand_fragment(&mut rng, &pool);
        let barrier = [rand_channel(&mut rng, &pool), rand_channel(&mut rng, &pool)];
        let i = rand_instruction(&mut rng, &pool);
        let expect = barrier
            .iter()
            .chain(std::iter::once(&i.channel()))
            .map(|&c| scan_channel_end(&s, c))
            .max()
            .unwrap_or(0);
        let before = s.instructions().len();
        s.append_after(i.clone(), &barrier);
        // Ties go after existing instructions at the same start, so the
        // new one is the last at `expect`.
        let pos = s
            .instructions()
            .iter()
            .rposition(|ti| ti.start == expect)
            .expect("appended instruction present");
        assert_eq!(s.instructions().len(), before + 1);
        assert_eq!(s.instructions()[pos].instruction, i);
    }
}

/// Brute-force peak: a scan of every sample's modulus.
fn scan_peak(w: &Waveform) -> f64 {
    w.samples().iter().map(|s| s.abs()).fold(0.0, f64::max)
}

#[test]
fn recorded_peak_matches_sample_scan_on_every_path() {
    let mut rng = seeded(0x2c);
    let empty = Waveform::new("empty", Vec::new());
    assert_eq!(empty.peak().to_bits(), 0.0f64.to_bits());
    assert_eq!(
        Constant {
            duration: 0,
            amp: 0.5
        }
        .waveform("c")
        .peak()
        .to_bits(),
        0
    );
    for _ in 0..CASES {
        let g = rand_gaussian(&mut rng);
        let d = Drag {
            duration: g.duration,
            amp: g.amp,
            sigma: g.sigma,
            beta: rng.gen_range(-3.0..3.0),
        };
        let base = d.waveform("d");
        let factor = rng.gen_range(-1.0..1.0);
        let z = C64::cis(rng.gen_range(-6.3..6.3)) * rng.gen_range(0.0..1.0);
        let raw: Vec<C64> = base.samples().iter().map(|&s| s * 0.5).collect();
        let cases = [
            g.waveform("g"),
            base.clone(),
            d.waveform_detuned("dd", rng.gen_range(-0.05..0.05)),
            rand_gaussian_square(&mut rng).waveform("gs"),
            Constant {
                duration: rng.gen_range(1u64..64),
                amp: rng.gen_range(-1.0..1.0),
            }
            .waveform("c"),
            base.scaled(factor),
            base.scaled_complex(z),
            base.reversed_conj(),
            base.renamed("other"),
            Waveform::new("raw", raw),
        ];
        for w in &cases {
            assert_eq!(
                w.peak().to_bits(),
                scan_peak(w).to_bits(),
                "{}: recorded {} vs scanned {}",
                w.name(),
                w.peak(),
                scan_peak(w)
            );
        }
    }
}

#[test]
fn clones_and_renames_share_samples() {
    let w = Drag {
        duration: 64,
        amp: 0.4,
        sigma: 16.0,
        beta: 0.5,
    }
    .waveform("w");
    let c = w.clone();
    let r = w.renamed("r");
    assert_eq!(r.name(), "r");
    assert!(std::ptr::eq(w.samples(), c.samples()));
    assert!(std::ptr::eq(w.samples(), r.samples()));
    assert_eq!(r.samples(), w.samples());
}
