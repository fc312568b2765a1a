//! Workspace-level property-based tests on the core invariants.

use proptest::prelude::*;
use vwr2a::core::geometry::Geometry;
use vwr2a::core::geometry::VwrId;
use vwr2a::core::isa::encode::{
    decode_lcu, decode_lsu, decode_mxcu, decode_rc, encode_lcu, encode_lsu, encode_mxcu, encode_rc,
};
use vwr2a::core::isa::{
    LcuCond, LcuInstr, LcuSrc, LsuAddr, LsuInstr, MxcuInstr, RcDst, RcInstr, RcOpcode, RcSrc,
    ShuffleOp,
};
use vwr2a::core::shuffle::apply;
use vwr2a::dsp::complex::Complex;
use vwr2a::dsp::fft::{fft, ifft};
use vwr2a::dsp::fir::fir_f64;
use vwr2a::dsp::fixed::{from_q16, mul_fxp, to_q16};
use vwr2a::fftaccel::FftAccelerator;
use vwr2a::kernels::fft::FftKernel;
use vwr2a::kernels::Spectrum;
use vwr2a::runtime::pool::{CostAware, Objective, Placement, Pool, ResidencyAware, RoundRobin};
use vwr2a::runtime::testing::{constrained_sessions, BakedScaleKernel};
use vwr2a::runtime::{
    ArcPolicy, EarliestDeadlineFirst, Fifo, FleetReport, Kernel, SchedPolicy, ServeJob,
    WeightedFair,
};
use vwr2a::soc::cpu::Cpu;
use vwr2a::soc::sram::Sram;
use vwr2a::{BackendKind, CpuBackend, FftBackend};

/// The kernel palette of the pool properties: four distinct
/// configuration-memory programs.
fn pool_kernels() -> Vec<BakedScaleKernel> {
    [2i16, 3, 5, 7]
        .iter()
        .map(|&f| BakedScaleKernel::new(f))
        .collect()
}

/// Builds a `(kernel pick, windows)` job list from a random mix.
fn pool_jobs(mix: &[(usize, usize, i32)]) -> Vec<(usize, Vec<Vec<i32>>)> {
    mix.iter()
        .map(|&(pick, windows, seed)| {
            (
                pick,
                (0..windows)
                    .map(|w| (0..64).map(|i| i + seed + 13 * w as i32).collect())
                    .collect(),
            )
        })
        .collect()
}

/// Fans the job list across a two-array pool whose configuration memories
/// hold two programs each (the four-program palette does not fit one
/// array), returning the outputs grouped by job and the fleet report.
fn run_pool(
    jobs: &[(usize, Vec<Vec<i32>>)],
    placement: impl Placement + 'static,
) -> (Vec<Vec<Vec<i32>>>, FleetReport) {
    let kernels = pool_kernels();
    let program_words = kernels[0]
        .program(&Geometry::paper())
        .unwrap()
        .config_words();
    let mut pool = Pool::with_sessions(constrained_sessions(2, 2 * program_words))
        .expect("constrained sessions share one geometry")
        .with_placement(placement);
    pool.run_batch(
        jobs.iter()
            .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
    )
    .expect("pool fan-out must absorb capacity pressure")
}

/// One random serve job: `(pick, windows, seed, arrival, tenant,
/// priority, deadline slack)` — slack 0 encodes "no deadline" (the
/// vendored proptest has no `Option` strategy).
type ServeMix = (usize, usize, i32, u64, u32, u8, u64);

/// Serves the random mix through a two-array `Server` under the given
/// policy, returning the outputs grouped by submission order.
fn run_server(
    mix: &[ServeMix],
    policy: impl SchedPolicy + 'static,
    stealing: bool,
) -> Vec<Vec<Vec<i32>>> {
    let kernels = pool_kernels();
    let job_list = pool_jobs(
        &mix.iter()
            .map(|&(pick, windows, seed, ..)| (pick, windows, seed))
            .collect::<Vec<_>>(),
    );
    let program_words = kernels[0]
        .program(&Geometry::paper())
        .unwrap()
        .config_words();
    let pool = Pool::with_sessions(constrained_sessions(2, 2 * program_words))
        .expect("constrained sessions share one geometry");
    let mut server = vwr2a::runtime::Server::new(pool)
        .with_policy(policy)
        .with_stealing(stealing);
    let (outputs, report) = server
        .run_batch(job_list.iter().zip(mix).map(
            |((pick, ws), &(_, _, _, arrival, tenant, priority, slack))| ServeJob {
                kernel: &kernels[*pick],
                windows: ws.iter().map(Vec::as_slice),
                tenant,
                arrival_cycle: arrival,
                priority,
                deadline_cycle: (slack > 0).then(|| arrival + slack),
            },
        ))
        .expect("serving must absorb capacity pressure");
    assert_eq!(report.latencies.len(), job_list.len());
    outputs
}

/// As [`run_server`], but with the whole-queue lookahead planner enabled
/// (affinity batching, pipelined prefetch, needed-soon eviction shielding)
/// over ARC adaptive eviction, placed by the given cost objective.
fn run_planned_server(
    mix: &[ServeMix],
    policy: impl SchedPolicy + 'static,
    stealing: bool,
    objective: Objective,
) -> Vec<Vec<Vec<i32>>> {
    let kernels = pool_kernels();
    let job_list = pool_jobs(
        &mix.iter()
            .map(|&(pick, windows, seed, ..)| (pick, windows, seed))
            .collect::<Vec<_>>(),
    );
    let program_words = kernels[0]
        .program(&Geometry::paper())
        .unwrap()
        .config_words();
    let mut sessions = constrained_sessions(2, 2 * program_words);
    for session in &mut sessions {
        session.set_eviction_policy(ArcPolicy::new());
    }
    let pool = Pool::with_sessions(sessions)
        .expect("constrained sessions share one geometry")
        .with_placement(CostAware::with_objective(objective));
    let mut server = vwr2a::runtime::Server::new(pool)
        .with_policy(policy)
        .with_stealing(stealing)
        .with_lookahead(true);
    let (outputs, report) = server
        .run_batch(job_list.iter().zip(mix).map(
            |((pick, ws), &(_, _, _, arrival, tenant, priority, slack))| ServeJob {
                kernel: &kernels[*pick],
                windows: ws.iter().map(Vec::as_slice),
                tenant,
                arrival_cycle: arrival,
                priority,
                deadline_cycle: (slack > 0).then(|| arrival + slack),
            },
        ))
        .expect("planned serving must absorb capacity pressure");
    assert_eq!(report.latencies.len(), job_list.len());
    outputs
}

/// A heterogeneous fleet: two full arrays, the FFT engine and the host CPU.
fn hetero_pool(placement: impl Placement + 'static) -> Pool {
    Pool::new(2)
        .with_backend(FftBackend::new())
        .with_backend(CpuBackend::new())
        .with_placement(placement)
}

/// The scale-kernel palette with an advertised host-CPU fallback, so the
/// placement strategies may legally route any job to the CPU backend.
fn hetero_kernels() -> Vec<BakedScaleKernel> {
    [2i16, 3, 5, 7]
        .iter()
        .map(|&f| BakedScaleKernel::new(f).with_cpu_offload(600))
        .collect()
}

/// Checks a heterogeneous wave of scale jobs against each landed backend's
/// own serial model: array-landed jobs must equal the single-session serial
/// reference, CPU-landed jobs must equal a fresh-ISS run of every window,
/// and the FFT engine must never see a job whose kernel has no FFT shape.
fn check_hetero_scale_outputs(
    tag: &str,
    outputs: &[Vec<Vec<i32>>],
    fleet: &FleetReport,
    job_list: &[(usize, Vec<Vec<i32>>)],
    kernels: &[BakedScaleKernel],
    serial: &[Vec<Vec<i32>>],
) {
    assert_eq!(
        fleet.routes.len(),
        job_list.len(),
        "{tag}: every job is routed exactly once"
    );
    for route in &fleet.routes {
        let (pick, windows) = &job_list[route.job];
        match route.kind {
            BackendKind::FftAccel => {
                panic!("{tag}: scale job {} landed on the FFT engine", route.job)
            }
            BackendKind::Array => assert_eq!(
                outputs[route.job], serial[route.job],
                "{tag}: array-landed job {} diverged from the serial reference",
                route.job
            ),
            BackendKind::Cpu => {
                let expected: Vec<Vec<i32>> = windows
                    .iter()
                    .map(|w| {
                        kernels[*pick]
                            .execute_cpu(&mut Cpu::new(), &mut Sram::paper(), w)
                            .expect("the CPU model accepts every window it was routed")
                            .0
                    })
                    .collect();
                assert_eq!(
                    outputs[route.job], expected,
                    "{tag}: CPU-landed job {} diverged from a fresh ISS run",
                    route.job
                );
            }
        }
    }
}

/// Checks the energy attribution invariant on one wave: each job's routed
/// joules sum *exactly* (integer nanojoules, no float drift) to its landed
/// kind's execution total, and the kinds plus non-job-attributed prefetch
/// staging sum to the fleet total.
fn check_energy_attribution(tag: &str, fleet: &FleetReport) {
    let kinds = fleet.per_kind();
    for stats in &kinds {
        let routed: u64 = fleet
            .routes
            .iter()
            .filter(|r| r.kind == stats.kind)
            .map(|r| r.energy_nj)
            .sum();
        assert_eq!(
            routed,
            stats.energy_nj - stats.prefetch_energy_nj,
            "{tag}: {} job joules must sum to the kind's execution total",
            stats.kind.label()
        );
    }
    assert_eq!(
        kinds.iter().map(|k| k.energy_nj).sum::<u64>(),
        fleet.energy_nj(),
        "{tag}: kind totals must sum to the fleet total"
    );
    let routed: u64 = fleet.routes.iter().map(|r| r.energy_nj).sum();
    let prefetch: u64 = kinds.iter().map(|k| k.prefetch_energy_nj).sum();
    assert_eq!(
        routed + prefetch,
        fleet.energy_nj(),
        "{tag}: job joules plus prefetch staging must sum to the fleet total"
    );
    assert!(fleet.energy_nj() > 0, "{tag}: real work costs real joules");
}

/// Deterministic q15.16 spectra for the FFT routing property.
fn fft_windows(windows: usize, seed: i32) -> Vec<Spectrum> {
    (0..windows)
        .map(|w| {
            let re = (0..256)
                .map(|i: i32| (i * 37 + seed * 11 + w as i32 * 13) % 20_000)
                .collect();
            let im = (0..256)
                .map(|i: i32| (i * 53 + seed * 7 - w as i32 * 29) % 20_000)
                .collect();
            Spectrum::new(re, im)
        })
        .collect()
}

/// Fans the scale-job list across the heterogeneous fleet.
fn run_hetero_pool(
    job_list: &[(usize, Vec<Vec<i32>>)],
    kernels: &[BakedScaleKernel],
    placement: impl Placement + 'static,
) -> (Vec<Vec<Vec<i32>>>, FleetReport) {
    let mut pool = hetero_pool(placement);
    pool.run_batch(
        job_list
            .iter()
            .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
    )
    .expect("heterogeneous pool fan-out runs")
}

/// Serves the random mix through the heterogeneous fleet under the given
/// policy, returning outputs grouped by submission order plus the report.
fn run_hetero_server(
    mix: &[ServeMix],
    kernels: &[BakedScaleKernel],
    job_list: &[(usize, Vec<Vec<i32>>)],
    policy: impl SchedPolicy + 'static,
    stealing: bool,
) -> (Vec<Vec<Vec<i32>>>, vwr2a::ServeReport) {
    let mut server = vwr2a::runtime::Server::new(hetero_pool(CostAware::default()))
        .with_policy(policy)
        .with_stealing(stealing);
    server
        .run_batch(job_list.iter().zip(mix).map(
            |((pick, ws), &(_, _, _, arrival, tenant, priority, slack))| ServeJob {
                kernel: &kernels[*pick],
                windows: ws.iter().map(Vec::as_slice),
                tenant,
                arrival_cycle: arrival,
                priority,
                deadline_cycle: (slack > 0).then(|| arrival + slack),
            },
        ))
        .expect("heterogeneous serving runs")
}

/// Caps a random RC instruction at one SRF access (the SRF is
/// single-ported, so a row with more is a static structural hazard):
/// surplus SRF operands become the zero source, keeping the row legal
/// while preserving the instruction's shape otherwise.
fn cap_srf_accesses(mut instr: RcInstr) -> RcInstr {
    let mut used = matches!(instr.dst, RcDst::Srf(_));
    if matches!(instr.src_a, RcSrc::Srf(_)) {
        if used {
            instr.src_a = RcSrc::Zero;
        } else {
            used = true;
        }
    }
    if matches!(instr.src_b, RcSrc::Srf(_)) && used {
        instr.src_b = RcSrc::Zero;
    }
    instr
}

/// One body row of a random replay kernel.
#[derive(Debug, Clone, Copy)]
enum BodyRow {
    /// An RC instruction (on RC `row % 4`).
    Rc(RcInstr),
    /// An in-kernel bump of a line pointer: a schedule-derived SRF write.
    Bump { srf: u8, imm: i16 },
    /// Move the MXCU index by `step`, then store it into an SRF entry:
    /// another schedule-derived write.
    StoreIdx { srf: u8, step: i16 },
    /// Load word `entry` of the pointer table into an SRF entry: a data
    /// write.
    LoadSrf { srf: u8, entry: u16 },
}

/// SPM word address of an 8-word table of in-range line pointers that the
/// replay property rewrites every step, so pointers the random kernels
/// `LoadSrf` (data) usually address a valid line — and change between
/// launches.
const POINTER_TABLE: u16 = 8184;

fn arb_body_row() -> impl Strategy<Value = BodyRow> {
    prop_oneof![
        arb_rc_instr().prop_map(BodyRow::Rc),
        arb_rc_instr().prop_map(BodyRow::Rc),
        (6u8..8, -2i16..3).prop_map(|(srf, imm)| BodyRow::Bump { srf, imm }),
        (0u8..8, -3i16..4).prop_map(|(srf, step)| BodyRow::StoreIdx { srf, step }),
        (4u8..8, 0u16..8).prop_map(|(srf, entry)| BodyRow::LoadSrf { srf, entry }),
    ]
}

/// Builds a single-column kernel around a random body: the VWR loads and
/// the final stores take their line addresses from `SRF[6]`/`SRF[7]`
/// (addressing parameters the replay cache must guard), while the body's
/// own SRF reads and writes land anywhere — including on those pointers.
/// RC results and `LoadSrf` words written there exercise the recorder's
/// write-then-consume poisoning; `AddSrf` bumps and `StoreIdxSrf` writes
/// exercise the schedule-derived entries that replay.
fn replay_kernel(name: &str, body: &[BodyRow]) -> vwr2a::core::KernelProgram {
    use vwr2a::core::builder::ColumnProgramBuilder;
    let mut b = ColumnProgramBuilder::new(4);
    b.push(b.row().lsu(LsuInstr::LoadVwr {
        vwr: VwrId::A,
        line: LsuAddr::Srf(6),
    }));
    b.push(b.row().lsu(LsuInstr::LoadVwr {
        vwr: VwrId::B,
        line: LsuAddr::Imm(0),
    }));
    for (i, row) in body.iter().enumerate() {
        let row = match *row {
            BodyRow::Rc(instr) => b.row().rc(i % 4, cap_srf_accesses(instr)),
            BodyRow::Bump { srf, imm } => b.row().lsu(LsuInstr::AddSrf { srf, imm }),
            BodyRow::StoreIdx { srf, step } => {
                b.push(b.row().mxcu(MxcuInstr::AddIdx(step)));
                b.row().mxcu(MxcuInstr::StoreIdxSrf(srf))
            }
            BodyRow::LoadSrf { srf, entry } => b.row().lsu(LsuInstr::LoadSrf {
                srf,
                word: LsuAddr::Imm(POINTER_TABLE + entry),
            }),
        };
        b.push(row);
    }
    b.push(b.row().lsu(LsuInstr::StoreVwr {
        vwr: VwrId::C,
        line: LsuAddr::Srf(7),
    }));
    b.push(b.row().lsu(LsuInstr::StoreVwr {
        vwr: VwrId::A,
        line: LsuAddr::Srf(6),
    }));
    b.push_exit();
    vwr2a::core::KernelProgram::new(name.to_string(), vec![b.build().unwrap()]).unwrap()
}

fn arb_rc_src() -> impl Strategy<Value = RcSrc> {
    prop_oneof![
        Just(RcSrc::Zero),
        any::<i16>().prop_map(RcSrc::Imm),
        (0u8..2).prop_map(RcSrc::Reg),
        (0usize..3).prop_map(|i| RcSrc::Vwr(VwrId::from_index(i))),
        (0u8..8).prop_map(RcSrc::Srf),
        Just(RcSrc::RcAbove),
        Just(RcSrc::RcBelow),
        Just(RcSrc::SelfPrev),
    ]
}

fn arb_rc_instr() -> impl Strategy<Value = RcInstr> {
    let op = prop_oneof![
        Just(RcOpcode::Nop),
        Just(RcOpcode::Mov),
        Just(RcOpcode::Add),
        Just(RcOpcode::Sub),
        Just(RcOpcode::Mul),
        Just(RcOpcode::MulFxp),
        Just(RcOpcode::And),
        Just(RcOpcode::Or),
        Just(RcOpcode::Xor),
        Just(RcOpcode::Sll),
        Just(RcOpcode::Sra),
        Just(RcOpcode::Min),
        Just(RcOpcode::Max),
        Just(RcOpcode::Sgt),
    ];
    let dst = prop_oneof![
        Just(RcDst::None),
        (0u8..2).prop_map(RcDst::Reg),
        (0usize..3).prop_map(|i| RcDst::Vwr(VwrId::from_index(i))),
        (0u8..8).prop_map(RcDst::Srf),
    ];
    (op, dst, arb_rc_src(), arb_rc_src()).prop_map(|(op, dst, a, b)| RcInstr::new(op, dst, a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rc_instruction_encoding_round_trips(instr in arb_rc_instr()) {
        let word = encode_rc(&instr).unwrap();
        prop_assert_eq!(decode_rc(word).unwrap(), instr);
    }

    #[test]
    fn lsu_lcu_mxcu_encoding_round_trips(
        vwr in 0usize..3,
        line in 0u16..64,
        srf in 0u8..8,
        imm in any::<i16>(),
        target in 0u16..64,
        value in any::<i32>(),
        shuffle in 0usize..8,
    ) {
        let lsu = [
            LsuInstr::LoadVwr { vwr: VwrId::from_index(vwr), line: LsuAddr::Imm(line) },
            LsuInstr::StoreVwr { vwr: VwrId::from_index(vwr), line: LsuAddr::Srf(srf) },
            LsuInstr::AddSrf { srf, imm },
            LsuInstr::Shuffle(ShuffleOp::ALL[shuffle]),
        ];
        for instr in lsu {
            prop_assert_eq!(decode_lsu(encode_lsu(&instr).unwrap()).unwrap(), instr);
        }
        let lcu = [
            LcuInstr::Li { r: srf % 4, value },
            LcuInstr::Branch { cond: LcuCond::Lt, a: srf % 4, b: LcuSrc::Imm(value), target },
            LcuInstr::Jump(target),
        ];
        for instr in lcu {
            prop_assert_eq!(decode_lcu(encode_lcu(&instr).unwrap()).unwrap(), instr);
        }
        let mxcu = [MxcuInstr::SetIdx(line), MxcuInstr::AddIdx(imm), MxcuInstr::LoadIdxSrf(srf)];
        for instr in mxcu {
            prop_assert_eq!(decode_mxcu(encode_mxcu(&instr).unwrap()).unwrap(), instr);
        }
    }

    #[test]
    fn isa_decoders_never_panic_and_round_trip_what_they_accept(
        word in any::<u64>(),
        width in 0u32..64,
    ) {
        // Uniform words rarely hit the narrow slot encodings, so each case
        // also decodes a copy truncated to its low `width` bits.
        for word in [word, word & ((1u64 << width) - 1)] {
            if let Ok(instr) = decode_rc(word) {
                let back = encode_rc(&instr).and_then(decode_rc).ok();
                prop_assert_eq!(back, Some(instr), "RC word {:#x}", word);
            }
            if let Ok(instr) = decode_lsu(word) {
                let back = encode_lsu(&instr).and_then(decode_lsu).ok();
                prop_assert_eq!(back, Some(instr), "LSU word {:#x}", word);
            }
            if let Ok(instr) = decode_mxcu(word) {
                let back = encode_mxcu(&instr).and_then(decode_mxcu).ok();
                prop_assert_eq!(back, Some(instr), "MXCU word {:#x}", word);
            }
            if let Ok(instr) = decode_lcu(word) {
                let back = encode_lcu(&instr).and_then(decode_lcu).ok();
                prop_assert_eq!(back, Some(instr), "LCU word {:#x}", word);
            }
        }
    }

    #[test]
    fn shuffle_interleave_and_prune_are_inverses(
        a in prop::collection::vec(any::<i32>(), 128),
        b in prop::collection::vec(any::<i32>(), 128),
    ) {
        let lower = apply(ShuffleOp::InterleaveLower, &a, &b, 32);
        let upper = apply(ShuffleOp::InterleaveUpper, &a, &b, 32);
        prop_assert_eq!(apply(ShuffleOp::EvenPrune, &lower, &upper, 32), a);
        prop_assert_eq!(apply(ShuffleOp::OddPrune, &lower, &upper, 32), b);
    }

    #[test]
    fn fft_round_trip_preserves_the_signal(
        values in prop::collection::vec(-1.0f64..1.0, 64),
    ) {
        let signal: Vec<Complex> = values.iter().map(|&v| Complex::new(v, -v * 0.5)).collect();
        let back = ifft(&fft(&signal).unwrap()).unwrap();
        for (a, b) in signal.iter().zip(back.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fir_is_linear(
        x in prop::collection::vec(-0.5f64..0.5, 64),
        y in prop::collection::vec(-0.5f64..0.5, 64),
    ) {
        let taps = [0.2, 0.3, 0.2, 0.1];
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let fx = fir_f64(&taps, &x).unwrap();
        let fy = fir_f64(&taps, &y).unwrap();
        let fsum = fir_f64(&taps, &sum).unwrap();
        for i in 0..x.len() {
            prop_assert!((fsum[i] - (fx[i] + fy[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn fixed_point_multiply_is_bounded_and_sign_correct(
        a in -1000.0f64..1000.0,
        b in -1.0f64..1.0,
    ) {
        let product = from_q16(mul_fxp(to_q16(a), to_q16(b)));
        prop_assert!((product - a * b).abs() < 0.05 + (a * b).abs() * 1e-3);
    }

    #[test]
    fn pipelined_schedules_never_lose_or_invent_work(
        phase_list in prop::collection::vec(
            (0u64..2_000, 0u64..500, 1u64..5_000, 0u64..2_000),
            8,
        ),
    ) {
        use vwr2a::runtime::{RunReport, StreamSchedule, WindowPhases};

        let mut schedule = StreamSchedule::new();
        let mut serial_phase_sum = 0u64;
        for &(stage, config, compute, drain) in &phase_list {
            let phases = WindowPhases { stage, config, compute, drain };
            serial_phase_sum += phases.total();
            schedule.push(phases, 0);
        }
        let (wall_cycles, occupancy) = schedule.finish();
        // Work is conserved: every scheduled phase cycle appears exactly
        // once in the per-engine occupancy...
        prop_assert_eq!(
            occupancy.config_load + occupancy.dma + occupancy.compute,
            serial_phase_sum
        );
        // ...the overlapped wall clock never beats the longest engine nor
        // exceeds the fully serial schedule...
        let busiest = [occupancy.config_load, occupancy.dma, occupancy.compute,
                       occupancy.interrupt].into_iter().max().unwrap();
        prop_assert!(wall_cycles >= busiest);
        prop_assert!(wall_cycles <= occupancy.total());
        // ...and the overlap ratio a report derives from the schedule
        // stays a valid fraction.
        let mut report = RunReport::new("stream");
        report.wall_cycles = wall_cycles;
        report.busy = occupancy;
        prop_assert!((0.0..=1.0).contains(&report.overlap_ratio()));
    }
}

proptest! {
    // A case costs well under a millisecond: run enough of them to reach
    // the rare row combinations (a loaded pointer, then bumped, then
    // addressed through).
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn replay_cache_is_invisible_under_random_kernels_params_and_evictions(
        bodies in prop::collection::vec(prop::collection::vec(arb_body_row(), 4), 3),
        body_lens in prop::collection::vec(1usize..5, 3),
        script in prop::collection::vec(
            (0usize..4, 0usize..8, -2_000i32..2_000, any::<bool>()),
            12,
        ),
        steps in 1usize..13,
    ) {
        // The replay tentpole's honesty property: drive accelerators with
        // the replay cache on (the default) and forced interpretation
        // through an identical random history of kernel loads, SRF
        // parameter writes (including writes to the guarded line pointers,
        // which must invalidate any trace recorded under the old value),
        // launches and slot evictions.  A third accelerator shares `on`'s
        // cache, so it replays traces `on` recorded — across its own
        // evictions and reloads.  After every step the machines must agree
        // on everything observable: the launch result, the lifetime
        // activity counters, the whole SPM and the whole column state.  The
        // cache may only ever change host wall-clock, never a modelled bit.
        use vwr2a::core::config_mem::KernelId;
        use vwr2a::core::Vwr2a;

        let mut on = Vwr2a::new();
        let mut off = Vwr2a::new();
        off.set_replay_enabled(false);
        let mut shared = Vwr2a::new();
        shared.share_replay_cache(on.replay_cache());
        let seed: Vec<i32> = (0..256).map(|i| (i * 31 - 300) % 997).collect();
        for accel in [&mut on, &mut off, &mut shared] {
            accel.dma_to_spm(&seed, 0).unwrap();
        }

        let kernels: Vec<_> = bodies
            .iter()
            .zip(&body_lens)
            .enumerate()
            .map(|(i, (body, &len))| replay_kernel(&format!("rand-{i}"), &body[..len]))
            .collect();
        let mut ids: Vec<Option<[KernelId; 3]>> = vec![None; kernels.len()];
        let lines = on.spm().lines();

        for &(pick, srf, value, evict) in &script[..steps] {
            let pick = pick % kernels.len();
            if evict {
                if let Some(loaded) = ids[pick].take() {
                    for (accel, id) in [&mut on, &mut off, &mut shared].into_iter().zip(loaded) {
                        accel.unload_kernel(id).unwrap();
                    }
                }
            }
            // SRF 6/7 are the kernels' line pointers: keep those in range
            // so the launches make progress; the rest is free-form data.
            let pointer = (value.unsigned_abs() as usize % lines) as i32;
            let value = if srf >= 6 { pointer } else { value };
            for accel in [&mut on, &mut off, &mut shared] {
                accel.write_srf(0, srf, value).unwrap();
                accel
                    .dma_to_spm(&[pointer], usize::from(POINTER_TABLE) + srf)
                    .unwrap();
            }
            if ids[pick].is_none() {
                ids[pick] = Some([&mut on, &mut off, &mut shared]
                    .map(|accel| accel.load_kernel(&kernels[pick]).unwrap()));
            }
            let [id_on, id_off, id_shared] = ids[pick].unwrap();
            let expected = off.run_kernel(id_off);
            for (accel, id) in [(&mut on, id_on), (&mut shared, id_shared)] {
                match (accel.run_kernel(id), &expected) {
                    (Ok(sa), Ok(sb)) => prop_assert_eq!(&sa, sb),
                    // A random body may compute an out-of-range line
                    // pointer; then every machine must fail identically.
                    (Err(ea), Err(eb)) => {
                        prop_assert_eq!(format!("{ea:?}"), format!("{eb:?}"))
                    }
                    (ra, rb) => prop_assert!(
                        false,
                        "replay on/off diverged: {:?} vs {:?}",
                        ra,
                        rb
                    ),
                }
                prop_assert_eq!(accel.counters(), off.counters());
                prop_assert_eq!(accel.spm(), off.spm());
                prop_assert_eq!(accel.column(0).unwrap(), off.column(0).unwrap());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pool_outputs_are_bit_identical_to_serial_execution(
        mix in prop::collection::vec((0usize..4, 1usize..4, -500i32..500), 8),
        jobs in 1usize..9,
    ) {
        // Random job mixes under genuine capacity pressure (4 programs,
        // 2-slot memories): for every placement strategy — including the
        // prefetching cost-aware default, whose speculative reloads must
        // stay invisible to the data path — the pool's outputs must equal
        // running every job serially, in submission order, on one fresh
        // session.  Placement, pipelining and prefetch must never change a
        // single bit.
        let kernels = pool_kernels();
        let job_list = pool_jobs(&mix[..jobs]);
        let (serial, _) = Pool::run_serial_reference(
            job_list
                .iter()
                .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
        )
        .expect("serial reference runs");

        let (cost_aware, cost_fleet) = run_pool(&job_list, CostAware::default());
        prop_assert_eq!(&cost_aware, &serial);
        // The prefetching strategy never pays a cold reload: every reload
        // was staged ahead of its launch.
        prop_assert_eq!(cost_fleet.cold_reloads(), 0);
        prop_assert_eq!(
            cost_fleet.warm_launches(),
            cost_fleet.invocations(),
            "every launch must find its program staged"
        );
        let (residency, _) = run_pool(&job_list, ResidencyAware);
        prop_assert_eq!(&residency, &serial);
        let (round_robin, _) = run_pool(&job_list, RoundRobin);
        prop_assert_eq!(&round_robin, &serial);
    }

    #[test]
    fn served_outputs_are_bit_identical_to_serial_execution(
        mix in prop::collection::vec(
            (0usize..4, 1usize..4, -500i32..500, 0u64..5_000, 0u32..3, 0u8..4, 0u64..3_000),
            8,
        ),
        jobs in 1usize..9,
    ) {
        // The serving layer's core honesty property: however the admission
        // queue reorders dispatches (FIFO, deadline-driven, deficit
        // round-robin), whatever priorities, arrival stamps and deadlines
        // the tenants attach, and whether or not the stealing pass
        // re-routes queued jobs between the arrays, the outputs must be
        // bit-identical to running every job serially in submission order
        // on one fresh session.  Scheduling moves when and where the work
        // runs — never what it computes.
        let mix = &mix[..jobs];
        let kernels = pool_kernels();
        let job_list = pool_jobs(
            &mix.iter()
                .map(|&(pick, windows, seed, ..)| (pick, windows, seed))
                .collect::<Vec<_>>(),
        );
        let (serial, _) = Pool::run_serial_reference(
            job_list
                .iter()
                .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
        )
        .expect("serial reference runs");

        for stealing in [false, true] {
            prop_assert_eq!(&run_server(mix, Fifo, stealing), &serial);
            prop_assert_eq!(&run_server(mix, EarliestDeadlineFirst, stealing), &serial);
            prop_assert_eq!(&run_server(mix, WeightedFair::new(), stealing), &serial);
        }
    }

    #[test]
    fn fleet_reports_conserve_work_and_bound_the_wall_clock(
        mix in prop::collection::vec((0usize..4, 1usize..4, -500i32..500), 8),
        jobs in 1usize..9,
    ) {
        // The fleet-level mirror of the schedule-conservation proptest:
        // arrays run concurrently, so the fleet wall clock is the maximum
        // per-array wall clock (never below any array, never below the
        // busiest engine), while the fleet busy cycles are the *sum* of
        // the per-array spans — no work may be lost or invented by the
        // merge, for any placement strategy.  With prefetch (the
        // cost-aware default) the speculative configuration streaming must
        // appear in both the ConfigLoad occupancy and the serial phase
        // sum, or the identity breaks.
        let job_list = pool_jobs(&mix[..jobs]);
        for fleet in [
            run_pool(&job_list, CostAware::default()).1,
            run_pool(&job_list, ResidencyAware).1,
            run_pool(&job_list, RoundRobin).1,
        ] {
            let max_wall = fleet
                .arrays
                .iter()
                .map(|a| a.report.wall_cycles)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(fleet.wall_cycles(), max_wall);
            let mut busy_sum = 0u64;
            for array in &fleet.arrays {
                prop_assert!(fleet.wall_cycles() >= array.report.wall_cycles);
                // Per-array work conservation: every phase cycle the
                // session accounted appears exactly once in the array's
                // engine occupancy (interrupt servicing rides on top).
                prop_assert_eq!(
                    array.report.busy.config_load
                        + array.report.busy.dma
                        + array.report.busy.compute,
                    array.report.cycles
                );
                prop_assert!(array.report.wall_cycles <= array.report.busy.total());
                busy_sum += array.report.busy.total();
            }
            prop_assert_eq!(fleet.busy().total(), busy_sum);
            prop_assert_eq!(fleet.serial_cycles(), busy_sum);
            prop_assert!((0.0..=1.0).contains(&fleet.occupancy()));
            prop_assert_eq!(
                fleet.invocations(),
                job_list.iter().map(|(_, ws)| ws.len() as u64).sum::<u64>()
            );
        }
    }

    #[test]
    fn hetero_outputs_are_bit_identical_per_landed_backend(
        mix in prop::collection::vec(
            (0usize..4, 1usize..4, -500i32..500, 0u64..5_000, 0u32..3, 0u8..4, 0u64..3_000),
            6,
        ),
        jobs in 1usize..7,
    ) {
        // The heterogeneous honesty property: on a fleet of two arrays, the
        // FFT engine and the host CPU, every placement strategy and every
        // serving policy (with and without stealing) may route a job
        // to any backend that can serve it — but the output of each
        // job must be bit-identical to the landed backend's own serial
        // model, and a backend must never receive a job it cannot serve.
        let mix = &mix[..jobs];
        let kernels = hetero_kernels();
        let job_list = pool_jobs(
            &mix.iter()
                .map(|&(pick, windows, seed, ..)| (pick, windows, seed))
                .collect::<Vec<_>>(),
        );
        let (serial, _) = Pool::run_serial_reference(
            job_list
                .iter()
                .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
        )
        .expect("serial reference runs");

        for (tag, fleet_run) in [
            ("pool/cost-aware", run_hetero_pool(&job_list, &kernels, CostAware::default())),
            ("pool/residency", run_hetero_pool(&job_list, &kernels, ResidencyAware)),
            ("pool/round-robin", run_hetero_pool(&job_list, &kernels, RoundRobin)),
        ] {
            let (outputs, fleet) = fleet_run;
            check_hetero_scale_outputs(tag, &outputs, &fleet, &job_list, &kernels, &serial);
        }
        for stealing in [false, true] {
            for (tag, served) in [
                ("serve/fifo", run_hetero_server(mix, &kernels, &job_list, Fifo, stealing)),
                (
                    "serve/edf",
                    run_hetero_server(mix, &kernels, &job_list, EarliestDeadlineFirst, stealing),
                ),
                (
                    "serve/wfq",
                    run_hetero_server(mix, &kernels, &job_list, WeightedFair::new(), stealing),
                ),
            ] {
                let (outputs, report) = served;
                check_hetero_scale_outputs(tag, &outputs, &report.fleet, &job_list, &kernels, &serial);
            }
        }
    }

    #[test]
    fn job_energy_sums_exactly_to_kind_and_fleet_totals(
        mix in prop::collection::vec(
            (0usize..4, 1usize..4, -500i32..500, 0u64..5_000, 0u32..3, 0u8..4, 0u64..3_000),
            6,
        ),
        jobs in 1usize..7,
    ) {
        // The energy ledger balances for every placement strategy (all
        // three CostAware objectives included), every serving policy, and
        // stealing on or off: per-job routed joules sum bit-exactly to
        // per-kind execution totals, and kinds (plus prefetch staging)
        // to the fleet total.  Integer nanojoule accounting is what makes
        // the equalities exact rather than within-epsilon.
        let mix = &mix[..jobs];
        let kernels = hetero_kernels();
        let job_list = pool_jobs(
            &mix.iter()
                .map(|&(pick, windows, seed, ..)| (pick, windows, seed))
                .collect::<Vec<_>>(),
        );
        for (tag, run) in [
            ("pool/cycles", run_hetero_pool(&job_list, &kernels, CostAware::default())),
            (
                "pool/edp",
                run_hetero_pool(
                    &job_list,
                    &kernels,
                    CostAware::with_objective(Objective::EnergyDelayProduct),
                ),
            ),
            (
                "pool/energy-deadline",
                run_hetero_pool(
                    &job_list,
                    &kernels,
                    CostAware::with_objective(Objective::EnergyUnderDeadline),
                ),
            ),
            ("pool/residency", run_hetero_pool(&job_list, &kernels, ResidencyAware)),
            ("pool/round-robin", run_hetero_pool(&job_list, &kernels, RoundRobin)),
        ] {
            let (_, fleet) = run;
            check_energy_attribution(tag, &fleet);
        }
        for stealing in [false, true] {
            for (tag, served) in [
                ("serve/fifo", run_hetero_server(mix, &kernels, &job_list, Fifo, stealing)),
                (
                    "serve/edf",
                    run_hetero_server(mix, &kernels, &job_list, EarliestDeadlineFirst, stealing),
                ),
                (
                    "serve/wfq",
                    run_hetero_server(mix, &kernels, &job_list, WeightedFair::new(), stealing),
                ),
            ] {
                let (_, report) = served;
                check_energy_attribution(&format!("{tag}/steal:{stealing}"), &report.fleet);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lookahead_planned_outputs_are_bit_identical_to_serial_execution(
        mix in prop::collection::vec(
            (0usize..4, 1usize..4, -500i32..500, 0u64..5_000, 0u32..3, 0u8..4, 0u64..3_000),
            8,
        ),
        jobs in 1usize..9,
    ) {
        // The lookahead planner's honesty property: affinity batching
        // reorders dispatches, pipelined prefetch stages configuration
        // words early, and the needed-soon shield redirects evictions —
        // yet under every scheduling policy, with and without stealing,
        // and under every placement objective, the served outputs must be
        // bit-identical to running every job serially in submission order
        // on one fresh session.  Planning moves when and where the work
        // runs — never what it computes.
        let mix = &mix[..jobs];
        let kernels = pool_kernels();
        let job_list = pool_jobs(
            &mix.iter()
                .map(|&(pick, windows, seed, ..)| (pick, windows, seed))
                .collect::<Vec<_>>(),
        );
        let (serial, _) = Pool::run_serial_reference(
            job_list
                .iter()
                .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
        )
        .expect("serial reference runs");

        for objective in [
            Objective::Cycles,
            Objective::EnergyDelayProduct,
            Objective::EnergyUnderDeadline,
        ] {
            for stealing in [false, true] {
                prop_assert_eq!(
                    &run_planned_server(mix, Fifo, stealing, objective),
                    &serial
                );
                prop_assert_eq!(
                    &run_planned_server(mix, EarliestDeadlineFirst, stealing, objective),
                    &serial
                );
                prop_assert_eq!(
                    &run_planned_server(mix, WeightedFair::new(), stealing, objective),
                    &serial
                );
            }
        }
    }

    #[test]
    fn fft_jobs_route_across_the_fleet_bit_identically(
        mix in prop::collection::vec((1usize..3, -120i32..120), 3),
        jobs in 1usize..4,
    ) {
        // FFT-shaped jobs may land on a CGRA array (bit-identical to the
        // serial single-session reference) or on the fixed-function engine
        // (bit-identical to the kernel's own accelerator model on fresh
        // hardware) — and nowhere else.  The two backends disagree
        // numerically (18-bit engine datapath vs q15.16 stage flow), which
        // is exactly why the comparison must follow the recorded routes.
        let kernel = FftKernel::new(256).unwrap();
        let job_list: Vec<Vec<Spectrum>> = mix[..jobs]
            .iter()
            .map(|&(windows, seed)| fft_windows(windows, seed))
            .collect();
        let (serial, _) =
            Pool::run_serial_reference(job_list.iter().map(|ws| (&kernel, ws.iter())))
                .expect("serial reference runs");

        let check = |tag: &str, outputs: &[Vec<Spectrum>], fleet: &FleetReport| {
            assert_eq!(fleet.routes.len(), job_list.len(), "{tag}: one route per job");
            for route in &fleet.routes {
                match route.kind {
                    BackendKind::Cpu => {
                        panic!("{tag}: FFT job {} landed on the CPU", route.job)
                    }
                    BackendKind::Array => assert_eq!(
                        outputs[route.job], serial[route.job],
                        "{tag}: array-landed job {} diverged",
                        route.job
                    ),
                    BackendKind::FftAccel => {
                        let expected: Vec<Spectrum> = job_list[route.job]
                            .iter()
                            .map(|w| {
                                kernel
                                    .execute_fft(&FftAccelerator::new(), w)
                                    .expect("the engine accepts every routed window")
                                    .0
                            })
                            .collect();
                        assert_eq!(
                            outputs[route.job], expected,
                            "{tag}: engine-landed job {} diverged",
                            route.job
                        );
                    }
                }
            }
        };

        for placement in ["cost-aware", "round-robin"] {
            let mut pool = match placement {
                "cost-aware" => hetero_pool(CostAware::default()),
                _ => hetero_pool(RoundRobin),
            };
            let (outputs, fleet) = pool
                .run_batch(job_list.iter().map(|ws| (&kernel, ws.iter())))
                .expect("heterogeneous pool absorbs the FFT wave");
            check(&format!("pool/{placement}"), &outputs, &fleet);
        }
        for stealing in [false, true] {
            let mut server = vwr2a::runtime::Server::new(hetero_pool(CostAware::default()))
                .with_policy(Fifo)
                .with_stealing(stealing);
            let (outputs, report) = server
                .run_batch(job_list.iter().enumerate().map(|(j, ws)| ServeJob {
                    kernel: &kernel,
                    windows: ws.iter(),
                    tenant: 0,
                    arrival_cycle: j as u64 * 1_000,
                    priority: 0,
                    deadline_cycle: None,
                }))
                .expect("heterogeneous serving absorbs the FFT wave");
            check(&format!("serve/steal:{stealing}"), &outputs, &report.fleet);
        }
    }
}
