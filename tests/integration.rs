//! Workspace integration tests: full kernels executed on the simulated
//! array and platform through the `Session` runtime, checked against the
//! golden DSP models across crate boundaries.

use vwr2a::core::Vwr2a;
use vwr2a::dsp::complex::Complex;
use vwr2a::dsp::fft::fft;
use vwr2a::dsp::fir::{design_lowpass, fir_q15};
use vwr2a::dsp::fixed::{from_q16, to_q16, Q15};
use vwr2a::energy::fft_accel_energy;
use vwr2a::fftaccel::FftAccelerator;
use vwr2a::kernels::fft::{FftKernel, RealFftKernel};
use vwr2a::kernels::fir::FirKernel;
use vwr2a::kernels::Spectrum;
use vwr2a::runtime::{Kernel, Session};

#[test]
fn vwr2a_fft_matches_the_golden_model_end_to_end() {
    let n = 512;
    let signal: Vec<Complex> = (0..n)
        .map(|i| Complex::new(0.3 * (i as f64 * 0.11).sin(), 0.2 * (i as f64 * 0.07).cos()))
        .collect();
    let input = Spectrum::new(
        signal.iter().map(|c| to_q16(c.re)).collect(),
        signal.iter().map(|c| to_q16(c.im)).collect(),
    );

    let kernel = FftKernel::new(n).expect("512-point complex FFT supported");
    let mut session = Session::new();
    let (spectrum, _) = session.run(&kernel, &input).expect("kernel runs");
    let reference = fft(&signal).expect("reference FFT");
    for (k, r) in reference.iter().enumerate() {
        assert!(
            (from_q16(spectrum.re[k]) - r.re).abs() < 0.25,
            "bin {k} real part"
        );
        assert!(
            (from_q16(spectrum.im[k]) - r.im).abs() < 0.25,
            "bin {k} imaginary part"
        );
    }
}

#[test]
fn vwr2a_and_fft_accelerator_have_comparable_cycles_but_different_energy() {
    // The central comparison of the paper for isolated kernels (Table 2,
    // Fig. 2): similar performance, several-times-higher energy for the
    // programmable core.
    let n = 512;
    let signal: Vec<f64> = (0..n)
        .map(|i| 0.4 * (std::f64::consts::TAU * 9.0 * i as f64 / n as f64).sin())
        .collect();

    let engine = FftAccelerator::new();
    let (_, accel_stats) = engine.run_real(&signal).expect("accelerator runs");

    let kernel = RealFftKernel::new(n).expect("supported");
    let mut session = Session::new();
    let q16: Vec<i32> = signal.iter().map(|&v| to_q16(v)).collect();
    let (_, report) = session.run(&kernel, q16.as_slice()).expect("kernel runs");

    let cycle_ratio = report.cycles as f64 / accel_stats.cycles as f64;
    assert!(
        cycle_ratio > 0.5 && cycle_ratio < 6.0,
        "cycle ratio {cycle_ratio} out of the expected band"
    );
    let energy_ratio = report.energy().total_uj() / fft_accel_energy(&accel_stats).total_uj();
    assert!(
        energy_ratio > 2.0 && energy_ratio < 20.0,
        "energy ratio {energy_ratio} out of the expected band"
    );
}

#[test]
fn fir_kernel_output_is_bit_close_to_the_cmsis_style_reference() {
    let n = 300; // deliberately not a multiple of the block size
    let taps_f = design_lowpass(11, 0.15).unwrap();
    let taps: Vec<i32> = taps_f.iter().map(|&v| Q15::from_f64(v).0 as i32).collect();
    let input: Vec<i32> = (0..n)
        .map(|i| (6000.0 * (i as f64 * 0.21).sin() + 2000.0 * (i as f64 * 0.017).cos()) as i32)
        .collect();

    let kernel = FirKernel::new(&taps, n).unwrap();
    let mut session = Session::new();
    let (output, _) = session.run(&kernel, input.as_slice()).unwrap();

    let taps_q: Vec<Q15> = taps.iter().map(|&t| Q15(t as i16)).collect();
    let input_q: Vec<Q15> = input.iter().map(|&v| Q15(v as i16)).collect();
    let reference = fir_q15(&taps_q, &input_q).unwrap();
    for (i, (o, r)) in output.iter().zip(reference.iter()).enumerate() {
        assert!((o - r.0 as i32).abs() <= 4, "sample {i}: {o} vs {}", r.0);
    }
}

#[test]
fn warm_reruns_cost_fewer_cycles_than_cold_firsts_across_kernels() {
    // The acceptance property of the Session runtime, demonstrated on two
    // very different kernels sharing one session.
    let mut session = Session::new();

    let taps: Vec<i32> = design_lowpass(11, 0.1)
        .unwrap()
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    let fir = FirKernel::new(&taps, 256).unwrap();
    let input: Vec<i32> = (0..256).map(|i| (i % 90) * 11 - 500).collect();
    let (out_cold, fir_cold) = session.run(&fir, input.as_slice()).unwrap();
    let (out_warm, fir_warm) = session.run(&fir, input.as_slice()).unwrap();
    assert_eq!(out_cold, out_warm);
    assert!(
        fir_warm.cycles < fir_cold.cycles,
        "FIR warm {} must beat cold {}",
        fir_warm.cycles,
        fir_cold.cycles
    );
    assert_eq!(fir_cold.cold_launches, 1);
    assert_eq!(fir_warm.cold_launches, 0);

    let fft = FftKernel::new(256).unwrap();
    let signal = Spectrum::new(
        (0..256)
            .map(|i| to_q16(((i % 32) as f64 - 16.0) / 20.0))
            .collect(),
        vec![0i32; 256],
    );
    let (_, fft_cold) = session.run(&fft, &signal).unwrap();
    let (_, fft_warm) = session.run(&fft, &signal).unwrap();
    assert!(
        fft_warm.cycles < fft_cold.cycles,
        "FFT warm {} must beat cold {}",
        fft_warm.cycles,
        fft_cold.cycles
    );
    assert_eq!(fft_warm.counters.config_words_loaded, 0);
}

#[test]
fn batched_windows_are_bit_identical_to_independent_cold_runs() {
    let taps: Vec<i32> = design_lowpass(11, 0.12)
        .unwrap()
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    let kernel = FirKernel::new(&taps, 256).unwrap();
    let windows: Vec<Vec<i32>> = (0..6)
        .map(|w| {
            (0..256)
                .map(|i| (5000.0 * ((i + 31 * w) as f64 * 0.13).sin()) as i32)
                .collect()
        })
        .collect();

    let mut session = Session::new();
    let (batched, report) = session
        .run_batch(&kernel, windows.iter().map(Vec::as_slice))
        .unwrap();
    assert_eq!(report.invocations, 6);
    assert_eq!(report.cold_launches, 1, "only the first window loads");

    for (window, batch_out) in windows.iter().zip(&batched) {
        let (cold_out, _) = Session::new().run(&kernel, window.as_slice()).unwrap();
        assert_eq!(&cold_out, batch_out, "batch output must match a cold run");
    }
}

#[test]
fn constrained_config_memory_serves_a_mixed_workload_bit_identically() {
    // Residency acceptance scenario: four FIR kernels with different
    // baked-in taps (four distinct configuration-memory programs), but a
    // configuration memory sized to hold only two of them.  A
    // 100-invocation mixed workload must complete with outputs
    // bit-identical to an unconstrained session — the session evicts cold
    // programs (visible in `RunReport::evictions`) instead of ever failing
    // with `ConfigMemoryFull`, and pays cold reloads only after evictions.
    let n = 128;
    let tap_sets: Vec<Vec<i32>> = [0.08, 0.12, 0.2, 0.3]
        .iter()
        .map(|&fc| {
            design_lowpass(11, fc)
                .unwrap()
                .iter()
                .map(|&v| Q15::from_f64(v).0 as i32)
                .collect()
        })
        .collect();
    let kernels: Vec<FirKernel> = tap_sets
        .iter()
        .map(|taps| FirKernel::new(taps, n).unwrap())
        .collect();
    let program_words = 2 * kernels[0]
        .program(&vwr2a::core::Geometry::paper())
        .unwrap()
        .config_words();

    let mut geometry = vwr2a::core::Geometry::paper();
    geometry.config_words = program_words; // two of the four programs fit
    let mut constrained = Session::with_accelerator(Vwr2a::with_geometry(geometry).unwrap());
    let mut unconstrained = Session::new();

    let mut cold_total = 0;
    let mut evictions_total = 0;
    for i in 0..100 {
        let kernel = &kernels[i % kernels.len()];
        let input: Vec<i32> = (0..n)
            .map(|s| (4000.0 * ((s + 13 * i) as f64 * 0.17).sin()) as i32)
            .collect();
        let (out_c, report) = constrained
            .run(kernel, input.as_slice())
            .expect("capacity pressure must never fail the run");
        let (out_u, _) = unconstrained.run(kernel, input.as_slice()).unwrap();
        assert_eq!(out_c, out_u, "invocation {i} diverged under pressure");
        if i >= kernels.len() {
            assert!(
                report.cold_launches == 0 || evictions_total > 0,
                "invocation {i} went cold without a preceding eviction"
            );
        }
        cold_total += report.cold_launches;
        evictions_total += report.evictions;
    }
    assert!(evictions_total > 0, "4 programs in 2 slots must evict");
    assert!(
        cold_total <= kernels.len() as u64 + evictions_total,
        "every extra cold launch must be paid for by an eviction"
    );
    assert_eq!(constrained.evictions(), evictions_total);
    assert_eq!(unconstrained.evictions(), 0, "roomy memory never evicts");
}

#[test]
fn pipelined_stream_overlaps_phases_with_bit_identical_outputs() {
    // The pipelined-execution acceptance scenario: for a ≥4-window
    // `run_stream`, the overlapped wall clock is strictly below the sum of
    // per-window DMA-in + compute + DMA-out cycles, while the outputs stay
    // bit-identical to `run_batch` and to isolated synchronous runs.
    let taps: Vec<i32> = design_lowpass(11, 0.1)
        .unwrap()
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    let kernel = FirKernel::new(&taps, 256).unwrap();
    let windows: Vec<Vec<i32>> = (0..5)
        .map(|w| {
            (0..256)
                .map(|i| (7000.0 * ((i + 41 * w) as f64 * 0.093).sin()) as i32)
                .collect()
        })
        .collect();

    let mut session = Session::new();
    let mut streamed: Vec<Vec<i32>> = Vec::new();
    let report = session
        .run_stream(&kernel, windows.iter().map(Vec::as_slice), |out| {
            streamed.push(out);
            Ok(())
        })
        .unwrap();

    // `cycles` is exactly the pre-pipelining synchronous model: the sum of
    // each window's staging, configuration, compute and drain cycles.
    assert!(
        report.wall_cycles < report.cycles,
        "pipelined wall clock {} must beat the serial phase sum {}",
        report.wall_cycles,
        report.cycles
    );
    assert!(report.overlap_ratio() > 0.0);
    // The completion interrupts are modelled on top of the serial sum.
    assert!(report.serial_cycles() > report.cycles);
    // No work disappears into the overlap: per-engine busy cycles add up
    // to the serial model.
    assert_eq!(
        report.busy.dma + report.busy.compute + report.busy.config_load,
        report.cycles
    );

    // Bit-identical to run_batch through a fresh session...
    let (batched, batch_report) = Session::new()
        .run_batch(&kernel, windows.iter().map(Vec::as_slice))
        .unwrap();
    assert_eq!(streamed, batched);
    // The batch path is the same pipelined engine: identical schedule.
    assert_eq!(batch_report.wall_cycles, report.wall_cycles);
    // ...and to isolated synchronous runs.
    for (window, out) in windows.iter().zip(&streamed) {
        let (isolated, single) = Session::new().run(&kernel, window.as_slice()).unwrap();
        assert_eq!(&isolated, out);
        // A single invocation cannot overlap: its wall clock equals its
        // serial schedule.
        assert_eq!(single.wall_cycles, single.serial_cycles());
        assert_eq!(single.overlap_ratio(), 0.0);
    }
}

#[test]
fn runtime_reexports_cover_tuning_without_a_core_dependency() {
    // The schedule types are reachable through `vwr2a::runtime` alone, so
    // session users can inspect schedules without depending on vwr2a-core
    // directly.
    use vwr2a::runtime::{Occupancy, StreamSchedule, WindowPhases};

    let mut schedule = StreamSchedule::new();
    for _ in 0..4 {
        let phases = WindowPhases {
            stage: 100,
            config: 0,
            compute: 400,
            drain: 100,
        };
        schedule.push(phases, 0);
    }
    let (wall_cycles, occupancy): (u64, Occupancy) = schedule.finish();
    assert!(wall_cycles < occupancy.total());
    assert_eq!(occupancy.compute, 1600);
}

#[test]
fn fleet_pool_serves_a_mixed_fir_workload_bit_identically_and_warmer() {
    // The fleet acceptance scenario: four FIR programs over a two-array
    // pool with two-program configuration memories.  Every placement
    // strategy must produce outputs bit-identical to serial single-session
    // execution, and the residency-aware scheduler must pay strictly fewer
    // cold reloads than round-robin on the same job list.
    use vwr2a::runtime::pool::{CostAware, Pool, ResidencyAware, RoundRobin};

    let n = 256;
    let kernels: Vec<FirKernel> = [0.06, 0.12, 0.2, 0.3]
        .iter()
        .map(|&fc| {
            let taps: Vec<i32> = design_lowpass(11, fc)
                .unwrap()
                .iter()
                .map(|&v| Q15::from_f64(v).0 as i32)
                .collect();
            FirKernel::new(&taps, n).unwrap()
        })
        .collect();
    let picks = [0usize, 1, 2, 3, 2, 0, 1, 3, 0, 2, 3, 1];
    let jobs: Vec<(usize, Vec<Vec<i32>>)> = picks
        .iter()
        .enumerate()
        .map(|(j, &pick)| {
            let windows = (0..3)
                .map(|w| {
                    (0..n)
                        .map(|i| (4800.0 * ((i + 19 * (j + w)) as f64 * 0.151).sin()) as i32)
                        .collect()
                })
                .collect();
            (pick, windows)
        })
        .collect();

    let (serial, _) = Pool::run_serial_reference(
        jobs.iter()
            .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
    )
    .unwrap();

    let program_words = kernels[0]
        .program(&vwr2a::core::Geometry::paper())
        .unwrap()
        .config_words();
    let make_pool = || {
        Pool::with_sessions(vwr2a::runtime::testing::constrained_sessions(
            2,
            2 * program_words,
        ))
        .expect("constrained sessions share one geometry")
    };
    let check = |mut pool: Pool| {
        let name = pool.placement_name();
        let (outputs, fleet) = pool
            .run_batch(
                jobs.iter()
                    .map(|(pick, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
            )
            .unwrap();
        assert_eq!(outputs, serial, "{name} diverged from serial execution");
        fleet
    };
    let cost_aware = check(make_pool().with_placement(CostAware::default()));
    let residency_aware = check(make_pool().with_placement(ResidencyAware));
    let round_robin = check(make_pool().with_placement(RoundRobin));

    assert!(
        residency_aware.cold_reloads() < round_robin.cold_reloads(),
        "residency-aware {} cold reloads must beat round-robin {}",
        residency_aware.cold_reloads(),
        round_robin.cold_reloads()
    );
    assert_eq!(residency_aware.evictions(), 0, "the fleet holds the set");
    assert!(round_robin.evictions() > 0, "4 programs thrash 2 slots");
    assert!(residency_aware.wall_cycles() <= round_robin.wall_cycles());
    // The fleet wall clock is the slowest array, and the fan-out beats
    // running the same jobs serially on one array lane.
    for array in &residency_aware.arrays {
        assert!(array.report.wall_cycles <= residency_aware.wall_cycles());
    }
    assert!(residency_aware.wall_cycles() < residency_aware.serial_cycles());

    // The PR-5 acceptance on the same workload: cost-aware placement with
    // speculative prefetch pays no cold reloads at all (every reload was
    // staged off the critical path) and finishes the fleet strictly
    // earlier than the prefetch-less residency-aware scheduler.
    assert_eq!(cost_aware.cold_reloads(), 0, "all reloads prefetched");
    assert!(cost_aware.prefetched() >= 4, "one stage per program placed");
    assert!(
        cost_aware.cold_reloads() < residency_aware.cold_reloads(),
        "prefetch must beat residency-aware cold reloads"
    );
    assert!(
        cost_aware.wall_cycles() < residency_aware.wall_cycles(),
        "cost-aware wall {} must beat residency-aware {}",
        cost_aware.wall_cycles(),
        residency_aware.wall_cycles()
    );
}

#[test]
fn online_server_meets_deadlines_with_bit_identical_outputs() {
    // The serving acceptance scenario: a multi-tenant arrival stream over
    // the constrained two-array fleet.  Whatever the admission queue and
    // the stealing pass decide, the outputs must equal serial execution,
    // the latency ledger must decompose consistently, and the per-tenant
    // totals must add up to the stream.
    use vwr2a::runtime::pool::Pool;
    use vwr2a::runtime::{ServeJob, Server, WeightedFair};

    let n = 256;
    let kernels: Vec<FirKernel> = [0.06, 0.12, 0.2, 0.3]
        .iter()
        .map(|&fc| {
            let taps: Vec<i32> = design_lowpass(11, fc)
                .unwrap()
                .iter()
                .map(|&v| Q15::from_f64(v).0 as i32)
                .collect();
            FirKernel::new(&taps, n).unwrap()
        })
        .collect();
    let jobs: Vec<(usize, u32, u64, Vec<Vec<i32>>)> = (0..10)
        .map(|j| {
            let windows = (0..1 + j % 3)
                .map(|w| {
                    (0..n)
                        .map(|i| (5200.0 * ((i + 23 * (j + w)) as f64 * 0.131).sin()) as i32)
                        .collect()
                })
                .collect();
            (j % kernels.len(), (j % 3) as u32, 400 * j as u64, windows)
        })
        .collect();

    let (serial, _) = Pool::run_serial_reference(
        jobs.iter()
            .map(|(pick, _, _, ws)| (&kernels[*pick], ws.iter().map(Vec::as_slice))),
    )
    .unwrap();

    let program_words = kernels[0]
        .program(&vwr2a::core::Geometry::paper())
        .unwrap()
        .config_words();
    let pool = Pool::with_sessions(vwr2a::runtime::testing::constrained_sessions(
        2,
        2 * program_words,
    ))
    .expect("constrained sessions share one geometry");
    let mut server = Server::new(pool).with_policy(WeightedFair::new());
    let (outputs, report) = server
        .run_batch(jobs.iter().map(|(pick, tenant, arrival, ws)| {
            ServeJob::new(
                &kernels[*pick],
                ws.iter().map(Vec::as_slice),
                *tenant,
                *arrival,
            )
            .with_deadline(arrival + 1_000_000)
        }))
        .unwrap();
    assert_eq!(outputs, serial, "serving diverged from serial execution");

    assert_eq!(report.latencies.len(), jobs.len());
    for latency in &report.latencies {
        assert_eq!(
            latency.queue_cycles + latency.service_cycles,
            latency.total,
            "job {} latency must decompose exactly",
            latency.job
        );
        assert!(latency.deadline_met, "the slack is far beyond the makespan");
    }
    assert_eq!(report.deadline_misses(), 0);
    assert!(report.p50() <= report.p95() && report.p95() <= report.p99());
    let tenants = report.tenants();
    assert_eq!(tenants.iter().map(|t| t.jobs).sum::<u64>(), 10);
    assert_eq!(
        report.fleet.invocations(),
        jobs.iter()
            .map(|(_, _, _, ws)| ws.len() as u64)
            .sum::<u64>()
    );
    // The report narrates itself (percentiles, misses, steals).
    assert!(format!("{report}").contains("p99"));
}

#[test]
fn facade_root_reexports_the_fleet_api() {
    // Applications can reach the whole scheduling surface from `vwr2a`
    // alone: session, kernel trait, pool, strategies, plans and reports.
    use vwr2a::{CostAware, Placement, PlacementPlan, Pool, ResidencyAware, Session};

    let mut session: Session = Session::new();
    let taps: Vec<i32> = design_lowpass(5, 0.2)
        .unwrap()
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    let kernel = FirKernel::new(&taps, 128).unwrap();
    let window = vec![250i32; 128];
    let (serial, run_report): (Vec<i32>, vwr2a::RunReport) =
        session.run(&kernel, window.as_slice()).unwrap();
    assert!(run_report.cycles > 0);

    let mut pool: Pool = Pool::new(2);
    assert_eq!(pool.placement_name(), CostAware::default().name());
    let windows = [window.clone(), window.clone()];
    let (outputs, fleet): (_, vwr2a::FleetReport) = pool
        .run_batch([(&kernel, windows.iter().map(Vec::as_slice))])
        .unwrap();
    assert_eq!(outputs[0][0], serial);
    assert_eq!(fleet.cold_reloads(), 0, "the default strategy prefetches");
    assert_eq!(fleet.prefetched(), 1);

    // The plan vocabulary itself is part of the facade.
    let plan: PlacementPlan = PlacementPlan::with_prefetch(0);
    assert!(plan.prefetch);
    assert_eq!(ResidencyAware.name(), "residency-aware");

    // So is the heterogeneous backend vocabulary: the backend set, its
    // kinds, the offload declaration and the one eligibility rule — an
    // offload backend serves a job when its model prices a window.
    use vwr2a::{Backend, BackendKind, CpuBackend, FftBackend, Offload};
    assert_eq!(BackendKind::Array.label(), "array");
    assert_eq!(
        Backend::from(FftBackend::new()).kind(),
        BackendKind::FftAccel
    );
    let cpu = Backend::from(CpuBackend::new());
    assert_eq!(cpu.window_cycles(&Offload::default()), None);
    let crumb = Offload {
        cpu_cycles: Some(900),
        ..Offload::default()
    };
    assert_eq!(cpu.window_cycles(&crumb), Some(900));
    let hetero: Pool = Pool::new(1).with_backend(FftBackend::new());
    assert_eq!(hetero.arrays(), 2, "the fleet counts every backend");
    assert!(matches!(hetero.backend(1), Some(Backend::Fft(_))));

    // The serving layer is reachable from the facade root too: server,
    // job, policies and the latency report vocabulary.
    use vwr2a::{
        EarliestDeadlineFirst, Fifo, SchedPolicy, ServeJob, ServeReport, Server, TenantId,
        WeightedFair,
    };
    let tenant: TenantId = 1;
    let mut server: Server = Server::new(Pool::new(2)).with_policy(WeightedFair::new());
    let (served, serve_report): (_, ServeReport) = server
        .run_batch([
            ServeJob::new(&kernel, windows.iter().map(Vec::as_slice), tenant, 0),
            ServeJob::new(&kernel, windows.iter().map(Vec::as_slice), 2, 50)
                .with_priority(1)
                .with_deadline(2_000_000),
        ])
        .unwrap();
    assert_eq!(served[0][0], serial);
    assert_eq!(serve_report.latencies.len(), 2);
    assert_eq!(serve_report.deadline_misses(), 0);
    assert_eq!(Fifo.name(), "fifo");
    assert_eq!(EarliestDeadlineFirst.name(), "edf");
    assert_eq!(server.policy_name(), "weighted-fair");
}

#[test]
fn fft_adapts_to_a_one_column_geometry() {
    // The stage flow declares a one-column minimum and adapts to whatever
    // the geometry offers; a 512-point transform (two blocks per stage)
    // must still be bit-exact when the blocks run sequentially on one
    // column.
    let mut geometry = vwr2a::core::geometry::Geometry::paper();
    geometry.columns = 1;
    let accel = Vwr2a::with_geometry(geometry).unwrap();
    let mut session = Session::with_accelerator(accel);

    let n = 512;
    let input = Spectrum::new(
        (0..n)
            .map(|i| to_q16(((i % 40) as f64 - 20.0) / 25.0))
            .collect(),
        vec![0i32; n],
    );
    let kernel = FftKernel::new(n).unwrap();
    let (narrow, _) = session.run(&kernel, &input).unwrap();

    let (wide, _) = Session::new().run(&kernel, &input).unwrap();
    assert_eq!(narrow, wide, "one-column result must match two-column");
}

#[test]
fn sessions_accept_custom_accelerators() {
    // The ablation path: a session around a custom-geometry accelerator.
    let accel = Vwr2a::new();
    let mut session = Session::with_accelerator(accel);
    let taps: Vec<i32> = design_lowpass(5, 0.2)
        .unwrap()
        .iter()
        .map(|&v| Q15::from_f64(v).0 as i32)
        .collect();
    let kernel = FirKernel::new(&taps, 128).unwrap();
    let input = vec![1000i32; 128];
    let (output, report) = session.run(&kernel, input.as_slice()).unwrap();
    assert_eq!(output.len(), 128);
    assert!(report.cycles > 0);
    assert_eq!(session.loaded_programs(), 1);
}

#[test]
fn assembled_programs_run_on_the_simulator() {
    // Cross-crate check: text assembly -> column program -> execution on a
    // session's accelerator.
    let program = vwr2a::asm::assemble_column(
        "
            lsu load.vwr a, 0
        ---
            mxcu setidx 3
        ---
            rc0 mov vwr.b, vwr.a
        ---
            lsu store.vwr b, 1
        ---
            lcu exit
        ",
    )
    .expect("assembles");
    let kernel = vwr2a::core::program::KernelProgram::new("copy-word", vec![program]).unwrap();
    let mut session = Session::new();
    let accel = session.accelerator_mut();
    accel
        .spm_mut()
        .write_line(0, &(100..228).collect::<Vec<i32>>())
        .unwrap();
    accel.run_program(&kernel).unwrap();
    // RC0's slice starts at word 0; index 3 selects word 3.
    assert_eq!(accel.spm().read_line(1).unwrap()[3], 103);
}
