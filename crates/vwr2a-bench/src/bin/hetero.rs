//! Heterogeneous fleet sweep: an FFT-heavy Poisson stream with tiny FIR
//! crumbs served by 2 CGRA arrays + the fixed-function FFT engine + the
//! Cortex-M4 host, against a 3-array CGRA-only baseline.
//!
//! The workload is the routing problem of Sec. 2's SoC in miniature: about
//! half the arrivals are 256-point complex FFT jobs — the engine's home
//! turf (roughly 3 k engine cycles vs 5–7 k on an array, with zero
//! configuration streaming) — and the rest are one-window FIR crumbs whose
//! taps differ job to job, so on a CGRA they keep paying configuration
//! reloads out of a constrained config memory, while the host CPU runs
//! them from plain SRAM with no reload at all.  Both fleets serve the
//! identical arrival-stamped stream through the admission queue (FIFO +
//! stealing) with the cost-aware placement doing the per-job routing.
//!
//! The point the sweep makes: a *device count* is not a *capability mix*.
//! The baseline has more arrays, but every job — FFT or crumb — competes
//! for the same kind of silicon; the heterogeneous fleet is smaller yet
//! finishes the wave earlier because each job lands on the backend whose
//! cost model actually favours it.  Outputs stay bit-identical to each
//! landed backend's own serial model, checked per recorded route.
//!
//! Every fleet row also reports its measured energy (µJ, priced from the
//! per-backend activity counters) and energy-delay product, and the same
//! heterogeneous fleet is served twice more — once under
//! [`Objective::Cycles`] and once under [`Objective::EnergyDelayProduct`],
//! with run queues deep enough that the objective sees every capable
//! backend (a full one is hidden from placement), and stealing off — to
//! isolate what the energy knob buys on the identical stream: the EDP
//! objective keeps queueing FFT jobs behind the ~10×-cheaper engine where
//! the cycles objective spills them onto the arrays the moment the engine
//! backlog grows.
//!
//! Run with `--smoke` for the fast CI configuration and `--seed N` to
//! re-seed the arrival process.  In every mode the binary *fails fast*
//! (non-zero exit) if the heterogeneous fleet does not finish the headline
//! stream in strictly fewer wall cycles *and* a strictly lower energy-delay
//! product than the arrays-only baseline, if the EDP objective does not
//! strictly cut the measured joules versus cycles-only placement, if any
//! output diverges from the landed backend's model, or if the engine and
//! the CPU both sat idle (no job routed off the arrays).
//!
//! `--windows K` multiplies every job's window count by `K` — a host-side
//! soak knob.  The arrival gap scales with `K`, so a soak serves the same
//! relative workload and every fleet-comparison gate runs at every `K`
//! (they used to be skipped for `K != 1`).  Host wall-clock per served
//! window is reported next to the modelled numbers.

use vwr2a_bench::{poisson_arrivals, time_host, SplitMix64};
use vwr2a_core::geometry::Geometry;
use vwr2a_dsp::fir::design_lowpass;
use vwr2a_dsp::fixed::Q15;
use vwr2a_fftaccel::{FftAccelStats, FftAccelerator};
use vwr2a_kernels::fft::FftKernel;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_kernels::Spectrum;
use vwr2a_runtime::pool::Pool;
use vwr2a_runtime::testing::constrained_sessions;
use vwr2a_runtime::{
    BackendKind, CostAware, CpuBackend, FftBackend, Fifo, FleetReport, Kernel, LaunchCtx,
    Objective, Offload, Resources, RuntimeError, ServeJob, ServeReport, Server,
};
use vwr2a_soc::cpu::Cpu;
use vwr2a_soc::sram::Sram;

/// Complex FFT length of the heavy jobs.
const FFT_POINTS: usize = 256;
/// Sample count of the tiny FIR crumbs.
const CRUMB_SAMPLES: usize = 48;
/// Distinct crumb tap sets: each is its own resident program on a CGRA.
const CRUMB_VARIANTS: usize = 6;

/// One palette entry: either an FFT stage or a FIR crumb, wrapped so a
/// single serve wave can mix both shapes (the runtime is generic over one
/// kernel type per wave).
enum MixKernel {
    Fft(FftKernel),
    Fir(FirKernel),
}

/// One window of the mixed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MixWindow {
    Spectrum(Spectrum),
    Samples(Vec<i32>),
}

/// One output of the mixed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MixOutput {
    Spectrum(Spectrum),
    Samples(Vec<i32>),
}

fn shape_mismatch(kernel: &MixKernel) -> RuntimeError {
    RuntimeError::invalid_input(format!(
        "window shape does not match the {} kernel",
        kernel.name()
    ))
}

impl Kernel for MixKernel {
    type Input = MixWindow;
    type Output = MixOutput;

    fn name(&self) -> &str {
        match self {
            MixKernel::Fft(k) => k.name(),
            MixKernel::Fir(k) => k.name(),
        }
    }

    fn cache_key(&self) -> String {
        match self {
            MixKernel::Fft(k) => k.cache_key(),
            MixKernel::Fir(k) => k.cache_key(),
        }
    }

    fn resources(&self) -> Resources {
        match self {
            MixKernel::Fft(k) => k.resources(),
            MixKernel::Fir(k) => k.resources(),
        }
    }

    fn program(&self, geometry: &Geometry) -> vwr2a_runtime::Result<vwr2a_core::KernelProgram> {
        match self {
            MixKernel::Fft(k) => k.program(geometry),
            MixKernel::Fir(k) => k.program(geometry),
        }
    }

    fn execute(
        &self,
        ctx: &mut LaunchCtx<'_>,
        input: &MixWindow,
    ) -> vwr2a_runtime::Result<MixOutput> {
        match (self, input) {
            (MixKernel::Fft(k), MixWindow::Spectrum(s)) => {
                k.execute(ctx, s).map(MixOutput::Spectrum)
            }
            (MixKernel::Fir(k), MixWindow::Samples(v)) => k.execute(ctx, v).map(MixOutput::Samples),
            _ => Err(shape_mismatch(self)),
        }
    }

    fn offload(&self) -> Offload {
        match self {
            MixKernel::Fft(k) => k.offload(),
            MixKernel::Fir(k) => k.offload(),
        }
    }

    fn execute_fft(
        &self,
        accel: &FftAccelerator,
        input: &MixWindow,
    ) -> vwr2a_runtime::Result<(MixOutput, FftAccelStats)> {
        match (self, input) {
            (MixKernel::Fft(k), MixWindow::Spectrum(s)) => k
                .execute_fft(accel, s)
                .map(|(out, stats)| (MixOutput::Spectrum(out), stats)),
            _ => Err(shape_mismatch(self)),
        }
    }

    fn execute_cpu(
        &self,
        cpu: &mut Cpu,
        sram: &mut Sram,
        input: &MixWindow,
    ) -> vwr2a_runtime::Result<(MixOutput, vwr2a_soc::cpu::CpuRunStats)> {
        match (self, input) {
            (MixKernel::Fir(k), MixWindow::Samples(v)) => k
                .execute_cpu(cpu, sram, v)
                .map(|(out, stats)| (MixOutput::Samples(out), stats)),
            _ => Err(shape_mismatch(self)),
        }
    }
}

/// The kernel palette: one shared FFT stage plus `CRUMB_VARIANTS` FIR
/// crumbs with distinct baked-in taps (= distinct resident programs).
fn palette() -> Vec<MixKernel> {
    let mut kernels = vec![MixKernel::Fft(
        FftKernel::new(FFT_POINTS).expect("supported FFT length"),
    )];
    for k in 0..CRUMB_VARIANTS {
        let taps: Vec<i32> = design_lowpass(11, 0.06 + 0.05 * k as f64)
            .expect("valid filter design")
            .iter()
            .map(|&v| Q15::from_f64(v).0 as i32)
            .collect();
        kernels.push(MixKernel::Fir(
            FirKernel::new(&taps, CRUMB_SAMPLES).expect("valid kernel"),
        ));
    }
    kernels
}

fn spectrum_window(i: usize) -> Spectrum {
    let re = (0..FFT_POINTS)
        .map(|s| (9000.0 * ((s + 17 * i) as f64 * 0.131).cos()) as i32)
        .collect();
    let im = (0..FFT_POINTS)
        .map(|s| (7000.0 * ((s + 29 * i) as f64 * 0.093).sin()) as i32)
        .collect();
    Spectrum::new(re, im)
}

fn crumb_window(i: usize) -> Vec<i32> {
    (0..CRUMB_SAMPLES)
        .map(|s| (5500.0 * ((s + 41 * i) as f64 * 0.117).sin()) as i32)
        .collect()
}

/// One synthesised job of the arrival stream.
struct JobSpec {
    pick: usize,
    windows: Vec<MixWindow>,
    arrival: u64,
}

/// Synthesises the seeded Poisson stream: ~half heavy FFT jobs (1–2
/// windows), half one-window FIR crumbs cycling through the tap variants.
/// `wscale` multiplies every job's window count (the `--windows` knob).
fn workload(seed: u64, jobs: usize, mean_gap: f64, wscale: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let arrivals = poisson_arrivals(&mut rng, jobs, mean_gap);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(j, arrival)| {
            if rng.next_below(2) == 0 {
                let count = (1 + rng.next_below(2) as usize) * wscale;
                JobSpec {
                    pick: 0,
                    windows: (0..count)
                        .map(|w| MixWindow::Spectrum(spectrum_window(j + 7 * w)))
                        .collect(),
                    arrival,
                }
            } else {
                JobSpec {
                    pick: 1 + rng.next_below(CRUMB_VARIANTS as u64) as usize,
                    windows: (0..wscale)
                        .map(|w| MixWindow::Samples(crumb_window(j + 11 * w)))
                        .collect(),
                    arrival,
                }
            }
        })
        .collect()
}

/// Configuration-memory capacity: the FFT stage plus two crumb programs.
/// The crumb working set ( `CRUMB_VARIANTS` programs) deliberately does not
/// fit next to the resident FFT stage, so arrays keep paying reloads for
/// the crumbs — the cost the CPU backend never has.
fn config_capacity(kernels: &[MixKernel]) -> usize {
    let words = |k: &MixKernel| {
        k.program(&Geometry::paper())
            .expect("program builds")
            .config_words()
    };
    words(&kernels[0]) + 2 * words(&kernels[1])
}

/// Serves the stream on one fleet and checks every output against the
/// landed backend's own serial model.
fn serve_on(
    pool: Pool,
    stealing: bool,
    depth: usize,
    specs: &[JobSpec],
    kernels: &[MixKernel],
) -> ServeReport {
    let mut server = Server::new(pool)
        .with_policy(Fifo)
        .with_stealing(stealing)
        .with_depth(depth);
    let (outputs, report) = server
        .run_batch(specs.iter().map(|s| ServeJob {
            kernel: &kernels[s.pick],
            windows: s.windows.iter(),
            tenant: 0,
            arrival_cycle: s.arrival,
            priority: 0,
            deadline_cycle: None,
        }))
        .expect("serving runs");
    check_routes(&outputs, &report.fleet, specs, kernels);
    report
}

/// Per-route bit-identity: array-landed jobs against the serial
/// single-session reference, engine- and CPU-landed jobs against a fresh
/// run of the kernel's own backend model.
fn check_routes(
    outputs: &[Vec<MixOutput>],
    fleet: &FleetReport,
    specs: &[JobSpec],
    kernels: &[MixKernel],
) {
    let (serial, _) =
        Pool::run_serial_reference(specs.iter().map(|s| (&kernels[s.pick], s.windows.iter())))
            .expect("serial reference runs");
    assert_eq!(fleet.routes.len(), specs.len(), "one route per job");
    for route in &fleet.routes {
        let spec = &specs[route.job];
        let kernel = &kernels[spec.pick];
        let expected: Vec<MixOutput> = match route.kind {
            BackendKind::Array => serial[route.job].clone(),
            BackendKind::FftAccel => spec
                .windows
                .iter()
                .map(|w| {
                    kernel
                        .execute_fft(&FftAccelerator::new(), w)
                        .expect("the engine accepts every routed window")
                        .0
                })
                .collect(),
            BackendKind::Cpu => spec
                .windows
                .iter()
                .map(|w| {
                    kernel
                        .execute_cpu(&mut Cpu::new(), &mut Sram::paper(), w)
                        .expect("the CPU accepts every routed window")
                        .0
                })
                .collect(),
        };
        assert_eq!(
            outputs[route.job], expected,
            "job {} diverged from its landed backend's model",
            route.job
        );
    }
}

/// Run-queue depth of the placement-objective comparison pair.  Deep
/// enough that no backend's queue fills on the 24-job stream: the
/// [`Objective`] under test chooses among every capable backend, never
/// among the few that happen to have room (which would launder the
/// comparison through identical spill decisions).
const OBJECTIVE_DEPTH: usize = 12;

/// One sweep cell: the same stream on both fleets, plus the heterogeneous
/// fleet served twice more — once per placement objective, with deep run
/// queues and no stealing — to isolate what the energy knob changes.
struct Cell {
    seed: u64,
    /// Windows pushed through the admission queue across the four fleet
    /// configurations (the host-speed denominator).
    windows_served: u64,
    hetero: ServeReport,
    baseline: ServeReport,
    /// The heterogeneous fleet under [`Objective::Cycles`], deep queues,
    /// no stealing — the comparison baseline for the energy gate.
    obj_cycles: ServeReport,
    /// The same fleet and serving configuration under
    /// [`Objective::EnergyDelayProduct`].
    obj_edp: ServeReport,
}

fn hetero_pool(capacity: usize) -> Pool {
    Pool::with_sessions(constrained_sessions(2, capacity))
        .expect("constrained sessions share one geometry")
        .with_backend(FftBackend::new())
        .with_backend(CpuBackend::new())
}

fn run_cell(seed: u64, jobs: usize, mean_gap: f64, wscale: usize) -> Cell {
    let kernels = palette();
    let specs = workload(seed, jobs, mean_gap, wscale);
    let windows_served = 4 * specs.iter().map(|s| s.windows.len() as u64).sum::<u64>();
    let capacity = config_capacity(&kernels);
    let baseline_pool = Pool::with_sessions(constrained_sessions(3, capacity))
        .expect("constrained sessions share one geometry");
    let objective_run = |objective: Objective| {
        serve_on(
            hetero_pool(capacity).with_placement(CostAware::with_objective(objective)),
            false,
            OBJECTIVE_DEPTH,
            &specs,
            &kernels,
        )
    };
    Cell {
        seed,
        windows_served,
        hetero: serve_on(hetero_pool(capacity), true, 2, &specs, &kernels),
        baseline: serve_on(baseline_pool, true, 2, &specs, &kernels),
        obj_cycles: objective_run(Objective::Cycles),
        obj_edp: objective_run(Objective::EnergyDelayProduct),
    }
}

/// Energy-delay product of a served fleet, in exact nJ x cycles.
fn edp(report: &ServeReport) -> u128 {
    u128::from(report.fleet.energy_nj()) * u128::from(report.fleet.wall_cycles())
}

fn print_fleet(label: &str, report: &ServeReport) {
    print!("  {label:<26}");
    for row in report.fleet.per_kind() {
        print!(
            "  {}:{} jobs={:<2} inv={:<2}",
            row.kind.label(),
            row.backends,
            row.jobs,
            row.invocations
        );
    }
    println!(
        "  cold={:<2} wall={}  energy={:.2} uJ  edp={:.1} uJ*Mcyc",
        report.fleet.cold_reloads(),
        report.fleet.wall_cycles(),
        report.fleet.energy_uj(),
        edp(report) as f64 / 1e9,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(22);
    let wscale: usize = args
        .iter()
        .position(|a| a == "--windows")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .expect("--windows takes a window-count multiplier")
        })
        .unwrap_or(1);

    // The headline cell CI gates on; the full sweep adds two more seeds to
    // show the win is not one lucky arrival pattern.  The arrival gap
    // scales with the window multiplier so a soak run serves the same
    // relative workload and every comparison gate still applies.
    let (jobs, mean_gap) = (24, 400.0 * wscale as f64);
    let (cells, host_us): (Vec<Cell>, f64) = time_host(|| {
        if smoke {
            vec![run_cell(seed, jobs, mean_gap, wscale)]
        } else {
            vec![
                run_cell(seed, jobs, mean_gap, wscale),
                run_cell(seed + 1, jobs, mean_gap, wscale),
                run_cell(seed + 2, jobs, mean_gap, wscale),
            ]
        }
    });

    println!(
        "Heterogeneous fleet sweep: {jobs} Poisson-arrival jobs per cell (mean gap {mean_gap} \
         cycles),"
    );
    println!(
        "~50% {FFT_POINTS}-pt complex FFT jobs + ~50% {CRUMB_SAMPLES}-sample FIR crumbs across \
         {CRUMB_VARIANTS} tap variants,"
    );
    println!("FIFO + stealing, cost-aware placement, constrained per-array config memories.");
    println!();
    for cell in &cells {
        println!("seed {}:", cell.seed);
        print_fleet("2 arrays + fft + cpu", &cell.hetero);
        print_fleet("3 arrays (baseline)", &cell.baseline);
        print_fleet("objective=cycles (deep q)", &cell.obj_cycles);
        print_fleet("objective=edp    (deep q)", &cell.obj_edp);
        let speedup = 100.0
            * (1.0
                - cell.hetero.fleet.wall_cycles() as f64
                    / cell.baseline.fleet.wall_cycles().max(1) as f64);
        println!("  wall-cycle win: {speedup:+.1}% vs the arrays-only baseline");
        let joule_win = 100.0
            * (1.0 - cell.obj_edp.fleet.energy_uj() / cell.obj_cycles.fleet.energy_uj().max(1e-9));
        println!("  energy win of the edp objective: {joule_win:+.1}% vs cycles-only placement");
        println!();
    }
    println!("Outputs are bit-identical to each landed backend's own serial model in every");
    println!("cell; routing moves where a job runs — never what it computes.");

    let windows_served: u64 = cells.iter().map(|c| c.windows_served).sum();
    println!();
    println!(
        "Host time: {:.0} us for {windows_served} served windows ({:.1} us/window, \
         window scale x{wscale}).",
        host_us,
        host_us / windows_served as f64,
    );
    if wscale == 1 {
        println!(
            "For a million-window soak (not run in CI), try: hetero --windows 20000 \
             (~{:.1}M served windows)",
            20_000.0 * windows_served as f64 / 1e6,
        );
    }

    // Fail-fast gates: the heterogeneous fleet must strictly beat the
    // bigger arrays-only baseline on the headline stream, and the win must
    // actually come from heterogeneity (some job left the arrays).  The
    // workload scales with `--windows` (window counts and the arrival gap
    // together), so the same comparisons hold at every soak scale and run
    // unconditionally — they used to be skipped for scaled runs.
    let mut failures = Vec::new();
    for cell in &cells {
        if cell.hetero.fleet.wall_cycles() >= cell.baseline.fleet.wall_cycles() {
            failures.push(format!(
                "seed {}: heterogeneous wall {} not strictly below arrays-only {}",
                cell.seed,
                cell.hetero.fleet.wall_cycles(),
                cell.baseline.fleet.wall_cycles()
            ));
        }
        let offloaded: u64 = cell
            .hetero
            .fleet
            .per_kind()
            .iter()
            .filter(|row| row.kind != BackendKind::Array)
            .map(|row| row.jobs)
            .sum();
        if offloaded == 0 {
            failures.push(format!(
                "seed {}: no job routed to the engine or the CPU",
                cell.seed
            ));
        }
        // Energy gates: measured joules come from the per-backend activity
        // counters, so the capability mix must also win on energy-delay
        // product, and switching the placement objective to EDP must
        // strictly cut the measured total joules of the same stream.
        if edp(&cell.hetero) >= edp(&cell.baseline) {
            failures.push(format!(
                "seed {}: heterogeneous EDP {} not strictly below arrays-only {}",
                cell.seed,
                edp(&cell.hetero),
                edp(&cell.baseline)
            ));
        }
        if cell.obj_edp.fleet.energy_nj() >= cell.obj_cycles.fleet.energy_nj() {
            failures.push(format!(
                "seed {}: edp-objective energy {} nJ not strictly below cycles-objective {} nJ",
                cell.seed,
                cell.obj_edp.fleet.energy_nj(),
                cell.obj_cycles.fleet.energy_nj()
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!();
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
