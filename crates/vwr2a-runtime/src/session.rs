//! The [`Session`] runtime: load kernels once, relaunch them warm, stream
//! windows through the pipelined execution engine, evict cold programs
//! under configuration-memory pressure.
//!
//! # Pipelined streaming
//!
//! [`Session::run_stream`] (and [`Session::run_batch`] on top of it) does
//! not model windows as strictly sequential DMA-in → compute → DMA-out
//! round trips.  Instead, every invocation's costs are collected per
//! engine (see [`LaunchCtx`]) and replayed onto a double-buffered
//! [`crate::pipeline::StreamSchedule`]: window *i+1* stages while window
//! *i* computes, window *i−1* drains behind the launch, and the host
//! observes completions through the platform's interrupt lines.  Outputs
//! remain bit-identical to isolated runs; [`RunReport::wall_cycles`]
//! carries the overlapped latency.
//!
//! # Residency and eviction
//!
//! The configuration memory is finite.  A long-lived session serving many
//! distinct programs (e.g. FIR instances with different baked-in taps)
//! would eventually fill it; instead of failing with `ConfigMemoryFull`,
//! the session consults its [`EvictionPolicy`] (default: [`LruPolicy`]) and
//! unloads cold programs until the new one fits.  Programs the active
//! invocation depends on — the primary program and any auxiliary program
//! already touched through [`LaunchCtx::launch_aux`] — are *pinned* and
//! never evicted.  An evicted program is transparently rebuilt and reloaded
//! on its next use, and that launch is cold again (it pays the
//! configuration-word streaming); [`RunReport::evictions`] counts how often
//! the session had to make room.
//!
//! Every program — a kernel's primary program, an auxiliary program and a
//! [`Session::prefetch`] stage — enters the configuration memory through
//! one admission step, which builds, validates and loads it.  The unpinned
//! residents fall into three victim tiers: plain programs, then programs
//! announced as needed soon ([`Session::set_needed_soon`]), then programs
//! staged by a prefetch and not yet launched.  Each eviction offers the
//! policy the lowest non-empty tier.  Admission decides whether the load
//! can fit before it evicts anything: a launch may free every unpinned
//! resident, a prefetch stage only the plain ones, and a load that cannot
//! fit fails with `ConfigMemoryFull` and leaves every resident in place.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use vwr2a_core::config_mem::KernelId;
use vwr2a_core::geometry::Geometry;
use vwr2a_core::program::KernelProgram;
use vwr2a_core::Vwr2a;

use crate::error::{Result, RuntimeError};
use crate::pipeline::{Occupancy, StreamSchedule, WindowPhases};
pub use crate::policy::{EvictionPolicy, LfuPolicy, LruPolicy, ResidentProgram, SizeAwareLru};
use crate::report::RunReport;

/// Estimated cycles for one host SRF write over the slave port.
pub const SRF_WRITE_CYCLES: u64 = 2;

/// Estimated cycles for one host SRF read over the slave port.  Reads
/// traverse the same AMBA-AHB slave interface as writes, so they cost the
/// same — reduction kernels that collect a scalar result pay for it.
pub const SRF_READ_CYCLES: u64 = 2;

/// Static resource needs a kernel declares so a [`Session`] can reject it
/// before any staging happens, instead of failing mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// Minimum array columns the kernel needs (kernels that adapt to the
    /// geometry declare their smallest workable configuration).
    pub columns: usize,
    /// SPM lines the kernel's data layout occupies.
    pub spm_lines: usize,
    /// SRF entries used for per-launch parameters (per column).
    pub srf_slots: usize,
}

/// A workload that runs on VWR2A through a [`Session`].
///
/// Implementations declare their configuration-memory program once
/// ([`Kernel::program`]) and drive staging, launches and read-back through
/// the [`LaunchCtx`] handed to [`Kernel::execute`].  Because the session
/// owns program residency, a kernel never decides cold-vs-warm itself:
/// [`LaunchCtx::launch`] streams configuration words only when the program
/// is not resident — its first use in the session, or its first use after
/// the session evicted it under capacity pressure — exactly like the real
/// hardware keeps a loaded kernel resident in the per-slot program
/// memories.
pub trait Kernel {
    /// Borrowed input type of one invocation (e.g. `[i32]` for a sample
    /// window, a struct of arrays for complex data).
    type Input: ?Sized;
    /// Owned output type of one invocation.
    type Output;

    /// Kernel name used in reports and error messages.
    fn name(&self) -> &str;

    /// Key identifying the configuration-memory program this kernel needs.
    ///
    /// Two kernel instances with equal keys share one loaded program (and
    /// therefore warm each other up).  Instances whose programs differ —
    /// e.g. FIR kernels with different baked-in taps — must produce
    /// different keys.
    fn cache_key(&self) -> String {
        self.name().to_string()
    }

    /// Declared resource needs, validated against the session's geometry
    /// before the program is first built.
    fn resources(&self) -> Resources;

    /// Builds the kernel's configuration-memory program for the given
    /// geometry.  Called once per [`Kernel::cache_key`] per residency: a
    /// program evicted under capacity pressure is rebuilt on its next use.
    fn program(&self, geometry: &Geometry) -> Result<KernelProgram>;

    /// Configuration-word footprint of the kernel's program on `geometry`
    /// — both the words a load occupies in the configuration memory and
    /// the cycles a cold reload streams (one word per cycle).
    ///
    /// The pool's cost-based placement weighs this reload cost against
    /// each candidate array's compute backlog before routing a job.  The
    /// default builds the program and counts its words; kernels that know
    /// their footprint without constructing the program may override.
    fn config_words(&self, geometry: &Geometry) -> Result<usize> {
        Ok(self.program(geometry)?.config_words())
    }

    /// Runs one invocation: stage inputs, launch (possibly repeatedly, e.g.
    /// once per FFT stage or per FIR block), collect outputs.
    fn execute(&self, ctx: &mut LaunchCtx<'_>, input: &Self::Input) -> Result<Self::Output>;

    /// Which non-CGRA backends could serve this kernel, and at what
    /// modelled cost (see [`crate::backend::Offload`]).  The default —
    /// CGRA-only — keeps every existing kernel's behaviour unchanged; a
    /// kernel that can also run on the fixed-function FFT engine or the
    /// Cortex-M4 host advertises it here, and the pool's placement then
    /// weighs those backends against the arrays.
    fn offload(&self) -> crate::backend::Offload {
        crate::backend::Offload::default()
    }

    /// Runs one invocation on the fixed-function FFT accelerator,
    /// returning the output and the accelerator's run statistics.
    ///
    /// Only called for kernels whose [`Kernel::offload`] declares an FFT
    /// shape; the default refuses with [`RuntimeError::Capability`].  An
    /// implementation must produce output **bit-identical** to running the
    /// same window on a fresh accelerator with the same configuration —
    /// the heterogeneous conformance tests hold it to that.
    fn execute_fft(
        &self,
        accel: &vwr2a_fftaccel::FftAccelerator,
        input: &Self::Input,
    ) -> Result<(Self::Output, vwr2a_fftaccel::FftAccelStats)> {
        let _ = (accel, input);
        Err(RuntimeError::Capability {
            kernel: self.name().to_string(),
            backend: "fft-accel".to_string(),
        })
    }

    /// Runs one invocation on the Cortex-M4 host CPU, returning the output
    /// and the instruction-set simulator's full run statistics (cycle
    /// count plus the per-event counts the energy model prices).
    ///
    /// Only called for kernels whose [`Kernel::offload`] declares a CPU
    /// cost; the default refuses with [`RuntimeError::Capability`].  An
    /// implementation must (re)load every input word it reads into `sram`
    /// itself — the host's SRAM persists across jobs, and outputs must be
    /// bit-identical regardless of what ran before.
    fn execute_cpu(
        &self,
        cpu: &mut vwr2a_soc::cpu::Cpu,
        sram: &mut vwr2a_soc::sram::Sram,
        input: &Self::Input,
    ) -> Result<(Self::Output, vwr2a_soc::cpu::CpuRunStats)> {
        let _ = (cpu, sram, input);
        Err(RuntimeError::Capability {
            kernel: self.name().to_string(),
            backend: "cpu".to_string(),
        })
    }
}

#[derive(Debug)]
struct Loaded {
    id: KernelId,
    launches: u64,
    last_use: u64,
    words: usize,
    /// `true` between a [`Session::prefetch`] and the program's next
    /// launch: the configuration words are already streamed (the launch
    /// will be warm), and the program is *soft-pinned* against eviction —
    /// evicting a speculatively staged program before the launch it was
    /// staged for would waste the hidden reload and silently turn the
    /// launch cold, so it only happens as a last resort, when no other
    /// resident can make room (a stale prefetch must not wedge the
    /// memory permanently).
    prefetched: bool,
}

impl Loaded {
    /// `true` if the program's next launch is warm: it has launched before
    /// or its words were prefetched.
    fn warm(&self) -> bool {
        self.launches > 0 || self.prefetched
    }
}

/// Validates a built program's footprint (column count, program length,
/// SPM lines and SRF indices) against the geometry, reporting misfits as
/// [`RuntimeError::Resources`] instead of a mid-run simulator error.
fn validate_fit(geometry: &Geometry, program: &KernelProgram) -> Result<()> {
    program
        .validate(geometry)
        .map_err(|e| RuntimeError::Resources {
            kernel: program.name.to_string(),
            what: e.to_string(),
        })
}

/// Accounting of one [`Session::prefetch`] that actually streamed
/// configuration words.
///
/// The caller (typically a pool scheduling the prefetch onto an array's
/// [`StreamSchedule`]) replays `config_cycles` on the schedule's
/// configuration-load lane — where it overlaps the array's compute backlog
/// instead of sitting on the next launch's critical path — and folds the
/// counters into its report so work conservation holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefetch {
    /// Cycles the configuration-word streaming occupied (one word per
    /// cycle — also the words loaded).
    pub config_cycles: u64,
    /// Residents evicted to make room for the prefetched program.
    pub evictions: u64,
    /// Accelerator activity of the prefetch (configuration words, cycles),
    /// for energy accounting.
    pub counters: vwr2a_core::ActivityCounters,
}

/// A session's configuration-memory registry: the resident programs by
/// cache key, the eviction policy that picks victims among them, and the
/// planner's needed-soon shield.  [`Registry::admit`] is the only way a
/// program enters the configuration memory; [`LaunchCtx`] borrows the
/// registry next to the accelerator so auxiliary programs take the same
/// path as primary programs and prefetch stages.
#[derive(Debug)]
struct Registry {
    programs: HashMap<String, Loaded>,
    policy: Box<dyn EvictionPolicy>,
    /// Logical clock stamping every load and launch (`last_use`).
    clock: u64,
    /// Keys a scheduler announced queued jobs will need (see
    /// [`Session::set_needed_soon`]): shielded from eviction while any
    /// other resident can make room.
    needed_soon: HashSet<String>,
    /// Count of evictions the needed-soon shield redirected away from an
    /// announced key (see [`Session::evictions_averted`]).
    averted: u64,
}

impl Registry {
    /// Victim tier of a resident program; an eviction takes from the
    /// lowest non-empty tier.  `0`: a plain program.  `1`: a program
    /// announced as needed soon — a planning hint, dropped before the
    /// prefetch soft pin.  `2`: a program staged by a prefetch and not yet
    /// launched, offered only as a last resort: a stale staging must not
    /// wedge the memory the way an invocation pin legitimately can
    /// (evicting it merely wastes the staged words).
    fn tier(&self, key: &str, loaded: &Loaded) -> usize {
        if loaded.prefetched {
            2
        } else {
            usize::from(self.needed_soon.contains(key))
        }
    }

    /// Admits the program under `key`: a resident program is left as it
    /// is; otherwise `build` makes it for the accelerator's geometry, and
    /// it is validated and loaded, evicting policy-chosen residents outside
    /// `pinned` until it fits.  Evictions are counted in `evicted` as they
    /// happen, so the count survives an error return.
    ///
    /// The load fails with `ConfigMemoryFull` before it evicts anything
    /// when the free words plus those it may free fall short: every
    /// unpinned resident's, or only tier 0's for a `speculative` load (a
    /// prefetch stage), since sacrificing a staged or needed-soon program
    /// to stage another is worse than letting the later job pay its own
    /// reload.  Each eviction step ranks the unpinned residents into tiers
    /// ([`Registry::tier`]) once and offers the policy the lowest non-empty
    /// one, so a speculative load evicts only from tier 0.  A policy that
    /// refuses, or names a program outside the offered tier, fails the load
    /// instead of breaking the pin guarantee.
    fn admit(
        &mut self,
        accel: &mut Vwr2a,
        key: &str,
        build: impl FnOnce(&Geometry) -> Result<KernelProgram>,
        pinned: &[String],
        speculative: bool,
        evicted: &mut u64,
    ) -> Result<()> {
        if self.programs.contains_key(key) {
            return Ok(());
        }
        let geometry = *accel.geometry();
        let program = build(&geometry)?;
        validate_fit(&geometry, &program)?;
        let needed = program.config_words();
        let full = |accel: &Vwr2a| vwr2a_core::CoreError::ConfigMemoryFull {
            capacity_words: accel.config_mem().capacity_words(),
            requested_words: needed,
        };
        let unpinned = |key: &str| !pinned.iter().any(|p| p == key);
        let freeable: usize = self
            .programs
            .iter()
            .filter(|(key, loaded)| unpinned(key) && (!speculative || self.tier(key, loaded) == 0))
            .map(|(_, loaded)| loaded.words)
            .sum();
        if needed > accel.config_mem().free_words() + freeable {
            return Err(full(accel).into());
        }
        while needed > accel.config_mem().free_words() {
            let mut tiers: [Vec<ResidentProgram<'_>>; 3] = Default::default();
            for (key, loaded) in self.programs.iter().filter(|(key, _)| unpinned(key)) {
                tiers[self.tier(key, loaded)].push(ResidentProgram {
                    key,
                    words: loaded.words,
                    launches: loaded.launches,
                    last_use: loaded.last_use,
                });
            }
            let lowest = tiers.iter().position(|tier| !tier.is_empty()).unwrap_or(0);
            let offered = &tiers[lowest];
            // Refusal — or a rogue policy naming a pinned or non-resident
            // program, which must not break the pin guarantee — fails the
            // load.
            let Some(victim) = self
                .policy
                .select_victim(offered)
                .filter(|victim| offered.iter().any(|c| c.key == *victim))
            else {
                return Err(full(accel).into());
            };
            if lowest == 0 && !tiers[1].is_empty() {
                // Count the shield's effect: without it the policy would
                // have victimised a program a queued job needs.
                let [plain, soon, _] = &mut tiers;
                plain.extend_from_slice(soon);
                if let Some(would) = self.policy.select_victim(plain) {
                    if would != victim && self.needed_soon.contains(would) {
                        self.averted += 1;
                    }
                }
            }
            let victim = victim.to_string();
            let Some(entry) = self.programs.remove(&victim) else {
                return Err(full(accel).into());
            };
            accel.unload_kernel(entry.id)?;
            self.policy.note_eviction(&victim, entry.launches);
            *evicted += 1;
        }
        let id = accel.load_kernel(&program)?;
        self.policy.note_load(key);
        self.clock += 1;
        self.programs.insert(
            key.to_string(),
            Loaded {
                id,
                launches: 0,
                last_use: self.clock,
                words: needed,
                prefetched: false,
            },
        );
        Ok(())
    }
}

/// Execution context handed to [`Kernel::execute`]: a view of the session's
/// accelerator that accounts every host-visible cost (DMA cycles, SRF
/// reads and writes, launches) and routes launches through the session's
/// configuration-memory registry — evicting cold programs when an
/// auxiliary load needs room.
///
/// Costs are charged per engine into the invocation's [`WindowPhases`]:
/// DMA transfers to staging or draining, SRF accesses to compute, and each
/// launch's [`RunStats`](vwr2a_core::RunStats) split into configuration
/// streaming (the words it loaded) and array compute (the rest of its
/// cycles).  The session's pipelined stream executor uses that split to
/// overlap consecutive windows.  Within one invocation everything is
/// serialised — an invocation observes its own effects in program order,
/// and its cycles are the phases' sum.
#[derive(Debug)]
pub struct LaunchCtx<'a> {
    accel: &'a mut Vwr2a,
    registry: &'a mut Registry,
    /// The invocation's primary program (the kernel's own cache key).
    primary_key: &'a str,
    /// Programs this invocation depends on; never offered for eviction.
    pinned: Vec<String>,
    /// Per-engine phase durations of the invocation.
    phases: WindowPhases,
    cold_launches: u64,
    warm_launches: u64,
    replayed: u64,
    evictions: u64,
}

impl LaunchCtx<'_> {
    /// The array geometry (for kernels whose layout depends on it).
    pub fn geometry(&self) -> Geometry {
        *self.accel.geometry()
    }

    /// DMAs `data` into the SPM at `spm_word_addr`, charging the transfer
    /// cycles to the invocation's staging phase.
    pub fn dma_in(&mut self, data: &[i32], spm_word_addr: usize) -> Result<()> {
        self.phases.stage += self.accel.dma_to_spm(data, spm_word_addr)?;
        Ok(())
    }

    /// DMAs `len` words out of the SPM from `spm_word_addr`, charging the
    /// transfer cycles to the invocation's drain phase.
    pub fn dma_out(&mut self, spm_word_addr: usize, len: usize) -> Result<Vec<i32>> {
        let (data, cycles) = self.accel.dma_from_spm(spm_word_addr, len)?;
        self.phases.drain += cycles;
        Ok(data)
    }

    /// Writes one kernel parameter into a column's SRF over the slave port,
    /// charging [`SRF_WRITE_CYCLES`] to the compute phase (SRF accesses
    /// serialise with the launches they parameterise).
    pub fn write_param(&mut self, column: usize, index: usize, value: i32) -> Result<()> {
        self.accel.write_srf(column, index, value)?;
        self.phases.compute += SRF_WRITE_CYCLES;
        Ok(())
    }

    /// Reads back one SRF entry (e.g. a scalar reduction result) over the
    /// slave port, charging [`SRF_READ_CYCLES`] to the compute phase.
    pub fn read_param(&mut self, column: usize, index: usize) -> Result<i32> {
        let value = self.accel.read_srf(column, index)?;
        self.phases.compute += SRF_READ_CYCLES;
        Ok(value)
    }

    /// Launches the kernel's primary program.
    ///
    /// A launch of a program that is resident in the configuration memory
    /// is *warm* and pays execution cycles only; a launch right after the
    /// session (re)loaded the program is *cold* and streams its
    /// configuration words first.  Returns the cycles of this launch.
    pub fn launch(&mut self) -> Result<u64> {
        self.launch_key(self.primary_key)
    }

    /// Launches an auxiliary program, loading it (and caching it under
    /// `key`, session-wide) on first use.  Kernels with more than one
    /// program phase — e.g. the real-FFT recombination passes — use this so
    /// every phase gets the same load-once/warm-relaunch treatment as the
    /// primary program.
    ///
    /// The built program's footprint is validated against the geometry
    /// before it is loaded, so a misfit auxiliary program fails with
    /// [`RuntimeError::Resources`] instead of a mid-run simulator error.
    /// If the configuration memory is full, unpinned cold programs are
    /// evicted to make room; the auxiliary program itself is pinned for the
    /// rest of the invocation once touched.
    pub fn launch_aux(
        &mut self,
        key: &str,
        build: impl FnOnce() -> Result<KernelProgram>,
    ) -> Result<u64> {
        self.registry.admit(
            self.accel,
            key,
            |_| build(),
            &self.pinned,
            false,
            &mut self.evictions,
        )?;
        if !self.pinned.iter().any(|p| p == key) {
            self.pinned.push(key.to_string());
        }
        self.launch_key(key)
    }

    fn launch_key(&mut self, key: &str) -> Result<u64> {
        self.registry.clock += 1;
        let now = self.registry.clock;
        // Invariant: `Session::run_into` admits the primary program before
        // the invocation starts and `launch_aux` admits its program before
        // launching it; both stay pinned for the whole invocation, so no
        // eviction can have removed the key.
        let entry = self
            .registry
            .programs
            .get_mut(key)
            .expect("launched programs are admitted and pinned");
        debug_assert!(
            self.accel.config_mem().contains(entry.id),
            "registry id must refer to a resident configuration-memory kernel"
        );
        let replays_before = self.accel.replays();
        // A never-launched program whose words were *prefetched* launches
        // warm: the configuration streaming already happened, off the
        // critical path.
        let stats = if entry.warm() {
            self.warm_launches += 1;
            self.accel.run_kernel_warm(entry.id)?
        } else {
            self.cold_launches += 1;
            self.accel.run_kernel(entry.id)?
        };
        entry.launches += 1;
        self.replayed += self.accel.replays() - replays_before;
        // The launch the prefetch was staged for has happened: the program
        // competes for eviction normally again.
        entry.prefetched = false;
        entry.last_use = now;
        // One cycle per streamed configuration word; the array executes
        // for the rest of the launch.
        let config = stats.counters.config_words_loaded;
        self.phases.config += config;
        self.phases.compute += stats.cycles - config;
        Ok(stats.cycles)
    }
}

/// Owns a [`Vwr2a`] instance and a registry of loaded kernels, making
/// configuration-memory reuse the default execution model.
///
/// The paper's headline host-side behaviour — "kernels are loaded once and
/// then re-invoked cheaply" — becomes unavoidable here: the first
/// [`Session::run`] of a kernel loads its program and launches cold; every
/// later run of the same kernel (or another instance with the same
/// [`Kernel::cache_key`]) launches warm, skipping the configuration-word
/// streaming entirely.  [`Session::run_batch`] and [`Session::run_stream`]
/// push whole input sequences through a loaded kernel and return one
/// aggregated [`RunReport`].
///
/// When the configuration memory cannot hold every distinct program the
/// session serves, cold programs are transparently evicted (see
/// [`EvictionPolicy`]; default [`LruPolicy`]) instead of failing — the
/// evicted program's next use is cold again, and
/// [`RunReport::evictions`] / [`Session::evictions`] make the capacity
/// pressure observable.
///
/// # Example
///
/// ```
/// use vwr2a_runtime::Session;
/// use vwr2a_runtime::testing::ScaleKernel;
///
/// # fn main() -> Result<(), vwr2a_runtime::RuntimeError> {
/// let mut session = Session::new();
/// let scale = ScaleKernel::new(2);
/// let window: Vec<i32> = (0..128).collect();
///
/// let (cold_out, cold) = session.run(&scale, &window)?;
/// let (warm_out, warm) = session.run(&scale, &window)?;
/// assert_eq!(cold_out, warm_out);
/// assert_eq!(cold.cold_launches, 1);
/// assert_eq!(warm.warm_launches, 1);
/// // The warm repeat skips the configuration-word streaming.
/// assert!(warm.cycles < cold.cycles);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    accel: Vwr2a,
    registry: Registry,
    evictions: u64,
    prefetches: u64,
    /// Per-engine busy cycles accumulated over the session's lifetime
    /// (interrupt servicing is schedule-level and not included).
    busy: Occupancy,
}

impl Session {
    /// Creates a session around an accelerator with the paper's geometry
    /// and the default [`LruPolicy`].
    pub fn new() -> Self {
        Self::with_accelerator(Vwr2a::new())
    }

    /// Creates a session around a custom accelerator (ablation geometries,
    /// custom DMA timing) with the default [`LruPolicy`].
    pub fn with_accelerator(accel: Vwr2a) -> Self {
        Self::with_policy(accel, LruPolicy)
    }

    /// Creates a session with an explicit eviction policy.
    pub fn with_policy(accel: Vwr2a, policy: impl EvictionPolicy + 'static) -> Self {
        Self {
            accel,
            registry: Registry {
                programs: HashMap::new(),
                policy: Box::new(policy),
                clock: 0,
                needed_soon: HashSet::new(),
                averted: 0,
            },
            evictions: 0,
            prefetches: 0,
            busy: Occupancy::default(),
        }
    }

    /// Replaces the eviction policy (resident programs are unaffected).
    pub fn set_eviction_policy(&mut self, policy: impl EvictionPolicy + 'static) {
        self.registry.policy = Box::new(policy);
    }

    /// Enables or disables the accelerator's warm-window replay cache
    /// (see [`vwr2a_core::replay`]).  On by default; disabling forces every
    /// launch through cycle-by-cycle interpretation.  A host-speed knob
    /// only — modelled cycles, counters and outputs are identical either
    /// way, which is exactly what the conformance property tests assert.
    pub fn set_replay(&mut self, enabled: bool) {
        self.accel.set_replay_enabled(enabled);
    }

    /// Whether the warm-window replay cache is enabled.
    pub fn replay_enabled(&self) -> bool {
        self.accel.replay_enabled()
    }

    /// The underlying accelerator.
    pub fn accelerator(&self) -> &Vwr2a {
        &self.accel
    }

    /// Mutable access to the underlying accelerator (tests, manual staging).
    pub fn accelerator_mut(&mut self) -> &mut Vwr2a {
        &mut self.accel
    }

    /// Number of distinct programs resident in the configuration memory.
    pub fn loaded_programs(&self) -> usize {
        self.registry.programs.len()
    }

    /// Total programs evicted from the configuration memory over the
    /// session's lifetime to make room for new loads.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total [`Session::prefetch`] calls that actually streamed
    /// configuration words over the session's lifetime.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Announces the cache keys queued work will need soon, replacing any
    /// previous announcement (an empty iterator clears it).
    ///
    /// While announced, a key's resident program is **shielded** from
    /// eviction as long as any other resident can make room: a prefetch or
    /// cold load then victimises a program no queued job needs, instead of
    /// one the scheduler is about to launch.  The shield is a planning
    /// hint, not a pin — when only needed-soon programs could free enough
    /// words, they are offered for eviction after all (before the
    /// [`Session::prefetch`] soft pin falls), so an over-announced set can
    /// never wedge the configuration memory.  Outputs are unaffected
    /// either way; only *which* program pays the next cold reload moves.
    ///
    /// The serving layer's lookahead planner derives this set from its
    /// admission and run queues each scheduling round.
    pub fn set_needed_soon(&mut self, keys: impl IntoIterator<Item = String>) {
        self.registry.needed_soon.clear();
        self.registry.needed_soon.extend(keys);
    }

    /// Evictions the needed-soon shield redirected over the session's
    /// lifetime: times an eviction would have victimised an announced key
    /// but took another resident instead.
    pub fn evictions_averted(&self) -> u64 {
        self.registry.averted
    }

    /// `true` if the kernel's next launch will be warm: its program is
    /// resident and has either launched before or been staged by
    /// [`Session::prefetch`].  A kernel that was evicted under capacity
    /// pressure reports `false` until it is reloaded and launched (or
    /// prefetched) again.
    pub fn is_warm<K: Kernel>(&self, kernel: &K) -> bool {
        self.is_warm_key(&kernel.cache_key())
    }

    /// `true` if the kernel's program is resident in the configuration
    /// memory (loaded, whether or not it has launched yet).  This is the
    /// residency query behind the pool's [`crate::pool::ResidencyAware`]
    /// placement: an array with the program resident serves the next
    /// launch without re-streaming configuration words.
    pub fn is_resident<K: Kernel>(&self, kernel: &K) -> bool {
        self.is_resident_key(&kernel.cache_key())
    }

    /// [`Session::is_resident`] by raw [`Kernel::cache_key`], for callers
    /// that track programs by key (the pool's placement strategies).
    pub fn is_resident_key(&self, key: &str) -> bool {
        self.registry.programs.contains_key(key)
    }

    /// [`Session::is_warm`] by raw [`Kernel::cache_key`], for callers that
    /// track programs by key (the pool's backend views).
    pub fn is_warm_key(&self, key: &str) -> bool {
        self.registry.programs.get(key).is_some_and(Loaded::warm)
    }

    /// Every resident program's cache key, with whether its next launch is
    /// warm ([`Session::is_warm_key`]).
    pub(crate) fn residents(&self) -> impl Iterator<Item = (&str, bool)> {
        self.registry
            .programs
            .iter()
            .map(|(key, loaded)| (key.as_str(), loaded.warm()))
    }

    /// Per-engine busy cycles accumulated over every invocation of the
    /// session's lifetime (configuration streaming, DMA staging and
    /// draining, array compute; schedule-level interrupt servicing is not
    /// included).
    pub fn busy(&self) -> Occupancy {
        self.busy
    }

    /// Speculatively stages a kernel so its next launch is warm: loads the
    /// program if absent (evicting cold residents as [`Session::run`]
    /// would) and streams its configuration words into the per-slot program
    /// memories ahead of the launch — the cold half of a launch, paid while
    /// the array is busy with something else.
    ///
    /// Returns `Ok(None)` when there is nothing to stage (the program is
    /// already warm, or already prefetched and awaiting its launch);
    /// otherwise `Ok(Some(_))` with the [`Prefetch`] accounting.  Until it
    /// launches, a prefetched program is **soft-pinned against eviction**:
    /// evicting it would waste the hidden reload and silently turn its
    /// launch cold again, so the session only offers it as a victim when
    /// no other resident can make room — a stale prefetch degrades back
    /// to a cold reload instead of wedging the configuration memory.  The
    /// launch itself then counts as warm — the reload happened, but off
    /// the launch's critical path.
    ///
    /// # Errors
    ///
    /// As [`Session::run`] for resource misfits, and `ConfigMemoryFull`
    /// when the program cannot fit.  The staging load is *speculative*: it
    /// may evict only residents that are neither prefetched nor announced
    /// as needed soon (see [`Session::set_needed_soon`]), so a best-effort
    /// prefetch never cannibalises a program another staged or queued
    /// launch depends on.  When those residents cannot free enough words,
    /// the stage fails before it evicts anything: a refused stage leaves
    /// every resident in place.
    pub fn prefetch<K: Kernel>(&mut self, kernel: &K) -> Result<Option<Prefetch>> {
        self.prefetch_key(kernel, &kernel.cache_key())
    }

    /// [`Session::prefetch`] with the kernel's cache key already computed
    /// (the pool passes each job's admission key).
    pub(crate) fn prefetch_key<K: Kernel>(
        &mut self,
        kernel: &K,
        key: &str,
    ) -> Result<Option<Prefetch>> {
        let evictions = self.admit(kernel, key, true)?;
        // Admission left the program resident: stage it unless it is warm.
        let Some(entry) = self
            .registry
            .programs
            .get_mut(key)
            .filter(|entry| !entry.warm())
        else {
            return Ok(None);
        };
        let before = self.accel.counters();
        let config_cycles = self.accel.prefetch_kernel(entry.id)?;
        entry.prefetched = true;
        self.registry.clock += 1;
        entry.last_use = self.registry.clock;
        self.prefetches += 1;
        self.busy.config_load += config_cycles;
        Ok(Some(Prefetch {
            config_cycles,
            evictions,
            counters: self.accel.counters() - before,
        }))
    }

    /// Admits `kernel`'s program under `key` for a launch, or for a
    /// prefetch stage when `speculative` (see [`Registry::admit`]), and
    /// returns how many residents were evicted to make room.  Evictions
    /// are added to [`Session::evictions`] as they happen, even if the
    /// load then fails.  The kernel's declared [`Resources`] are checked
    /// before its program is built.
    fn admit<K: Kernel>(&mut self, kernel: &K, key: &str, speculative: bool) -> Result<u64> {
        if self.registry.programs.contains_key(key) {
            // An invocation (or prefetch) came back for a resident program:
            // the once-per-invocation reuse signal adaptive policies
            // promote on.  Raw launch counts cannot stand in for this —
            // one FIR invocation issues two launches.
            self.registry.policy.note_use(key);
            return Ok(0);
        }
        let geometry = *self.accel.geometry();
        let needs = kernel.resources();
        let check = |what: String| RuntimeError::Resources {
            kernel: kernel.name().to_string(),
            what,
        };
        if needs.columns > geometry.columns {
            return Err(check(format!(
                "needs {} columns, array has {}",
                needs.columns, geometry.columns
            )));
        }
        if needs.spm_lines > geometry.spm_lines() {
            return Err(check(format!(
                "needs {} SPM lines, array has {}",
                needs.spm_lines,
                geometry.spm_lines()
            )));
        }
        if needs.srf_slots > geometry.srf_entries {
            return Err(check(format!(
                "needs {} SRF slots, array has {}",
                needs.srf_slots, geometry.srf_entries
            )));
        }
        let mut evicted = 0;
        let result = self.registry.admit(
            &mut self.accel,
            key,
            |geometry| kernel.program(geometry),
            &[],
            speculative,
            &mut evicted,
        );
        self.evictions += evicted;
        result.map(|()| evicted)
    }

    /// Runs one invocation of `kernel` over `input`.
    ///
    /// The first run of a kernel in the session launches cold (its program
    /// is loaded and its configuration words streamed); repeats launch
    /// warm, unless the program was evicted in between — then the next run
    /// is cold again.  Returns the kernel's output and the invocation's
    /// report.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Resources`] if the kernel does not fit the
    /// array, [`RuntimeError::InvalidInput`] if the kernel rejects the
    /// input, or any simulator error.
    pub fn run<K: Kernel>(
        &mut self,
        kernel: &K,
        input: &K::Input,
    ) -> Result<(K::Output, RunReport)> {
        let mut report = RunReport::new(kernel.name());
        let mut schedule = StreamSchedule::new();
        let (output, phases) = self.run_into(kernel, &kernel.cache_key(), input, &mut report)?;
        schedule.push(phases, 0);
        (report.wall_cycles, report.busy) = schedule.finish();
        Ok((output, report))
    }

    /// Runs `kernel` over every input of a batch without re-staging its
    /// program: the first window may launch cold, all later windows launch
    /// warm.  Outputs are returned in input order together with one
    /// aggregated report; like [`Session::run_stream`], the report's
    /// [`RunReport::wall_cycles`] reflects the pipelined (overlapped)
    /// schedule while outputs stay bit-identical to per-window runs.
    ///
    /// # Errors
    ///
    /// As [`Session::run`]; the first error aborts the batch.
    pub fn run_batch<K, I>(&mut self, kernel: &K, inputs: I) -> Result<(Vec<K::Output>, RunReport)>
    where
        K: Kernel,
        I: IntoIterator,
        I::Item: Borrow<K::Input>,
    {
        let inputs = inputs.into_iter();
        let mut outputs = Vec::with_capacity(inputs.size_hint().0);
        let report = self.run_stream(kernel, inputs, |out| {
            outputs.push(out);
            Ok(())
        })?;
        Ok((outputs, report))
    }

    /// Streams inputs through `kernel` on the pipelined execution engine,
    /// handing each output to `sink` as soon as it is ready (constant
    /// memory in the number of windows).
    ///
    /// Outputs are computed in input order and are bit-identical to
    /// [`Session::run_batch`] and to isolated [`Session::run`] calls; what
    /// pipelining changes is the *timing model*: the SPM is treated as
    /// double-buffered, so window *i+1*'s DMA staging overlaps window
    /// *i*'s array execution, window *i−1*'s results drain behind the
    /// launch, and each completion reaches the host through the VWR2A
    /// completion interrupt (see [`crate::pipeline`]).  The returned
    /// report's [`RunReport::wall_cycles`] is the overlapped end-to-end
    /// latency — strictly below [`RunReport::serial_cycles`] whenever more
    /// than one window allowed any overlap — while [`RunReport::cycles`]
    /// keeps the serial phase sum of the pre-pipelining model.
    ///
    /// # Errors
    ///
    /// As [`Session::run`]; the first error — including an error returned
    /// by `sink` — aborts the stream.  The session itself remains valid
    /// and reusable: programs loaded so far stay resident and later runs
    /// launch warm.
    pub fn run_stream<K, I, F>(&mut self, kernel: &K, inputs: I, mut sink: F) -> Result<RunReport>
    where
        K: Kernel,
        I: IntoIterator,
        I::Item: Borrow<K::Input>,
        F: FnMut(K::Output) -> Result<()>,
    {
        let mut report = RunReport::new(kernel.name());
        let mut schedule = StreamSchedule::new();
        let key = kernel.cache_key();
        for input in inputs {
            let (output, phases) = self.run_into(kernel, &key, input.borrow(), &mut report)?;
            schedule.push(phases, 0);
            sink(output)?;
        }
        (report.wall_cycles, report.busy) = schedule.finish();
        Ok(report)
    }

    /// Runs one invocation of `kernel`, whose cache key is `key`, folding
    /// its counts into `report` (except the schedule-dependent
    /// `wall_cycles`/`busy`, which the caller derives from the returned
    /// [`WindowPhases`]).  Shared by the session's own stream executor and
    /// the pool's executor, which replays the phases on per-array
    /// schedules; both compute the key once per job, not per window.
    pub(crate) fn run_into<K: Kernel>(
        &mut self,
        kernel: &K,
        key: &str,
        input: &K::Input,
        report: &mut RunReport,
    ) -> Result<(K::Output, WindowPhases)> {
        let admit_evictions = self.admit(kernel, key, false)?;
        let before = self.accel.counters();
        let mut ctx = LaunchCtx {
            accel: &mut self.accel,
            registry: &mut self.registry,
            primary_key: key,
            pinned: vec![key.to_string()],
            phases: WindowPhases::default(),
            cold_launches: 0,
            warm_launches: 0,
            replayed: 0,
            evictions: 0,
        };
        let result = kernel.execute(&mut ctx, input);
        let ctx_evictions = ctx.evictions;
        let replayed = ctx.replayed;
        let (cold, warm, phases) = (ctx.cold_launches, ctx.warm_launches, ctx.phases);
        self.evictions += ctx_evictions;
        // Like the eviction count, the lifetime busy cycles cover work the
        // accelerator model performed even when the invocation then fails.
        self.busy.config_load += phases.config;
        self.busy.dma += phases.stage + phases.drain;
        self.busy.compute += phases.compute;
        let output = result?;
        report.invocations += 1;
        report.cold_launches += cold;
        report.warm_launches += warm;
        report.replayed += replayed;
        report.cycles += phases.total();
        report.evictions += admit_evictions + ctx_evictions;
        let delta = self.accel.counters() - before;
        // Price the invocation's own activity delta (not the running
        // total): per-window nJ then sum *exactly* to per-backend and
        // fleet totals, which the routing reports rely on.
        report.energy_nj += vwr2a_energy::EnergyModel::calibrated().price_array(&delta);
        report.counters += delta;
        Ok((output, phases))
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{BakedScaleKernel, ScaleKernel};
    use vwr2a_core::program::{ColumnProgram, Row};
    use vwr2a_core::CoreError;

    /// A session whose configuration memory holds `config_words` words.
    fn constrained_session(config_words: usize) -> Session {
        let mut geometry = Geometry::paper();
        geometry.config_words = config_words;
        Session::with_accelerator(Vwr2a::with_geometry(geometry).unwrap())
    }

    /// Configuration words of one BakedScaleKernel program on the paper
    /// geometry.
    fn baked_words() -> usize {
        BakedScaleKernel::new(1)
            .program(&Geometry::paper())
            .unwrap()
            .config_words()
    }

    #[test]
    fn full_config_memory_evicts_lru_instead_of_failing() {
        // Room for exactly two baked programs.
        let mut session = constrained_session(2 * baked_words());
        let k2 = BakedScaleKernel::new(2);
        let k3 = BakedScaleKernel::new(3);
        let k5 = BakedScaleKernel::new(5);
        let input: Vec<i32> = (0..100).collect();

        let (out2, r2) = session.run(&k2, &input).unwrap();
        let (out3, r3) = session.run(&k3, &input).unwrap();
        assert_eq!(r2.evictions + r3.evictions, 0);
        assert_eq!(session.loaded_programs(), 2);

        // The third distinct program evicts the least recently used (k2).
        let (out5, r5) = session.run(&k5, &input).unwrap();
        assert_eq!(r5.evictions, 1);
        assert_eq!(r5.cold_launches, 1);
        assert_eq!(session.loaded_programs(), 2);
        assert_eq!(session.evictions(), 1);
        assert!(!session.is_warm(&k2), "k2 must have been evicted");
        assert!(session.is_warm(&k3));

        // Outputs stay correct throughout — no stale program aliasing.
        assert_eq!(out2, input.iter().map(|v| v * 2).collect::<Vec<_>>());
        assert_eq!(out3, input.iter().map(|v| v * 3).collect::<Vec<_>>());
        assert_eq!(out5, input.iter().map(|v| v * 5).collect::<Vec<_>>());

        // Re-running the evicted kernel reloads it (cold again), evicting
        // the new LRU (k3), and still multiplies by 2 — not by a stale
        // program's factor.
        let (out2b, r2b) = session.run(&k2, &input).unwrap();
        assert_eq!(r2b.evictions, 1);
        assert_eq!(r2b.cold_launches, 1);
        assert_eq!(r2b.warm_launches, 0);
        assert!(r2b.counters.config_words_loaded > 0, "reload streams words");
        assert_eq!(out2b, out2);
        assert!(!session.is_warm(&k3));
        assert!(session.is_warm(&k5));
    }

    /// A policy that refuses every eviction.
    #[derive(Debug)]
    struct Refuse;

    impl EvictionPolicy for Refuse {
        fn select_victim<'a>(&self, _candidates: &[ResidentProgram<'a>]) -> Option<&'a str> {
            None
        }
    }

    #[test]
    fn a_refusing_policy_keeps_the_hard_failure() {
        let mut geometry = Geometry::paper();
        geometry.config_words = 2 * baked_words();
        let accel = Vwr2a::with_geometry(geometry).unwrap();
        let mut session = Session::with_policy(accel, Refuse);
        let input = [1i32, 2, 3];
        session.run(&BakedScaleKernel::new(2), &input[..]).unwrap();
        session.run(&BakedScaleKernel::new(3), &input[..]).unwrap();
        let err = session
            .run(&BakedScaleKernel::new(5), &input[..])
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Core(CoreError::ConfigMemoryFull { .. })),
            "expected ConfigMemoryFull, got {err:?}"
        );
        assert_eq!(session.evictions(), 0);
    }

    #[test]
    fn oversized_program_fails_even_after_evicting_everything() {
        // The program alone exceeds the whole capacity: eviction cannot
        // help, and the session must say so instead of looping.
        let mut session = constrained_session(baked_words() - 1);
        let err = session
            .run(&BakedScaleKernel::new(2), &[1i32, 2][..])
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Core(CoreError::ConfigMemoryFull { .. })),
            "expected ConfigMemoryFull, got {err:?}"
        );
    }

    #[test]
    fn impossible_load_does_not_flush_the_warm_working_set() {
        // Two warm residents, then a program that exceeds the whole
        // capacity: the load must fail up front without evicting anything.
        struct Giant;
        impl Kernel for Giant {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "giant"
            }
            fn resources(&self) -> Resources {
                Resources::default()
            }
            fn program(&self, g: &Geometry) -> Result<KernelProgram> {
                let mut rows = vec![Row::new(g.rcs_per_column); 50];
                rows.push(Row::new(g.rcs_per_column).lcu(vwr2a_core::isa::LcuInstr::Exit));
                let col = ColumnProgram::new(rows)?;
                Ok(KernelProgram::new("giant", vec![col.clone(), col])?)
            }
            fn execute(&self, _ctx: &mut LaunchCtx<'_>, _input: &()) -> Result<()> {
                unreachable!("never loads")
            }
        }
        let mut session = constrained_session(2 * baked_words());
        let k2 = BakedScaleKernel::new(2);
        let k3 = BakedScaleKernel::new(3);
        let input = [1i32, 2, 3];
        session.run(&k2, &input[..]).unwrap();
        session.run(&k3, &input[..]).unwrap();

        let err = session.run(&Giant, &()).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Core(CoreError::ConfigMemoryFull { .. })),
            "expected ConfigMemoryFull, got {err:?}"
        );
        assert!(session.is_warm(&k2), "k2 must survive the impossible load");
        assert!(session.is_warm(&k3), "k3 must survive the impossible load");
        assert_eq!(session.evictions(), 0);
    }

    #[test]
    fn rogue_policy_cannot_evict_outside_the_candidate_set() {
        // A policy that names a program that is not an eviction candidate
        // (here: not resident at all) must fail the load cleanly instead of
        // panicking or breaking the pin guarantee.
        #[derive(Debug)]
        struct Rogue;
        impl EvictionPolicy for Rogue {
            fn select_victim<'a>(&self, _c: &[ResidentProgram<'a>]) -> Option<&'a str> {
                Some("not-a-resident")
            }
        }
        let mut geometry = Geometry::paper();
        geometry.config_words = 2 * baked_words();
        let accel = Vwr2a::with_geometry(geometry).unwrap();
        let mut session = Session::with_policy(accel, Rogue);
        let input = [1i32, 2];
        let k2 = BakedScaleKernel::new(2);
        let k3 = BakedScaleKernel::new(3);
        session.run(&k2, &input[..]).unwrap();
        session.run(&k3, &input[..]).unwrap();
        let err = session
            .run(&BakedScaleKernel::new(5), &input[..])
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Core(CoreError::ConfigMemoryFull { .. })),
            "expected ConfigMemoryFull, got {err:?}"
        );
        assert!(session.is_warm(&k2));
        assert!(session.is_warm(&k3));
        assert_eq!(session.evictions(), 0);
    }

    #[test]
    fn mixed_workload_under_pressure_is_bit_identical_to_unconstrained() {
        // The acceptance scenario: a config memory holding only 2 of 4
        // distinct kernels serves a 100-invocation mixed workload with
        // bit-identical outputs, evictions instead of errors, and cold
        // launches only where an eviction preceded them.
        let kernels: Vec<BakedScaleKernel> = [2i16, 3, 5, 7]
            .iter()
            .map(|&f| BakedScaleKernel::new(f))
            .collect();
        let mut constrained = constrained_session(2 * baked_words());
        let mut unconstrained = Session::new();

        let mut cold_total = 0u64;
        let mut evictions_total = 0u64;
        for i in 0..100 {
            let kernel = &kernels[i % kernels.len()];
            let input: Vec<i32> = (0..64).map(|v| v + i as i32).collect();
            let (out_c, report) = constrained.run(kernel, &input).unwrap();
            let (out_u, _) = unconstrained.run(kernel, &input).unwrap();
            assert_eq!(out_c, out_u, "invocation {i} diverged under pressure");
            if i >= kernels.len() {
                // Not a first-ever load: a cold launch is only legitimate
                // when evictions made room at its expense earlier.
                assert!(
                    report.cold_launches == 0 || evictions_total > 0,
                    "invocation {i} went cold without any prior eviction"
                );
            }
            cold_total += report.cold_launches;
            evictions_total += report.evictions;
        }
        assert!(evictions_total > 0, "the workload must overflow the memory");
        assert!(
            cold_total > kernels.len() as u64,
            "evictions must cause cold reloads"
        );
        // Every cold launch beyond the four initial loads is paid for by an
        // eviction.
        assert!(cold_total <= kernels.len() as u64 + evictions_total);
        assert_eq!(constrained.evictions(), evictions_total);
        assert_eq!(unconstrained.evictions(), 0);
    }

    #[test]
    fn srf_reads_are_charged_like_writes() {
        struct ParamEcho;
        impl Kernel for ParamEcho {
            type Input = ();
            type Output = i32;
            fn name(&self) -> &str {
                "param-echo"
            }
            fn resources(&self) -> Resources {
                Resources::default()
            }
            fn program(&self, g: &Geometry) -> Result<KernelProgram> {
                let col = ColumnProgram::new(vec![
                    Row::new(g.rcs_per_column).lcu(vwr2a_core::isa::LcuInstr::Exit)
                ])?;
                Ok(KernelProgram::new("param-echo", vec![col])?)
            }
            fn execute(&self, ctx: &mut LaunchCtx<'_>, _input: &()) -> Result<i32> {
                ctx.write_param(0, 0, 42)?;
                let a = ctx.read_param(0, 0)?;
                let b = ctx.read_param(0, 0)?;
                let c = ctx.read_param(0, 0)?;
                Ok(a + b + c)
            }
        }
        let mut session = Session::new();
        let (sum, report) = session.run(&ParamEcho, &()).unwrap();
        assert_eq!(sum, 126);
        // One write and three reads over the slave port — reads are no
        // longer free.
        assert_eq!(report.cycles, SRF_WRITE_CYCLES + 3 * SRF_READ_CYCLES);
    }

    #[test]
    fn misfit_aux_program_fails_with_resources() {
        struct WideAux;
        impl Kernel for WideAux {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "wide-aux"
            }
            fn resources(&self) -> Resources {
                Resources::default()
            }
            fn program(&self, g: &Geometry) -> Result<KernelProgram> {
                let col = ColumnProgram::new(vec![
                    Row::new(g.rcs_per_column).lcu(vwr2a_core::isa::LcuInstr::Exit)
                ])?;
                Ok(KernelProgram::new("wide-aux", vec![col])?)
            }
            fn execute(&self, ctx: &mut LaunchCtx<'_>, _input: &()) -> Result<()> {
                // Three columns on a two-column array: must fail before any
                // load, as a Resources error.
                ctx.launch_aux("wide-aux:3col", || {
                    let col =
                        ColumnProgram::new(vec![Row::new(4).lcu(vwr2a_core::isa::LcuInstr::Exit)])?;
                    Ok(KernelProgram::new(
                        "wide-aux:3col",
                        vec![col.clone(), col.clone(), col],
                    )?)
                })?;
                Ok(())
            }
        }
        let mut session = Session::new();
        let err = session.run(&WideAux, &()).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Resources { ref kernel, .. } if kernel == "wide-aux:3col"),
            "expected Resources, got {err:?}"
        );
    }

    #[test]
    fn active_invocation_programs_are_pinned_against_eviction() {
        struct AuxUser;
        impl Kernel for AuxUser {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "aux-user"
            }
            fn cache_key(&self) -> String {
                "aux-user:primary".into()
            }
            fn resources(&self) -> Resources {
                Resources {
                    columns: 1,
                    spm_lines: 2,
                    srf_slots: 0,
                }
            }
            fn program(&self, g: &Geometry) -> Result<KernelProgram> {
                BakedScaleKernel::new(11).program(g)
            }
            fn execute(&self, ctx: &mut LaunchCtx<'_>, _input: &()) -> Result<()> {
                ctx.dma_in(&[1; 128], 0)?;
                ctx.launch()?;
                // Loading the aux program overflows the two-slot memory.
                // The primary is pinned, so the cold bystander is evicted.
                ctx.launch_aux("aux-user:aux", || {
                    BakedScaleKernel::new(13).program(&ctx_geometry())
                })?;
                // The primary must still be resident: warm relaunch.
                ctx.launch()?;
                Ok(())
            }
        }
        fn ctx_geometry() -> Geometry {
            Geometry::paper()
        }

        let mut session = constrained_session(2 * baked_words());
        let bystander = BakedScaleKernel::new(99);
        session.run(&bystander, &[1i32, 2][..]).unwrap();
        assert!(session.is_warm(&bystander));

        let (_, report) = session.run(&AuxUser, &()).unwrap();
        assert_eq!(report.evictions, 1, "only the bystander may be evicted");
        assert_eq!(report.cold_launches, 2, "primary and aux load cold");
        assert_eq!(report.warm_launches, 1, "the pinned primary stays warm");
        assert!(!session.is_warm(&bystander));
        assert_eq!(session.loaded_programs(), 2);
    }

    /// A runnable kernel whose program is padded with NOP rows to a
    /// controllable size (for mixed-size eviction scenarios).
    struct PaddedKernel {
        rows: usize,
        key: String,
    }

    impl PaddedKernel {
        fn new(rows: usize, key: &str) -> Self {
            Self {
                rows,
                key: key.to_string(),
            }
        }

        fn words(rows: usize) -> usize {
            PaddedKernel::new(rows, "probe")
                .program(&Geometry::paper())
                .unwrap()
                .config_words()
        }
    }

    impl Kernel for PaddedKernel {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "padded"
        }
        fn cache_key(&self) -> String {
            self.key.clone()
        }
        fn resources(&self) -> Resources {
            Resources::default()
        }
        fn program(&self, g: &Geometry) -> Result<KernelProgram> {
            let mut rows = vec![Row::new(g.rcs_per_column); self.rows];
            rows.push(Row::new(g.rcs_per_column).lcu(vwr2a_core::isa::LcuInstr::Exit));
            Ok(KernelProgram::new(
                self.key.as_str(),
                vec![ColumnProgram::new(rows)?],
            )?)
        }
        fn execute(&self, ctx: &mut LaunchCtx<'_>, _input: &()) -> Result<()> {
            ctx.launch()?;
            Ok(())
        }
    }

    #[test]
    fn size_aware_policy_frees_room_with_fewer_evictions() {
        // Working set: a small program (oldest), a large one, another small
        // (hottest).  Loading a second large program forces evictions.
        const SMALL: usize = 1;
        const LARGE: usize = 12;
        let capacity = 2 * PaddedKernel::words(SMALL) + 2 * PaddedKernel::words(LARGE);
        // Leave room for exactly one extra small program so the large load
        // cannot fit without evictions.
        let capacity = capacity - PaddedKernel::words(LARGE) + PaddedKernel::words(SMALL);

        let run_scenario = |policy_is_size_aware: bool| {
            let mut geometry = Geometry::paper();
            geometry.config_words = capacity;
            let accel = Vwr2a::with_geometry(geometry).unwrap();
            let mut session = if policy_is_size_aware {
                Session::with_policy(accel, SizeAwareLru)
            } else {
                Session::with_policy(accel, LruPolicy)
            };
            session
                .run(&PaddedKernel::new(SMALL, "small-old"), &())
                .unwrap();
            session
                .run(&PaddedKernel::new(LARGE, "large-mid"), &())
                .unwrap();
            session
                .run(&PaddedKernel::new(SMALL, "small-hot"), &())
                .unwrap();
            let (_, report) = session
                .run(&PaddedKernel::new(LARGE, "incoming"), &())
                .unwrap();
            (report.evictions, session)
        };

        let (lru_evictions, lru_session) = run_scenario(false);
        let (sa_evictions, sa_session) = run_scenario(true);
        // Pure LRU walks the age order: both small programs go before the
        // large one frees enough words.  The size-aware policy spends one
        // eviction on the large coldish program and keeps the small ones.
        assert!(
            sa_evictions < lru_evictions,
            "size-aware {sa_evictions} must beat LRU {lru_evictions}"
        );
        assert_eq!(sa_evictions, 1);
        assert!(sa_session.is_warm(&PaddedKernel::new(SMALL, "small-old")));
        assert!(sa_session.is_warm(&PaddedKernel::new(SMALL, "small-hot")));
        assert!(!lru_session.is_warm(&PaddedKernel::new(SMALL, "small-old")));
    }

    #[test]
    fn empty_stream_yields_a_zero_window_report() {
        let mut session = Session::new();
        let kernel = ScaleKernel::new(2);
        let report = session
            .run_stream(&kernel, std::iter::empty::<&[i32]>(), |_| Ok(()))
            .unwrap();
        assert_eq!(report.invocations, 0);
        assert_eq!(report.launches(), 0);
        assert_eq!(report.cycles, 0);
        assert_eq!(report.wall_cycles, 0);
        assert_eq!(report.serial_cycles(), 0);
        assert_eq!(report.overlap_ratio(), 0.0);
        assert_eq!(session.loaded_programs(), 0, "no window, no registration");
    }

    #[test]
    fn single_window_stream_degenerates_to_the_serial_schedule() {
        let mut session = Session::new();
        let kernel = ScaleKernel::new(3);
        let window: Vec<i32> = (0..100).collect();
        let mut outputs = Vec::new();
        let report = session
            .run_stream(&kernel, std::iter::once(window.as_slice()), |out| {
                outputs.push(out);
                Ok(())
            })
            .unwrap();
        assert_eq!(report.invocations, 1);
        // No overlap is possible: the wall clock equals the sum of all
        // phases (including the completion interrupts the serial model
        // also pays).
        assert_eq!(report.wall_cycles, report.serial_cycles());
        assert_eq!(report.overlap_ratio(), 0.0);
        // The phase sum without interrupt servicing is the classic cycle
        // count.
        assert!(report.wall_cycles > report.cycles);
        assert_eq!(
            report.busy.config_load + report.busy.dma + report.busy.compute,
            report.cycles
        );
        assert_eq!(outputs[0], window.iter().map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn multi_window_stream_overlaps_and_stays_bit_identical() {
        let kernel = ScaleKernel::new(-3);
        let windows: Vec<Vec<i32>> = (0..6)
            .map(|w| (0..128).map(|i| i * (w + 1) - 64).collect())
            .collect();

        let mut stream_session = Session::new();
        let mut streamed = Vec::new();
        let report = stream_session
            .run_stream(&kernel, windows.iter().map(Vec::as_slice), |out| {
                streamed.push(out);
                Ok(())
            })
            .unwrap();

        // The acceptance bound: overlapped wall clock strictly below the
        // per-window DMA-in + compute + DMA-out sum.
        assert!(
            report.wall_cycles < report.cycles,
            "wall {} must beat the serial phase sum {}",
            report.wall_cycles,
            report.cycles
        );
        assert!(report.overlap_ratio() > 0.0);
        // Engine occupancy is conserved: the overlapped schedule does the
        // same work.
        assert_eq!(
            report.busy.config_load + report.busy.dma + report.busy.compute,
            report.cycles
        );

        // Outputs bit-identical to the batch path and to isolated runs.
        let (batched, _) = Session::new()
            .run_batch(&kernel, windows.iter().map(Vec::as_slice))
            .unwrap();
        assert_eq!(streamed, batched);
        for (window, out) in windows.iter().zip(&streamed) {
            let (isolated, _) = Session::new().run(&kernel, window.as_slice()).unwrap();
            assert_eq!(&isolated, out);
        }
    }

    #[test]
    fn replay_cache_serves_warm_launches_and_changes_no_modelled_numbers() {
        let kernel = ScaleKernel::new(7);
        let windows: Vec<Vec<i32>> = (0..5)
            .map(|w| (0..128).map(|i| i * 3 - 40 * w).collect())
            .collect();

        let mut replay = Session::new();
        assert!(replay.replay_enabled(), "replay is on by default");
        let mut interp = Session::new();
        interp.set_replay(false);
        assert!(!interp.replay_enabled());

        let (out_replay, rep_replay) = replay
            .run_batch(&kernel, windows.iter().map(Vec::as_slice))
            .unwrap();
        let (out_interp, rep_interp) = interp
            .run_batch(&kernel, windows.iter().map(Vec::as_slice))
            .unwrap();

        // The cold launch records; every warm launch replays.
        assert_eq!(rep_replay.warm_launches, 4);
        assert_eq!(rep_replay.replayed, 4);
        assert_eq!(replay.accelerator().replays(), 4);
        assert_eq!(rep_interp.replayed, 0);
        assert_eq!(interp.accelerator().replays(), 0);

        // Replay is a host-speed detail: outputs and every modelled number
        // agree with the interpreted run.
        assert_eq!(out_replay, out_interp);
        assert_eq!(rep_replay.cycles, rep_interp.cycles);
        assert_eq!(rep_replay.wall_cycles, rep_interp.wall_cycles);
        assert_eq!(rep_replay.counters, rep_interp.counters);
        assert_eq!(
            rep_replay.energy_nj, rep_interp.energy_nj,
            "energy priced from replayed counters matches interpretation"
        );
    }

    #[test]
    fn launch_phases_split_config_words_from_compute() {
        // A launch's config phase is the words it streamed; the rest of
        // its cycles are compute, whether the launch replays or not.
        let kernel = BakedScaleKernel::new(3);
        let window: Vec<i32> = (0..64).collect();
        let mut session = Session::new();
        let (_, cold) = session.run(&kernel, window.as_slice()).unwrap();
        assert_eq!(cold.cold_launches, 1);
        assert_eq!(cold.busy.config_load, baked_words() as u64);
        let (_, warm) = session.run(&kernel, window.as_slice()).unwrap();
        assert_eq!(warm.replayed, 1);
        assert_eq!(warm.busy.config_load, 0);
        assert_eq!(warm.busy.compute, cold.busy.compute);
        session.set_replay(false);
        let (_, interpreted) = session.run(&kernel, window.as_slice()).unwrap();
        assert_eq!(interpreted.replayed, 0);
        assert_eq!(interpreted.busy, warm.busy);
    }

    #[test]
    fn replayed_launch_energy_is_bit_identical_even_across_evictions() {
        // Satellite audit of the replay cache's energy story: a replayed
        // launch credits the recorded execution-counter delta verbatim and
        // re-adds the config streaming of the launch itself, so energy
        // priced from the counters must match interpretation bit for bit —
        // including after an eviction forces a cold rebuild, which changes
        // the per-launch config-word count but not the execution delta.
        use crate::testing::{constrained_sessions, BakedScaleKernel};
        use vwr2a_core::geometry::Geometry;

        let a = BakedScaleKernel::new(2);
        let b = BakedScaleKernel::new(3);
        let windows: Vec<Vec<i32>> = (0..3)
            .map(|w| (0..96).map(|i| i + 5 * w).collect())
            .collect();
        // Room for exactly one program: each switch of kernel evicts the
        // other and rebuilds cold.
        let words = a.program(&Geometry::paper()).unwrap().config_words();

        let run_sequence = |replay: bool| {
            let mut session = constrained_sessions(1, words).pop().unwrap();
            session.set_replay(replay);
            let mut energy_nj = 0u64;
            let mut counters = vwr2a_core::ActivityCounters::default();
            let mut evictions = 0u64;
            let mut replayed = 0u64;
            for kernel in [&a, &a, &b, &a, &a] {
                for w in &windows {
                    let (_, report) = session.run(kernel, w.as_slice()).unwrap();
                    energy_nj += report.energy_nj;
                    counters += report.counters;
                    evictions += report.evictions;
                    replayed += report.replayed;
                }
            }
            (energy_nj, counters, evictions, replayed)
        };

        let (e_on, c_on, ev_on, replays) = run_sequence(true);
        let (e_off, c_off, ev_off, _) = run_sequence(false);
        assert!(ev_on > 0, "the sequence forces evictions and cold rebuilds");
        assert!(replays > 0, "warm relaunches actually replayed");
        assert_eq!(ev_on, ev_off, "eviction behaviour is replay-independent");
        assert_eq!(c_on, c_off, "replay credits the recorded deltas verbatim");
        assert!(e_on > 0);
        assert_eq!(
            e_on, e_off,
            "energy from counters is bit-identical replay-on vs replay-off"
        );
    }

    #[test]
    fn sink_error_aborts_the_stream_but_the_session_stays_usable() {
        let mut session = Session::new();
        let kernel = ScaleKernel::new(5);
        let windows: Vec<Vec<i32>> = (1..=4).map(|w| vec![w; 16]).collect();
        let mut delivered = 0;
        let err = session
            .run_stream(&kernel, windows.iter().map(Vec::as_slice), |out| {
                if delivered == 1 {
                    return Err(RuntimeError::sink("downstream is full"));
                }
                assert_eq!(out[0], 5 * (delivered + 1));
                delivered += 1;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Sink { .. }));
        assert_eq!(delivered, 1, "the stream must stop at the failing sink");

        // The session survives: the program is still resident and a fresh
        // stream runs warm and bit-identical.
        assert!(session.is_warm(&kernel));
        let (outputs, report) = session
            .run_batch(&kernel, windows.iter().map(Vec::as_slice))
            .unwrap();
        assert_eq!(report.cold_launches, 0, "still warm after the abort");
        assert_eq!(outputs[3], vec![20; 16]);
    }

    #[test]
    fn residency_and_load_hooks_track_the_session_lifetime() {
        let mut session = Session::new();
        let kernel = ScaleKernel::new(6);
        assert!(!session.is_resident(&kernel));
        assert!(!session.is_resident_key("scale"));
        assert_eq!(session.busy(), Occupancy::default());

        // A prefetch loads and stages the program: resident and warm
        // before any compute ran.
        let staged = session.prefetch(&kernel).unwrap().expect("streams words");
        assert!(session.is_resident(&kernel));
        assert!(session.is_resident_key("scale"));
        assert!(session.is_warm(&kernel));
        assert_eq!(session.busy().compute, 0, "no compute ran yet");
        assert_eq!(session.busy().config_load, staged.config_cycles);

        let input: Vec<i32> = (0..64).collect();
        let (_, first) = session.run(&kernel, &input).unwrap();
        let after_first = session.busy().compute;
        assert!(after_first > 0);
        let (_, second) = session.run(&kernel, &input).unwrap();
        // The load metric accumulates monotonically across invocations and
        // conserves the per-report busy split.
        let busy = session.busy();
        assert!(busy.compute > after_first);
        assert_eq!(
            busy.total(),
            staged.config_cycles + (first.busy + second.busy).total()
                - first.busy.interrupt
                - second.busy.interrupt
        );
    }

    #[test]
    fn prefetch_makes_the_next_launch_warm_at_the_same_total_work() {
        let kernel = BakedScaleKernel::new(6);
        let input: Vec<i32> = (0..80).collect();

        let mut cold_session = Session::new();
        let (cold_out, cold) = cold_session.run(&kernel, &input).unwrap();

        let mut session = Session::new();
        let staged = session.prefetch(&kernel).unwrap().expect("streams words");
        assert!(staged.config_cycles > 0);
        assert_eq!(staged.evictions, 0);
        assert_eq!(staged.counters.config_words_loaded, staged.config_cycles);
        assert!(session.is_warm(&kernel), "prefetched => next launch warm");
        assert_eq!(session.prefetches(), 1);

        let (out, warm) = session.run(&kernel, &input).unwrap();
        assert_eq!(out, cold_out, "prefetch must not change outputs");
        assert_eq!(warm.cold_launches, 0);
        assert_eq!(warm.warm_launches, 1);
        assert_eq!(warm.counters.config_words_loaded, 0);
        // Same total work as one cold launch, just split across the
        // prefetch and the (now warm) launch.
        assert_eq!(staged.config_cycles + warm.cycles, cold.cycles);

        // A second prefetch of a warm program has nothing to stage.
        assert!(session.prefetch(&kernel).unwrap().is_none());
        assert_eq!(session.prefetches(), 1);
    }

    #[test]
    fn repeated_prefetch_before_the_launch_streams_only_once() {
        let mut session = Session::new();
        let kernel = BakedScaleKernel::new(4);
        assert!(session.prefetch(&kernel).unwrap().is_some());
        assert!(session.prefetch(&kernel).unwrap().is_none());
        assert_eq!(session.prefetches(), 1);
        let words = session.accelerator().counters().config_words_loaded;
        assert_eq!(words, baked_words() as u64, "streamed exactly once");
    }

    #[test]
    fn prefetched_programs_are_pinned_until_their_launch() {
        // Two-slot memory: a prefetched program and a warm bystander fill
        // it.  Loading a third program must evict the *bystander* (LRU
        // would pick the prefetched program — it is older), because the
        // prefetched one is pinned until the launch it was staged for.
        let mut session = constrained_session(2 * baked_words());
        let staged = BakedScaleKernel::new(21);
        let bystander = BakedScaleKernel::new(22);
        let incoming = BakedScaleKernel::new(23);
        let input = [1i32, 2, 3];

        session.prefetch(&staged).unwrap().expect("streams words");
        session.run(&bystander, &input[..]).unwrap();

        let (_, report) = session.run(&incoming, &input[..]).unwrap();
        assert_eq!(report.evictions, 1);
        assert!(
            session.is_warm(&staged),
            "the prefetched program must survive the eviction"
        );
        assert!(!session.is_warm(&bystander), "the bystander was evicted");

        // The staged launch is warm; afterwards the pin is released and
        // the program competes for eviction normally again.
        let (_, warm) = session.run(&staged, &input[..]).unwrap();
        assert_eq!(warm.cold_launches, 0);
        assert_eq!(warm.warm_launches, 1);
        session.run(&incoming, &input[..]).unwrap();
        let (_, after) = session.run(&bystander, &input[..]).unwrap();
        assert_eq!(after.evictions, 1, "now the LRU victim is evictable");
        assert!(!session.is_warm(&staged), "pin released after the launch");
    }

    #[test]
    fn stale_prefetches_are_evicted_only_as_a_last_resort() {
        // A prefetched program whose launch never comes must not wedge the
        // memory: while other residents can make room they are preferred,
        // but once the staged program is the only way to fit a load, it is
        // sacrificed (wasting only its staged words) instead of failing
        // with ConfigMemoryFull.
        let mut session = constrained_session(2 * baked_words());
        let stale = BakedScaleKernel::new(31);
        let other = BakedScaleKernel::new(32);
        let input = [1i32, 2];
        session.prefetch(&stale).unwrap().expect("streams words");
        session.run(&other, &input[..]).unwrap();

        // A program too big for one freed slot: nothing but evicting
        // *both* residents fits it, so even the soft-pinned stale
        // prefetch must go.
        let rows = (1..)
            .find(|&r| PaddedKernel::words(r) > baked_words())
            .unwrap();
        let big = PaddedKernel::new(rows, "big");
        assert!(
            PaddedKernel::words(rows) <= 2 * baked_words(),
            "the probe must still fit the whole memory"
        );
        session.run(&big, &()).unwrap();
        assert!(
            !session.is_warm(&stale),
            "the stale prefetch was the last resort"
        );
        assert!(!session.is_warm(&other));
        assert_eq!(session.evictions(), 2);
    }

    #[test]
    fn prefetch_that_cannot_fit_fails_like_run() {
        let mut session = constrained_session(baked_words() - 1);
        let err = session.prefetch(&BakedScaleKernel::new(2)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Core(CoreError::ConfigMemoryFull { .. })),
            "expected ConfigMemoryFull, got {err:?}"
        );
    }

    #[test]
    fn needed_soon_shield_redirects_the_victim_and_counts_the_avert() {
        // Two-slot memory holding A (the LRU victim) and B.  With A
        // announced as needed soon, loading C sacrifices B instead, and
        // the redirect is counted as an averted eviction.
        let mut session = constrained_session(2 * baked_words());
        let a = BakedScaleKernel::new(41);
        let b = BakedScaleKernel::new(42);
        let c = BakedScaleKernel::new(43);
        let input = [1i32, 2];
        session.run(&a, &input[..]).unwrap();
        session.run(&b, &input[..]).unwrap();

        session.set_needed_soon([a.cache_key()]);
        session.run(&c, &input[..]).unwrap();
        assert!(session.is_resident(&a), "the needed-soon program survived");
        assert!(!session.is_resident(&b), "the shield redirected onto B");
        assert_eq!(session.evictions_averted(), 1);

        // Clearing the announcement restores plain LRU: reloading B now
        // evicts A (oldest) without incrementing the averted counter.
        session.set_needed_soon(std::iter::empty::<String>());
        session.run(&b, &input[..]).unwrap();
        assert!(!session.is_resident(&a));
        assert_eq!(session.evictions_averted(), 1);
    }

    #[test]
    fn an_over_announced_needed_soon_set_never_wedges_the_memory() {
        // Every resident announced as needed: the shield must fall (it is
        // a hint, not a pin) and the load proceeds as plain LRU would —
        // with nothing counted as averted, since nothing was redirected.
        let mut session = constrained_session(2 * baked_words());
        let a = BakedScaleKernel::new(44);
        let b = BakedScaleKernel::new(45);
        let c = BakedScaleKernel::new(46);
        let input = [1i32, 2];
        session.run(&a, &input[..]).unwrap();
        session.run(&b, &input[..]).unwrap();

        session.set_needed_soon([a.cache_key(), b.cache_key()]);
        session.run(&c, &input[..]).unwrap();
        assert!(!session.is_resident(&a), "LRU order still applies");
        assert!(session.is_resident(&b));
        assert_eq!(session.evictions_averted(), 0);
    }

    #[test]
    fn a_speculative_prefetch_never_evicts_a_needed_soon_resident() {
        // A prefetch that could only fit by sacrificing needed-soon
        // residents gives up (best-effort), while an authoritative launch
        // of the same kernel still makes room.
        let mut session = constrained_session(2 * baked_words());
        let a = BakedScaleKernel::new(47);
        let b = BakedScaleKernel::new(48);
        let c = BakedScaleKernel::new(49);
        let input = [1i32, 2];
        session.run(&a, &input[..]).unwrap();
        session.run(&b, &input[..]).unwrap();

        session.set_needed_soon([a.cache_key(), b.cache_key()]);
        let err = session.prefetch(&c).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Core(CoreError::ConfigMemoryFull { .. })),
            "expected ConfigMemoryFull, got {err:?}"
        );
        assert!(session.is_resident(&a), "the refused stage evicted nothing");
        assert!(session.is_resident(&b));

        session.run(&c, &input[..]).unwrap();
        assert!(session.is_resident(&c), "the launch itself still fits");
    }

    #[test]
    fn eviction_policies_observe_loads_and_evictions() {
        // The residency layer reports every successful program load and
        // every eviction (with the victim's launch count) to the policy —
        // the feedback channel adaptive policies like ArcPolicy learn from.
        use std::sync::{Arc, Mutex};

        #[derive(Debug, Default)]
        struct Recording {
            events: Arc<Mutex<Vec<String>>>,
        }
        impl EvictionPolicy for Recording {
            fn select_victim<'a>(&self, candidates: &[ResidentProgram<'a>]) -> Option<&'a str> {
                candidates.iter().min_by_key(|c| c.last_use).map(|c| c.key)
            }
            fn note_load(&self, key: &str) {
                self.events.lock().unwrap().push(format!("load {key}"));
            }
            fn note_eviction(&self, key: &str, launches: u64) {
                self.events
                    .lock()
                    .unwrap()
                    .push(format!("evict {key} launches={launches}"));
            }
        }

        let events = Arc::new(Mutex::new(Vec::new()));
        let policy = Recording {
            events: Arc::clone(&events),
        };
        let mut geometry = Geometry::paper();
        geometry.config_words = 2 * baked_words();
        let mut session = Session::with_policy(Vwr2a::with_geometry(geometry).unwrap(), policy);
        let a = BakedScaleKernel::new(51);
        let b = BakedScaleKernel::new(52);
        let c = BakedScaleKernel::new(53);
        let input = [1i32, 2];
        session.run(&a, &input[..]).unwrap();
        session.run(&a, &input[..]).unwrap(); // warm: no load notification
        session.run(&b, &input[..]).unwrap();
        session.run(&c, &input[..]).unwrap(); // evicts A after two launches

        assert_eq!(
            *events.lock().unwrap(),
            vec![
                format!("load {}", a.cache_key()),
                format!("load {}", b.cache_key()),
                format!("evict {} launches=2", a.cache_key()),
                format!("load {}", c.cache_key()),
            ]
        );
    }

    #[test]
    fn config_words_hook_matches_the_built_program() {
        let kernel = BakedScaleKernel::new(2);
        let geometry = Geometry::paper();
        assert_eq!(
            kernel.config_words(&geometry).unwrap(),
            kernel.program(&geometry).unwrap().config_words()
        );
    }

    #[test]
    fn a_refused_speculative_stage_evicts_nothing() {
        // A (plain) and B (needed soon) fill a two-slot memory.  Staging a
        // program that needs both slots may evict only A, which cannot
        // make room alone, so the stage fails before it evicts anything.
        // The launch of the same kernel is authoritative and makes room.
        let small = PaddedKernel::words(1);
        let mut session = constrained_session(2 * small);
        let a = PaddedKernel::new(1, "a");
        let b = PaddedKernel::new(1, "b");
        session.run(&a, &()).unwrap();
        session.run(&b, &()).unwrap();
        session.set_needed_soon([b.cache_key()]);

        let rows = (1..).find(|&r| PaddedKernel::words(r) > small).unwrap();
        assert!(PaddedKernel::words(rows) <= 2 * small, "fits in two slots");
        let big = PaddedKernel::new(rows, "big");
        let err = session.prefetch(&big).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Core(CoreError::ConfigMemoryFull { .. })),
            "expected ConfigMemoryFull, got {err:?}"
        );
        assert_eq!(session.evictions(), 0);
        assert!(session.is_warm(&a), "the refused stage left A in place");
        assert!(session.is_warm(&b));

        let (_, report) = session.run(&big, &()).unwrap();
        assert_eq!(report.evictions, 2);
        assert!(session.is_resident(&big));
    }

    // The registry's load step before admission decided feasibility up
    // front and ranked the residents once per eviction step, kept verbatim
    // as the reference of `admission_matches_the_reference_load`.
    impl Registry {
        /// Loads `program` under `key`, evicting policy-chosen unpinned
        /// residents until it fits; each eviction is recorded in `evicted` as
        /// it happens, so the count survives even an error return.  Fails with
        /// `ConfigMemoryFull` — *before* unloading anything — when the
        /// evictable residents cannot free enough words (everything else is
        /// pinned, or the program exceeds the total capacity), so an
        /// impossible load never flushes the warm working set.  A policy that
        /// refuses or returns a key outside the candidate set (pinned or not
        /// resident) also fails the load instead of breaking the pin
        /// guarantee.
        ///
        /// A `speculative` load (prefetch staging) additionally refuses to
        /// fall past the shielded victim tier: sacrificing an already-staged
        /// or needed-soon program to stage another speculatively is strictly
        /// worse than letting the later job pay its own (authoritative)
        /// reload, so the stage fails — and its best-effort caller skips it —
        /// instead.
        fn load(
            &mut self,
            accel: &mut Vwr2a,
            key: &str,
            program: &KernelProgram,
            pinned: &[String],
            speculative: bool,
            evicted: &mut u64,
        ) -> Result<()> {
            let needed = program.config_words();
            let full = |accel: &Vwr2a| vwr2a_core::CoreError::ConfigMemoryFull {
                capacity_words: accel.config_mem().capacity_words(),
                requested_words: needed,
            };
            // Programs pinned by the active invocation are never evictable.
            // Prefetched-but-not-yet-launched programs are *soft-pinned*:
            // withheld while any other resident can make room, offered only
            // as a last resort — a stale speculative staging must not wedge
            // the memory the way an invocation pin legitimately can (evicting
            // one merely wastes the staged words; its next use reloads cold).
            let unpinned = |key: &String| !pinned.iter().any(|p| p == key);
            let evictable: usize = self
                .programs
                .iter()
                .filter(|(key, _)| unpinned(key))
                .map(|(_, loaded)| loaded.words)
                .sum();
            if needed > accel.config_mem().free_words() + evictable {
                return Err(full(accel).into());
            }
            while needed > accel.config_mem().free_words() {
                let programs = &self.programs;
                let needed_soon = &self.needed_soon;
                let snapshot =
                    |include_needed: bool, include_prefetched: bool| -> Vec<ResidentProgram<'_>> {
                        programs
                            .iter()
                            .filter(|(key, loaded)| {
                                unpinned(key)
                                    && (include_prefetched || !loaded.prefetched)
                                    && (include_needed || !needed_soon.contains(*key))
                            })
                            .map(|(key, loaded)| ResidentProgram {
                                key,
                                words: loaded.words,
                                launches: loaded.launches,
                                last_use: loaded.last_use,
                            })
                            .collect()
                    };
                // Victim tiers: first programs neither staged by a prefetch
                // nor announced as needed-soon, then needed-soon programs (a
                // planning hint, dropped before the prefetch soft pin — the
                // staged words are already paid for), then everything
                // unpinned.
                let shielded = snapshot(false, false);
                if speculative && shielded.is_empty() {
                    return Err(full(accel).into());
                }
                let unshielded = snapshot(true, false);
                let used_shield = !shielded.is_empty() && shielded.len() < unshielded.len();
                let mut candidates = if shielded.is_empty() {
                    unshielded.clone()
                } else {
                    shielded
                };
                if candidates.is_empty() {
                    candidates = snapshot(true, true);
                }
                let victim = match self.policy.select_victim(&candidates) {
                    Some(victim) if candidates.iter().any(|c| c.key == victim) => {
                        victim.to_string()
                    }
                    // Refusal — or a rogue policy naming a pinned or
                    // non-resident program, which must not break the pin
                    // guarantee.
                    _ => return Err(full(accel).into()),
                };
                if used_shield {
                    // Count the shield's effect: without it the policy would
                    // have victimised a program a queued job needs.
                    if let Some(would) = self.policy.select_victim(&unshielded) {
                        if would != victim && needed_soon.contains(would) {
                            self.averted += 1;
                        }
                    }
                }
                let entry = self
                    .programs
                    .remove(&victim)
                    .expect("victim validated against the candidate set");
                accel.unload_kernel(entry.id)?;
                self.policy.note_eviction(&victim, entry.launches);
                *evicted += 1;
            }
            let id = accel.load_kernel(program)?;
            self.policy.note_load(key);
            self.clock += 1;
            self.programs.insert(
                key.to_string(),
                Loaded {
                    id,
                    launches: 0,
                    last_use: self.clock,
                    words: needed,
                    prefetched: false,
                },
            );
            Ok(())
        }
    }

    /// The calls an eviction policy received, in order.
    type CallLog = std::sync::Arc<std::sync::Mutex<Vec<String>>>;

    /// Delegates to `inner` and logs every call, so that two registries
    /// can be compared call by call.
    #[derive(Debug)]
    struct Logged<P> {
        inner: P,
        log: CallLog,
    }

    impl<P: EvictionPolicy> Logged<P> {
        fn push(&self, entry: String) {
            self.log.lock().unwrap().push(entry);
        }
    }

    impl<P: EvictionPolicy> EvictionPolicy for Logged<P> {
        fn select_victim<'a>(&self, candidates: &[ResidentProgram<'a>]) -> Option<&'a str> {
            let victim = self.inner.select_victim(candidates);
            let mut keys: Vec<&str> = candidates.iter().map(|c| c.key).collect();
            keys.sort_unstable();
            self.push(format!("select {keys:?} -> {victim:?}"));
            victim
        }
        fn note_load(&self, key: &str) {
            self.inner.note_load(key);
            self.push(format!("load {key}"));
        }
        fn note_use(&self, key: &str) {
            self.inner.note_use(key);
            self.push(format!("use {key}"));
        }
        fn note_eviction(&self, key: &str, launches: u64) {
            self.inner.note_eviction(key, launches);
            self.push(format!("evict {key} launches={launches}"));
        }
    }

    /// A registry and its accelerator, with the log of its policy's calls.
    struct Side {
        accel: Vwr2a,
        registry: Registry,
        log: CallLog,
    }

    impl Side {
        fn new(capacity: usize, policy: u64) -> Self {
            let mut geometry = Geometry::paper();
            geometry.config_words = capacity;
            let log = CallLog::default();
            let policy: Box<dyn EvictionPolicy> = match policy {
                0 => Box::new(Logged {
                    inner: LruPolicy,
                    log: CallLog::clone(&log),
                }),
                1 => Box::new(Logged {
                    inner: SizeAwareLru,
                    log: CallLog::clone(&log),
                }),
                _ => Box::new(Logged {
                    inner: crate::policy::ArcPolicy::new(),
                    log: CallLog::clone(&log),
                }),
            };
            Self {
                accel: Vwr2a::with_geometry(geometry).unwrap(),
                registry: Registry {
                    programs: HashMap::new(),
                    policy,
                    clock: 0,
                    needed_soon: HashSet::new(),
                    averted: 0,
                },
                log,
            }
        }

        /// Everything a later decision can depend on, in a stable order:
        /// the residents, the averted count, the free words and the
        /// policy's calls so far.
        fn state(&self) -> String {
            let mut programs: Vec<_> = self
                .registry
                .programs
                .iter()
                .map(|(key, l)| (key, l.launches, l.last_use, l.words, l.prefetched))
                .collect();
            programs.sort();
            format!(
                "{programs:?} averted {} free {} calls {:?}",
                self.registry.averted,
                self.accel.config_mem().free_words(),
                self.log.lock().unwrap()
            )
        }
    }

    #[test]
    fn admission_matches_the_reference_load() {
        // SplitMix64 over random residency histories: 2-5 programs of 1-3
        // sizes in a memory of 2-4 programs, under LRU, size-aware LRU and
        // ARC.  Authoritative, aux-pinned and speculative loads, launches,
        // prefetch marks and needed-soon announcements run on a registry
        // that admits and on one that loads through the reference.  Both
        // must return the same result after the same policy calls, evict
        // the same victims and count the same averts — except where the
        // reference evicted and then failed: there admission must fail
        // with no eviction, and the case ends, since the two memories now
        // differ.
        let mut state = 0x5eed_u64;
        let mut draw = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let geometry = Geometry::paper();
        let (mut refused_after_evicting, mut evictions, mut averted) = (0, 0, 0);
        for case in 0..600 {
            let sizes: Vec<usize> = (0..1 + draw(3)).map(|_| 1 + draw(6) as usize).collect();
            let programs: Vec<(String, KernelProgram)> = (0..2 + draw(4))
                .map(|p| {
                    let key = format!("p{p}");
                    let rows = sizes[draw(sizes.len() as u64) as usize];
                    let program = PaddedKernel::new(rows, &key).program(&geometry).unwrap();
                    (key, program)
                })
                .collect();
            let unit = programs[draw(programs.len() as u64) as usize]
                .1
                .config_words();
            let capacity = (2 + draw(3) as usize) * unit;
            let policy = draw(3);
            let mut reference = Side::new(capacity, policy);
            let mut admitted = Side::new(capacity, policy);
            for step in 0..40 {
                let (key, program) = &programs[draw(programs.len() as u64) as usize];
                let op = draw(5);
                // Invocation pins for an auxiliary load: a random subset of
                // the residents (the registries agree on who is resident).
                let pinned: Vec<String> = if op == 1 {
                    let mut residents: Vec<&String> = reference.registry.programs.keys().collect();
                    residents.sort();
                    residents
                        .into_iter()
                        .filter(|_| draw(2) == 0)
                        .cloned()
                        .collect()
                } else {
                    Vec::new()
                };
                let needed_soon: Vec<String> = programs
                    .iter()
                    .filter(|_| draw(2) == 0)
                    .map(|(key, _)| key.clone())
                    .collect();
                let resident = reference.registry.programs.contains_key(key);
                if op >= 3 || (resident && op != 1) {
                    for registry in [&mut reference.registry, &mut admitted.registry] {
                        match op {
                            3 => {
                                // A launch, as `LaunchCtx::launch_key` books it.
                                if let Some(loaded) = registry.programs.get_mut(key) {
                                    registry.clock += 1;
                                    loaded.launches += 1;
                                    loaded.prefetched = false;
                                    loaded.last_use = registry.clock;
                                }
                            }
                            4 => {
                                registry.needed_soon.clear();
                                registry.needed_soon.extend(needed_soon.iter().cloned());
                            }
                            // A launch or stage of a resident program, as
                            // `Session::admit` handles it.
                            _ => registry.policy.note_use(key),
                        }
                    }
                } else {
                    // The reference's callers loaded only absent programs;
                    // admission returns at once for a resident one.
                    let speculative = op == 2;
                    let mut ref_evicted = 0;
                    let ref_result = if resident {
                        Ok(())
                    } else {
                        reference.registry.load(
                            &mut reference.accel,
                            key,
                            program,
                            &pinned,
                            speculative,
                            &mut ref_evicted,
                        )
                    };
                    let mut new_evicted = 0;
                    let before = admitted.state();
                    let new_result = admitted.registry.admit(
                        &mut admitted.accel,
                        key,
                        |_| Ok(program.clone()),
                        &pinned,
                        speculative,
                        &mut new_evicted,
                    );
                    if ref_result.is_err() && ref_evicted > 0 {
                        assert!(speculative, "case {case} step {step}: authoritative flush");
                        assert!(new_result.is_err(), "case {case} step {step}");
                        assert_eq!(new_evicted, 0, "case {case} step {step}");
                        assert_eq!(admitted.state(), before, "case {case} step {step}");
                        refused_after_evicting += 1;
                        break;
                    }
                    assert_eq!(new_result, ref_result, "case {case} step {step}");
                    assert_eq!(new_evicted, ref_evicted, "case {case} step {step}");
                    evictions += new_evicted;
                    if speculative && ref_result.is_ok() {
                        // Mark the stage, as `Session::prefetch_key` does.
                        for registry in [&mut reference.registry, &mut admitted.registry] {
                            if let Some(loaded) = registry.programs.get_mut(key) {
                                if !loaded.warm() {
                                    registry.clock += 1;
                                    loaded.prefetched = true;
                                    loaded.last_use = registry.clock;
                                }
                            }
                        }
                    }
                }
                assert_eq!(
                    admitted.state(),
                    reference.state(),
                    "case {case} step {step}"
                );
            }
            averted += admitted.registry.averted;
        }
        // The histories reach every path the comparison is about.
        assert!(
            evictions > 0 && averted > 0,
            "{evictions} evictions, {averted} averted"
        );
        assert!(refused_after_evicting > 0, "no reference flush was drawn");
    }
}
