//! The top-level VWR2A accelerator.
//!
//! [`Vwr2a`] ties together the shared SPM, the two columns, the
//! configuration memory, the DMA and the synchronizer (Fig. 1 of the
//! paper).  The host interacts with it the way the Cortex-M4 interacts with
//! the real block over the AMBA-AHB slave port: seed the SPM through the
//! DMA, write kernel parameters into the SRFs, launch a kernel, and read
//! results back through the DMA when the completion interrupt fires (here:
//! when [`Vwr2a::run_kernel`] returns).

use crate::column::Column;
use crate::config_mem::{ConfigMemory, KernelId};
use crate::dma;
use crate::error::{CoreError, Result};
use crate::geometry::Geometry;
use crate::program::KernelProgram;
use crate::replay::{ReplayCache, ReplayScratch, ReplayTrace, TraceRecorder};
use crate::spm::Spm;
use crate::stats::RunStats;
use crate::trace::ActivityCounters;
use std::sync::Arc;

/// Default cycle budget per kernel launch before the simulator declares the
/// kernel hung.
pub const DEFAULT_CYCLE_LIMIT: u64 = 50_000_000;

/// The VWR2A accelerator instance.
///
/// # Example
///
/// ```
/// use vwr2a_core::Vwr2a;
/// use vwr2a_core::program::{KernelProgram, ColumnProgram, Row};
/// use vwr2a_core::isa::LcuInstr;
///
/// # fn main() -> Result<(), vwr2a_core::error::CoreError> {
/// let mut accel = Vwr2a::new();
/// // Move data in over the DMA, run a (trivial) kernel, read data back.
/// accel.dma_to_spm(&[1, 2, 3, 4], 0)?;
/// let kernel = KernelProgram::new(
///     "noop",
///     vec![ColumnProgram::new(vec![Row::new(4).lcu(LcuInstr::Exit)])?],
/// )?;
/// let stats = accel.run_program(&kernel)?;
/// assert!(stats.cycles > 0);
/// let (data, _cycles) = accel.dma_from_spm(0, 4)?;
/// assert_eq!(data, vec![1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
///
/// Cloning an accelerator copies its architectural state but shares its
/// [`ReplayCache`]: the clone and the original record into, and replay
/// from, one store of traces.
#[derive(Debug, Clone)]
pub struct Vwr2a {
    geometry: Geometry,
    spm: Spm,
    columns: Vec<Column>,
    config_mem: ConfigMemory,
    counters: ActivityCounters,
    cycle_limit: u64,
    /// Replay cache on/off (see [`Vwr2a::set_replay_enabled`]).
    replay_enabled: bool,
    /// Lifetime count of launches served from the replay cache.
    replays: u64,
    /// Where stored kernels find (and record) their replay traces.
    replay_cache: ReplayCache,
    /// Reused per-launch `running` flags (one per column used).
    running_scratch: Vec<bool>,
    /// Reused replay-executor pending-write buffers.
    replay_scratch: ReplayScratch,
}

impl Vwr2a {
    /// Creates an accelerator with the paper's geometry.
    pub fn new() -> Self {
        Self::with_geometry(Geometry::paper()).expect("paper geometry is valid")
    }

    /// Creates an accelerator with a custom geometry (used by the ablation
    /// experiments).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGeometry`] if the geometry is
    /// inconsistent.
    pub fn with_geometry(geometry: Geometry) -> Result<Self> {
        geometry.validate()?;
        Ok(Self {
            geometry,
            spm: Spm::new(geometry.spm_words(), geometry.vwr_words),
            columns: (0..geometry.columns)
                .map(|_| Column::new(geometry))
                .collect(),
            config_mem: ConfigMemory::new(geometry.config_words),
            counters: ActivityCounters::new(),
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            replay_enabled: true,
            replays: 0,
            replay_cache: ReplayCache::new(),
            running_scratch: Vec::new(),
            replay_scratch: ReplayScratch::default(),
        })
    }

    /// The array geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The shared scratchpad memory.
    pub fn spm(&self) -> &Spm {
        &self.spm
    }

    /// Mutable access to the SPM (host/test convenience; real transfers go
    /// through [`Vwr2a::dma_to_spm`]).
    pub fn spm_mut(&mut self) -> &mut Spm {
        &mut self.spm
    }

    /// A column of the array.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidColumn`] if `index` is out of range.
    pub fn column(&self, index: usize) -> Result<&Column> {
        self.columns.get(index).ok_or(CoreError::InvalidColumn {
            column: index,
            count: self.columns.len(),
        })
    }

    /// Mutable access to a column (seeding VWR/SRF state in tests).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidColumn`] if `index` is out of range.
    pub fn column_mut(&mut self, index: usize) -> Result<&mut Column> {
        let count = self.columns.len();
        self.columns.get_mut(index).ok_or(CoreError::InvalidColumn {
            column: index,
            count,
        })
    }

    /// Accumulated activity since construction.
    pub fn counters(&self) -> ActivityCounters {
        self.counters
    }

    /// Sets the per-launch cycle budget after which
    /// [`CoreError::CycleLimitExceeded`] is reported.
    pub fn set_cycle_limit(&mut self, limit: u64) {
        self.cycle_limit = limit;
    }

    /// Turns the warm-window replay cache on or off (on by default).
    ///
    /// With replay enabled, launches of a stored kernel record a
    /// [`crate::replay::ReplayTrace`] and later launches whose SRF guard
    /// snapshot still matches are served as a straight-line replay instead
    /// of cycle-by-cycle interpretation — bit-identical outputs, cycles
    /// and counters, at a fraction of the host cost.  Disabling it forces
    /// every launch through the interpreter; conformance tests flip this
    /// knob to compare the two paths.
    pub fn set_replay_enabled(&mut self, enabled: bool) {
        self.replay_enabled = enabled;
    }

    /// `true` while the warm-window replay cache is active.
    pub fn replay_enabled(&self) -> bool {
        self.replay_enabled
    }

    /// Number of launches served from the replay cache since construction.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// The store this accelerator's replay traces live in.
    pub fn replay_cache(&self) -> &ReplayCache {
        &self.replay_cache
    }

    /// Records into, and replays from, `cache` from now on — how a fleet
    /// shares one store across its arrays, so a program recorded on one
    /// array replays on the others.  Resident kernels are re-keyed into
    /// `cache`; traces they recorded in the previous store stay there.
    pub fn share_replay_cache(&mut self, cache: &ReplayCache) {
        self.replay_cache = cache.clone();
        let resident: Vec<KernelId> = self.config_mem.kernel_ids().collect();
        for id in resident {
            self.config_mem
                .bind_traces(id, &self.replay_cache, self.geometry);
        }
    }

    /// Writes one kernel parameter into a column's SRF, as the host CPU does
    /// over the slave port before launching a kernel.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidColumn`] or
    /// [`CoreError::SrfIndexOutOfRange`].
    pub fn write_srf(&mut self, column: usize, index: usize, value: i32) -> Result<()> {
        self.counters.srf_writes += 1;
        self.column_mut(column)?.srf_mut().write(index, value)
    }

    /// Reads back one SRF entry (e.g. a scalar result).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidColumn`] or
    /// [`CoreError::SrfIndexOutOfRange`].
    pub fn read_srf(&self, column: usize, index: usize) -> Result<i32> {
        self.column(column)?.srf().read(index)
    }

    /// Transfers data from system memory into the SPM through the DMA,
    /// returning the cycles the transfer took.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDmaTransfer`] or
    /// [`CoreError::SpmOutOfRange`].
    pub fn dma_to_spm(&mut self, data: &[i32], spm_word_addr: usize) -> Result<u64> {
        dma::copy_to_spm(data, &mut self.spm, spm_word_addr, &mut self.counters)
    }

    /// Transfers data from the SPM back to system memory through the DMA,
    /// returning the data and the cycles the transfer took.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDmaTransfer`] or
    /// [`CoreError::SpmOutOfRange`].
    pub fn dma_from_spm(&mut self, spm_word_addr: usize, len: usize) -> Result<(Vec<i32>, u64)> {
        dma::copy_from_spm(&self.spm, spm_word_addr, len, &mut self.counters)
    }

    /// The configuration memory (read-only view, e.g. for a runtime that
    /// wants to report how many kernels are resident and how full it is).
    pub fn config_mem(&self) -> &ConfigMemory {
        &self.config_mem
    }

    /// Validates and stores a kernel in the configuration memory.
    ///
    /// # Errors
    ///
    /// Returns validation errors or [`CoreError::ConfigMemoryFull`].
    pub fn load_kernel(&mut self, kernel: &KernelProgram) -> Result<KernelId> {
        kernel.validate(&self.geometry)?;
        let id = self.config_mem.store(kernel)?;
        self.config_mem
            .bind_traces(id, &self.replay_cache, self.geometry);
        Ok(id)
    }

    /// Removes a kernel previously stored with [`Vwr2a::load_kernel`],
    /// reclaiming its configuration words.  Returns the words freed.
    ///
    /// The id (and any copy of it) is permanently invalidated: even if the
    /// slot is later reused by another kernel, the stale handle fails with
    /// [`CoreError::UnknownKernel`].  Runtimes use this to evict cold
    /// kernels under configuration-memory pressure; the evicted kernel's
    /// next launch pays the configuration-word streaming again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownKernel`] for a stale or invalid id.
    pub fn unload_kernel(&mut self, id: KernelId) -> Result<usize> {
        self.config_mem.remove(id)
    }

    /// Runs a kernel previously stored with [`Vwr2a::load_kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownKernel`], structural-hazard errors from
    /// the columns, or [`CoreError::CycleLimitExceeded`].
    pub fn run_kernel(&mut self, id: KernelId) -> Result<RunStats> {
        let config_words = self.config_mem.kernel_words(id)?;
        self.launch(id, config_words)
    }

    /// Streams a stored kernel's configuration words into the per-slot
    /// program memories *without* launching it, returning the streaming
    /// cycles — the cold half of a launch, paid ahead of time.
    ///
    /// This is a *prefetch*: a runtime that knows which kernel launches
    /// next can hide the configuration load behind other engines' work —
    /// the configuration streamer is idle while the array computes and the
    /// DMA stages — and then relaunch the kernel with
    /// [`Vwr2a::run_kernel_warm`], paying execution cycles only.  The
    /// activity counters charge the streamed words exactly as a cold
    /// launch would, so `prefetch + warm launch` costs the same total work
    /// as one cold launch; only the schedule differs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownKernel`] for a stale or invalid id.
    pub fn prefetch_kernel(&mut self, id: KernelId) -> Result<u64> {
        let config_words = self.config_mem.kernel_words(id)? as u64;
        self.counters.config_words_loaded += config_words;
        self.counters.cycles += config_words;
        Ok(config_words)
    }

    /// Re-runs a kernel whose configuration is already resident in the
    /// per-slot program memories (a *warm* launch): only the execution
    /// cycles are charged, not the configuration-word streaming.
    ///
    /// Kernels that run the same program repeatedly with different SRF
    /// parameters — e.g. the per-stage FFT program — use this to avoid
    /// paying the configuration load on every launch, exactly as the real
    /// hardware would.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownKernel`], structural-hazard errors from
    /// the columns, or [`CoreError::CycleLimitExceeded`].
    pub fn run_kernel_warm(&mut self, id: KernelId) -> Result<RunStats> {
        self.config_mem.kernel_words(id)?;
        self.launch(id, 0)
    }

    /// Common body of the stored-kernel launch paths: serve the launch
    /// from the replay cache when a trace recorded for this program (on
    /// this array or any array sharing its [`ReplayCache`]) has guards
    /// matching the live SRF state, otherwise interpret through the
    /// per-slot decode cache — recording a fresh trace as a side effect so
    /// the *next* matching launch replays.
    fn launch(&mut self, id: KernelId, config_words: usize) -> Result<RunStats> {
        if self.replay_enabled {
            if let Some(trace) = self.find_trace(id, config_words) {
                return self.replay(&trace, config_words);
            }
        }
        let kernel = self.config_mem.fetch_decoded(id)?;
        let record = self.replay_enabled;
        let (stats, trace) = self.execute_recorded(&kernel, config_words, record)?;
        if let (Some(trace), Some(traces)) = (trace, self.config_mem.traces(id)) {
            traces.push(Arc::new(trace));
        }
        Ok(stats)
    }

    /// Finds a cached trace whose SRF guards all match the live SRF state
    /// and whose recorded length fits the cycle budget (newest first).  A
    /// launch that would exceed the cycle limit falls back to the
    /// interpreter so it reports [`CoreError::CycleLimitExceeded`] exactly
    /// as an uncached launch would.
    fn find_trace(&self, id: KernelId, config_words: usize) -> Option<Arc<ReplayTrace>> {
        self.config_mem.traces(id)?.find(|trace| {
            config_words as u64 + trace.exec_cycles <= self.cycle_limit
                && trace.guards.iter().all(|guard| {
                    self.columns[guard.column].srf().read(guard.index) == Ok(guard.value)
                })
        })
    }

    /// Replays a recorded trace: the schedule runs as a straight-line pass
    /// over the live SPM/VWR/SRF data path, and the recorded cycles and
    /// counters are credited verbatim (plus the configuration streaming of
    /// this launch, which is not part of the trace).
    fn replay(&mut self, trace: &ReplayTrace, config_words: usize) -> Result<RunStats> {
        let before = self.counters;
        self.counters.config_words_loaded += config_words as u64;
        for column in self.columns.iter_mut().take(trace.columns_used) {
            column.reset_execution();
        }
        let mut start = 0usize;
        for segment in &trace.segments {
            let ops = &trace.ops[start..start + segment.len as usize];
            start += segment.len as usize;
            let column = &mut self.columns[usize::from(segment.column)];
            if segment.in_place {
                column.replay_in_place(ops)?;
            } else {
                column.replay_segment(ops, &mut self.spm, &mut self.replay_scratch)?;
            }
        }
        for (column, finish) in self
            .columns
            .iter_mut()
            .zip(&trace.finish)
            .take(trace.columns_used)
        {
            column.apply_replay_finish(finish);
        }
        let cycles = config_words as u64 + trace.exec_cycles;
        self.counters += trace.counters;
        self.counters.cycles += config_words as u64;
        self.replays += 1;
        Ok(RunStats {
            kernel_name: trace.name.clone(),
            cycles,
            columns_used: trace.columns_used,
            counters: self.counters - before,
        })
    }

    /// Validates and runs a kernel directly, without persisting it in the
    /// configuration memory (convenience for one-shot programs).
    ///
    /// # Errors
    ///
    /// Returns validation errors, structural-hazard errors, or
    /// [`CoreError::CycleLimitExceeded`].
    pub fn run_program(&mut self, kernel: &KernelProgram) -> Result<RunStats> {
        kernel.validate(&self.geometry)?;
        self.execute_recorded(kernel, kernel.config_words(), false)
            .map(|(stats, _)| stats)
    }

    /// Interprets `kernel` after streaming `config_words` configuration
    /// words (one per cycle; `RunStats::cycles` covers both).  When
    /// `record` is set, the interpreter drives a [`TraceRecorder`] and the
    /// resolved schedule is returned alongside the stats (or `None` if the
    /// execution proved non-replayable — see [`crate::replay`]).
    fn execute_recorded(
        &mut self,
        kernel: &KernelProgram,
        config_words: usize,
        record: bool,
    ) -> Result<(RunStats, Option<ReplayTrace>)> {
        let before = self.counters;
        let columns_used = kernel.columns.len();

        // Kernel launch: the configuration words stream from the
        // configuration memory into the per-slot program memories, one word
        // per cycle.
        self.counters.config_words_loaded += config_words as u64;
        let mut cycles = config_words as u64;

        for column in self.columns.iter_mut().take(columns_used) {
            column.reset_execution();
        }

        let mut recorder = if record {
            Some(TraceRecorder::new(columns_used))
        } else {
            None
        };

        let mut running = std::mem::take(&mut self.running_scratch);
        running.clear();
        running.resize(columns_used, true);
        while running.iter().any(|&r| r) {
            cycles += 1;
            if cycles > self.cycle_limit {
                self.running_scratch = running;
                return Err(CoreError::CycleLimitExceeded {
                    limit: self.cycle_limit,
                });
            }
            for (idx, program) in kernel.columns.iter().enumerate() {
                if running[idx] {
                    if let Some(rec) = recorder.as_mut() {
                        rec.begin_segment(idx);
                    }
                    let stepped = self.columns[idx].step_traced(
                        program,
                        &mut self.spm,
                        &mut self.counters,
                        cycles,
                        recorder.as_mut(),
                    );
                    match stepped {
                        Ok(r) => running[idx] = r,
                        Err(e) => {
                            self.running_scratch = running;
                            return Err(e);
                        }
                    }
                }
            }
        }
        self.running_scratch = running;
        self.counters.cycles += cycles;

        let exec_cycles = cycles - config_words as u64;
        let trace = recorder.and_then(|recorder| {
            // The trace stores the execution-only counter delta so the same
            // recording serves both cold and warm launches; the replay path
            // re-adds whatever configuration streaming its launch charges.
            let mut exec_counters = self.counters - before;
            exec_counters.cycles -= config_words as u64;
            exec_counters.config_words_loaded -= config_words as u64;
            let finish = self
                .columns
                .iter()
                .take(columns_used)
                .map(Column::replay_finish)
                .collect();
            recorder.finish(kernel.name.clone(), exec_cycles, exec_counters, finish)
        });
        Ok((
            RunStats {
                kernel_name: kernel.name.clone(),
                cycles,
                columns_used,
                counters: self.counters - before,
            },
            trace,
        ))
    }
}

impl Default for Vwr2a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ColumnProgramBuilder;
    use crate::geometry::VwrId;
    use crate::isa::lcu::{LcuCond, LcuInstr, LcuSrc};
    use crate::isa::lsu::{LsuAddr, LsuInstr};
    use crate::isa::mxcu::MxcuInstr;
    use crate::isa::rc::{RcDst, RcInstr, RcOpcode, RcSrc};
    use crate::program::{ColumnProgram, Row};

    fn vector_scale_kernel(scale_srf: u8) -> KernelProgram {
        // Multiply every word of SPM line 0 by SRF[scale_srf] (fixed-point)
        // and store the result to line 1.
        let g = Geometry::paper();
        let mut b = ColumnProgramBuilder::new(g.rcs_per_column);
        b.push(b.row().lsu(LsuInstr::LoadVwr {
            vwr: VwrId::A,
            line: LsuAddr::Imm(0),
        }));
        b.push(
            b.row()
                .lcu(LcuInstr::Li { r: 0, value: 0 })
                .mxcu(MxcuInstr::SetIdx(0)),
        );
        // Read the scalar once into every RC's local register to avoid SRF
        // port conflicts inside the loop (one RC at a time).
        for rc in 0..4u8 {
            b.push(b.row().rc(
                rc as usize,
                RcInstr::mov(RcDst::Reg(0), RcSrc::Srf(scale_srf)),
            ));
        }
        let top = b.new_label();
        b.bind_label(top);
        b.push(
            b.row()
                .lcu(LcuInstr::Add {
                    r: 0,
                    src: LcuSrc::Imm(1),
                })
                .mxcu(MxcuInstr::AddIdx(1))
                .rc_all(RcInstr::new(
                    RcOpcode::MulFxp,
                    RcDst::Vwr(VwrId::C),
                    RcSrc::Vwr(VwrId::A),
                    RcSrc::Reg(0),
                )),
        );
        b.push_branch(b.row(), LcuCond::Lt, 0, LcuSrc::Imm(32), top);
        b.push(b.row().lsu(LsuInstr::StoreVwr {
            vwr: VwrId::C,
            line: LsuAddr::Imm(1),
        }));
        b.push_exit();
        KernelProgram::new("vector-scale", vec![b.build().unwrap()]).unwrap()
    }

    #[test]
    fn full_flow_dma_kernel_dma() {
        let mut accel = Vwr2a::new();
        let input: Vec<i32> = (0..128).map(|i| i << 16).collect(); // Q15.16 integers
        accel.dma_to_spm(&input, 0).unwrap();
        accel.write_srf(0, 0, 1 << 15).unwrap(); // scale by 0.5
        let kernel = vector_scale_kernel(0);
        let id = accel.load_kernel(&kernel).unwrap();
        let stats = accel.run_kernel(id).unwrap();
        assert!(stats.cycles > kernel.config_words() as u64);
        assert_eq!(stats.columns_used, 1);
        let (out, _) = accel.dma_from_spm(128, 128).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as i32) << 15, "word {i}");
        }
    }

    #[test]
    fn run_program_without_storing() {
        let mut accel = Vwr2a::new();
        let input: Vec<i32> = (0..128).map(|i| (i - 64) << 16).collect();
        accel.dma_to_spm(&input, 0).unwrap();
        accel.write_srf(0, 0, 2 << 16).unwrap(); // scale by 2.0
        let stats = accel.run_program(&vector_scale_kernel(0)).unwrap();
        assert_eq!(&*stats.kernel_name, "vector-scale");
        let (out, _) = accel.dma_from_spm(128, 128).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as i32 - 64) << 17);
        }
    }

    #[test]
    fn two_column_kernel_runs_both_columns() {
        // Column 0 writes 1 to SRF 7, column 1 writes 2; both exit.
        let col0 = ColumnProgram::new(vec![
            Row::new(4).rc(0, RcInstr::mov(RcDst::Srf(7), RcSrc::Imm(1))),
            Row::new(4).lcu(LcuInstr::Exit),
        ])
        .unwrap();
        let col1 = ColumnProgram::new(vec![
            Row::new(4).rc(0, RcInstr::mov(RcDst::Srf(7), RcSrc::Imm(2))),
            Row::new(4).rc(0, RcInstr::NOP),
            Row::new(4).lcu(LcuInstr::Exit),
        ])
        .unwrap();
        let kernel = KernelProgram::new("two-col", vec![col0, col1]).unwrap();
        let mut accel = Vwr2a::new();
        let stats = accel.run_program(&kernel).unwrap();
        assert_eq!(stats.columns_used, 2);
        assert_eq!(accel.read_srf(0, 7).unwrap(), 1);
        assert_eq!(accel.read_srf(1, 7).unwrap(), 2);
        // The longer column determines the execution portion of the cycle count.
        assert_eq!(
            stats.cycles,
            kernel.config_words() as u64 + 3,
            "config load + 3 execution cycles"
        );
    }

    #[test]
    fn cycle_limit_detects_runaway_kernels() {
        let mut accel = Vwr2a::new();
        accel.set_cycle_limit(100);
        let mut b = ColumnProgramBuilder::new(4);
        let top = b.new_label();
        b.bind_label(top);
        b.push(b.row());
        b.push_jump(b.row(), top);
        b.push_exit();
        let kernel = KernelProgram::new("forever", vec![b.build().unwrap()]).unwrap();
        assert!(matches!(
            accel.run_program(&kernel),
            Err(CoreError::CycleLimitExceeded { limit: 100 })
        ));
    }

    #[test]
    fn invalid_kernels_are_rejected_before_running() {
        let mut accel = Vwr2a::new();
        // Three columns on a two-column array.
        let col = ColumnProgram::new(vec![Row::new(4).lcu(LcuInstr::Exit)]).unwrap();
        let kernel = KernelProgram::new("too-wide", vec![col.clone(), col.clone(), col]).unwrap();
        assert!(accel.load_kernel(&kernel).is_err());
        assert!(accel.run_program(&kernel).is_err());
    }

    #[test]
    fn unloaded_kernels_cannot_be_run_even_after_slot_reuse() {
        let mut accel = Vwr2a::new();
        let kernel = vector_scale_kernel(0);
        let id = accel.load_kernel(&kernel).unwrap();
        let freed = accel.unload_kernel(id).unwrap();
        assert_eq!(freed, kernel.config_words());
        assert_eq!(accel.config_mem().used_words(), 0);
        // The slot is reused by a different kernel; the stale id must fail
        // instead of silently launching the wrong program.
        let other = vector_scale_kernel(1);
        let fresh = accel.load_kernel(&other).unwrap();
        assert_eq!(fresh.slot(), id.slot());
        assert!(matches!(
            accel.run_kernel(id),
            Err(CoreError::UnknownKernel { .. })
        ));
        assert!(matches!(
            accel.run_kernel_warm(id),
            Err(CoreError::UnknownKernel { .. })
        ));
        assert!(accel.unload_kernel(id).is_err());
        accel.run_kernel(fresh).unwrap();
    }

    #[test]
    fn prefetch_plus_warm_launch_costs_the_same_work_as_one_cold_launch() {
        let input: Vec<i32> = (0..128).map(|i| i << 16).collect();
        let kernel = vector_scale_kernel(0);

        let mut cold = Vwr2a::new();
        cold.dma_to_spm(&input, 0).unwrap();
        cold.write_srf(0, 0, 1 << 15).unwrap();
        let id = cold.load_kernel(&kernel).unwrap();
        let cold_stats = cold.run_kernel(id).unwrap();
        let (cold_out, _) = cold.dma_from_spm(128, 128).unwrap();

        let mut prefetched = Vwr2a::new();
        prefetched.dma_to_spm(&input, 0).unwrap();
        prefetched.write_srf(0, 0, 1 << 15).unwrap();
        let id = prefetched.load_kernel(&kernel).unwrap();
        let streamed = prefetched.prefetch_kernel(id).unwrap();
        assert_eq!(streamed, kernel.config_words() as u64);
        let warm_stats = prefetched.run_kernel_warm(id).unwrap();
        let (warm_out, _) = prefetched.dma_from_spm(128, 128).unwrap();

        // Identical outputs, identical total work: the prefetch only moves
        // the configuration streaming ahead of the launch.
        assert_eq!(warm_out, cold_out);
        assert_eq!(streamed + warm_stats.cycles, cold_stats.cycles);
        assert_eq!(
            prefetched.counters().config_words_loaded,
            cold.counters().config_words_loaded
        );
        assert_eq!(prefetched.counters().cycles, cold.counters().cycles);
    }

    #[test]
    fn prefetch_rejects_stale_kernel_ids() {
        let mut accel = Vwr2a::new();
        let id = accel.load_kernel(&vector_scale_kernel(0)).unwrap();
        accel.unload_kernel(id).unwrap();
        assert!(matches!(
            accel.prefetch_kernel(id),
            Err(CoreError::UnknownKernel { .. })
        ));
    }

    /// Like [`vector_scale_kernel`] but the input/output SPM lines come
    /// from SRF[1]/SRF[2], so the trace carries SRF guards.
    fn vector_scale_kernel_srf_lines() -> KernelProgram {
        let g = Geometry::paper();
        let mut b = ColumnProgramBuilder::new(g.rcs_per_column);
        b.push(b.row().lsu(LsuInstr::LoadVwr {
            vwr: VwrId::A,
            line: LsuAddr::Srf(1),
        }));
        b.push(
            b.row()
                .lcu(LcuInstr::Li { r: 0, value: 0 })
                .mxcu(MxcuInstr::SetIdx(0)),
        );
        for rc in 0..4u8 {
            b.push(
                b.row()
                    .rc(rc as usize, RcInstr::mov(RcDst::Reg(0), RcSrc::Srf(0))),
            );
        }
        let top = b.new_label();
        b.bind_label(top);
        b.push(
            b.row()
                .lcu(LcuInstr::Add {
                    r: 0,
                    src: LcuSrc::Imm(1),
                })
                .mxcu(MxcuInstr::AddIdx(1))
                .rc_all(RcInstr::new(
                    RcOpcode::MulFxp,
                    RcDst::Vwr(VwrId::C),
                    RcSrc::Vwr(VwrId::A),
                    RcSrc::Reg(0),
                )),
        );
        b.push_branch(b.row(), LcuCond::Lt, 0, LcuSrc::Imm(32), top);
        b.push(b.row().lsu(LsuInstr::StoreVwr {
            vwr: VwrId::C,
            line: LsuAddr::Srf(2),
        }));
        b.push_exit();
        KernelProgram::new("vector-scale-srf", vec![b.build().unwrap()]).unwrap()
    }

    #[test]
    fn warm_replay_is_bit_identical_to_interpretation() {
        let kernel = vector_scale_kernel(0);
        let mut replay = Vwr2a::new();
        let mut interp = Vwr2a::new();
        interp.set_replay_enabled(false);
        for accel in [&mut replay, &mut interp] {
            accel.write_srf(0, 0, 1 << 15).unwrap();
        }
        let id_r = replay.load_kernel(&kernel).unwrap();
        let id_i = interp.load_kernel(&kernel).unwrap();
        for window in 0..4 {
            let input: Vec<i32> = (0..128).map(|i| (i + window) << 16).collect();
            for accel in [&mut replay, &mut interp] {
                accel.dma_to_spm(&input, 0).unwrap();
            }
            let stats_r = if window == 0 {
                replay.run_kernel(id_r).unwrap()
            } else {
                replay.run_kernel_warm(id_r).unwrap()
            };
            let stats_i = if window == 0 {
                interp.run_kernel(id_i).unwrap()
            } else {
                interp.run_kernel_warm(id_i).unwrap()
            };
            assert_eq!(stats_r, stats_i, "window {window}");
            let (out_r, _) = replay.dma_from_spm(128, 128).unwrap();
            let (out_i, _) = interp.dma_from_spm(128, 128).unwrap();
            assert_eq!(out_r, out_i, "window {window}");
        }
        assert_eq!(replay.counters(), interp.counters());
        assert_eq!(replay.column(0).unwrap(), interp.column(0).unwrap());
        // The cold launch recorded; every warm window replayed.
        assert_eq!(replay.replays(), 3);
        assert_eq!(interp.replays(), 0);
    }

    #[test]
    fn changed_guard_parameter_re_records_and_stays_correct() {
        // The SPM line pointers live in the SRF, so they become trace
        // guards; the scale factor is a data read and replays live.
        let kernel = vector_scale_kernel_srf_lines();
        let mut accel = Vwr2a::new();
        let input: Vec<i32> = (0..128).map(|i| i << 16).collect();
        accel.dma_to_spm(&input, 0).unwrap();
        accel.write_srf(0, 0, 1 << 15).unwrap(); // scale 0.5
        accel.write_srf(0, 1, 0).unwrap(); // input line
        accel.write_srf(0, 2, 1).unwrap(); // output line
        let id = accel.load_kernel(&kernel).unwrap();
        accel.run_kernel(id).unwrap();
        accel.run_kernel_warm(id).unwrap();
        assert_eq!(accel.replays(), 1, "same parameters replay");

        // A data parameter change must NOT invalidate the trace — the
        // replayed pass reads the live SRF value.
        accel.write_srf(0, 0, 1 << 16).unwrap(); // scale 1.0
        accel.run_kernel_warm(id).unwrap();
        assert_eq!(accel.replays(), 2, "data parameter change still replays");
        let (out, _) = accel.dma_from_spm(128, 128).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as i32) << 16, "word {i} at scale 1.0");
        }

        // A guarded (addressing) parameter change must miss and re-record.
        accel.write_srf(0, 2, 2).unwrap(); // move the output line
        accel.run_kernel_warm(id).unwrap();
        assert_eq!(accel.replays(), 2, "changed guard misses the cache");
        let (out, _) = accel.dma_from_spm(256, 128).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as i32) << 16, "word {i} after line move");
        }
        // ...and the re-recorded snapshot replays again.
        accel.run_kernel_warm(id).unwrap();
        assert_eq!(accel.replays(), 3);
        // The original snapshot is still cached too.
        accel.write_srf(0, 2, 1).unwrap();
        accel.run_kernel_warm(id).unwrap();
        assert_eq!(accel.replays(), 4, "reverted guard hits the older trace");
    }

    /// Runs `kernel` (loaded fresh) on a replay-on and a replay-off
    /// accelerator with identical state, asserting identical stats, SPM
    /// and columns, and returns whether the replay-on launch replayed.
    fn launch_both(on: &mut Vwr2a, off: &mut Vwr2a, kernel: &KernelProgram) -> bool {
        let before = on.replays();
        let id_on = on.load_kernel(kernel).unwrap();
        let id_off = off.load_kernel(kernel).unwrap();
        assert_eq!(
            on.run_kernel(id_on).unwrap(),
            off.run_kernel(id_off).unwrap()
        );
        assert_eq!(on.spm(), off.spm());
        for c in 0..on.geometry().columns {
            assert_eq!(on.column(c).unwrap(), off.column(c).unwrap());
        }
        on.unload_kernel(id_on).unwrap();
        off.unload_kernel(id_off).unwrap();
        on.replays() > before
    }

    /// A replay-on and a replay-off accelerator with the same SPM seed and
    /// SRF parameters.
    fn lockstep(geometry: Geometry) -> (Vwr2a, Vwr2a) {
        let mut on = Vwr2a::with_geometry(geometry).unwrap();
        let mut off = Vwr2a::with_geometry(geometry).unwrap();
        off.set_replay_enabled(false);
        let input: Vec<i32> = (0..geometry.vwr_words as i32).map(|i| i << 16).collect();
        for accel in [&mut on, &mut off] {
            accel.dma_to_spm(&input, 0).unwrap();
            accel.write_srf(0, 0, 1 << 15).unwrap();
            accel.write_srf(0, 1, 3 << 16).unwrap();
        }
        (on, off)
    }

    #[test]
    fn a_reloaded_program_replays_on_its_first_launch() {
        let (mut on, mut off) = lockstep(Geometry::paper());
        let kernel = vector_scale_kernel(0);
        assert!(
            !launch_both(&mut on, &mut off, &kernel),
            "first sight records"
        );
        // Unloaded in between: the trace outlives the slot.
        assert!(launch_both(&mut on, &mut off, &kernel));
    }

    #[test]
    fn a_different_program_in_a_reused_slot_never_replays_the_old_trace() {
        let (mut on, mut off) = lockstep(Geometry::paper());
        let scale_by_srf0 = vector_scale_kernel(0);
        assert!(!launch_both(&mut on, &mut off, &scale_by_srf0));
        // Same name and length, different configuration words (reads
        // SRF[1]): same slot, new content, so it must interpret.
        let scale_by_srf1 = vector_scale_kernel(1);
        assert!(!launch_both(&mut on, &mut off, &scale_by_srf1));
        assert!(launch_both(&mut on, &mut off, &scale_by_srf1));
        assert_eq!(on.replay_cache().programs(), 2);
    }

    #[test]
    fn two_geometries_never_share_a_trace() {
        let (mut on, mut off) = lockstep(Geometry::paper());
        let mut wide = Geometry::paper();
        wide.vwr_words = 256;
        let (mut wide_on, mut wide_off) = lockstep(wide);
        wide_on.share_replay_cache(on.replay_cache());
        let kernel = vector_scale_kernel(0);
        assert!(!launch_both(&mut on, &mut off, &kernel));
        // The same words resolve to other VWR words on a wider array.
        assert!(!launch_both(&mut wide_on, &mut wide_off, &kernel));
        assert!(launch_both(&mut wide_on, &mut wide_off, &kernel));
        assert_eq!(on.replay_cache().programs(), 2);
    }

    #[test]
    fn a_trace_recorded_on_one_accelerator_replays_on_another_sharing_its_cache() {
        let (mut first, mut off) = lockstep(Geometry::paper());
        let (mut second, _) = lockstep(Geometry::paper());
        let kernel = vector_scale_kernel(0);
        assert!(!launch_both(&mut first, &mut off, &kernel));
        // A fresh accelerator has a store of its own...
        assert!(!second.replay_cache().same_store(first.replay_cache()));
        // ...until it shares the first one's: then it replays at once.
        second.share_replay_cache(first.replay_cache());
        assert!(launch_both(&mut second, &mut off, &kernel));
        // Clones share the store too.
        let mut clone = second.clone();
        assert!(clone.replay_cache().same_store(first.replay_cache()));
        assert!(launch_both(&mut clone, &mut off, &kernel));
    }

    #[test]
    fn sharing_a_cache_re_keys_resident_kernels() {
        let (mut first, _) = lockstep(Geometry::paper());
        let (mut second, _) = lockstep(Geometry::paper());
        let kernel = vector_scale_kernel(0);
        let id = first.load_kernel(&kernel).unwrap();
        first.run_kernel(id).unwrap();
        // Loaded before the share, launched after: it finds the trace.
        let resident = second.load_kernel(&kernel).unwrap();
        second.share_replay_cache(first.replay_cache());
        second.run_kernel(resident).unwrap();
        assert_eq!(second.replays(), 1);
    }

    #[test]
    fn the_cache_bound_drops_the_least_recently_loaded_program() {
        use crate::replay::PROGRAMS_PER_CACHE;
        let (mut on, mut off) = lockstep(Geometry::paper());
        let kernel = vector_scale_kernel(0);
        let filler = |i: usize| {
            let col = ColumnProgram::new(vec![Row::new(4).lcu(LcuInstr::Exit)]).unwrap();
            KernelProgram::new(format!("filler-{i}"), vec![col]).unwrap()
        };
        let load_fillers = |accel: &mut Vwr2a, range: std::ops::Range<usize>| {
            for i in range {
                let id = accel.load_kernel(&filler(i)).unwrap();
                accel.unload_kernel(id).unwrap();
            }
        };
        assert!(!launch_both(&mut on, &mut off, &kernel));
        load_fillers(&mut on, 0..PROGRAMS_PER_CACHE - 1);
        assert_eq!(on.replay_cache().programs(), PROGRAMS_PER_CACHE);
        // Reloading refreshes the program, so the next newcomer drops
        // filler 0 instead.
        assert!(launch_both(&mut on, &mut off, &kernel));
        load_fillers(&mut on, PROGRAMS_PER_CACHE..PROGRAMS_PER_CACHE + 1);
        assert!(launch_both(&mut on, &mut off, &kernel));
        assert_eq!(on.replay_cache().programs(), PROGRAMS_PER_CACHE);
        // A full cache's worth of newer programs drops it.
        load_fillers(&mut on, 100..100 + PROGRAMS_PER_CACHE);
        assert!(!launch_both(&mut on, &mut off, &kernel));
        assert_eq!(on.replay_cache().programs(), PROGRAMS_PER_CACHE);
    }

    #[test]
    fn an_oversized_geometry_falls_back_to_interpretation() {
        // 2^17-word VWRs: RC 3 writes VWR word 3 * 2^15, past the u16
        // word field of a trace op.
        let mut huge = Geometry::paper();
        huge.vwr_words = 1 << 17;
        huge.spm_bytes = 4 << 17;
        let (mut on, mut off) = lockstep(huge);
        let col = ColumnProgram::new(vec![
            Row::new(4).rc(3, RcInstr::mov(RcDst::Vwr(VwrId::C), RcSrc::Srf(0))),
            Row::new(4).lsu(LsuInstr::StoreVwr {
                vwr: VwrId::C,
                line: LsuAddr::Imm(0),
            }),
            Row::new(4).lcu(LcuInstr::Exit),
        ])
        .unwrap();
        let kernel = KernelProgram::new("huge", vec![col]).unwrap();
        for _ in 0..2 {
            assert!(!launch_both(&mut on, &mut off, &kernel));
        }
        assert_eq!(on.spm().read_word(3 << 15).unwrap(), 1 << 15);
        assert_eq!(on.replay_cache().traces(), 0);
    }

    #[test]
    fn an_in_kernel_pointer_bump_replays_guarded_on_its_launch_value() {
        // The FFT interleave pass's shape: store through SRF[6], bump it,
        // store through it again.
        let col = ColumnProgram::new(vec![
            Row::new(4).lsu(LsuInstr::LoadVwr {
                vwr: VwrId::A,
                line: LsuAddr::Imm(0),
            }),
            Row::new(4).lsu(LsuInstr::StoreVwr {
                vwr: VwrId::A,
                line: LsuAddr::Srf(6),
            }),
            Row::new(4).lsu(LsuInstr::AddSrf { srf: 6, imm: 1 }),
            Row::new(4).lsu(LsuInstr::StoreVwr {
                vwr: VwrId::A,
                line: LsuAddr::Srf(6),
            }),
            Row::new(4).lcu(LcuInstr::Exit),
        ])
        .unwrap();
        let kernel = KernelProgram::new("bump", vec![col]).unwrap();
        let (mut on, mut off) = lockstep(Geometry::paper());
        for (line, replays) in [(2, false), (2, true), (4, false), (2, true), (4, true)] {
            for accel in [&mut on, &mut off] {
                accel.write_srf(0, 6, line).unwrap();
            }
            assert_eq!(
                launch_both(&mut on, &mut off, &kernel),
                replays,
                "line {line}"
            );
            assert_eq!(on.read_srf(0, 6).unwrap(), line + 1);
        }
    }

    /// Loads `kernel` on both accelerators, launches it twice (the first
    /// records, the second replays) over fresh SPM data each time, checks
    /// replay against interpretation, and returns the recorded segments as
    /// `(column, in_place, len)`.
    fn record_and_replay(
        on: &mut Vwr2a,
        off: &mut Vwr2a,
        kernel: &KernelProgram,
    ) -> Vec<(u16, bool, u32)> {
        for launch in 0..2 {
            for line in 0..2 {
                let data: Vec<i32> = (0..128)
                    .map(|i| (i * 37 + 101 * line + 53 * launch) % 1999 - 999)
                    .collect();
                for accel in [&mut *on, &mut *off] {
                    accel.dma_to_spm(&data, line as usize * 128).unwrap();
                }
            }
            assert_eq!(launch_both(on, off, kernel), launch == 1, "launch {launch}");
            assert_eq!(on.counters(), off.counters(), "launch {launch}");
        }
        assert_eq!(on.replay_cache().traces(), 1, "one trace recorded");
        let id = on.load_kernel(kernel).unwrap();
        let trace = on.config_mem.traces(id).and_then(|t| t.find(|_| true));
        trace
            .expect("the recorded trace")
            .segments
            .iter()
            .map(|s| (s.column, s.in_place, s.len))
            .collect()
    }

    #[test]
    fn fir_shaped_register_rows_replay_in_place() {
        // The FIR tap loop's shape on both columns: load the samples,
        // multiply and accumulate into each cell's registers, shift the
        // sum into VWR C, store it.
        let mut b = ColumnProgramBuilder::new(4);
        b.push(b.row().lsu(LsuInstr::LoadVwr {
            vwr: VwrId::A,
            line: LsuAddr::Imm(0),
        }));
        b.push(
            b.row()
                .mxcu(MxcuInstr::SetIdx(2))
                .lcu(LcuInstr::Li { r: 0, value: 0 }),
        );
        let top = b.new_label();
        b.bind_label(top);
        let mul =
            |dst, tap| RcInstr::new(RcOpcode::Mul, dst, RcSrc::Vwr(VwrId::A), RcSrc::Imm(tap));
        b.push(
            b.row()
                .rc_all(mul(RcDst::Reg(0), 3))
                .mxcu(MxcuInstr::AddIdx(-1)),
        );
        b.push(
            b.row()
                .rc_all(mul(RcDst::Reg(1), -5))
                .mxcu(MxcuInstr::AddIdx(2)),
        );
        b.push(b.row().rc_all(RcInstr::new(
            RcOpcode::Add,
            RcDst::Reg(0),
            RcSrc::Reg(0),
            RcSrc::Reg(1),
        )));
        b.push(
            b.row()
                .rc_all(RcInstr::new(
                    RcOpcode::Sra,
                    RcDst::Vwr(VwrId::C),
                    RcSrc::Reg(0),
                    RcSrc::Imm(1),
                ))
                .lcu(LcuInstr::Add {
                    r: 0,
                    src: LcuSrc::Imm(1),
                }),
        );
        b.push_branch(b.row(), LcuCond::Lt, 0, LcuSrc::Imm(2), top);
        b.push(b.row().lsu(LsuInstr::StoreVwr {
            vwr: VwrId::C,
            line: LsuAddr::Imm(2),
        }));
        b.push_exit();
        let col = b.build().unwrap();
        let kernel = KernelProgram::new("fir-shape", vec![col.clone(), col]).unwrap();

        let (mut on, mut off) = lockstep(Geometry::paper());
        let segments = record_and_replay(&mut on, &mut off, &kernel);
        // Each cycle steps column 0, then column 1.
        let cycle = |in_place, len| [(0, in_place, len), (1, in_place, len)];
        let mut expected = cycle(false, 1).to_vec();
        for _ in 0..2 {
            for _ in 0..3 {
                expected.extend(cycle(true, 4));
            }
            expected.extend(cycle(false, 4));
        }
        expected.extend(cycle(false, 1));
        assert_eq!(segments, expected);
    }

    #[test]
    fn rows_that_read_a_latch_or_write_shared_state_stay_staged() {
        let mov = RcInstr::mov;
        let col = ColumnProgram::new(vec![
            // Two cells writing their own registers: in place.
            Row::new(4)
                .rc(0, mov(RcDst::Reg(0), RcSrc::Imm(7)))
                .rc(1, mov(RcDst::Reg(1), RcSrc::Imm(9))),
            // RC1 reads the latch RC0 rewrites this cycle.
            Row::new(4).rc(0, mov(RcDst::Reg(0), RcSrc::Imm(1))).rc(
                1,
                RcInstr::new(RcOpcode::Add, RcDst::Reg(0), RcSrc::RcAbove, RcSrc::Reg(0)),
            ),
            // A VWR-word destination next to a register one.
            Row::new(4)
                .rc(0, mov(RcDst::Vwr(VwrId::C), RcSrc::Reg(0)))
                .rc(1, mov(RcDst::Reg(1), RcSrc::Imm(2))),
            // An SRF destination.
            Row::new(4).rc(2, mov(RcDst::Srf(3), RcSrc::Reg(0))),
            // An LSU op next to register-only RC ops.
            Row::new(4)
                .lsu(LsuInstr::LoadVwr {
                    vwr: VwrId::B,
                    line: LsuAddr::Imm(1),
                })
                .rc_all(mov(RcDst::Reg(1), RcSrc::Vwr(VwrId::A))),
            Row::new(4).lsu(LsuInstr::StoreVwr {
                vwr: VwrId::C,
                line: LsuAddr::Imm(2),
            }),
            Row::new(4).lcu(LcuInstr::Exit),
        ])
        .unwrap();
        let kernel = KernelProgram::new("staged", vec![col]).unwrap();
        let (mut on, mut off) = lockstep(Geometry::paper());
        assert_eq!(
            record_and_replay(&mut on, &mut off, &kernel),
            [
                (0, true, 2),
                (0, false, 2),
                (0, false, 2),
                (0, false, 1),
                (0, false, 5),
                (0, false, 1),
            ]
        );
    }

    #[test]
    fn counters_accumulate() {
        let mut accel = Vwr2a::new();
        accel.dma_to_spm(&[0; 64], 0).unwrap();
        assert_eq!(accel.counters().dma_words, 64);
    }

    #[test]
    fn invalid_column_access_rejected() {
        let accel = Vwr2a::new();
        assert!(accel.column(2).is_err());
        assert!(accel.read_srf(5, 0).is_err());
    }
}
