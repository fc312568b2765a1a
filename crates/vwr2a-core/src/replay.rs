//! Warm-window replay cache: record one interpreted execution, replay it
//! as a straight-line native pass.
//!
//! The paper's workloads are thousands of *identical* warm windows per
//! kernel: the program, the geometry and the control/addressing SRF
//! parameters do not change from window to window — only the data in the
//! SPM does.  Interpreting the same instruction schedule again and again
//! is therefore pure host overhead.  This module removes it:
//!
//! * The **first** execution of a program under a given SRF-parameter
//!   snapshot runs through the normal interpreter with a [`TraceRecorder`]
//!   attached.  The recorder captures the *resolved* per-cycle schedule —
//!   every ALU operation with its operand locations already multiplexed
//!   (VWR word indices folded with the MXCU index, SPM line/word addresses
//!   resolved), the final cycle count, the activity-counter delta and the
//!   end-of-run control state.
//! * Every **later** launch of the same program whose SRF guards still
//!   match skips decode and control-flow interpretation entirely: the
//!   recorded schedule is replayed as a straight-line pass over the live
//!   SPM/VWR/SRF data path ([`ReplayOp`]), and the recorded cycles and
//!   counters are credited verbatim.
//!
//! # Correctness model
//!
//! A trace bakes in *control flow and addressing* but never *data*: ALU
//! results, SPM/VWR/SRF contents all flow through the live architectural
//! state at replay time, so replayed outputs are bit-identical to
//! interpretation even though every window carries different samples.
//! Baking the schedule is sound only if control flow and addressing are
//! reproducible.  The recorder classifies every SRF entry consumed for
//! control or addressing (an LSU address, a loop bound, an MXCU index
//! load):
//!
//! * **Pristine** — unwritten so far in the execution: the entry becomes a
//!   guard `(column, index, value)`.  A trace replays only if every guard
//!   still matches the live SRF at launch; a host parameter write that
//!   changes a guarded entry simply misses and re-records.
//! * **Schedule-derived** — written by the execution, but only from the
//!   schedule itself: `AddSrf` over a pristine or derived entry (the
//!   in-kernel pointer bump of the FFT interleave pass), or `StoreIdxSrf`
//!   (the MXCU index).  Its value follows from the guards, so it replays;
//!   an `AddSrf` chain that starts from a pristine entry guards that
//!   entry's launch value.
//! * **Data** — written from an RC result or an SPM word (`LoadSrf`), or
//!   bumped from such a value.  Consuming it makes control flow
//!   data-dependent, so the trace is poisoned and discarded: such launches
//!   always fall back to interpretation.
//!
//! Ops are stored narrow (u8 cell, register, VWR and SRF indices, u16 VWR
//! words, u32 SPM addresses).  [`crate::Geometry::validate`] sets no upper
//! bounds, so a geometry whose indices overflow that encoding poisons the
//! recording instead — those launches are interpreted.
//!
//! # Trace lifetime
//!
//! Traces are keyed by program *content* — the encoded configuration
//! words, each column's RC count, the kernel name and the array geometry —
//! in a [`ReplayCache`].  Every [`crate::Vwr2a`] owns one; a fleet shares
//! one across its arrays (the runtime's pool does this), and cloned
//! accelerators share theirs.  A configuration-memory slot resolves its
//! program's handle once, when the kernel is stored, so launches never
//! hash a program; a reloaded program, or one first launched on another
//! array of the fleet, replays on its first launch.  The cache is bounded:
//! [`TRACES_PER_PROGRAM`] guard snapshots per program and
//! [`PROGRAMS_PER_CACHE`] programs, dropping the least-recently-loaded
//! program first.  It lives exactly as long as its owners — there is no
//! process-wide cache, so every fresh fleet pays its own recordings.
//!
//! The opt-out knob is [`crate::Vwr2a::set_replay_enabled`]; conformance
//! tests flip it to compare replayed and interpreted executions
//! bit-for-bit.

use crate::config_mem::StoredKernel;
use crate::geometry::Geometry;
use crate::isa::lcu::LCU_REGISTERS;
use crate::isa::lsu::ShuffleOp;
use crate::isa::rc::RcOpcode;
use crate::trace::ActivityCounters;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Maximum SRF entries a recorder can track per column (one bit each).
/// Geometries beyond this poison the trace instead of recording.
const MAX_TRACKED_SRF: usize = 64;

/// Replay traces kept per program.  A small FIFO window is enough to cover
/// kernels whose hosts cycle through a few parameter snapshots (e.g. the
/// per-block line pointers of a multi-block FIR pass or the ping/pong
/// buffers of the FFT stages) without letting a parameter sweep hoard
/// memory.
pub const TRACES_PER_PROGRAM: usize = 16;

/// Programs a [`ReplayCache`] keeps traces for.  Storing a program beyond
/// this drops the least-recently-loaded one.
pub const PROGRAMS_PER_CACHE: usize = 64;

/// A resolved operand source of a replayed RC operation.  All multiplexing
/// (MXCU index, slice offsets, neighbour selection) happened at record
/// time; values are read from the live state at replay time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySrc {
    /// An immediate (or the hard-wired zero input).
    Const(i32),
    /// An RC-local register.
    Reg {
        /// RC index within the column.
        rc: u8,
        /// Register index within the RC.
        reg: u8,
    },
    /// A VWR word, index fully resolved.
    VwrWord {
        /// VWR index.
        vwr: u8,
        /// Word index within the VWR.
        word: u16,
    },
    /// An SRF entry (data read — not a guard).
    Srf(u8),
    /// The previous-cycle result latch of an RC (self or neighbour,
    /// already resolved to an absolute RC index).
    Prev(u8),
}

/// A resolved destination of a replayed RC operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayDst {
    /// Result discarded (only the previous-result latch updates).
    None,
    /// An RC-local register.
    Reg {
        /// RC index within the column.
        rc: u8,
        /// Register index within the RC.
        reg: u8,
    },
    /// A VWR word, index fully resolved.
    VwrWord {
        /// VWR index.
        vwr: u8,
        /// Word index within the VWR.
        word: u16,
    },
    /// An SRF entry.
    Srf(u8),
}

/// One resolved operation of a recorded schedule.  Addresses and indices
/// are baked; data flows through the live architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOp {
    /// An RC ALU operation with resolved operands.
    Rc {
        /// RC index within the column (for the previous-result latch).
        rc: u8,
        /// The ALU opcode.
        op: RcOpcode,
        /// Resolved first operand.
        a: ReplaySrc,
        /// Resolved second operand.
        b: ReplaySrc,
        /// Resolved destination.
        dst: ReplayDst,
    },
    /// LSU: fill a VWR from an SPM line (commits at segment end).
    LoadVwrLine {
        /// Destination VWR index.
        vwr: u8,
        /// Resolved SPM line address.
        line: u32,
    },
    /// LSU: store a VWR to an SPM line (immediate, mid-segment).
    StoreVwrLine {
        /// Source VWR index.
        vwr: u8,
        /// Resolved SPM line address.
        line: u32,
    },
    /// LSU: load an SPM word into an SRF entry (commits at segment end).
    LoadSrfWord {
        /// Destination SRF entry.
        srf: u8,
        /// Resolved SPM word address.
        word: u32,
    },
    /// LSU: store an SRF entry to an SPM word (immediate, mid-segment).
    StoreSrfWord {
        /// Source SRF entry.
        srf: u8,
        /// Resolved SPM word address.
        word: u32,
    },
    /// LSU: add an immediate to an SRF entry (commits at segment end).
    AddSrf {
        /// SRF entry.
        srf: u8,
        /// Immediate addend.
        imm: i32,
    },
    /// LSU: run the shuffle unit over VWRs A and B into C.
    Shuffle {
        /// The shuffle operation.
        op: ShuffleOp,
    },
    /// Write a constant into an SRF entry (a `StoreIdxSrf` whose index
    /// value was resolved at record time; commits at segment end).
    WriteSrfConst {
        /// Destination SRF entry.
        srf: u8,
        /// The resolved value.
        value: i32,
    },
}

/// Narrows a resolved index to a trace field, `None` if it does not fit
/// (the recorder then poisons the trace — see the module docs).
pub(crate) fn narrow<T: TryFrom<usize>>(value: usize) -> Option<T> {
    T::try_from(value).ok()
}

/// One guard of a trace: the SRF entry `(column, index)` must still hold
/// `value` for the trace to replay (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrfGuard {
    /// Column owning the SRF.
    pub column: usize,
    /// SRF entry index.
    pub index: usize,
    /// Value observed (and baked into the schedule) at record time.
    pub value: i32,
}

/// One segment of a trace: `len` consecutive ops of [`ReplayTrace::ops`]
/// executed on `column` with the interpreter's two-phase cycle semantics
/// (reads see segment-start state, writes commit at segment end; SPM
/// accesses are immediate, as in [`crate::column::Column::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySegment {
    /// Column the segment executes on.
    pub column: u32,
    /// Number of ops in the segment.
    pub len: u32,
}

/// End-of-run control state of one column, restored verbatim after a
/// replay so the architectural state matches interpretation exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnFinish {
    /// Final program counter (the row that executed `EXIT`).
    pub pc: usize,
    /// Final MXCU index.
    pub mxcu_idx: usize,
    /// Final LCU register file.
    pub lcu_regs: [i32; LCU_REGISTERS],
}

/// A recorded execution of one program under one SRF-parameter snapshot:
/// the resolved straight-line schedule plus everything needed to credit
/// the run without interpreting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayTrace {
    /// Kernel name (for the replayed [`crate::stats::RunStats`]).
    pub name: Arc<str>,
    /// Columns the kernel uses.
    pub columns_used: usize,
    /// Execution cycles (excluding any configuration-word streaming).
    pub exec_cycles: u64,
    /// Activity-counter delta of the execution (excluding configuration
    /// streaming), credited verbatim on replay.
    pub counters: ActivityCounters,
    /// SRF guards that must hold for the trace to replay.
    pub guards: Vec<SrfGuard>,
    /// The per-(cycle, column) segments, in interpreter execution order.
    pub segments: Vec<ReplaySegment>,
    /// The flattened resolved ops, indexed by the segments.
    pub ops: Vec<ReplayOp>,
    /// Final control state per used column.
    pub finish: Vec<ColumnFinish>,
}

impl ReplayTrace {
    /// Approximate host-memory footprint indicator: the number of resolved
    /// ops in the schedule.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` for a trace with no ops (a kernel that only exits).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// How the execution wrote an SRF entry, reported by the commit phase to
/// [`TraceRecorder::note_srf_write`] (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrfWrite {
    /// An RC result or an SPM word (`LoadSrf`).
    Data,
    /// `AddSrf` over the entry's value `prior` at the start of the cycle.
    Add {
        /// The entry's value before the bump.
        prior: i32,
    },
    /// `StoreIdxSrf`: the MXCU index, fixed by the baked schedule.
    Index,
}

/// Per-column SRF write tracking of a [`TraceRecorder`], one bit per
/// entry.  An entry in neither mask is pristine.
#[derive(Debug, Clone, Copy, Default)]
struct WrittenSrf {
    /// Entries holding data.
    data: u64,
    /// Entries holding a schedule-derived value.
    derived: u64,
}

/// Records one interpreted execution into a [`ReplayTrace`].
///
/// The recorder is driven by the interpreter: the array begins a segment
/// per (cycle, column), the column pushes resolved ops and guard
/// observations as it executes, and the commit phase reports SRF writes so
/// later guard observations of the same entry are classified (see the
/// module docs).  [`TraceRecorder::finish`] yields the trace, or `None`
/// if the execution turned out to be non-replayable.
#[derive(Debug)]
pub struct TraceRecorder {
    poisoned: bool,
    guards: Vec<SrfGuard>,
    written: Vec<WrittenSrf>,
    /// Launch values of the pristine entries whose `AddSrf` chains made
    /// them schedule-derived; promoted to guards once consumed.
    roots: Vec<SrfGuard>,
    segments: Vec<ReplaySegment>,
    ops: Vec<ReplayOp>,
    /// Column of the currently open segment.
    cur_column: usize,
    /// Op index where the currently open segment began.
    seg_start: usize,
    /// `true` while a segment is open.
    seg_open: bool,
}

impl TraceRecorder {
    /// Creates a recorder for a kernel using `columns_used` columns.
    pub fn new(columns_used: usize) -> Self {
        Self {
            poisoned: false,
            guards: Vec::new(),
            written: vec![WrittenSrf::default(); columns_used],
            roots: Vec::new(),
            segments: Vec::new(),
            ops: Vec::new(),
            cur_column: 0,
            seg_start: 0,
            seg_open: false,
        }
    }

    /// `true` once the execution proved non-replayable.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    fn close_segment(&mut self) {
        if self.seg_open && self.ops.len() > self.seg_start {
            match (
                narrow(self.cur_column),
                narrow(self.ops.len() - self.seg_start),
            ) {
                (Some(column), Some(len)) => self.segments.push(ReplaySegment { column, len }),
                _ => self.poisoned = true,
            }
        }
        self.seg_open = false;
    }

    /// Opens the segment for one column-step (closing the previous one).
    /// Segments that record no ops are dropped — they have no
    /// architectural effect to replay.
    pub(crate) fn begin_segment(&mut self, column: usize) {
        self.close_segment();
        self.cur_column = column;
        self.seg_start = self.ops.len();
        self.seg_open = true;
    }

    /// Appends a resolved op to the open segment.  `None` — an op whose
    /// indices overflow the narrow trace encoding — poisons the trace.
    pub(crate) fn push_op(&mut self, op: Option<ReplayOp>) {
        match op {
            _ if self.poisoned => {}
            Some(op) => self.ops.push(op),
            None => self.poisoned = true,
        }
    }

    fn add_guard(&mut self, guard: SrfGuard) {
        if !self
            .guards
            .iter()
            .any(|g| g.column == guard.column && g.index == guard.index)
        {
            self.guards.push(guard);
        }
    }

    /// Observes an SRF entry consumed for control or addressing in the
    /// current column.  Pristine entries become guards, schedule-derived
    /// entries guard the launch value their `AddSrf` chain started from
    /// (if any), and data entries poison the trace.
    pub(crate) fn guard_srf(&mut self, index: usize, value: i32) {
        if self.poisoned {
            return;
        }
        let column = self.cur_column;
        if index >= MAX_TRACKED_SRF {
            self.poisoned = true;
            return;
        }
        let bit = 1u64 << index;
        let written = self.written[column];
        if written.data & bit != 0 {
            self.poisoned = true;
        } else if written.derived & bit != 0 {
            if let Some(&root) = self
                .roots
                .iter()
                .find(|r| r.column == column && r.index == index)
            {
                self.add_guard(root);
            }
        } else {
            self.add_guard(SrfGuard {
                column,
                index,
                value,
            });
        }
    }

    /// Reports an SRF entry the current column's commit phase wrote this
    /// cycle (kernel-side writes only — host parameter writes happen
    /// between executions and are covered by the guard check instead).
    pub(crate) fn note_srf_write(&mut self, index: usize, write: SrfWrite) {
        if index >= MAX_TRACKED_SRF {
            self.poisoned = true;
            return;
        }
        let column = self.cur_column;
        let bit = 1u64 << index;
        let entry = &mut self.written[column];
        match write {
            SrfWrite::Data => {
                entry.data |= bit;
                entry.derived &= !bit;
            }
            SrfWrite::Index => {
                entry.data &= !bit;
                entry.derived |= bit;
                self.roots
                    .retain(|r| r.column != column || r.index != index);
            }
            // A bump keeps a data or derived entry what it was; a pristine
            // entry becomes derived from its launch value.
            SrfWrite::Add { prior } => {
                if (entry.data | entry.derived) & bit == 0 {
                    entry.derived |= bit;
                    self.roots.push(SrfGuard {
                        column,
                        index,
                        value: prior,
                    });
                }
            }
        }
    }

    /// Seals the recording into a trace, or `None` if it was poisoned.
    ///
    /// `exec_cycles` and `counters` are the execution-only cycle count and
    /// counter delta (configuration streaming excluded); `finish` is the
    /// end-of-run control state of each used column.
    pub fn finish(
        mut self,
        name: Arc<str>,
        exec_cycles: u64,
        counters: ActivityCounters,
        finish: Vec<ColumnFinish>,
    ) -> Option<ReplayTrace> {
        self.close_segment();
        if self.poisoned {
            return None;
        }
        let columns_used = self.written.len();
        Some(ReplayTrace {
            name,
            columns_used,
            exec_cycles,
            counters,
            guards: self.guards,
            segments: self.segments,
            ops: self.ops,
            finish,
        })
    }
}

/// Locks a replay-cache mutex.  Traces are immutable once pushed, and every
/// update of a trace window or of the program map leaves it valid at each
/// step, so a panic elsewhere while the lock was held cannot leave the
/// cache torn: poisoning is recovered from instead of propagated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The recorded traces of one program — the handle a configuration-memory
/// slot resolves once, when its kernel is stored.
#[derive(Debug, Default)]
pub(crate) struct ProgramTraces {
    /// At most [`TRACES_PER_PROGRAM`] traces, oldest first.
    traces: Mutex<Vec<Arc<ReplayTrace>>>,
}

impl ProgramTraces {
    /// The newest trace `fits` accepts (the launch checks guards and its
    /// cycle budget).
    pub(crate) fn find(&self, fits: impl Fn(&ReplayTrace) -> bool) -> Option<Arc<ReplayTrace>> {
        lock(&self.traces)
            .iter()
            .rev()
            .find(|trace| fits(trace))
            .cloned()
    }

    /// Caches a freshly recorded trace.  A trace with the same guard set
    /// replaces the stale recording; the window is FIFO-bounded.
    pub(crate) fn push(&self, trace: Arc<ReplayTrace>) {
        let mut traces = lock(&self.traces);
        if let Some(existing) = traces.iter_mut().find(|t| t.guards == trace.guards) {
            *existing = trace;
            return;
        }
        if traces.len() == TRACES_PER_PROGRAM {
            traces.remove(0);
        }
        traces.push(trace);
    }

    /// Number of cached traces.
    pub(crate) fn len(&self) -> usize {
        lock(&self.traces).len()
    }
}

/// What a trace's validity depends on besides its SRF guards: the stored
/// program's content and the geometry its indices were resolved against.
#[derive(Debug, PartialEq, Eq, Hash)]
struct ProgramKey {
    geometry: Geometry,
    kernel: Arc<StoredKernel>,
}

#[derive(Debug, Default)]
struct CacheEntries {
    /// Per program: the load stamp of its latest store, and its traces.
    programs: HashMap<ProgramKey, (u64, Arc<ProgramTraces>)>,
    /// Load clock behind the stamps.
    clock: u64,
}

/// A store of replay traces keyed by program content (see the module
/// docs): every [`crate::Vwr2a`] owns one, and a fleet shares one across
/// its arrays through [`crate::Vwr2a::share_replay_cache`].
///
/// Cloning the handle shares the store — so cloned accelerators share
/// their traces too.  It holds at most [`PROGRAMS_PER_CACHE`] programs of
/// at most [`TRACES_PER_PROGRAM`] traces each.
#[derive(Debug, Clone, Default)]
pub struct ReplayCache {
    entries: Arc<Mutex<CacheEntries>>,
}

impl ReplayCache {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if both handles share one store.
    pub fn same_store(&self, other: &ReplayCache) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Number of programs the store keys, recorded or not yet.
    pub fn programs(&self) -> usize {
        lock(&self.entries).programs.len()
    }

    /// Total traces across every program of the store.
    pub fn traces(&self) -> usize {
        lock(&self.entries)
            .programs
            .values()
            .map(|(_, traces)| traces.len())
            .sum()
    }

    /// The traces handle of a program stored for `geometry`, created on
    /// first sight.  Marks the program as the most recently loaded; a new
    /// program beyond the bound drops the least recently loaded one (slots
    /// still holding its handle keep it until they are reloaded).
    pub(crate) fn program(
        &self,
        geometry: Geometry,
        kernel: &Arc<StoredKernel>,
    ) -> Arc<ProgramTraces> {
        let mut entries = lock(&self.entries);
        entries.clock += 1;
        let stamp = entries.clock;
        let key = ProgramKey {
            geometry,
            kernel: Arc::clone(kernel),
        };
        if let Some((loaded, traces)) = entries.programs.get_mut(&key) {
            *loaded = stamp;
            return Arc::clone(traces);
        }
        if entries.programs.len() >= PROGRAMS_PER_CACHE {
            if let Some(oldest) = entries.programs.values().map(|(loaded, _)| *loaded).min() {
                entries.programs.retain(|_, (loaded, _)| *loaded != oldest);
            }
        }
        let traces = Arc::new(ProgramTraces::default());
        entries.programs.insert(key, (stamp, Arc::clone(&traces)));
        traces
    }
}

/// Reusable scratch buffers of the replay executor: the pending write sets
/// of one segment's two-phase commit.  Owned by [`crate::Vwr2a`] so a warm
/// replayed window performs no per-window heap allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayScratch {
    /// Pending RC register writes `(rc, reg, value)`.
    pub rc_reg: Vec<(u8, u8, i32)>,
    /// Pending VWR word writes `(vwr, word, value)`.
    pub vwr_word: Vec<(u8, u16, i32)>,
    /// Pending whole-VWR line write (at most one per segment: `LoadVwr`
    /// and `Shuffle` share the single LSU slot).
    pub line_target: Option<u8>,
    /// The pending line data for `line_target`.
    pub line_buf: Vec<i32>,
    /// Pending SRF writes `(index, value)`.
    pub srf: Vec<(u8, i32)>,
    /// Pending previous-result latch updates `(rc, value)`.
    pub prev: Vec<(u8, i32)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish(rec: TraceRecorder) -> Option<ReplayTrace> {
        rec.finish("k".into(), 1, ActivityCounters::new(), Vec::new())
    }

    #[test]
    fn replay_ops_stay_narrow() {
        assert!(std::mem::size_of::<ReplayOp>() <= 24);
        assert!(std::mem::size_of::<ReplaySegment>() <= 8);
        assert_eq!(narrow::<u8>(255), Some(255u8));
        assert_eq!(narrow::<u8>(256), None);
    }

    #[test]
    fn an_op_that_does_not_fit_poisons() {
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        rec.push_op(narrow(70_000).map(|word| ReplayOp::LoadSrfWord { srf: 0, word }));
        assert!(!rec.poisoned());
        rec.push_op(None);
        assert!(rec.poisoned());
        assert!(finish(rec).is_none());
    }

    #[test]
    fn consuming_data_poisons() {
        for write in [SrfWrite::Data, SrfWrite::Add { prior: 0 }] {
            let mut rec = TraceRecorder::new(1);
            rec.begin_segment(0);
            rec.guard_srf(2, 7);
            rec.note_srf_write(3, SrfWrite::Data);
            // A bump of a data entry is still data.
            rec.note_srf_write(3, write);
            assert!(!rec.poisoned());
            rec.guard_srf(3, 9);
            assert!(rec.poisoned());
            assert!(finish(rec).is_none());
        }
    }

    #[test]
    fn bumped_pointers_replay_guarded_on_their_launch_value() {
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        // Bumped twice before any addressing use: the launch value (5)
        // becomes the guard, not the bumped value the address saw.
        rec.note_srf_write(6, SrfWrite::Add { prior: 5 });
        rec.note_srf_write(6, SrfWrite::Add { prior: 6 });
        rec.guard_srf(6, 7);
        // The MXCU index stored to SRF[4] is schedule-determined: no guard.
        rec.note_srf_write(4, SrfWrite::Index);
        rec.guard_srf(4, 31);
        // A bump of a derived entry stays derived.
        rec.note_srf_write(4, SrfWrite::Add { prior: 31 });
        rec.guard_srf(4, 32);
        let trace = finish(rec).expect("derived entries replay");
        assert_eq!(
            trace.guards,
            vec![SrfGuard {
                column: 0,
                index: 6,
                value: 5
            }]
        );
    }

    #[test]
    fn overwritten_roots_no_longer_guard() {
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        rec.note_srf_write(6, SrfWrite::Add { prior: 5 });
        rec.note_srf_write(6, SrfWrite::Index);
        rec.guard_srf(6, 3);
        assert!(finish(rec).expect("replayable").guards.is_empty());
    }

    #[test]
    fn guards_deduplicate_per_column() {
        let mut rec = TraceRecorder::new(2);
        rec.begin_segment(0);
        rec.guard_srf(1, 5);
        rec.guard_srf(1, 5);
        rec.begin_segment(1);
        rec.guard_srf(1, 6);
        let trace = finish(rec).expect("not poisoned");
        assert_eq!(trace.guards.len(), 2);
        assert_eq!(trace.guards[0].column, 0);
        assert_eq!(trace.guards[1].column, 1);
        assert!(trace.is_empty());
    }

    #[test]
    fn empty_segments_are_dropped() {
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        rec.begin_segment(0);
        rec.push_op(Some(ReplayOp::Shuffle {
            op: ShuffleOp::EvenPrune,
        }));
        rec.begin_segment(0);
        let trace = finish(rec).expect("not poisoned");
        assert_eq!(trace.segments.len(), 1);
        assert_eq!(trace.segments[0].len, 1);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let traces = Arc::new(ProgramTraces::default());
        let poisoner = Arc::clone(&traces);
        let _ = std::thread::spawn(move || {
            let _held = poisoner.traces.lock();
            panic!("poison the lock");
        })
        .join();
        assert!(traces.traces.is_poisoned());
        traces.push(Arc::new(
            finish(TraceRecorder::new(1)).expect("empty trace"),
        ));
        assert_eq!(traces.len(), 1);
        assert!(traces.find(|_| true).is_some());
    }
}
