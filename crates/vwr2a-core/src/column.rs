//! One VWR2A column and its cycle-accurate execution.
//!
//! A column bundles four RCs, the LSU, LCU and MXCU slots, three VWRs, the
//! SRF and the shuffle unit, all synchronised by a shared program counter
//! (Sec. 3.1).  [`Column::step`] executes one cycle with two-phase
//! semantics: every unit reads architectural state as of the start of the
//! cycle and all writes commit together at the end, so neighbouring-RC
//! operands see previous-cycle results and a VWR filled by the LSU becomes
//! visible to the RCs in the following cycle.

use crate::alu;
use crate::error::{CoreError, Result};
use crate::geometry::{Geometry, VwrId};
use crate::isa::lcu::{LcuInstr, LcuSrc, LCU_REGISTERS};
use crate::isa::lsu::{LsuAddr, LsuInstr};
use crate::isa::mxcu::MxcuInstr;
use crate::isa::rc::{RcDst, RcInstr, RcSrc};
use crate::program::ColumnProgram;
use crate::replay::{
    narrow, ColumnFinish, ReplayDst, ReplayOp, ReplayScratch, ReplaySrc, SrfWrite, TraceRecorder,
};
use crate::shuffle;
use crate::spm::Spm;
use crate::srf::Srf;
use crate::trace::ActivityCounters;
use crate::vwr::Vwr;
use serde::{Deserialize, Serialize};

/// Resolves an RC operand source into its replay form: all multiplexing
/// (slice offset, MXCU index, neighbour selection) is folded in so the
/// replayed op only performs the data read.  `None` if an index overflows
/// the narrow trace encoding.
fn replay_src(
    src: RcSrc,
    i: usize,
    slice_words: usize,
    k: usize,
    num_rcs: usize,
) -> Option<ReplaySrc> {
    Some(match src {
        RcSrc::Zero => ReplaySrc::Const(0),
        RcSrc::Imm(v) => ReplaySrc::Const(v as i32),
        RcSrc::Reg(reg) => ReplaySrc::Reg {
            rc: narrow(i)?,
            reg,
        },
        RcSrc::Vwr(v) => ReplaySrc::VwrWord {
            vwr: narrow(v.index())?,
            word: narrow(i * slice_words + k)?,
        },
        RcSrc::Srf(s) => ReplaySrc::Srf(s),
        RcSrc::RcAbove => ReplaySrc::Prev(narrow((i + num_rcs - 1) % num_rcs)?),
        RcSrc::RcBelow => ReplaySrc::Prev(narrow((i + 1) % num_rcs)?),
        RcSrc::SelfPrev => ReplaySrc::Prev(narrow(i)?),
    })
}

/// Resolves the instruction of RC `i` into its replay op (see
/// [`replay_src`]).
fn replay_rc(
    instr: &RcInstr,
    i: usize,
    slice_words: usize,
    k: usize,
    num_rcs: usize,
) -> Option<ReplayOp> {
    let src = |src| replay_src(src, i, slice_words, k, num_rcs);
    let dst = match instr.dst {
        RcDst::None => ReplayDst::None,
        RcDst::Reg(reg) => ReplayDst::Reg {
            rc: narrow(i)?,
            reg,
        },
        RcDst::Vwr(v) => ReplayDst::VwrWord {
            vwr: narrow(v.index())?,
            word: narrow(i * slice_words + k)?,
        },
        RcDst::Srf(s) => ReplayDst::Srf(s),
    };
    Some(ReplayOp::Rc {
        rc: narrow(i)?,
        op: instr.op,
        a: src(instr.src_a)?,
        b: src(instr.src_b)?,
        dst,
    })
}

/// Architectural state of one reconfigurable cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RcState {
    /// Local register file (two 32-bit entries in the paper's geometry).
    pub regs: Vec<i32>,
    /// Result latched at the end of the previous cycle (visible to
    /// neighbouring RCs and to this RC through [`RcSrc::SelfPrev`]).
    pub prev_result: i32,
}

impl RcState {
    fn new(registers: usize) -> Self {
        Self {
            regs: vec![0; registers],
            prev_result: 0,
        }
    }
}

/// One column of the reconfigurable array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    geometry: Geometry,
    vwrs: Vec<Vwr>,
    srf: Srf,
    rcs: Vec<RcState>,
    lcu_regs: [i32; LCU_REGISTERS],
    mxcu_idx: usize,
    pc: usize,
    halted: bool,
}

impl Column {
    /// Creates a column for the given geometry with zeroed state.
    pub fn new(geometry: Geometry) -> Self {
        Self {
            geometry,
            vwrs: (0..geometry.num_vwrs)
                .map(|_| Vwr::new(geometry.vwr_words))
                .collect(),
            srf: Srf::new(geometry.srf_entries),
            rcs: (0..geometry.rcs_per_column)
                .map(|_| RcState::new(geometry.rc_registers))
                .collect(),
            lcu_regs: [0; LCU_REGISTERS],
            mxcu_idx: 0,
            pc: 0,
            halted: false,
        }
    }

    /// The column geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// A very-wide register.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist in this geometry.
    pub fn vwr(&self, id: VwrId) -> &Vwr {
        &self.vwrs[id.index()]
    }

    /// The scalar register file.
    pub fn srf(&self) -> &Srf {
        &self.srf
    }

    /// Mutable access to the scalar register file (used by the host through
    /// the slave port to pass kernel parameters).
    pub fn srf_mut(&mut self) -> &mut Srf {
        &mut self.srf
    }

    /// The state of RC `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the column.
    pub fn rc(&self, index: usize) -> &RcState {
        &self.rcs[index]
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Resets the execution state (PC, halt flag, MXCU index, LCU and RC
    /// registers) while keeping VWR, SRF and SPM data intact — what happens
    /// when a new kernel is loaded.
    pub fn reset_execution(&mut self) {
        self.pc = 0;
        self.halted = false;
        self.mxcu_idx = 0;
        self.lcu_regs = [0; LCU_REGISTERS];
        for rc in &mut self.rcs {
            rc.regs.fill(0);
            rc.prev_result = 0;
        }
    }

    fn resolve_lsu_addr(
        &self,
        addr: LsuAddr,
        counters: &mut ActivityCounters,
        rec: Option<&mut TraceRecorder>,
    ) -> Result<usize> {
        match addr {
            LsuAddr::Imm(v) => Ok(v as usize),
            LsuAddr::Srf(s) => {
                counters.srf_reads += 1;
                let v = self.srf.read(s as usize)?;
                // The SRF value becomes an SPM address baked into the
                // replay schedule, so it must be guarded.
                if let Some(r) = rec {
                    r.guard_srf(s as usize, v);
                }
                if v < 0 {
                    return Err(CoreError::InvalidDmaTransfer {
                        detail: format!("negative SPM address {v} in SRF {s}"),
                    });
                }
                Ok(v as usize)
            }
        }
    }

    fn resolve_lcu_src(
        &self,
        src: LcuSrc,
        counters: &mut ActivityCounters,
        rec: Option<&mut TraceRecorder>,
    ) -> Result<i32> {
        Ok(match src {
            LcuSrc::Imm(v) => v,
            LcuSrc::Reg(r) => self.lcu_regs[r as usize % LCU_REGISTERS],
            LcuSrc::Srf(s) => {
                counters.srf_reads += 1;
                let v = self.srf.read(s as usize)?;
                // The SRF value feeds the LCU (loop bounds, branch
                // operands) and thus the baked control flow.
                if let Some(r) = rec {
                    r.guard_srf(s as usize, v);
                }
                v
            }
        })
    }

    /// Executes one cycle of `program`.
    ///
    /// Returns `Ok(true)` while the column keeps running and `Ok(false)`
    /// once it has halted (either before this call or by executing `EXIT`
    /// during it).
    ///
    /// # Errors
    ///
    /// Returns structural-hazard errors ([`CoreError::SrfPortConflict`],
    /// [`CoreError::WriteConflict`]), out-of-range accesses, or
    /// [`CoreError::BranchTargetOutOfRange`] if execution falls off the end
    /// of the program without an `EXIT`.
    pub fn step(
        &mut self,
        program: &ColumnProgram,
        spm: &mut Spm,
        counters: &mut ActivityCounters,
        cycle: u64,
    ) -> Result<bool> {
        self.step_traced(program, spm, counters, cycle, None)
    }

    /// [`Column::step`] with an optional [`TraceRecorder`] attached: the
    /// resolved ops and SRF guard observations of this cycle are appended
    /// to the recorder's current segment (the caller opens the segment).
    pub(crate) fn step_traced(
        &mut self,
        program: &ColumnProgram,
        spm: &mut Spm,
        counters: &mut ActivityCounters,
        cycle: u64,
        mut rec: Option<&mut TraceRecorder>,
    ) -> Result<bool> {
        if self.halted {
            return Ok(false);
        }
        let row = &program.rows()[self.pc];

        // Structural hazard: the SRF is single-ported.
        let srf_accesses = row.srf_accesses();
        if srf_accesses > 1 {
            return Err(CoreError::SrfPortConflict {
                cycle,
                accesses: srf_accesses,
            });
        }

        let active = row.active_slots();
        counters.instr_issues += active as u64;
        counters.nop_issues += (3 + self.rcs.len() - active) as u64;

        let slice_words = self.geometry.slice_words();
        let k = self.mxcu_idx;
        let num_rcs = self.rcs.len();
        let prev_results: Vec<i32> = self.rcs.iter().map(|r| r.prev_result).collect();

        // Pending write sets, committed at the end of the cycle.
        let mut rc_reg_writes: Vec<(usize, usize, i32)> = Vec::new();
        let mut vwr_word_writes: Vec<(usize, usize, i32)> = Vec::new();
        let mut vwr_line_writes: Vec<(usize, Vec<i32>)> = Vec::new();
        let mut srf_writes: Vec<(usize, i32, SrfWrite)> = Vec::new();
        let mut new_results = prev_results.clone();
        let mut new_mxcu_idx = self.mxcu_idx;
        let mut new_lcu_regs = self.lcu_regs;
        let mut next_pc = self.pc + 1;
        let mut exited = false;

        // ------------------------------------------------------------------
        // Reconfigurable cells.
        // ------------------------------------------------------------------
        for (i, instr) in row.rcs.iter().enumerate() {
            if instr.is_nop() {
                continue;
            }
            let read_src = |src: RcSrc, counters: &mut ActivityCounters| -> Result<i32> {
                Ok(match src {
                    RcSrc::Zero => 0,
                    RcSrc::Imm(v) => v as i32,
                    RcSrc::Reg(r) => {
                        counters.rc_reg_reads += 1;
                        *self.rcs[i]
                            .regs
                            .get(r as usize)
                            .ok_or(CoreError::InvalidGeometry {
                                detail: format!("RC register {r} out of range"),
                            })?
                    }
                    RcSrc::Vwr(v) => {
                        counters.vwr_word_reads += 1;
                        let word = i * slice_words + k;
                        self.vwrs
                            .get(v.index())
                            .ok_or(CoreError::InvalidGeometry {
                                detail: format!("VWR {v:?} not present"),
                            })?
                            .read_word(word)?
                    }
                    RcSrc::Srf(s) => {
                        counters.srf_reads += 1;
                        self.srf.read(s as usize)?
                    }
                    RcSrc::RcAbove => prev_results[(i + num_rcs - 1) % num_rcs],
                    RcSrc::RcBelow => prev_results[(i + 1) % num_rcs],
                    RcSrc::SelfPrev => prev_results[i],
                })
            };
            let a = read_src(instr.src_a, counters)?;
            let b = read_src(instr.src_b, counters)?;
            let result = alu::execute(instr.op, a, b);
            counters.rc_alu_ops += 1;
            if instr.op.is_multiply() {
                counters.rc_multiplies += 1;
            }
            new_results[i] = result;
            match instr.dst {
                RcDst::None => {}
                RcDst::Reg(r) => {
                    counters.rc_reg_writes += 1;
                    rc_reg_writes.push((i, r as usize, result));
                }
                RcDst::Vwr(v) => {
                    counters.vwr_word_writes += 1;
                    vwr_word_writes.push((v.index(), i * slice_words + k, result));
                }
                RcDst::Srf(s) => {
                    counters.srf_writes += 1;
                    srf_writes.push((s as usize, result, SrfWrite::Data));
                }
            }
            if let Some(r) = rec.as_deref_mut() {
                r.push_op(replay_rc(instr, i, slice_words, k, num_rcs));
            }
        }

        // ------------------------------------------------------------------
        // Load-store unit (and shuffle unit).
        // ------------------------------------------------------------------
        match row.lsu {
            LsuInstr::Nop => {}
            LsuInstr::LoadVwr { vwr, line } => {
                let addr = self.resolve_lsu_addr(line, counters, rec.as_deref_mut())?;
                let data = spm.read_line(addr)?.to_vec();
                counters.spm_line_reads += 1;
                counters.vwr_line_transfers += 1;
                vwr_line_writes.push((vwr.index(), data));
                if let Some(r) = rec.as_deref_mut() {
                    r.push_op(narrow(addr).map(|line| ReplayOp::LoadVwrLine {
                        vwr: vwr.index() as u8,
                        line,
                    }));
                }
            }
            LsuInstr::StoreVwr { vwr, line } => {
                let addr = self.resolve_lsu_addr(line, counters, rec.as_deref_mut())?;
                let data = self
                    .vwrs
                    .get(vwr.index())
                    .ok_or(CoreError::InvalidGeometry {
                        detail: format!("VWR {vwr:?} not present"),
                    })?
                    .words()
                    .to_vec();
                spm.write_line(addr, &data)?;
                counters.spm_line_writes += 1;
                counters.vwr_line_transfers += 1;
                if let Some(r) = rec.as_deref_mut() {
                    r.push_op(narrow(addr).map(|line| ReplayOp::StoreVwrLine {
                        vwr: vwr.index() as u8,
                        line,
                    }));
                }
            }
            LsuInstr::LoadSrf { srf, word } => {
                let addr = self.resolve_lsu_addr(word, counters, rec.as_deref_mut())?;
                let value = spm.read_word(addr)?;
                counters.spm_word_reads += 1;
                counters.srf_writes += 1;
                srf_writes.push((srf as usize, value, SrfWrite::Data));
                if let Some(r) = rec.as_deref_mut() {
                    r.push_op(narrow(addr).map(|word| ReplayOp::LoadSrfWord { srf, word }));
                }
            }
            LsuInstr::StoreSrf { srf, word } => {
                let addr = self.resolve_lsu_addr(word, counters, rec.as_deref_mut())?;
                counters.srf_reads += 1;
                let value = self.srf.read(srf as usize)?;
                spm.write_word(addr, value)?;
                counters.spm_word_writes += 1;
                if let Some(r) = rec.as_deref_mut() {
                    r.push_op(narrow(addr).map(|word| ReplayOp::StoreSrfWord { srf, word }));
                }
            }
            LsuInstr::AddSrf { srf, imm } => {
                counters.srf_reads += 1;
                counters.srf_writes += 1;
                let prior = self.srf.read(srf as usize)?;
                srf_writes.push((
                    srf as usize,
                    prior.wrapping_add(imm as i32),
                    SrfWrite::Add { prior },
                ));
                if let Some(r) = rec.as_deref_mut() {
                    r.push_op(Some(ReplayOp::AddSrf {
                        srf,
                        imm: imm as i32,
                    }));
                }
            }
            LsuInstr::Shuffle(op) => {
                let a = self.vwrs[VwrId::A.index()].words();
                let b = self.vwrs[VwrId::B.index()].words();
                let out = shuffle::apply(op, a, b, slice_words);
                counters.shuffle_ops += 1;
                counters.vwr_line_transfers += 3;
                vwr_line_writes.push((VwrId::C.index(), out));
                if let Some(r) = rec.as_deref_mut() {
                    r.push_op(Some(ReplayOp::Shuffle { op }));
                }
            }
        }

        // ------------------------------------------------------------------
        // Multiplexer-control unit.
        // ------------------------------------------------------------------
        match row.mxcu {
            MxcuInstr::Nop => {}
            MxcuInstr::SetIdx(v) => new_mxcu_idx = v as usize % slice_words,
            MxcuInstr::AddIdx(d) => {
                new_mxcu_idx =
                    (self.mxcu_idx as i64 + d as i64).rem_euclid(slice_words as i64) as usize;
            }
            MxcuInstr::LoadIdxSrf(s) => {
                counters.srf_reads += 1;
                let v = self.srf.read(s as usize)?;
                // The SRF value becomes the MXCU index, i.e. baked VWR
                // word addressing.
                if let Some(r) = rec.as_deref_mut() {
                    r.guard_srf(s as usize, v);
                }
                new_mxcu_idx = (v as i64).rem_euclid(slice_words as i64) as usize;
            }
            MxcuInstr::AndIdxSrf(s) => {
                counters.srf_reads += 1;
                let v = self.srf.read(s as usize)?;
                if let Some(r) = rec.as_deref_mut() {
                    r.guard_srf(s as usize, v);
                }
                new_mxcu_idx = (self.mxcu_idx & v as usize) % slice_words;
            }
            MxcuInstr::StoreIdxSrf(s) => {
                counters.srf_writes += 1;
                srf_writes.push((s as usize, self.mxcu_idx as i32, SrfWrite::Index));
                // The index value is schedule-determined, so the write
                // replays as a constant store.
                if let Some(r) = rec.as_deref_mut() {
                    r.push_op(Some(ReplayOp::WriteSrfConst {
                        srf: s,
                        value: self.mxcu_idx as i32,
                    }));
                }
            }
        }

        // ------------------------------------------------------------------
        // Loop-control unit.
        // ------------------------------------------------------------------
        match row.lcu {
            LcuInstr::Nop => {}
            LcuInstr::Li { r, value } => new_lcu_regs[r as usize % LCU_REGISTERS] = value,
            LcuInstr::Add { r, src } => {
                let v = self.resolve_lcu_src(src, counters, rec.as_deref_mut())?;
                let idx = r as usize % LCU_REGISTERS;
                new_lcu_regs[idx] = self.lcu_regs[idx].wrapping_add(v);
            }
            LcuInstr::LoadSrf { r, srf } => {
                counters.srf_reads += 1;
                let v = self.srf.read(srf as usize)?;
                if let Some(rr) = rec.as_deref_mut() {
                    rr.guard_srf(srf as usize, v);
                }
                new_lcu_regs[r as usize % LCU_REGISTERS] = v;
            }
            LcuInstr::Branch { cond, a, b, target } => {
                let av = self.lcu_regs[a as usize % LCU_REGISTERS];
                let bv = self.resolve_lcu_src(b, counters, rec.as_deref_mut())?;
                if cond.eval(av, bv) {
                    counters.lcu_branches += 1;
                    next_pc = target as usize;
                }
            }
            LcuInstr::Jump(target) => {
                counters.lcu_branches += 1;
                next_pc = target as usize;
            }
            LcuInstr::Exit => exited = true,
        }

        // ------------------------------------------------------------------
        // Commit phase.
        // ------------------------------------------------------------------
        // Write-conflict detection on whole-VWR targets.
        for (idx, (v, _)) in vwr_line_writes.iter().enumerate() {
            if vwr_line_writes[idx + 1..].iter().any(|(v2, _)| v2 == v) {
                return Err(CoreError::WriteConflict {
                    cycle,
                    resource: format!("VWR {} (two line writes)", VwrId::from_index(*v).index()),
                });
            }
            if vwr_word_writes.iter().any(|(v2, _, _)| v2 == v) {
                return Err(CoreError::WriteConflict {
                    cycle,
                    resource: format!(
                        "VWR {} (line write and word write in the same cycle)",
                        VwrId::from_index(*v).index()
                    ),
                });
            }
        }
        for (idx, (s, _, _)) in srf_writes.iter().enumerate() {
            if srf_writes[idx + 1..].iter().any(|(s2, _, _)| s2 == s) {
                return Err(CoreError::WriteConflict {
                    cycle,
                    resource: format!("SRF register {s}"),
                });
            }
        }

        for (rc, reg, value) in rc_reg_writes {
            *self.rcs[rc]
                .regs
                .get_mut(reg)
                .ok_or(CoreError::InvalidGeometry {
                    detail: format!("RC register {reg} out of range"),
                })? = value;
        }
        for (vwr, word, value) in vwr_word_writes {
            self.vwrs[vwr].write_word(word, value)?;
        }
        for (vwr, line) in vwr_line_writes {
            self.vwrs[vwr].load_line(&line)?;
        }
        for (srf, value, write) in srf_writes {
            self.srf.write(srf, value)?;
            // Classify the execution-written entry: a later control or
            // addressing read of a data entry would make the schedule
            // data-dependent and must poison the trace.
            if let Some(r) = rec.as_deref_mut() {
                r.note_srf_write(srf, write);
            }
        }
        for (rc, result) in self.rcs.iter_mut().zip(new_results) {
            rc.prev_result = result;
        }
        self.mxcu_idx = new_mxcu_idx;
        self.lcu_regs = new_lcu_regs;

        if exited {
            self.halted = true;
            return Ok(false);
        }
        if next_pc >= program.len() {
            return Err(CoreError::BranchTargetOutOfRange {
                target: next_pc,
                len: program.len(),
            });
        }
        self.pc = next_pc;
        Ok(true)
    }

    /// End-of-run control state for a [`ReplayTrace`] (captured right
    /// after a recorded execution halts).
    pub(crate) fn replay_finish(&self) -> ColumnFinish {
        ColumnFinish {
            pc: self.pc,
            mxcu_idx: self.mxcu_idx,
            lcu_regs: self.lcu_regs,
        }
    }

    /// Restores the recorded end-of-run control state after a replay and
    /// halts the column, so the architectural state matches an interpreted
    /// execution exactly.
    pub(crate) fn apply_replay_finish(&mut self, finish: &ColumnFinish) {
        self.pc = finish.pc;
        self.mxcu_idx = finish.mxcu_idx;
        self.lcu_regs = finish.lcu_regs;
        self.halted = true;
    }

    fn replay_read(&self, src: ReplaySrc) -> Result<i32> {
        Ok(match src {
            ReplaySrc::Const(v) => v,
            ReplaySrc::Reg { rc, reg } => self.rcs[usize::from(rc)].regs[usize::from(reg)],
            ReplaySrc::VwrWord { vwr, word } => {
                self.vwrs[usize::from(vwr)].read_word(usize::from(word))?
            }
            ReplaySrc::Srf(s) => self.srf.read(usize::from(s))?,
            ReplaySrc::Prev(rc) => self.rcs[usize::from(rc)].prev_result,
        })
    }

    /// Replays one recorded segment with the interpreter's two-phase
    /// semantics: reads see segment-start state, writes commit at segment
    /// end in interpreter order, SPM accesses are immediate.  Counters are
    /// not touched — the trace credits the recorded delta verbatim.
    pub(crate) fn replay_segment(
        &mut self,
        ops: &[ReplayOp],
        spm: &mut Spm,
        scratch: &mut ReplayScratch,
    ) -> Result<()> {
        for op in ops {
            match *op {
                ReplayOp::Rc { rc, op, a, b, dst } => {
                    let av = self.replay_read(a)?;
                    let bv = self.replay_read(b)?;
                    let result = alu::execute(op, av, bv);
                    scratch.prev.push((rc, result));
                    match dst {
                        ReplayDst::None => {}
                        ReplayDst::Reg { rc, reg } => scratch.rc_reg.push((rc, reg, result)),
                        ReplayDst::VwrWord { vwr, word } => {
                            scratch.vwr_word.push((vwr, word, result))
                        }
                        ReplayDst::Srf(s) => scratch.srf.push((s, result)),
                    }
                }
                ReplayOp::LoadVwrLine { vwr, line } => {
                    scratch.line_buf.clear();
                    scratch
                        .line_buf
                        .extend_from_slice(spm.read_line(line as usize)?);
                    scratch.line_target = Some(vwr);
                }
                ReplayOp::StoreVwrLine { vwr, line } => {
                    spm.write_line(line as usize, self.vwrs[usize::from(vwr)].words())?;
                }
                ReplayOp::LoadSrfWord { srf, word } => {
                    scratch.srf.push((srf, spm.read_word(word as usize)?));
                }
                ReplayOp::StoreSrfWord { srf, word } => {
                    spm.write_word(word as usize, self.srf.read(usize::from(srf))?)?;
                }
                ReplayOp::AddSrf { srf, imm } => {
                    let value = self.srf.read(usize::from(srf))?.wrapping_add(imm);
                    scratch.srf.push((srf, value));
                }
                ReplayOp::WriteSrfConst { srf, value } => {
                    scratch.srf.push((srf, value));
                }
                ReplayOp::Shuffle { op } => {
                    let out = shuffle::apply(
                        op,
                        self.vwrs[VwrId::A.index()].words(),
                        self.vwrs[VwrId::B.index()].words(),
                        self.geometry.slice_words(),
                    );
                    scratch.line_buf.clear();
                    scratch.line_buf.extend_from_slice(&out);
                    scratch.line_target = Some(VwrId::C.index() as u8);
                }
            }
        }
        // Commit in interpreter order: RC registers, VWR words, VWR lines,
        // SRF entries, previous-result latches.
        for &(rc, reg, value) in &scratch.rc_reg {
            self.rcs[usize::from(rc)].regs[usize::from(reg)] = value;
        }
        for &(vwr, word, value) in &scratch.vwr_word {
            self.vwrs[usize::from(vwr)].write_word(usize::from(word), value)?;
        }
        if let Some(vwr) = scratch.line_target.take() {
            self.vwrs[usize::from(vwr)].load_line(&scratch.line_buf)?;
        }
        for &(srf, value) in &scratch.srf {
            self.srf.write(usize::from(srf), value)?;
        }
        for &(rc, value) in &scratch.prev {
            self.rcs[usize::from(rc)].prev_result = value;
        }
        scratch.rc_reg.clear();
        scratch.vwr_word.clear();
        scratch.srf.clear();
        scratch.prev.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ColumnProgramBuilder;
    use crate::isa::lcu::LcuCond;
    use crate::isa::rc::{RcInstr, RcOpcode};
    use crate::program::Row;

    fn paper_column() -> (Column, Spm) {
        let g = Geometry::paper();
        (Column::new(g), Spm::new(g.spm_words(), g.vwr_words))
    }

    fn run(column: &mut Column, program: &ColumnProgram, spm: &mut Spm) -> (u64, ActivityCounters) {
        let mut counters = ActivityCounters::new();
        let mut cycles = 0u64;
        column.reset_execution();
        loop {
            cycles += 1;
            let running = column.step(program, spm, &mut counters, cycles).unwrap();
            if !running {
                break;
            }
            assert!(cycles < 100_000, "runaway program");
        }
        counters.cycles = cycles;
        (cycles, counters)
    }

    #[test]
    fn vector_add_over_one_vwr_load() {
        // Table-1-like kernel: load A and B from SPM, add them into C, store C.
        let g = Geometry::paper();
        let (mut col, mut spm) = paper_column();
        let a: Vec<i32> = (0..128).collect();
        let b: Vec<i32> = (0..128).map(|i| 1000 + i).collect();
        spm.write_line(0, &a).unwrap();
        spm.write_line(1, &b).unwrap();

        let mut bld = ColumnProgramBuilder::new(g.rcs_per_column);
        bld.push(bld.row().lsu(LsuInstr::LoadVwr {
            vwr: VwrId::A,
            line: LsuAddr::Imm(0),
        }));
        bld.push(bld.row().lsu(LsuInstr::LoadVwr {
            vwr: VwrId::B,
            line: LsuAddr::Imm(1),
        }));
        // Loop over the 32 words of each RC slice.
        bld.push(
            bld.row()
                .lcu(LcuInstr::Li { r: 0, value: 0 })
                .mxcu(MxcuInstr::SetIdx(0)),
        );
        let top = bld.new_label();
        bld.bind_label(top);
        bld.push(
            bld.row()
                .lcu(LcuInstr::Add {
                    r: 0,
                    src: LcuSrc::Imm(1),
                })
                .mxcu(MxcuInstr::AddIdx(1))
                .rc_all(RcInstr::new(
                    RcOpcode::Add,
                    RcDst::Vwr(VwrId::C),
                    RcSrc::Vwr(VwrId::A),
                    RcSrc::Vwr(VwrId::B),
                )),
        );
        bld.push_branch(bld.row(), LcuCond::Lt, 0, LcuSrc::Imm(32), top);
        bld.push(bld.row().lsu(LsuInstr::StoreVwr {
            vwr: VwrId::C,
            line: LsuAddr::Imm(2),
        }));
        bld.push_exit();
        let program = bld.build().unwrap();
        program.validate(&g).unwrap();

        let (cycles, counters) = run(&mut col, &program, &mut spm);
        let out = spm.read_line(2).unwrap();
        for i in 0..128 {
            assert_eq!(out[i], a[i] + b[i], "word {i}");
        }
        // 32 iterations * 4 RCs additions.
        assert_eq!(counters.rc_alu_ops, 128);
        assert_eq!(counters.spm_line_reads, 2);
        assert_eq!(counters.spm_line_writes, 1);
        assert!(cycles > 64 && cycles < 80, "cycles = {cycles}");
    }

    #[test]
    fn mxcu_index_takes_effect_next_cycle() {
        let g = Geometry::paper();
        let (mut col, mut spm) = paper_column();
        // VWR A word 0 of RC0 slice = 7, word 1 = 9, loaded from the SPM.
        let mut line = vec![0; g.vwr_words];
        line[..2].copy_from_slice(&[7, 9]);
        spm.write_line(0, &line).unwrap();

        let mut bld = ColumnProgramBuilder::new(g.rcs_per_column);
        bld.push(bld.row().lsu(LsuInstr::LoadVwr {
            vwr: VwrId::A,
            line: LsuAddr::Imm(0),
        }));
        // Cycle 1: read A (k=0) into R0 and bump k.
        bld.push(
            bld.row()
                .mxcu(MxcuInstr::AddIdx(1))
                .rc(0, RcInstr::mov(RcDst::Reg(0), RcSrc::Vwr(VwrId::A))),
        );
        // Cycle 2: read A (k=1) into R1.
        bld.push(
            bld.row()
                .rc(0, RcInstr::mov(RcDst::Reg(1), RcSrc::Vwr(VwrId::A))),
        );
        bld.push_exit();
        let program = bld.build().unwrap();
        let _ = run(&mut col, &program, &mut spm);
        assert_eq!(
            col.rc(0).regs[0],
            7,
            "first read uses the pre-increment index"
        );
        assert_eq!(
            col.rc(0).regs[1],
            9,
            "second read sees the incremented index"
        );
    }

    #[test]
    fn neighbour_operands_are_previous_cycle_results() {
        let g = Geometry::paper();
        let (mut col, mut spm) = paper_column();
        let mut bld = ColumnProgramBuilder::new(g.rcs_per_column);
        // Cycle 1: RC0 computes 5; RC1 computes 10.
        bld.push(
            bld.row()
                .rc(0, RcInstr::mov(RcDst::None, RcSrc::Imm(5)))
                .rc(1, RcInstr::mov(RcDst::None, RcSrc::Imm(10))),
        );
        // Cycle 2: RC1 adds the previous result of the RC above it (RC0).
        bld.push(bld.row().rc(
            1,
            RcInstr::new(
                RcOpcode::Add,
                RcDst::Reg(0),
                RcSrc::RcAbove,
                RcSrc::SelfPrev,
            ),
        ));
        bld.push_exit();
        let program = bld.build().unwrap();
        let _ = run(&mut col, &program, &mut spm);
        assert_eq!(col.rc(1).regs[0], 15);
    }

    #[test]
    fn srf_port_conflict_is_detected() {
        let (mut col, mut spm) = paper_column();
        let rows = vec![
            Row::new(4)
                .rc(0, RcInstr::mov(RcDst::Reg(0), RcSrc::Srf(0)))
                .rc(1, RcInstr::mov(RcDst::Reg(0), RcSrc::Srf(1))),
            Row::new(4).lcu(LcuInstr::Exit),
        ];
        let program = ColumnProgram::new(rows).unwrap();
        let mut counters = ActivityCounters::new();
        col.reset_execution();
        let err = col.step(&program, &mut spm, &mut counters, 1).unwrap_err();
        assert!(matches!(
            err,
            CoreError::SrfPortConflict { accesses: 2, .. }
        ));
    }

    #[test]
    fn shuffle_and_rc_write_conflict_is_detected() {
        let g = Geometry::paper();
        let (mut col, mut spm) = paper_column();
        let rows = vec![
            Row::new(4)
                .lsu(LsuInstr::Shuffle(crate::isa::lsu::ShuffleOp::EvenPrune))
                .rc(0, RcInstr::mov(RcDst::Vwr(VwrId::C), RcSrc::Imm(1))),
            Row::new(4).lcu(LcuInstr::Exit),
        ];
        let program = ColumnProgram::new(rows).unwrap();
        let mut counters = ActivityCounters::new();
        col.reset_execution();
        let err = col.step(&program, &mut spm, &mut counters, 1).unwrap_err();
        assert!(matches!(err, CoreError::WriteConflict { .. }));
        let _ = g;
    }

    #[test]
    fn falling_off_the_end_is_an_error() {
        let (mut col, mut spm) = paper_column();
        let program = ColumnProgram::new(vec![Row::new(4)]).unwrap();
        let mut counters = ActivityCounters::new();
        col.reset_execution();
        let err = col.step(&program, &mut spm, &mut counters, 1).unwrap_err();
        assert!(matches!(err, CoreError::BranchTargetOutOfRange { .. }));
    }

    #[test]
    fn loaded_vwr_visible_next_cycle_not_same_cycle() {
        let g = Geometry::paper();
        let (mut col, mut spm) = paper_column();
        let line: Vec<i32> = (0..128).map(|i| i + 100).collect();
        spm.write_line(0, &line).unwrap();
        let mut bld = ColumnProgramBuilder::new(g.rcs_per_column);
        // Load A and read it in the same cycle: the read must see the old value (0).
        bld.push(
            bld.row()
                .lsu(LsuInstr::LoadVwr {
                    vwr: VwrId::A,
                    line: LsuAddr::Imm(0),
                })
                .rc(0, RcInstr::mov(RcDst::Reg(0), RcSrc::Vwr(VwrId::A))),
        );
        // Next cycle the new value is visible.
        bld.push(
            bld.row()
                .rc(0, RcInstr::mov(RcDst::Reg(1), RcSrc::Vwr(VwrId::A))),
        );
        bld.push_exit();
        let program = bld.build().unwrap();
        let _ = run(&mut col, &program, &mut spm);
        assert_eq!(col.rc(0).regs[0], 0);
        assert_eq!(col.rc(0).regs[1], 100);
    }

    #[test]
    fn exit_halts_and_further_steps_are_noops() {
        let (mut col, mut spm) = paper_column();
        let program = ColumnProgram::new(vec![Row::new(4).lcu(LcuInstr::Exit)]).unwrap();
        let mut counters = ActivityCounters::new();
        col.reset_execution();
        assert!(!col.step(&program, &mut spm, &mut counters, 1).unwrap());
        assert!(!col.step(&program, &mut spm, &mut counters, 2).unwrap());
    }
}
