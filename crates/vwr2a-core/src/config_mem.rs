//! Configuration memory with per-kernel residency management.
//!
//! Kernels are stored as encoded configuration words in the configuration
//! memory and copied into the per-slot program memories when a kernel
//! execution starts (Sec. 3.1).  Keeping the encoded form here (rather than
//! the decoded instruction enums) keeps the model faithful: the same words
//! that the encoder produces are what the loader hands back to the columns,
//! and the activity counters charge one configuration-word transfer per word
//! at kernel launch.
//!
//! # Residency model
//!
//! The memory is a *generational slot map*: every stored kernel occupies a
//! slot, and its [`KernelId`] handle carries both the slot index and the
//! slot's generation at store time.  [`ConfigMemory::remove`] reclaims the
//! kernel's words and bumps the slot generation, so a handle to a removed
//! kernel can never alias a later kernel stored in the reused slot — it
//! fails with [`CoreError::UnknownKernel`] instead.  This is what lets a
//! long-lived runtime evict cold kernels under capacity pressure (see the
//! `vwr2a-runtime` session) without ever confusing stale handles with live
//! programs.
//!
//! Besides the encoded words, a slot holds two host-side handles that do
//! not exist architecturally: the decoded program (so warm launches stop
//! re-decoding configuration words), dropped with the slot, and the
//! program's entry in the accelerator's [`crate::replay::ReplayCache`],
//! resolved by content when the kernel is stored.  Replay traces are
//! therefore not slot-scoped: they outlive an eviction, and a reload of the
//! same program finds them again.

use crate::error::{CoreError, Result};
use crate::geometry::Geometry;
use crate::isa::encode::{
    decode_lcu, decode_lsu, decode_mxcu, decode_rc, encode_lcu, encode_lsu, encode_mxcu, encode_rc,
    ConfigWord,
};
use crate::program::{ColumnProgram, KernelProgram, Row};
use crate::replay::{ProgramTraces, ReplayCache};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Generational handle to a kernel stored in the configuration memory.
///
/// The handle pairs the slot index with the slot's generation at store
/// time.  After the kernel is removed (and even after its slot is reused by
/// a newer kernel) the stale handle no longer matches the slot's generation
/// and every lookup fails with [`CoreError::UnknownKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelId {
    slot: u32,
    generation: u32,
}

impl KernelId {
    /// Builds a handle from raw parts (in-crate tests only — handles to
    /// live kernels come from [`ConfigMemory::store`], and keeping this
    /// private stops callers from forging a handle to a slot they never
    /// stored).
    #[cfg(test)]
    pub(crate) fn from_parts(slot: u32, generation: u32) -> Self {
        Self { slot, generation }
    }

    /// The slot index in the configuration memory.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The slot generation this handle was issued for.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}v{}", self.slot, self.generation)
    }
}

/// Encoded words of one column, stored row-major: for each row, the LCU,
/// LSU and MXCU words followed by one word per RC.  The RC count is kept
/// per column so kernels whose columns differ in RC count decode correctly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct StoredColumn {
    words: Vec<ConfigWord>,
    rcs_per_column: usize,
}

/// A stored kernel's content — with the geometry, the key of its replay
/// traces (see [`crate::replay`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct StoredKernel {
    name: Arc<str>,
    columns: Vec<StoredColumn>,
    /// Total configuration words, cached so [`ConfigMemory::remove`] can
    /// reclaim exactly what [`ConfigMemory::store`] charged.
    words: usize,
}

/// One slot of the generational map: the stored kernel plus its two
/// host-side handles (see the module docs), all dropped together on every
/// `store`/`remove`/`clear` generation transition.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Slot {
    generation: u32,
    kernel: Option<Arc<StoredKernel>>,
    decoded: Option<Arc<KernelProgram>>,
    traces: Option<Arc<ProgramTraces>>,
}

/// The configuration memory holding encoded kernels.
///
/// # Example
///
/// ```
/// use vwr2a_core::config_mem::ConfigMemory;
/// use vwr2a_core::program::{ColumnProgram, KernelProgram, Row};
/// use vwr2a_core::isa::LcuInstr;
///
/// # fn main() -> Result<(), vwr2a_core::error::CoreError> {
/// let mut cm = ConfigMemory::new(1024);
/// let col = ColumnProgram::new(vec![Row::new(4).lcu(LcuInstr::Exit)])?;
/// let kernel = KernelProgram::new("noop", vec![col])?;
/// let id = cm.store(&kernel)?;
/// let loaded = cm.fetch(id)?;
/// assert_eq!(&*loaded.name, "noop");
///
/// // Removing the kernel reclaims its words and invalidates the handle.
/// let freed = cm.remove(id)?;
/// assert_eq!(freed, kernel.config_words());
/// assert!(!cm.contains(id));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigMemory {
    capacity_words: usize,
    used_words: usize,
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl ConfigMemory {
    /// Creates a configuration memory with the given capacity in words.
    pub fn new(capacity_words: usize) -> Self {
        Self {
            capacity_words,
            used_words: 0,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Capacity in configuration words.
    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }

    /// Words currently occupied.
    pub fn used_words(&self) -> usize {
        self.used_words
    }

    /// Words still available for new kernels.
    pub fn free_words(&self) -> usize {
        self.capacity_words - self.used_words
    }

    /// Number of kernels stored.
    pub fn kernel_count(&self) -> usize {
        self.slots.iter().filter(|s| s.kernel.is_some()).count()
    }

    /// Handles of every resident kernel, in slot order.
    pub fn kernel_ids(&self) -> impl Iterator<Item = KernelId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.kernel.as_ref().map(|_| KernelId {
                slot: i as u32,
                generation: s.generation,
            })
        })
    }

    fn resident(&self, id: KernelId) -> Result<&StoredKernel> {
        self.slots
            .get(id.slot())
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.kernel.as_deref())
            .ok_or(CoreError::UnknownKernel {
                slot: id.slot(),
                generation: id.generation,
            })
    }

    /// Encodes and stores a kernel, returning its generational id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigMemoryFull`] if the kernel does not fit
    /// the remaining free words (remove or evict kernels first), or an
    /// encoding error if an instruction field overflows its encoding.
    pub fn store(&mut self, kernel: &KernelProgram) -> Result<KernelId> {
        let needed = kernel.config_words();
        if self.used_words + needed > self.capacity_words {
            return Err(CoreError::ConfigMemoryFull {
                capacity_words: self.capacity_words,
                requested_words: needed,
            });
        }
        let mut columns = Vec::with_capacity(kernel.columns.len());
        for col in &kernel.columns {
            let mut words = Vec::with_capacity(col.config_words());
            for row in col.rows() {
                words.push(encode_lcu(&row.lcu)?);
                words.push(encode_lsu(&row.lsu)?);
                words.push(encode_mxcu(&row.mxcu)?);
                for rc in &row.rcs {
                    words.push(encode_rc(rc)?);
                }
            }
            columns.push(StoredColumn {
                words,
                rcs_per_column: col.rcs_per_column(),
            });
        }
        let stored = Arc::new(StoredKernel {
            name: kernel.name.clone(),
            columns,
            words: needed,
        });
        self.used_words += needed;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot];
                s.kernel = Some(stored);
                s.decoded = None;
                s.traces = None;
                slot
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    kernel: Some(stored),
                    decoded: None,
                    traces: None,
                });
                self.slots.len() - 1
            }
        };
        Ok(KernelId {
            slot: slot as u32,
            generation: self.slots[slot].generation,
        })
    }

    /// Decodes a stored kernel back into a [`KernelProgram`] (what the
    /// kernel loader streams into the per-slot program memories).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownKernel`] for a stale or invalid id, or a
    /// decoding error if the stored words are corrupt.
    pub fn fetch(&self, id: KernelId) -> Result<KernelProgram> {
        let stored = self.resident(id)?;
        let mut columns = Vec::with_capacity(stored.columns.len());
        for col in &stored.columns {
            let words_per_row = 3 + col.rcs_per_column;
            let mut rows = Vec::with_capacity(col.words.len() / words_per_row);
            for chunk in col.words.chunks(words_per_row) {
                let mut row = Row::new(col.rcs_per_column);
                row.lcu = decode_lcu(chunk[0])?;
                row.lsu = decode_lsu(chunk[1])?;
                row.mxcu = decode_mxcu(chunk[2])?;
                for (i, &w) in chunk[3..].iter().enumerate() {
                    row.rcs[i] = decode_rc(w)?;
                }
                rows.push(row);
            }
            columns.push(ColumnProgram::new(rows)?);
        }
        KernelProgram::new(stored.name.clone(), columns)
    }

    /// [`ConfigMemory::fetch`] through the per-slot decode cache: the
    /// first call decodes the stored words and caches the program; later
    /// calls return the cached [`Arc`] without touching the words.  The
    /// cache is dropped whenever the slot's generation moves (`store` into
    /// a reused slot, `remove`, `clear`), so a stale handle can never see
    /// a newer slot's program.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownKernel`] for a stale or invalid id, or a
    /// decoding error if the stored words are corrupt.
    pub fn fetch_decoded(&mut self, id: KernelId) -> Result<Arc<KernelProgram>> {
        self.resident(id)?;
        if let Some(decoded) = &self.slots[id.slot()].decoded {
            return Ok(Arc::clone(decoded));
        }
        let decoded = Arc::new(self.fetch(id)?);
        self.slots[id.slot()].decoded = Some(Arc::clone(&decoded));
        Ok(decoded)
    }

    /// Resolves a resident kernel's replay-trace handle in `cache`, keyed
    /// by its content and `geometry`.  Stale handles are ignored.
    pub(crate) fn bind_traces(&mut self, id: KernelId, cache: &ReplayCache, geometry: Geometry) {
        if let Some(slot) = self
            .slots
            .get_mut(id.slot())
            .filter(|s| s.generation == id.generation)
        {
            slot.traces = slot
                .kernel
                .as_ref()
                .map(|kernel| cache.program(geometry, kernel));
        }
    }

    /// The replay-trace handle of a resident kernel, if one was bound.
    pub(crate) fn traces(&self, id: KernelId) -> Option<&ProgramTraces> {
        self.slots
            .get(id.slot())
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.traces.as_deref())
    }

    /// Number of configuration words a stored kernel occupies (the kernel
    /// loader streams this many words at launch).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownKernel`] for a stale or invalid id.
    pub fn kernel_words(&self, id: KernelId) -> Result<usize> {
        Ok(self.resident(id)?.words)
    }

    /// `true` if `id` refers to a currently resident kernel.  Stale handles
    /// — removed kernels, even after their slot was reused — return `false`.
    pub fn contains(&self, id: KernelId) -> bool {
        self.resident(id).is_ok()
    }

    /// Removes one kernel, reclaiming its configuration words.  Returns the
    /// number of words freed.  The slot generation is bumped, so the removed
    /// id (and any copy of it) is invalidated permanently.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownKernel`] for a stale or invalid id.
    pub fn remove(&mut self, id: KernelId) -> Result<usize> {
        let slot = self
            .slots
            .get_mut(id.slot())
            .filter(|s| s.generation == id.generation && s.kernel.is_some())
            .ok_or(CoreError::UnknownKernel {
                slot: id.slot(),
                generation: id.generation,
            })?;
        let stored = slot.kernel.take().expect("filtered on occupancy");
        slot.generation = slot.generation.wrapping_add(1);
        slot.decoded = None;
        slot.traces = None;
        self.used_words -= stored.words;
        self.free.push(id.slot());
        Ok(stored.words)
    }

    /// Removes every stored kernel.  All outstanding ids are invalidated
    /// (their slots' generations are bumped), so handles issued before the
    /// clear can never alias kernels stored after it.
    pub fn clear(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.kernel.take().is_some() {
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(i);
            }
            slot.decoded = None;
            slot.traces = None;
        }
        self.used_words = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::VwrId;
    use crate::isa::lcu::LcuInstr;
    use crate::isa::lsu::{LsuAddr, LsuInstr};
    use crate::isa::rc::{RcDst, RcInstr, RcOpcode, RcSrc};

    fn sample_kernel() -> KernelProgram {
        let rows = vec![
            Row::new(4)
                .lsu(LsuInstr::LoadVwr {
                    vwr: VwrId::A,
                    line: LsuAddr::Imm(3),
                })
                .rc_all(RcInstr::new(
                    RcOpcode::MulFxp,
                    RcDst::Vwr(VwrId::C),
                    RcSrc::Vwr(VwrId::A),
                    RcSrc::Srf(2),
                )),
            Row::new(4).lcu(LcuInstr::Exit),
        ];
        let col = ColumnProgram::new(rows).unwrap();
        KernelProgram::new("sample", vec![col.clone(), col]).unwrap()
    }

    fn tiny_kernel(name: &str) -> KernelProgram {
        let col = ColumnProgram::new(vec![Row::new(4).lcu(LcuInstr::Exit)]).unwrap();
        KernelProgram::new(name, vec![col]).unwrap()
    }

    #[test]
    fn store_fetch_round_trip() {
        let mut cm = ConfigMemory::new(4096);
        let kernel = sample_kernel();
        let id = cm.store(&kernel).unwrap();
        let loaded = cm.fetch(id).unwrap();
        assert_eq!(loaded, kernel);
        assert_eq!(cm.kernel_words(id).unwrap(), kernel.config_words());
        assert_eq!(cm.kernel_count(), 1);
        assert_eq!(cm.used_words(), kernel.config_words());
        assert_eq!(cm.free_words(), 4096 - kernel.config_words());
    }

    #[test]
    fn asymmetric_columns_round_trip() {
        // A kernel whose columns have different RC counts must decode every
        // column with its own row stride.
        let wide = ColumnProgram::new(vec![
            Row::new(4).rc(3, RcInstr::mov(RcDst::Reg(0), RcSrc::Imm(7))),
            Row::new(4).lcu(LcuInstr::Exit),
        ])
        .unwrap();
        let narrow = ColumnProgram::new(vec![
            Row::new(2).rc(1, RcInstr::mov(RcDst::Reg(1), RcSrc::Imm(-3))),
            Row::new(2).lcu(LcuInstr::Exit),
        ])
        .unwrap();
        let kernel = KernelProgram::new("asym", vec![wide, narrow]).unwrap();
        let mut cm = ConfigMemory::new(4096);
        let id = cm.store(&kernel).unwrap();
        assert_eq!(cm.fetch(id).unwrap(), kernel);
        assert_eq!(cm.kernel_words(id).unwrap(), kernel.config_words());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut cm = ConfigMemory::new(10);
        assert!(matches!(
            cm.store(&sample_kernel()),
            Err(CoreError::ConfigMemoryFull { .. })
        ));
    }

    #[test]
    fn unknown_kernel_rejected() {
        let cm = ConfigMemory::new(100);
        assert!(matches!(
            cm.fetch(KernelId::from_parts(0, 0)),
            Err(CoreError::UnknownKernel { slot: 0, .. })
        ));
        assert!(cm.kernel_words(KernelId::from_parts(3, 0)).is_err());
    }

    #[test]
    fn remove_reclaims_words_and_invalidates_the_id() {
        let mut cm = ConfigMemory::new(100);
        let kernel = tiny_kernel("a");
        let id = cm.store(&kernel).unwrap();
        let used = cm.used_words();
        assert_eq!(cm.remove(id).unwrap(), used);
        assert_eq!(cm.used_words(), 0);
        assert_eq!(cm.kernel_count(), 0);
        assert!(!cm.contains(id));
        assert!(cm.fetch(id).is_err());
        assert!(matches!(
            cm.remove(id),
            Err(CoreError::UnknownKernel { .. })
        ));
    }

    #[test]
    fn stale_id_never_aliases_a_reused_slot() {
        let mut cm = ConfigMemory::new(1000);
        let a = cm.store(&tiny_kernel("a")).unwrap();
        let b = cm.store(&tiny_kernel("b")).unwrap();
        cm.remove(a).unwrap();
        // The freed slot is reused for the next kernel...
        let c = cm.store(&tiny_kernel("c")).unwrap();
        assert_eq!(c.slot(), a.slot());
        assert_ne!(c.generation(), a.generation());
        // ...but the stale handle must not see it.
        assert!(!cm.contains(a));
        assert!(matches!(cm.fetch(a), Err(CoreError::UnknownKernel { .. })));
        assert!(cm.kernel_words(a).is_err());
        // Live handles are unaffected.
        assert_eq!(&*cm.fetch(b).unwrap().name, "b");
        assert_eq!(&*cm.fetch(c).unwrap().name, "c");
        assert_eq!(cm.kernel_count(), 2);
    }

    #[test]
    fn kernel_ids_enumerates_residents() {
        let mut cm = ConfigMemory::new(1000);
        let a = cm.store(&tiny_kernel("a")).unwrap();
        let b = cm.store(&tiny_kernel("b")).unwrap();
        cm.remove(a).unwrap();
        let ids: Vec<KernelId> = cm.kernel_ids().collect();
        assert_eq!(ids, vec![b]);
        assert_eq!(format!("{b}"), "1v0");
    }

    #[test]
    fn fetch_decoded_caches_and_respects_generations() {
        let mut cm = ConfigMemory::new(1000);
        let id = cm.store(&sample_kernel()).unwrap();
        let first = cm.fetch_decoded(id).unwrap();
        let second = cm.fetch_decoded(id).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second fetch hits the cache");
        assert_eq!(*first, cm.fetch(id).unwrap());
        // Removing the kernel drops the cache with the slot; a new kernel
        // in the reused slot decodes fresh.
        cm.remove(id).unwrap();
        assert!(cm.fetch_decoded(id).is_err());
        let other = cm.store(&tiny_kernel("other")).unwrap();
        assert_eq!(other.slot(), id.slot());
        assert_eq!(&*cm.fetch_decoded(other).unwrap().name, "other");
    }

    #[test]
    fn clear_releases_space_and_invalidates_ids() {
        let mut cm = ConfigMemory::new(100);
        let id = cm.store(&sample_kernel()).unwrap();
        cm.clear();
        assert_eq!(cm.used_words(), 0);
        assert_eq!(cm.kernel_count(), 0);
        assert_eq!(cm.capacity_words(), 100);
        assert!(!cm.contains(id));
        // A kernel stored after the clear reuses the slot with a newer
        // generation; the pre-clear handle still fails.
        let fresh = cm.store(&sample_kernel()).unwrap();
        assert_eq!(fresh.slot(), id.slot());
        assert!(cm.contains(fresh));
        assert!(!cm.contains(id));
    }

    #[test]
    fn freed_words_are_reusable() {
        let kernel = sample_kernel();
        let words = kernel.config_words();
        // Room for exactly two kernels.
        let mut cm = ConfigMemory::new(2 * words);
        let a = cm.store(&kernel).unwrap();
        let _b = cm.store(&kernel).unwrap();
        assert!(matches!(
            cm.store(&kernel),
            Err(CoreError::ConfigMemoryFull { .. })
        ));
        cm.remove(a).unwrap();
        let c = cm.store(&kernel).unwrap();
        assert!(cm.contains(c));
        assert_eq!(cm.used_words(), 2 * words);
    }
}
