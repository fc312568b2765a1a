//! Completion-interrupt latency.
//!
//! VWR2A informs the processor when a kernel execution or a DMA transfer is
//! finished through an interrupt line (Sec. 4.2), exactly like the other
//! accelerators of the platform.  What the results read of that path is its
//! cost on the host: the constants of [`latency`].

/// Interrupt-path latencies of the simulated platform, in CPU cycles.
///
/// These model the cost of a *completion interrupt*: the cycles between a
/// peripheral raising its line and the host actually reacting to the
/// completion (e.g. programming the next DMA descriptor).  The values
/// follow the Cortex-M4 the platform emulates: 12 cycles of exception
/// entry (stacking + vector fetch) and 10 cycles of exception return.
/// Runtimes that model asynchronous completion — VWR2A's kernel-done and
/// DMA-done interrupts in particular — charge
/// [`COMPLETION_IRQ_CYCLES`](latency::COMPLETION_IRQ_CYCLES) per serviced
/// interrupt instead of pretending the accelerator returns synchronously.
pub mod latency {
    /// Exception-entry latency (register stacking and vector fetch) of the
    /// Cortex-M4-class host CPU.
    pub const IRQ_ENTRY_CYCLES: u64 = 12;
    /// Exception-return latency (unstacking) of the host CPU.
    pub const IRQ_EXIT_CYCLES: u64 = 10;
    /// End-to-end cost of servicing one completion interrupt: entry, a
    /// minimal acknowledge-and-dispatch handler, and return.
    pub const COMPLETION_IRQ_CYCLES: u64 = IRQ_ENTRY_CYCLES + IRQ_EXIT_CYCLES;
}
