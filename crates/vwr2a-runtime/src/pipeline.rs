//! The pipelined stream schedule behind [`crate::Session::run_stream`]
//! and the pool's backends.
//!
//! # Engines
//!
//! The paper's end-to-end efficiency relies on the platform's engines
//! working *concurrently*: while the array executes window *i*, the DMA
//! already streams window *i+1* into the SPM and drains window *i−1* back
//! to system memory.  A purely additive cycle count ("DMA + compute +
//! DMA") therefore overstates wall-clock latency for any streamed
//! workload.
//!
//! Each [`Engine`] — the configuration-word streamer, the DMA, the array
//! itself and the completion-interrupt path — advances its own
//! *busy-until* cycle.  A [`StreamSchedule`] merges them: it places every
//! operation on its engine no earlier than both the engine's previous
//! work and an explicit dependency (`not_before`), as a [`Span`].  The
//! schedule's wall clock is the overlapped end-to-end latency, its
//! [`Occupancy`] the per-engine busy totals whose sum is the cost of the
//! same work executed strictly serially.
//!
//! The core simulator reports plain cycles for every DMA transfer and
//! launch; this module is the only code that decides when that work runs
//! on which engine.
//!
//! # The execution model
//!
//! A streamed workload runs the same kernel over a sequence of windows.
//! Executed naively, every window serialises its three phases — DMA the
//! window into the SPM, run the array, DMA the result out — and the array
//! idles during every transfer.  The hardware does better: the SPM is
//! double-buffered, so while the array computes window *i* the DMA already
//! **stages** window *i+1* into the other half-buffer and **drains**
//! window *i−1* behind the launch, and the host learns of each completion
//! through an interrupt rather than by busy-waiting.
//!
//! [`StreamSchedule`] reproduces that overlap.  For window *w* with
//! per-phase durations ([`WindowPhases`]) it schedules:
//!
//! 1. **stage(w)** on [`Engine::Dma`] — not before window *w−2*'s compute
//!    finished (that is when the input half-buffer frees);
//! 2. **drain(w−1)** on [`Engine::Dma`] behind the stage — not before
//!    window *w−1*'s completion interrupt was serviced;
//! 3. **config(w)** on [`Engine::ConfigLoad`] after the stage (zero-length
//!    for warm launches);
//! 4. **compute(w)** on [`Engine::Compute`] — after the configuration is
//!    in place and not before window *w−2*'s drain freed the output
//!    half-buffer;
//! 5. the **kernel-done interrupt** on [`Engine::Interrupt`] after the
//!    compute ([`COMPLETION_IRQ_CYCLES`](latency::COMPLETION_IRQ_CYCLES)
//!    from the SoC model — the host reacts to the completion interrupt,
//!    it is not notified synchronously).
//!
//! [`StreamSchedule::finish`] drains the last window, services the final
//! DMA-done interrupt, and returns the overlapped wall clock and the
//! per-engine [`Occupancy`] that [`crate::RunReport`] reports (with its
//! [`overlap_ratio`](crate::RunReport::overlap_ratio)).
//!
//! Functional execution stays strictly sequential (outputs are
//! bit-identical to the synchronous path); the schedule models *when* the
//! already-verified work would retire on pipelined hardware.

use vwr2a_soc::irq::latency;

/// Fraction of a serial cost hidden by overlap: `(serial − wall) / serial`,
/// always in `[0.0, 1.0]`.  The single definition behind the runtime
/// report's `overlap_ratio()`, including every degenerate case: an empty
/// stream (`serial == 0`) and a wall clock at or above the serial cost (a
/// single window, or a report whose wall clock was folded from sequential
/// runs) both yield `0.0` — the saturating subtraction pins the numerator
/// to `[0, serial]`, so the ratio needs no further clamping — and a zero
/// wall clock against non-zero serial work caps at `1.0`.
pub(crate) fn overlap_ratio(serial_cycles: u64, wall_cycles: u64) -> f64 {
    if serial_cycles == 0 {
        return 0.0;
    }
    serial_cycles.saturating_sub(wall_cycles) as f64 / serial_cycles as f64
}

/// A platform engine that makes progress independently of the others.
///
/// The four engines correspond to the units that can genuinely work in the
/// same cycle on the modelled SoC: the configuration-memory streamer
/// filling the per-slot program memories, the DMA moving data between
/// system memory and the SPM, the reconfigurable array executing a kernel,
/// and the interrupt path informing the host of a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Configuration words streaming from the configuration memory into the
    /// per-slot program memories (the cold part of a launch).
    ConfigLoad,
    /// The DMA engine between system memory and the SPM (staging inputs,
    /// draining outputs).
    Dma,
    /// The array columns executing a kernel, including the host's SRF
    /// slave-port accesses tied to a launch.
    Compute,
    /// Completion-interrupt delivery and the host's response to it.
    Interrupt,
}

impl Engine {
    fn index(self) -> usize {
        match self {
            Engine::ConfigLoad => 0,
            Engine::Dma => 1,
            Engine::Compute => 2,
            Engine::Interrupt => 3,
        }
    }
}

/// A half-open busy interval `[start, end)` of one [`Engine`], in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The engine the work occupied.
    pub engine: Engine,
    /// First busy cycle.
    pub start: u64,
    /// First cycle after the work retires.
    pub end: u64,
}

/// Per-engine busy-cycle totals of a [`StreamSchedule`] (or of one
/// invocation).
///
/// [`Occupancy::total`] is the cost of the same work executed strictly
/// serially — comparing it against the schedule's wall clock quantifies
/// how much latency the overlap hides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Occupancy {
    /// Busy cycles of [`Engine::ConfigLoad`].
    pub config_load: u64,
    /// Busy cycles of [`Engine::Dma`].
    pub dma: u64,
    /// Busy cycles of [`Engine::Compute`].
    pub compute: u64,
    /// Busy cycles of [`Engine::Interrupt`].
    pub interrupt: u64,
}

impl Occupancy {
    /// Sum of all engines' busy cycles: the serial (non-overlapped) cost.
    pub fn total(&self) -> u64 {
        self.config_load + self.dma + self.compute + self.interrupt
    }
}

impl std::ops::AddAssign for Occupancy {
    fn add_assign(&mut self, rhs: Self) {
        self.config_load += rhs.config_load;
        self.dma += rhs.dma;
        self.compute += rhs.compute;
        self.interrupt += rhs.interrupt;
    }
}

impl std::ops::Add for Occupancy {
    type Output = Occupancy;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

/// Per-engine durations of one kernel invocation (one window), collected
/// by the session's [`crate::LaunchCtx`] while the invocation executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowPhases {
    /// DMA-in cycles: staging the window's inputs into the SPM.
    pub stage: u64,
    /// Configuration-word streaming cycles (non-zero only for cold
    /// launches).
    pub config: u64,
    /// Array execution cycles plus the host's SRF slave-port accesses tied
    /// to the launches.
    pub compute: u64,
    /// DMA-out cycles: draining the window's outputs back to system
    /// memory.
    pub drain: u64,
}

impl WindowPhases {
    /// Serial cost of the window without any overlap or interrupt
    /// modelling (the classic "DMA-in + compute + DMA-out" sum).
    pub fn total(&self) -> u64 {
        self.stage + self.config + self.compute + self.drain
    }
}

/// The spans one [`StreamSchedule::push`] placed for its window.  The
/// window's drain is scheduled later — behind the *next* window's stage —
/// and therefore not part of this snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpans {
    /// The staging DMA transfer.
    pub stage: Span,
    /// The configuration-word streaming (zero-length when warm).
    pub config: Span,
    /// The array execution.
    pub compute: Span,
    /// The completion-interrupt service.
    pub irq: Span,
}

/// The overlapped schedule of a double-buffered window stream on the
/// platform's engines.
///
/// The schedule is append-only and monotonic per engine: every operation
/// lands at `max(engine busy-until, not_before)`, and dependencies between
/// operations on *different* engines pass the upstream span's `end` as
/// `not_before`.
///
/// # Example
///
/// ```
/// use vwr2a_runtime::pipeline::{StreamSchedule, WindowPhases};
///
/// let phases = WindowPhases { stage: 150, config: 0, compute: 700, drain: 150 };
/// let mut schedule = StreamSchedule::new();
/// for _ in 0..8 {
///     schedule.push(phases, 0);
/// }
/// let (wall_cycles, busy) = schedule.finish();
/// // Staging and draining hide behind the array's compute time: more than
/// // a fifth of the serial cost disappears into the overlap.
/// assert!(wall_cycles < busy.total());
/// assert!(5 * (busy.total() - wall_cycles) > busy.total());
/// ```
#[derive(Debug, Default)]
pub struct StreamSchedule {
    /// First free cycle of each engine, indexed by `Engine::index`.
    busy_until: [u64; 4],
    /// Per-engine busy cycles scheduled so far.
    occupancy: Occupancy,
    windows: usize,
    /// Compute-end cycle of the window last run in each SPM half-buffer.
    compute_end: [u64; 2],
    /// Drain-end cycle of the window last run in each SPM half-buffer.
    drain_end: [u64; 2],
    /// The previous window's drain: (earliest start, duration).  Scheduled
    /// behind the next window's stage, or by [`StreamSchedule::finish`].
    pending_drain: Option<(u64, u64)>,
}

impl StreamSchedule {
    /// An empty schedule: every engine free at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `duration` busy cycles on `engine`, starting no earlier
    /// than the engine's previous work and `not_before`.  A zero-length
    /// duration yields an empty span at the resolved start cycle and adds
    /// no busy cycles.
    fn schedule(&mut self, engine: Engine, not_before: u64, duration: u64) -> Span {
        let idx = engine.index();
        let start = self.busy_until[idx].max(not_before);
        let end = start + duration;
        self.busy_until[idx] = end;
        match engine {
            Engine::ConfigLoad => self.occupancy.config_load += duration,
            Engine::Dma => self.occupancy.dma += duration,
            Engine::Compute => self.occupancy.compute += duration,
            Engine::Interrupt => self.occupancy.interrupt += duration,
        }
        Span { engine, start, end }
    }

    /// First cycle at which `engine` has no work scheduled so far (the
    /// final window's drain may still be pending — see
    /// [`StreamSchedule::finish`]).  The pool's placement reads each
    /// backend's [`Engine::Compute`] and [`Engine::ConfigLoad`] values.
    pub fn free_at(&self, engine: Engine) -> u64 {
        self.busy_until[engine.index()]
    }

    /// Stages a speculative configuration-word stream (a *prefetch*) onto
    /// the [`Engine::ConfigLoad`] lane at the lane's earliest free cycle
    /// no earlier than `not_before`, returning the placed [`Span`].
    ///
    /// The configuration streamer is idle while the array computes and the
    /// DMA stages, so a prefetch placed *before* its job's first window
    /// overlaps whatever backlog the schedule already carries — the reload
    /// leaves the launch's critical path.  Because per-engine placement is
    /// monotonic, the span can never collide with the config span of a
    /// launch already pinned on the lane, and every later
    /// [`StreamSchedule::push`] queues its own config span behind the
    /// prefetch.  The online serving layer passes the dispatch cycle as
    /// `not_before`: the speculative streaming must not be back-dated to
    /// before the dispatch decision existed.
    pub fn prefetch(&mut self, config_cycles: u64, not_before: u64) -> Span {
        self.schedule(Engine::ConfigLoad, not_before, config_cycles)
    }

    /// Services one completion interrupt on the interrupt engine: the
    /// peripheral raises its line at `not_before`, and the host pays the
    /// Cortex-M4 entry/exit latency ([`latency::COMPLETION_IRQ_CYCLES`])
    /// before it can react.
    fn service_irq(&mut self, not_before: u64) -> Span {
        self.schedule(
            Engine::Interrupt,
            not_before,
            latency::COMPLETION_IRQ_CYCLES,
        )
    }

    /// Schedules the previous window's drain behind the stage that was
    /// just placed.
    fn flush_pending_drain(&mut self) {
        if let Some((ready, duration)) = self.pending_drain.take() {
            let prev_slot = (self.windows - 1) % 2;
            if duration > 0 {
                let span = self.schedule(Engine::Dma, ready, duration);
                self.drain_end[prev_slot] = span.end;
            } else {
                // Nothing to drain (e.g. a reduction read back over the
                // SRF): the output buffer is free as soon as the host
                // serviced the completion interrupt.
                self.drain_end[prev_slot] = ready;
            }
        }
    }

    /// Appends one window with the given phase durations whose staging
    /// starts no earlier than `not_before`, returning the spans placed for
    /// it (its drain is scheduled behind the *next* window's stage).
    ///
    /// `not_before` is how an *arrival-stamped* job lands on a schedule: a
    /// window cannot stage before its job exists, so the serving layer
    /// clamps the first phase to the job's arrival (the rest of the chain
    /// follows from it); a plain stream passes `0`.  On a backlogged
    /// schedule the clamp is usually moot — the per-engine lanes are
    /// monotonic, so the stage queues behind earlier work anyway — but on
    /// an idle array it keeps the schedule honest: the gap until the
    /// arrival shows up as idle time, not as work magically done in the
    /// past.
    pub fn push(&mut self, phases: WindowPhases, not_before: u64) -> WindowSpans {
        let slot = self.windows % 2;
        // Stage into the half-buffer whose previous occupant (window w-2)
        // must have been consumed by its compute — and never before the
        // window exists.
        let input_free = self.compute_end[slot].max(not_before);
        let stage = self.schedule(Engine::Dma, input_free, phases.stage);
        // Drain window w-1 behind the launch.
        self.flush_pending_drain();
        // Cold launches stream configuration words once staging is done.
        let config = self.schedule(Engine::ConfigLoad, stage.end, phases.config);
        // The array needs its inputs and configuration in place, and the
        // output half-buffer must have been drained (window w-2).
        let output_free = self.drain_end[slot];
        let compute = self.schedule(Engine::Compute, config.end.max(output_free), phases.compute);
        self.compute_end[slot] = compute.end;
        // The host learns of the completion through the kernel-done
        // interrupt and only then programs the drain.
        let irq = self.service_irq(compute.end);
        self.pending_drain = Some((irq.end, phases.drain));
        self.windows += 1;
        WindowSpans {
            stage,
            config,
            compute,
            irq,
        }
    }

    /// Drains the final window and services its DMA-done interrupt.
    /// Returns the wall clock — the last cycle any engine is busy — and
    /// the per-engine busy totals.
    pub fn finish(mut self) -> (u64, Occupancy) {
        if let Some((ready, duration)) = self.pending_drain.take() {
            if duration > 0 {
                let span = self.schedule(Engine::Dma, ready, duration);
                // The stream is over when the host has serviced the final
                // drain's DMA-done interrupt.
                self.service_irq(span.end);
            }
        }
        let wall_cycles = self.busy_until.into_iter().max().unwrap_or(0);
        (wall_cycles, self.occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IRQ: u64 = latency::COMPLETION_IRQ_CYCLES;

    fn phases(stage: u64, config: u64, compute: u64, drain: u64) -> WindowPhases {
        WindowPhases {
            stage,
            config,
            compute,
            drain,
        }
    }

    /// `true` if the two spans occupy the *same* engine during at least
    /// one common cycle.  Spans on different engines never collide (they
    /// model genuinely concurrent units), and zero-length spans collide
    /// with nothing.
    fn overlaps(a: &Span, b: &Span) -> bool {
        a.engine == b.engine && a.start.max(b.start) < a.end.min(b.end)
    }

    fn duration(span: &Span) -> u64 {
        span.end - span.start
    }

    #[test]
    fn serial_chain_has_zero_overlap() {
        let mut t = StreamSchedule::new();
        let a = t.schedule(Engine::Dma, 0, 10);
        let b = t.schedule(Engine::ConfigLoad, a.end, 20);
        let c = t.schedule(Engine::Compute, b.end, 30);
        let d = t.schedule(Engine::Interrupt, c.end, 5);
        let e = t.schedule(Engine::Dma, d.end, 10);
        assert_eq!(e.end, 75);
        let (wall, busy) = t.finish();
        assert_eq!(wall, 75);
        assert_eq!(busy.total(), 75);
        assert_eq!(overlap_ratio(busy.total(), wall), 0.0);
        assert_eq!(busy.dma, 20);
        assert_eq!(busy.compute, 30);
    }

    #[test]
    fn independent_engines_overlap() {
        let mut t = StreamSchedule::new();
        t.schedule(Engine::Compute, 0, 100);
        t.schedule(Engine::Dma, 0, 60);
        let (wall, busy) = t.finish();
        assert_eq!(wall, 100);
        assert_eq!(busy.total(), 160);
        assert!((overlap_ratio(busy.total(), wall) - 60.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn engine_order_is_monotonic() {
        let mut t = StreamSchedule::new();
        let a = t.schedule(Engine::Dma, 50, 10);
        // A later request with an earlier dependency still queues behind.
        let b = t.schedule(Engine::Dma, 0, 10);
        assert_eq!(a.start, 50);
        assert_eq!(b.start, a.end);
        assert_eq!(t.free_at(Engine::Dma), 70);
    }

    #[test]
    fn zero_duration_spans_are_empty_and_free() {
        let mut t = StreamSchedule::new();
        let s = t.schedule(Engine::ConfigLoad, 7, 0);
        assert_eq!(duration(&s), 0);
        assert_eq!((s.start, s.end), (7, 7));
        assert_eq!(t.finish().1.total(), 0);
        // An empty schedule's wall clock never ran.
        let (wall, busy) = StreamSchedule::new().finish();
        assert_eq!(wall, 0);
        assert_eq!(overlap_ratio(busy.total(), wall), 0.0);
    }

    #[test]
    fn span_overlap_requires_a_shared_engine_and_a_shared_cycle() {
        let span = |engine, start, end| Span { engine, start, end };
        let a = span(Engine::ConfigLoad, 10, 20);
        // Same engine, shared cycles: collision (in both orders).
        assert!(overlaps(&a, &span(Engine::ConfigLoad, 15, 25)));
        assert!(overlaps(&span(Engine::ConfigLoad, 15, 25), &a));
        assert!(overlaps(&a, &span(Engine::ConfigLoad, 0, 11)));
        // Half-open intervals: touching end-to-start is not a collision.
        assert!(!overlaps(&a, &span(Engine::ConfigLoad, 20, 30)));
        assert!(!overlaps(&a, &span(Engine::ConfigLoad, 0, 10)));
        // Different engines run concurrently by construction.
        assert!(!overlaps(&a, &span(Engine::Compute, 10, 20)));
        // Zero-length spans occupy no cycle.
        assert!(!overlaps(&a, &span(Engine::ConfigLoad, 15, 15)));
    }

    #[test]
    fn monotonic_scheduling_never_collides_on_an_engine() {
        // The guarantee prefetch scheduling relies on: a speculative span
        // placed on ConfigLoad ahead of a launch can never be overlapped by
        // the launch's own (pinned) config span, because per-engine
        // placement is monotonic.
        let mut t = StreamSchedule::new();
        let prefetch = t.schedule(Engine::ConfigLoad, 0, 120);
        let launch_config = t.schedule(Engine::ConfigLoad, 30, 80);
        assert!(!overlaps(&prefetch, &launch_config));
        assert_eq!(launch_config.start, prefetch.end);
    }

    #[test]
    fn occupancy_accumulates_across_schedules() {
        let mut a = StreamSchedule::new();
        a.schedule(Engine::Dma, 0, 10);
        let mut b = StreamSchedule::new();
        b.schedule(Engine::Compute, 0, 20);
        let sum = a.finish().1 + b.finish().1;
        assert_eq!(sum.total(), 30);
        assert_eq!(sum.dma, 10);
        assert_eq!(sum.compute, 20);
    }

    #[test]
    fn overlap_ratio_degenerate_cases_are_defined_and_bounded() {
        // Nothing ran: no overlap, not NaN.
        assert_eq!(overlap_ratio(0, 0), 0.0);
        assert_eq!(overlap_ratio(0, 50), 0.0);
        // Fully serial (single window): exactly zero.
        assert_eq!(overlap_ratio(100, 100), 0.0);
        // A wall clock beyond the serial cost (sequential runs folded into
        // one report) stays at zero: the saturating subtraction bounds the
        // numerator.
        assert_eq!(overlap_ratio(100, 250), 0.0);
        // A zero wall clock against real work caps at 1.0.
        assert_eq!(overlap_ratio(100, 0), 1.0);
        // The interior is the plain fraction.
        assert!((overlap_ratio(200, 150) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_is_free() {
        let (wall, busy) = StreamSchedule::new().finish();
        assert_eq!(wall, 0);
        assert_eq!(busy.total(), 0);
        assert_eq!(overlap_ratio(busy.total(), wall), 0.0);
    }

    #[test]
    fn single_window_is_fully_serial() {
        let mut s = StreamSchedule::new();
        let p = phases(100, 50, 400, 120);
        s.push(p, 0);
        let (wall, busy) = s.finish();
        // stage → config → compute → kernel-done IRQ → drain → DMA-done
        // IRQ, nothing overlapping anything.
        assert_eq!(wall, p.total() + 2 * IRQ);
        assert_eq!(busy.total(), wall);
        assert_eq!(overlap_ratio(busy.total(), wall), 0.0);
    }

    #[test]
    fn single_window_without_drain_gets_one_interrupt() {
        let mut s = StreamSchedule::new();
        s.push(phases(100, 0, 400, 0), 0);
        let (wall, busy) = s.finish();
        assert_eq!(wall, 500 + IRQ);
        assert_eq!(busy.interrupt, IRQ);
    }

    #[test]
    fn staging_overlaps_compute_of_the_previous_window() {
        let mut s = StreamSchedule::new();
        let p = phases(100, 0, 1_000, 100);
        let w0 = s.push(p, 0);
        let w1 = s.push(p, 0);
        // Window 1 stages while window 0 computes...
        assert!(w1.stage.start < w0.compute.end);
        // ...and the array relaunches as soon as the completion interrupt
        // and (already-finished) staging allow.
        assert_eq!(w1.compute.start, w0.compute.end);
        let (wall, busy) = s.finish();
        assert!(wall < busy.total());
    }

    #[test]
    fn four_window_wall_clock_beats_the_serial_sum() {
        let mut s = StreamSchedule::new();
        let p = phases(150, 0, 700, 150);
        for _ in 0..4 {
            s.push(p, 0);
        }
        let (wall, busy) = s.finish();
        // The acceptance bound: strictly less than the per-window
        // DMA-in + compute + DMA-out sum, even before interrupt costs.
        assert!(wall < 4 * p.total());
        assert!(overlap_ratio(busy.total(), wall) > 0.0);
    }

    #[test]
    fn double_buffering_limits_lookahead_to_two_windows() {
        let mut s = StreamSchedule::new();
        // DMA-bound stream: staging takes far longer than compute, so
        // without a buffer limit stage(2) would start immediately after
        // stage(1).
        let p = phases(1_000, 0, 10, 5);
        let w0 = s.push(p, 0);
        let _w1 = s.push(p, 0);
        let w2 = s.push(p, 0);
        assert!(
            w2.stage.start >= w0.compute.end,
            "window 2 must wait for window 0's half-buffer"
        );
        s.finish();
    }

    #[test]
    fn compute_bound_streams_keep_the_array_saturated() {
        let mut s = StreamSchedule::new();
        let p = phases(50, 0, 900, 50);
        let mut prev_end = None;
        for _ in 0..6 {
            let w = s.push(p, 0);
            if let Some(end) = prev_end {
                assert_eq!(w.compute.start, end, "the array must never idle");
            }
            prev_end = Some(w.compute.end);
        }
        let (wall, busy) = s.finish();
        // Wall clock ≈ first stage + N computes + final IRQ/drain tail.
        assert!(wall < 6 * p.total());
        assert_eq!(busy.compute, 6 * 900);
    }

    #[test]
    fn free_at_tracks_the_compute_engine_mid_stream() {
        let mut s = StreamSchedule::new();
        assert_eq!(s.free_at(Engine::Compute), 0);
        let w0 = s.push(phases(100, 0, 400, 50), 0);
        assert_eq!(s.free_at(Engine::Compute), w0.compute.end);
        assert_eq!(s.occupancy.compute, 400);
        let w1 = s.push(phases(100, 0, 400, 50), 0);
        assert_eq!(s.free_at(Engine::Compute), w1.compute.end);
        s.finish();
    }

    #[test]
    fn prefetch_spans_hide_behind_the_compute_backlog() {
        // An array with a compute backlog: the prefetched reload streams on
        // the idle ConfigLoad lane entirely during the backlog, and the
        // next job's first window launches warm (zero-length config span).
        let mut s = StreamSchedule::new();
        let backlog = s.push(phases(100, 0, 2_000, 100), 0);
        let before = s.free_at(Engine::Compute);
        let prefetch = s.prefetch(300, 0);
        assert_eq!(duration(&prefetch), 300);
        assert!(
            prefetch.end <= before,
            "prefetch [{}, {}) must end inside the backlog (compute free at {before})",
            prefetch.start,
            prefetch.end
        );
        // The compute lane is untouched by the prefetch.
        assert_eq!(s.free_at(Engine::Compute), before);
        let warm = s.push(phases(100, 0, 400, 100), 0);
        assert_eq!(duration(&warm.config), 0);
        assert_eq!(warm.compute.start, backlog.compute.end);
        // Monotonic lane order: the prefetch collides with neither the
        // earlier launch's config span nor the warm window's.
        assert!(!overlaps(&prefetch, &backlog.config));
        assert!(!overlaps(&prefetch, &warm.config));
        let (_, busy) = s.finish();
        assert_eq!(busy.config_load, 300);
    }

    #[test]
    fn prefetch_on_an_idle_schedule_overlaps_the_first_stage() {
        // Without a backlog the prefetch cannot hide behind compute, but it
        // still runs concurrently with the first window's DMA staging
        // instead of serialising stage -> config -> compute.
        let mut cold = StreamSchedule::new();
        cold.push(phases(200, 300, 400, 100), 0);
        let (cold_wall, cold_busy) = cold.finish();

        let mut prefetched = StreamSchedule::new();
        let span = prefetched.prefetch(300, 0);
        assert_eq!((span.start, span.end), (0, 300));
        let w = prefetched.push(phases(200, 0, 400, 100), 0);
        assert!(!overlaps(&span, &w.config));
        let (wall, busy) = prefetched.finish();
        // config ∥ stage: the window computes at max(stage, prefetch) = 300
        // instead of stage + config = 500.
        assert_eq!(w.compute.start, 300);
        assert!(wall < cold_wall);
        // Same total work either way.
        assert_eq!(busy.total(), cold_busy.total());
    }

    #[test]
    fn push_delays_an_idle_schedule_to_the_arrival() {
        // An idle array must not stage a window before the window's job
        // arrived: the gap is idle time, not back-dated work.
        let mut s = StreamSchedule::new();
        let w = s.push(phases(100, 0, 400, 50), 1_000);
        assert_eq!(w.stage.start, 1_000);
        assert_eq!(w.compute.start, 1_100);
        let (wall, busy) = s.finish();
        // The wall clock includes the arrival gap; the busy cycles do not.
        assert!(wall >= 1_500);
        assert_eq!(busy.compute, 400);
    }

    #[test]
    fn push_clamp_is_a_no_op_behind_a_backlog() {
        // With a backlog past the arrival, the clamped push places exactly
        // what an unclamped push would: the lanes are already monotonic.
        let p = phases(100, 0, 800, 100);
        let mut clamped = StreamSchedule::new();
        let mut plain = StreamSchedule::new();
        plain.push(p, 0);
        clamped.push(p, 0);
        let a = plain.push(p, 0);
        let b = clamped.push(p, 50);
        assert_eq!(a, b);
        plain.finish();
        clamped.finish();
    }

    #[test]
    fn prefetch_respects_the_dispatch_cycle() {
        let mut s = StreamSchedule::new();
        let span = s.prefetch(300, 2_000);
        assert_eq!((span.start, span.end), (2_000, 2_300));
        // A later prefetch queues behind it on the ConfigLoad lane.
        let next = s.prefetch(100, 0);
        assert_eq!(next.start, 2_300);
        s.finish();
    }

    #[test]
    fn cold_config_load_only_delays_the_first_window() {
        let mut s = StreamSchedule::new();
        let w0 = s.push(phases(100, 300, 500, 100), 0);
        let w1 = s.push(phases(100, 0, 500, 100), 0);
        assert_eq!(duration(&w0.config), 300);
        assert_eq!(duration(&w1.config), 0);
        assert_eq!(w1.compute.start, w0.compute.end);
        s.finish();
    }
}
