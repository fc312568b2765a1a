//! The pipelined stream schedule behind [`crate::Session::run_stream`].
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
//! [`StreamSchedule`] reproduces that overlap on the core's
//! [`Timeline`].  For window *w* with per-phase durations
//! ([`WindowPhases`]) it schedules:
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
//! [`StreamSchedule::finish`] drains the last window and services the
//! final DMA-done interrupt.  The resulting timeline yields the
//! overlapped [`Timeline::wall_cycles`], the per-engine
//! [`Timeline::occupancy`] and the
//! [`Timeline::overlap_ratio`] reported through
//! [`crate::RunReport`].
//!
//! Functional execution stays strictly sequential (outputs are
//! bit-identical to the synchronous path); the schedule models *when* the
//! already-verified work would retire on pipelined hardware.

use vwr2a_core::timeline::{Engine, Span, Timeline};
use vwr2a_soc::irq::latency;

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

/// Builds the overlapped timeline of a double-buffered window stream.
///
/// # Example
///
/// ```
/// use vwr2a_runtime::pipeline::{StreamSchedule, WindowPhases};
///
/// let phases = WindowPhases { stage: 150, config: 0, compute: 700, drain: 150 };
/// let mut schedule = StreamSchedule::new();
/// for _ in 0..8 {
///     schedule.push(phases);
/// }
/// let timeline = schedule.finish();
/// // Staging and draining hide behind the array's compute time.
/// assert!(timeline.wall_cycles() < timeline.serial_cycles());
/// assert!(timeline.overlap_ratio() > 0.2);
/// ```
#[derive(Debug, Default)]
pub struct StreamSchedule {
    timeline: Timeline,
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
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Windows pushed so far.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// First cycle at which `engine` has no work scheduled so far (the
    /// final window's drain may still be pending — see
    /// [`StreamSchedule::finish`]).  The pool's residency-aware placement
    /// tie-breaks jobs on each array's [`Engine::Compute`] value.
    pub fn free_at(&self, engine: Engine) -> u64 {
        self.timeline.free_at(engine)
    }

    /// The schedule's timeline as built so far.  [`StreamSchedule::finish`]
    /// returns the completed timeline (with the last drain flushed); this
    /// view exists for mid-stream queries like
    /// [`StreamSchedule::free_at`].
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Stages a speculative configuration-word stream (a *prefetch*) onto
    /// the schedule's [`Engine::ConfigLoad`] lane at the lane's earliest
    /// free cycle, returning the placed [`Span`].
    ///
    /// The configuration streamer is idle while the array computes and the
    /// DMA stages, so a prefetch placed *before* its job's first window
    /// overlaps whatever backlog the schedule already carries — the reload
    /// leaves the launch's critical path.  Because per-engine placement is
    /// monotonic ([`vwr2a_core::timeline::Timeline::schedule`]), the span
    /// can never collide with the config span of a launch already pinned on
    /// the lane, and every later [`StreamSchedule::push`] queues its own
    /// config span behind the prefetch.
    pub fn prefetch(&mut self, config_cycles: u64) -> Span {
        self.prefetch_at(config_cycles, 0)
    }

    /// As [`StreamSchedule::prefetch`], but the staged stream starts no
    /// earlier than `not_before` — the online serving layer stages a job's
    /// reload when the job is *dispatched*, so the speculative streaming
    /// must not be back-dated to before the dispatch decision existed.
    pub fn prefetch_at(&mut self, config_cycles: u64, not_before: u64) -> Span {
        self.timeline
            .schedule(Engine::ConfigLoad, not_before, config_cycles)
    }

    /// Services one completion interrupt on the interrupt engine: the
    /// peripheral raises its line at `not_before`, and the host pays the
    /// Cortex-M4 entry/exit latency ([`latency::COMPLETION_IRQ_CYCLES`])
    /// before it can react.
    fn service_irq(&mut self, not_before: u64) -> Span {
        self.timeline.schedule(
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
                let span = self.timeline.schedule(Engine::Dma, ready, duration);
                self.drain_end[prev_slot] = span.end;
            } else {
                // Nothing to drain (e.g. a reduction read back over the
                // SRF): the output buffer is free as soon as the host
                // serviced the completion interrupt.
                self.drain_end[prev_slot] = ready;
            }
        }
    }

    /// Appends one window with the given phase durations, returning the
    /// spans placed for it (its drain is scheduled behind the *next*
    /// window's stage).
    pub fn push(&mut self, phases: WindowPhases) -> WindowSpans {
        self.push_at(phases, 0)
    }

    /// As [`StreamSchedule::push`], but the window's staging starts no
    /// earlier than `not_before`.
    ///
    /// This is how an *arrival-stamped* job lands on a schedule: a window
    /// cannot stage before its job exists, so the serving layer clamps the
    /// first phase to the job's arrival (the rest of the chain follows
    /// from it).  On a backlogged schedule the clamp is usually moot — the
    /// per-engine lanes are monotonic, so the stage queues behind earlier
    /// work anyway — but on an idle array it keeps the timeline honest:
    /// the gap until the arrival shows up as idle time, not as work
    /// magically done in the past.
    pub fn push_at(&mut self, phases: WindowPhases, not_before: u64) -> WindowSpans {
        let slot = self.windows % 2;
        // Stage into the half-buffer whose previous occupant (window w-2)
        // must have been consumed by its compute — and never before the
        // window exists.
        let input_free = self.compute_end[slot].max(not_before);
        let stage = self
            .timeline
            .schedule(Engine::Dma, input_free, phases.stage);
        // Drain window w-1 behind the launch.
        self.flush_pending_drain();
        // Cold launches stream configuration words once staging is done.
        let config = self
            .timeline
            .schedule(Engine::ConfigLoad, stage.end, phases.config);
        // The array needs its inputs and configuration in place, and the
        // output half-buffer must have been drained (window w-2).
        let output_free = self.drain_end[slot];
        let compute =
            self.timeline
                .schedule(Engine::Compute, config.end.max(output_free), phases.compute);
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

    /// Drains the final window, services its DMA-done interrupt, and
    /// returns the completed timeline.
    pub fn finish(mut self) -> Timeline {
        if let Some((ready, duration)) = self.pending_drain.take() {
            if duration > 0 {
                let span = self.timeline.schedule(Engine::Dma, ready, duration);
                // The stream is over when the host has serviced the final
                // drain's DMA-done interrupt.
                self.service_irq(span.end);
            }
        }
        self.timeline
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

    #[test]
    fn empty_stream_is_free() {
        let t = StreamSchedule::new().finish();
        assert_eq!(t.wall_cycles(), 0);
        assert_eq!(t.serial_cycles(), 0);
        assert_eq!(t.overlap_ratio(), 0.0);
    }

    #[test]
    fn single_window_is_fully_serial() {
        let mut s = StreamSchedule::new();
        let p = phases(100, 50, 400, 120);
        s.push(p);
        let t = s.finish();
        // stage → config → compute → kernel-done IRQ → drain → DMA-done
        // IRQ, nothing overlapping anything.
        assert_eq!(t.wall_cycles(), p.total() + 2 * IRQ);
        assert_eq!(t.serial_cycles(), t.wall_cycles());
        assert_eq!(t.overlap_ratio(), 0.0);
    }

    #[test]
    fn single_window_without_drain_gets_one_interrupt() {
        let mut s = StreamSchedule::new();
        s.push(phases(100, 0, 400, 0));
        let t = s.finish();
        assert_eq!(t.wall_cycles(), 500 + IRQ);
        assert_eq!(t.busy_cycles(Engine::Interrupt), IRQ);
    }

    #[test]
    fn staging_overlaps_compute_of_the_previous_window() {
        let mut s = StreamSchedule::new();
        let p = phases(100, 0, 1_000, 100);
        let w0 = s.push(p);
        let w1 = s.push(p);
        // Window 1 stages while window 0 computes...
        assert!(w1.stage.start < w0.compute.end);
        // ...and the array relaunches as soon as the completion interrupt
        // and (already-finished) staging allow.
        assert_eq!(w1.compute.start, w0.compute.end);
        let t = s.finish();
        assert!(t.wall_cycles() < t.serial_cycles());
    }

    #[test]
    fn four_window_wall_clock_beats_the_serial_sum() {
        let mut s = StreamSchedule::new();
        let p = phases(150, 0, 700, 150);
        for _ in 0..4 {
            s.push(p);
        }
        let t = s.finish();
        // The acceptance bound: strictly less than the per-window
        // DMA-in + compute + DMA-out sum, even before interrupt costs.
        assert!(t.wall_cycles() < 4 * p.total());
        assert!(t.overlap_ratio() > 0.0);
    }

    #[test]
    fn double_buffering_limits_lookahead_to_two_windows() {
        let mut s = StreamSchedule::new();
        // DMA-bound stream: staging takes far longer than compute, so
        // without a buffer limit stage(2) would start immediately after
        // stage(1).
        let p = phases(1_000, 0, 10, 5);
        let w0 = s.push(p);
        let _w1 = s.push(p);
        let w2 = s.push(p);
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
            let w = s.push(p);
            if let Some(end) = prev_end {
                assert_eq!(w.compute.start, end, "the array must never idle");
            }
            prev_end = Some(w.compute.end);
        }
        let t = s.finish();
        // Wall clock ≈ first stage + N computes + final IRQ/drain tail.
        assert!(t.wall_cycles() < 6 * p.total());
        assert_eq!(t.busy_cycles(Engine::Compute), 6 * 900);
    }

    #[test]
    fn free_at_tracks_the_compute_engine_mid_stream() {
        let mut s = StreamSchedule::new();
        assert_eq!(s.free_at(Engine::Compute), 0);
        let w0 = s.push(phases(100, 0, 400, 50));
        assert_eq!(s.free_at(Engine::Compute), w0.compute.end);
        assert_eq!(s.timeline().busy_cycles(Engine::Compute), 400);
        let w1 = s.push(phases(100, 0, 400, 50));
        assert_eq!(s.free_at(Engine::Compute), w1.compute.end);
        s.finish();
    }

    #[test]
    fn prefetch_spans_hide_behind_the_compute_backlog() {
        // An array with a compute backlog: the prefetched reload streams on
        // the idle ConfigLoad lane entirely during the backlog, and the
        // next job's first window launches warm (zero-length config span).
        let mut s = StreamSchedule::new();
        let backlog = s.push(phases(100, 0, 2_000, 100));
        let before = s.free_at(Engine::Compute);
        let prefetch = s.prefetch(300);
        assert_eq!(prefetch.duration(), 300);
        assert!(
            prefetch.end <= before,
            "prefetch [{}, {}) must end inside the backlog (compute free at {before})",
            prefetch.start,
            prefetch.end
        );
        // The compute lane is untouched by the prefetch.
        assert_eq!(s.free_at(Engine::Compute), before);
        let warm = s.push(phases(100, 0, 400, 100));
        assert_eq!(warm.config.duration(), 0);
        assert_eq!(warm.compute.start, backlog.compute.end);
        // Monotonic lane order: the prefetch collides with neither the
        // earlier launch's config span nor the warm window's.
        assert!(!prefetch.overlaps(&backlog.config));
        assert!(!prefetch.overlaps(&warm.config));
        let t = s.finish();
        assert_eq!(t.busy_cycles(Engine::ConfigLoad), 300);
    }

    #[test]
    fn prefetch_on_an_idle_schedule_overlaps_the_first_stage() {
        // Without a backlog the prefetch cannot hide behind compute, but it
        // still runs concurrently with the first window's DMA staging
        // instead of serialising stage -> config -> compute.
        let mut cold = StreamSchedule::new();
        cold.push(phases(200, 300, 400, 100));
        let cold_t = cold.finish();

        let mut prefetched = StreamSchedule::new();
        let span = prefetched.prefetch(300);
        assert_eq!((span.start, span.end), (0, 300));
        let w = prefetched.push(phases(200, 0, 400, 100));
        assert!(!span.overlaps(&w.config));
        let t = prefetched.finish();
        // config ∥ stage: the window computes at max(stage, prefetch) = 300
        // instead of stage + config = 500.
        assert_eq!(w.compute.start, 300);
        assert!(t.wall_cycles() < cold_t.wall_cycles());
        // Same total work either way.
        assert_eq!(t.serial_cycles(), cold_t.serial_cycles());
    }

    #[test]
    fn push_at_delays_an_idle_schedule_to_the_arrival() {
        // An idle array must not stage a window before the window's job
        // arrived: the gap is idle time, not back-dated work.
        let mut s = StreamSchedule::new();
        let w = s.push_at(phases(100, 0, 400, 50), 1_000);
        assert_eq!(w.stage.start, 1_000);
        assert_eq!(w.compute.start, 1_100);
        let t = s.finish();
        // The wall clock includes the arrival gap; the busy cycles do not.
        assert!(t.wall_cycles() >= 1_500);
        assert_eq!(t.busy_cycles(Engine::Compute), 400);
    }

    #[test]
    fn push_at_is_a_no_op_behind_a_backlog() {
        // With a backlog past the arrival, the clamped push places exactly
        // what an unclamped push would: the lanes are already monotonic.
        let p = phases(100, 0, 800, 100);
        let mut clamped = StreamSchedule::new();
        let mut plain = StreamSchedule::new();
        plain.push(p);
        clamped.push(p);
        let a = plain.push(p);
        let b = clamped.push_at(p, 50);
        assert_eq!(a, b);
        plain.finish();
        clamped.finish();
    }

    #[test]
    fn prefetch_at_respects_the_dispatch_cycle() {
        let mut s = StreamSchedule::new();
        let span = s.prefetch_at(300, 2_000);
        assert_eq!((span.start, span.end), (2_000, 2_300));
        // A later prefetch queues behind it on the ConfigLoad lane.
        let next = s.prefetch_at(100, 0);
        assert_eq!(next.start, 2_300);
        s.finish();
    }

    #[test]
    fn cold_config_load_only_delays_the_first_window() {
        let mut s = StreamSchedule::new();
        let w0 = s.push(phases(100, 300, 500, 100));
        let w1 = s.push(phases(100, 0, 500, 100));
        assert_eq!(w0.config.duration(), 300);
        assert_eq!(w1.config.duration(), 0);
        assert_eq!(w1.compute.start, w0.compute.end);
        s.finish();
    }
}
