//! Unified kernel execution runtime for the VWR2A reproduction.
//!
//! VWR2A's defining host-side property (Denkinger et al., DAC 2022, Sec.
//! 3.1) is that a kernel is loaded into the per-column configuration memory
//! **once** and then re-invoked cheaply: only the first launch streams
//! configuration words into the per-slot program memories.  This crate
//! turns that property into the default programming model instead of an
//! optimisation individual kernels may or may not implement:
//!
//! * [`Kernel`] — the one trait every VWR2A workload implements: associated
//!   `Input`/`Output` types, a declared [`Resources`] budget, the
//!   configuration-memory program, and an `execute` body that stages data
//!   and launches through a [`LaunchCtx`].
//! * [`Session`] — owns the [`vwr2a_core::Vwr2a`] and a registry of loaded
//!   programs keyed by [`Kernel::cache_key`].  The first run of a kernel is
//!   cold; every repeat — including every window of
//!   [`Session::run_batch`] / [`Session::run_stream`] — launches warm.
//! * **Pipelined streaming** — [`Session::run_stream`] models the
//!   double-buffered SPM of the real platform: window *i+1*'s DMA staging
//!   overlaps window *i*'s array execution, window *i−1* drains behind the
//!   launch, and completions reach the host through the VWR2A completion
//!   interrupt (see [`pipeline`]).  Outputs stay bit-identical to the
//!   synchronous path; [`RunReport::wall_cycles`] reports the overlapped
//!   latency next to the serial phase sum.
//! * **Residency management** — the configuration memory is finite, so a
//!   session serving unbounded kernel diversity evicts cold programs (via a
//!   pluggable [`EvictionPolicy`]: default [`LruPolicy`], also
//!   [`LfuPolicy`], [`SizeAwareLru`] and [`ArcPolicy`], see [`policy`])
//!   instead of failing with `ConfigMemoryFull`.  Programs the active
//!   invocation depends on are pinned; an evicted program is rebuilt on
//!   next use and launches cold again.
//! * **Speculative prefetch** — [`Session::prefetch`] streams a program's
//!   configuration words *ahead* of its launch (which then counts warm)
//!   and soft-pins the program against eviction until that launch (a
//!   stale prefetch is evicted only as a last resort); schedules
//!   replay the streaming on the otherwise-idle configuration-load lane
//!   ([`StreamSchedule::prefetch`]), where it overlaps the compute
//!   backlog instead of delaying the launch.
//! * **Heterogeneous fleet scheduling** — a [`Pool`] owns N [`Backend`]s:
//!   CGRA arrays ([`Backend::Array`], each a full session), and optionally
//!   the fixed-function FFT engine ([`FftBackend`]) and the Cortex-M4
//!   host ([`CpuBackend`]).  A kernel advertises non-CGRA
//!   implementations via [`Kernel::offload`], and an offload backend
//!   serves a job when its model prices a window.  A pluggable
//!   [`Placement`] strategy returns a [`PlacementPlan`] (target backend,
//!   prefetch or not) over [`BackendView`]s of the backends that can
//!   serve the job.  The default [`CostAware`] weighs each candidate's
//!   reload cost against its compute backlog and per-window cycles (or, by
//!   [`Objective`], its estimated joules and energy-delay product) —
//!   prefetching would-be cold array reloads off the critical path,
//!   sending FFT-shaped jobs to the engine and reload-dominated crumbs
//!   to the CPU — next to the prefetch-less [`ResidencyAware`] and
//!   [`RoundRobin`] baselines.  [`Pool::run_batch`] /
//!   [`Pool::run_stream`] fan jobs across the fleet bit-identically to
//!   serial execution and merge the per-backend schedules into one
//!   [`FleetReport`] (with cold-reload, prefetch and hidden-reload
//!   counters, per-job [`JobRoute`]s and per-kind [`BackendKindStats`]
//!   attribution; see [`pool`] and [`backend`]).
//! * **Online serving** — a [`Server`] wraps a [`Pool`] behind a
//!   multi-tenant admission queue consuming an *arrival-stamped* job
//!   stream: each [`ServeJob`] carries a [`TenantId`], arrival cycle,
//!   priority and optional deadline; dispatch order is a pluggable
//!   [`SchedPolicy`] ([`Fifo`], [`EarliestDeadlineFirst`], or
//!   [`WeightedFair`] deficit-round-robin across tenants), a
//!   work-stealing pass re-routes queued jobs away from drifted-ahead
//!   arrays, and the [`ServeReport`] adds per-job [`JobLatency`],
//!   p50/p95/p99 percentiles, per-tenant totals ([`TenantStats`]) and
//!   deadline/steal counts on top of the fleet accounting (see
//!   [`serve`]).
//! * [`RunReport`] — the single accounting type for all kernels: wall and
//!   serial cycles, per-engine occupancy, cold/warm launch counts,
//!   evictions, [`vwr2a_core::ActivityCounters`] and derived time/energy —
//!   with [`ArrayReport`] / [`FleetReport`] layering the fleet view on
//!   top.
//!
//! The engine schedule lives in [`pipeline`] and is re-exported here
//! ([`StreamSchedule`], [`Engine`], [`Occupancy`], [`Span`]), so runtime
//! users do not need a direct `vwr2a-core` dependency.
//!
//! See [`Session`] for a runnable example, and [`pool`] for the fleet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod pipeline;
pub mod policy;
pub mod pool;
pub mod report;
pub mod serve;
pub mod session;
pub mod testing;

pub use backend::{Backend, BackendKind, CpuBackend, FftBackend, FftShape, Offload};
pub use error::{Result, RuntimeError};
pub use pipeline::{Engine, Occupancy, Span, StreamSchedule, WindowPhases};
pub use policy::{ArcPolicy, EvictionPolicy, LfuPolicy, LruPolicy, ResidentProgram, SizeAwareLru};
pub use pool::{
    BackendView, CostAware, JobView, Objective, Placement, PlacementPlan, Pool, ResidencyAware,
    RoundRobin,
};
pub use report::{
    ArrayReport, BackendKindStats, FleetReport, JobLatency, JobRoute, PlannerStats, RunReport,
    ServeReport, TenantStats,
};
pub use serve::{
    EarliestDeadlineFirst, Fifo, QueuedJob, SchedPolicy, ServeJob, Server, TenantId, WeightedFair,
};
pub use session::{
    Kernel, LaunchCtx, Prefetch, Resources, Session, SRF_READ_CYCLES, SRF_WRITE_CYCLES,
};
