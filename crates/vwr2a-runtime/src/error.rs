//! Error type of the Session runtime.

use std::error::Error;
use std::fmt;
use vwr2a_core::CoreError;

/// Errors raised while registering or running kernels through a
/// [`crate::Session`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The underlying array simulator reported an error.
    Core(CoreError),
    /// A kernel's declared resource needs exceed the session's geometry.
    Resources {
        /// Name of the offending kernel.
        kernel: String,
        /// Human-readable description of the violated limit.
        what: String,
    },
    /// A kernel rejected its input (wrong length, unsupported size, …), or
    /// a served job's arrival or deadline cycle lies beyond the serving
    /// horizon.
    InvalidInput {
        /// Human-readable description.
        what: String,
    },
    /// The caller's output sink rejected a streamed result, aborting the
    /// stream (the session itself stays valid and reusable).
    Sink {
        /// Human-readable description.
        what: String,
    },
    /// A [`crate::pool::Placement`] strategy returned an array index
    /// outside the pool, aborting the fan-out (the pool itself stays valid
    /// and reusable).
    Placement {
        /// The offending array index the strategy returned.
        index: usize,
        /// Number of arrays in the pool.
        arrays: usize,
    },
    /// A [`crate::serve::SchedPolicy`] returned a queue slot outside the
    /// admission queue, aborting the serve run (the server itself stays
    /// valid and reusable).
    Sched {
        /// The offending queue slot the policy returned.
        index: usize,
        /// Number of jobs queued at the time.
        queued: usize,
    },
    /// A kernel cannot be built for a CGRA backend's array geometry.
    /// Mixed-geometry fleets are legal — reloads are priced per geometry —
    /// but a kernel whose program does not map onto a given geometry is
    /// *genuinely incompatible* with that backend: routing it there (or
    /// finding no backend at all that can take it) aborts the fan-out, and
    /// the pool stays valid and reusable.
    MixedGeometry {
        /// Index of the backend whose geometry cannot build the program.
        array: usize,
    },
    /// A job was routed to an offload backend that cannot serve it — the
    /// backend's model prices no window of the job (e.g. a non-FFT job, or
    /// an FFT length the engine rejects, on the fixed-function FFT engine)
    /// — or no backend of an all-offload fleet can, or a kernel's default
    /// offload hook was invoked without an implementation.
    Capability {
        /// Name of the kernel.
        kernel: String,
        /// The backend (kind or index) that cannot serve it.
        backend: String,
    },
    /// A [`crate::pool::Pool`] was built over an empty fleet: a pool
    /// needs at least one backend.
    EmptyPool,
}

impl RuntimeError {
    /// Convenience constructor for input-validation failures inside
    /// [`crate::Kernel::execute`] implementations.
    pub fn invalid_input(what: impl Into<String>) -> Self {
        RuntimeError::InvalidInput { what: what.into() }
    }

    /// Convenience constructor for sink failures inside
    /// [`crate::Session::run_stream`] callbacks.
    pub fn sink(what: impl Into<String>) -> Self {
        RuntimeError::Sink { what: what.into() }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Core(e) => write!(f, "array error: {e}"),
            RuntimeError::Resources { kernel, what } => {
                write!(f, "kernel `{kernel}` exceeds the array resources: {what}")
            }
            RuntimeError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            RuntimeError::Sink { what } => write!(f, "output sink failed: {what}"),
            RuntimeError::Placement { index, arrays } => write!(
                f,
                "placement strategy chose array {index} of a {arrays}-array pool"
            ),
            RuntimeError::Sched { index, queued } => write!(
                f,
                "scheduling policy chose queue slot {index} of {queued} queued job(s)"
            ),
            RuntimeError::MixedGeometry { array } => write!(
                f,
                "kernel cannot be mapped onto backend {array}'s array geometry \
                 in this mixed-geometry fleet"
            ),
            RuntimeError::Capability { kernel, backend } => write!(
                f,
                "kernel `{kernel}` is not servable by the {backend} backend"
            ),
            RuntimeError::EmptyPool => write!(f, "a pool needs at least one backend"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for RuntimeError {
    fn from(e: CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

/// Convenience alias used across the runtime.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: RuntimeError = CoreError::UnknownKernel {
            slot: 3,
            generation: 0,
        }
        .into();
        assert!(e.to_string().contains("array error"));
        assert!(e.source().is_some());
        let e = RuntimeError::Resources {
            kernel: "fft".into(),
            what: "needs 3 columns".into(),
        };
        assert!(e.to_string().contains("fft"));
        assert!(e.source().is_none());
        assert!(RuntimeError::invalid_input("nope")
            .to_string()
            .contains("nope"));
        assert!(RuntimeError::sink("disk full")
            .to_string()
            .contains("disk full"));
        let e = RuntimeError::Placement {
            index: 7,
            arrays: 2,
        };
        assert!(e.to_string().contains("array 7"));
        assert!(e.source().is_none());
        let e = RuntimeError::Sched {
            index: 9,
            queued: 4,
        };
        assert!(e.to_string().contains("queue slot 9"));
        assert!(e.source().is_none());
        let e = RuntimeError::MixedGeometry { array: 1 };
        assert!(e.to_string().contains("backend 1"));
        assert!(e.source().is_none());
        let e = RuntimeError::Capability {
            kernel: "scale".into(),
            backend: "fft-accel".into(),
        };
        assert!(e.to_string().contains("scale"));
        assert!(e.to_string().contains("fft-accel"));
        assert!(e.source().is_none());
        assert!(RuntimeError::EmptyPool
            .to_string()
            .contains("at least one backend"));
    }
}
