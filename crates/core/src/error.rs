//! Error types: [`LinkError`] for link-level operations and the
//! unified [`Error`] surfaced by [`crate::session::Session`].

use openserdes_analog::SolverError;
use openserdes_flow::FlowError;
use openserdes_netlist::NetlistError;
use std::error::Error as StdError;
use std::fmt;

/// Failures surfaced by link simulation and budget computation.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// The analog solver failed (DC or transient).
    Solver(SolverError),
    /// Synthesis produced an invalid netlist (an internal bug, surfaced).
    Netlist(NetlistError),
    /// The RTL→layout flow refused the design (lint gate or netlist
    /// failure inside a stage).
    Flow(FlowError),
    /// The CDR failed to lock within the run.
    CdrUnlocked {
        /// Unit intervals processed before giving up.
        uis: u64,
    },
    /// An input was out of its valid range and the run was refused.
    InvalidInput {
        /// The offending field, as the caller named it.
        field: &'static str,
        /// Why the value was refused.
        reason: String,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Solver(e) => write!(f, "analog solver failed: {e}"),
            LinkError::Netlist(e) => write!(f, "netlist error: {e}"),
            LinkError::Flow(e) => write!(f, "flow failed: {e}"),
            LinkError::CdrUnlocked { uis } => {
                write!(f, "cdr failed to lock within {uis} unit intervals")
            }
            LinkError::InvalidInput { field, reason } => write!(f, "invalid `{field}`: {reason}"),
        }
    }
}

impl StdError for LinkError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            LinkError::Solver(e) => Some(e),
            LinkError::Netlist(e) => Some(e),
            LinkError::Flow(e) => Some(e),
            LinkError::CdrUnlocked { .. } | LinkError::InvalidInput { .. } => None,
        }
    }
}

impl From<SolverError> for LinkError {
    fn from(e: SolverError) -> Self {
        LinkError::Solver(e)
    }
}

impl From<NetlistError> for LinkError {
    fn from(e: NetlistError) -> Self {
        LinkError::Netlist(e)
    }
}

impl From<FlowError> for LinkError {
    fn from(e: FlowError) -> Self {
        // Unwrap plain netlist failures so callers keep seeing the
        // historical `Netlist` variant for them.
        match e {
            FlowError::Netlist(n) => LinkError::Netlist(n),
            lint => LinkError::Flow(lint),
        }
    }
}

/// Diagnostics for a sweep item that died mid-run (panicked) and was
/// isolated by the fault-tolerant fan-out instead of tearing down the
/// whole sweep (see `openserdes_analog::par::try_map_with_threads`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInfo {
    /// Input index of the item that faulted.
    pub item: usize,
    /// The panic message, when one was carried.
    pub message: String,
}

impl fmt::Display for FaultInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep item {} faulted: {}", self.item, self.message)
    }
}

/// The unified error surface of the [`crate::session::Session`] API —
/// every entry point (link, analog, flow, lint, sweeps) reports through
/// this one enum, so callers match a single type regardless of which
/// layer failed.
///
/// Marked `#[non_exhaustive]`: future layers may add variants without a
/// breaking release, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A link-level failure (CDR, budget, or a wrapped lower layer).
    Link(LinkError),
    /// The RTL→layout flow refused or failed on a design.
    Flow(FlowError),
    /// The analog solver failed (DC or transient).
    Solver(SolverError),
    /// An operation produced or met an invalid netlist.
    Netlist(NetlistError),
    /// A sweep item panicked and was isolated by the fault-tolerant
    /// fan-out — the other items' results are unaffected.
    Fault(FaultInfo),
    /// A serialized job ([`crate::job::Request`] / wire frame) was
    /// malformed: bad JSON, an unknown kind, or an out-of-range field.
    Parse(String),
    /// An input was out of its valid range and the job was refused
    /// before any work ran.
    InvalidInput {
        /// The offending field, as the caller named it.
        field: &'static str,
        /// Why the value was refused.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Link(e) => write!(f, "link: {e}"),
            Error::Flow(e) => write!(f, "flow: {e}"),
            Error::Solver(e) => write!(f, "solver: {e}"),
            Error::Netlist(e) => write!(f, "netlist: {e}"),
            Error::Fault(e) => write!(f, "fault: {e}"),
            Error::Parse(msg) => write!(f, "parse: {msg}"),
            Error::InvalidInput { field, reason } => write!(f, "invalid `{field}`: {reason}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Link(e) => Some(e),
            Error::Flow(e) => Some(e),
            Error::Solver(e) => Some(e),
            Error::Netlist(e) => Some(e),
            Error::Fault(_) | Error::Parse(_) | Error::InvalidInput { .. } => None,
        }
    }
}

impl From<FaultInfo> for Error {
    fn from(e: FaultInfo) -> Self {
        Error::Fault(e)
    }
}

impl From<LinkError> for Error {
    fn from(e: LinkError) -> Self {
        // Flatten wrapped lower-layer failures so matching on the
        // unified enum reaches the root cause in one step.
        match e {
            LinkError::Solver(s) => Error::Solver(s),
            LinkError::Netlist(n) => Error::Netlist(n),
            LinkError::Flow(fl) => Error::Flow(fl),
            LinkError::InvalidInput { field, reason } => Error::InvalidInput { field, reason },
            other => Error::Link(other),
        }
    }
}

impl From<FlowError> for Error {
    fn from(e: FlowError) -> Self {
        Error::Flow(e)
    }
}

impl From<SolverError> for Error {
    fn from(e: SolverError) -> Self {
        Error::Solver(e)
    }
}

impl From<NetlistError> for Error {
    fn from(e: NetlistError) -> Self {
        Error::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: LinkError = SolverError::NonConvergence {
            time: 1e-9,
            iterations: 120,
            worst_node: Some("out".into()),
        }
        .into();
        assert!(e.to_string().contains("analog solver"));
        assert!(StdError::source(&e).is_some());
        let e = LinkError::CdrUnlocked { uis: 100 };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn fault_variant_displays_item_and_message() {
        let e: Error = FaultInfo {
            item: 4,
            message: "index out of bounds".into(),
        }
        .into();
        assert!(matches!(e, Error::Fault(_)));
        let msg = e.to_string();
        assert!(msg.contains("item 4"), "got: {msg}");
        assert!(msg.contains("index out of bounds"), "got: {msg}");
        assert!(StdError::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinkError>();
        assert_send_sync::<Error>();
    }

    #[test]
    fn unified_error_flattens_link_wrappers() {
        let e: Error = LinkError::Solver(SolverError::NonConvergence {
            time: 1e-9,
            iterations: 0,
            worst_node: None,
        })
        .into();
        assert!(matches!(e, Error::Solver(_)));
        let e: Error = LinkError::CdrUnlocked { uis: 3 }.into();
        assert!(matches!(e, Error::Link(LinkError::CdrUnlocked { uis: 3 })));
        let e: Error = SolverError::SingularMatrix { time: 0.0 }.into();
        assert!(e.to_string().starts_with("solver:"));
        assert!(StdError::source(&e).is_some());
    }
}
