//! Logic simulation and fault simulation.
//!
//! The front door is the [`SimKernel`] trait, implemented by
//! [`TapeKernel`]: compile a [`dft_netlist::Netlist`] once into a
//! levelized [`GateTape`], then run good-machine
//! ([`SimKernel::eval_batch`]), stuck-at PPSFP
//! ([`SimKernel::fault_batch`]), and transition-delay
//! ([`SimKernel::transition_batch`]) simulation against it, 256 patterns
//! per pass (`[u64; 4]` lanes). The same kernel answers single-defect
//! questions for diagnosis and the test floor: every pattern that
//! detects a stuck-at or bridge [`Defect`]
//! ([`TapeKernel::detection_matrix`]) and the whole faulty response
//! ([`TapeKernel::faulty_responses`]).
//!
//! PODEM runs on the same tape through [`Implication`]: five-valued
//! (0, 1, X, D, D̄) values with one stuck-at fault injected, one full
//! pass per search and event-driven updates per source decision.
//!
//! Two engines with different algorithms remain beside it, as the
//! independent oracles the tape and the implication engine are checked
//! against:
//!
//! * [`FiveSim`] — five-valued full-pass simulation with single-fault
//!   injection.
//! * [`DeductiveSim`] — deductive fault-list simulation.
//!
//! Plus [`testability`]: COP signal probabilities and SCOAP
//! controllability/observability, used for ATPG backtrace guidance and
//! BIST test-point selection.
//!
//! # Example
//!
//! ```
//! use dft_netlist::generators::c17;
//! use dft_fault::{universe_stuck_at, FaultList};
//! use dft_logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
//!
//! let nl = c17();
//! let kernel = TapeKernel::compile(&nl);
//! let patterns = PatternSet::random(&nl, 32, 0xBEEF);
//! let mut list = FaultList::new(universe_stuck_at(&nl));
//! kernel.fault_batch(&patterns, &mut list, &Executor::serial());
//! assert!(list.fault_coverage() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cube;
mod deductive;
pub mod exec;
mod fivesim;
mod goodsim;
mod imply;
mod kernel;
mod patterns;
mod ppsfp;
pub mod tape;
pub mod testability;
mod transition;

pub use cube::TestCube;
pub use deductive::DeductiveSim;
pub use exec::Executor;
pub use fivesim::FiveSim;
pub use imply::Implication;
pub use kernel::{SimKernel, TapeKernel};
pub use patterns::{Pattern, PatternSet, Response};
pub use ppsfp::{Defect, SimStats};
pub use tape::{GateTape, WideWord, LANES, WIDE_PATTERNS};
