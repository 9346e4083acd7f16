//! One-stop configuration namespace.
//!
//! Every tunable the flow exposes, re-exported in one place so callers
//! can `use dft_core::config::*` instead of hunting through the
//! sub-crates. All config types follow the same convention: public
//! fields for struct-update syntax, plus chainable builder setters
//! (`AtpgConfig::new().random_patterns(64).threads(8)`).
//!
//! The simulation-kernel surface ([`SimKernel`], [`TapeKernel`]) and the
//! worker-pool knobs ([`Executor`], [`Parallelism`]) live here too.

pub use dft_aichip::SocConfig;
pub use dft_atpg::{AtpgConfig, CompactionMode, Durability};
pub use dft_checkpoint::{CancelToken, ChaosConfig, CkptState, FramedJournal};
pub use dft_logicsim::{Executor, Parallelism, SimKernel, TapeKernel};
pub use dft_netlist::generators::SystolicConfig;
pub use dft_repair::{SpareConfig, SramGeometry};
pub use dft_scan::ScanConfig;
