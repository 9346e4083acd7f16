//! Automatic test pattern generation (ATPG).
//!
//! Implements the classic PODEM algorithm (path-oriented decision making)
//! with SCOAP-guided objective selection and X-path checking, a complete
//! SAT engine that settles the faults PODEM aborts, a production-shaped
//! driver (random-pattern phase, deterministic top-off with optional
//! dynamic cube extension, then reverse-order compaction) for stuck-at
//! faults or broadside transition faults, which PODEM and SAT search on a
//! two-frame circuit expansion. A durable run journals its resume points
//! as `aidft-ckpt-v3` checkpoints ([`CkptState`]), whose codec lives here
//! beside the driver that writes and reads them.
//!
//! # Example
//!
//! ```
//! use dft_netlist::generators::c17;
//! use dft_atpg::{Atpg, AtpgConfig};
//!
//! let nl = c17();
//! let run = Atpg::new(&nl).run(&AtpgConfig::default());
//! assert!(run.fault_list.fault_coverage() > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;
mod driver;
mod journal;
mod miter;
mod podem;
mod sat;
mod speculate;
mod twoframe;

pub use compact::reverse_order_compaction;
pub use driver::{
    Atpg, AtpgConfig, AtpgError, AtpgInterrupt, AtpgRun, CompactionMode, Durability, FaultModel,
    TopoffTally,
};
pub use journal::{CkptPhase, CkptState, CKPT_FORMAT};
pub use miter::{SatAtpg, SAT_CONFLICT_BUDGET};
pub use podem::{AtpgResult, Podem, PodemStats};
pub use twoframe::{expand_two_frames, TwoFrame};
