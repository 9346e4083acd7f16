//! Automatic test pattern generation (ATPG).
//!
//! Implements the classic PODEM algorithm (path-oriented decision making)
//! with SCOAP-guided objective selection and X-path checking, a production
//! -shaped driver (random-pattern phase followed by deterministic top-off,
//! with static and dynamic compaction), and broadside transition-fault ATPG
//! via two-frame circuit expansion.
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
mod dalg;
mod driver;
mod podem;
mod twoframe;

pub use compact::{compact_cubes, reverse_order_compaction};
pub use dalg::DAlgorithm;
pub use driver::{
    Atpg, AtpgConfig, AtpgError, AtpgInterrupt, AtpgRun, CompactionMode, Durability,
    ESCALATION_BACKTRACKS,
};
pub use podem::{AtpgResult, Podem, PodemStats};
pub use twoframe::{expand_two_frames, TransitionAtpg, TransitionAtpgRun, TwoFrame};
