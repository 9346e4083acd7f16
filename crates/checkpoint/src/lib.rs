//! `dft-checkpoint`: the durability layer of the aidft toolkit.
//!
//! Long DFT jobs (ATPG, fault simulation, BIST sweeps) die hours in on
//! real testers and server farms; this crate makes that failure a
//! first-class, recoverable event instead of a lost run. It has three
//! pieces, deliberately dependency-free so every other crate in the
//! workspace can use them:
//!
//! * [`CancelToken`] — cooperative cancellation with optional per-phase
//!   deadlines. Workers poll the token at fault boundaries and drain
//!   cleanly; nothing is ever interrupted mid-mutation. A token that is
//!   never fired and has nothing armed costs a poll a few atomic loads,
//!   so a run without a cancellation source simply holds one.
//! * [`FramedJournal`] — the one journal type: append-only, framed and
//!   checksummed records, optionally replicated, so a process killed
//!   mid-write leaves the previous record intact and a load always
//!   recovers the newest *complete* one. Each producer owns its body
//!   codec: [`CkptState`] is the `aidft-ckpt-v3` ATPG checkpoint body
//!   ([`CkptState::to_body`]/[`CkptState::parse_body`]), and the serve
//!   fleet and telemetry journals bring their own.
//! * [`ChaosConfig`] — the `AIDFT_CHAOS` fault-injection harness:
//!   seeded, deterministic decisions to panic a worker batch, delay a
//!   batch, tear or rot a journal write, or skip the deadline clock
//!   forward. The chaos test suite uses it to prove kill-at-any-point →
//!   resume → identical-output.
//!
//! The serialized state model ([`CkptState`]) is plain data (strings,
//! integers, bit vectors) so this crate stays at the bottom of the
//! dependency graph; the ATPG driver converts its working state to and
//! from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod chaos;
mod framed;
pub mod fsck;
mod io_chaos;
mod journal;
pub mod scrub;

pub use cancel::CancelToken;
pub use chaos::{ChaosConfig, ChaosSite};
pub use framed::{frame_record, parse_framed, replica_path, FramedJournal, RecoveryReport};
pub use io_chaos::{decide as decide_disk_fault, disk_ordinal, ChaosWriter, DiskFault};
pub use journal::{
    fnv1a, verify_identity, CkptError, CkptPhase, CkptSection, CkptState, CkptStatus, CKPT_FORMAT,
};
