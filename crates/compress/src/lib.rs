//! EDT-style test compression (embedded deterministic test).
//!
//! Implements the published architecture of commercial scan compression
//! (Rajski et al., "Embedded deterministic test", ITC 2002): a small ring
//! generator (LFSR) is fed a few *channel* bits per shift cycle and, through
//! a phase shifter, drives many internal scan chains. Because every scan
//! cell is a GF(2)-linear function of the injected channel bits, a test
//! cube's care bits become a linear system; solving it yields the
//! compressed stimulus. Responses are compacted by a MISR with optional
//! X-masking.
//!
//! # Example
//!
//! ```
//! use dft_compress::EdtCodec;
//! use dft_logicsim::TestCube;
//!
//! // 8 chains x 16 cells fed by 2 channels.
//! let codec = EdtCodec::new(8, 16, 2, 32, 0xC0DE);
//! let mut cube = TestCube::all_x(8 * 16);
//! cube.set(5, true);
//! cube.set(77, false);
//! let compressed = codec.encode(&cube).expect("low care density encodes");
//! let loads = codec.expand(&compressed);
//! assert!(loads[5 / 16][5 % 16]);
//! assert!(!loads[77 / 16][77 % 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broadcast;
mod edt;
mod gf2;
mod misr;
mod pack;
mod ring;

pub use broadcast::{IllinoisMode, IllinoisScan};
pub use edt::{CompressionStats, EdtCodec, ScanEdt};
pub use gf2::Gf2System;
pub use misr::{signature_with_mask, Misr, XMask};
pub use pack::{pack_bits, packed_bytes, unpack_bits};
pub use ring::{PhaseShifter, RingGenerator};
