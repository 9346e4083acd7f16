//! Deterministic disk-fault injection for journal writes.
//!
//! The network and compute chaos sites fail *operations*; this module
//! fails *storage*. A journal append wraps its file handle in a
//! [`ChaosWriter`], a `Write` layer that injects exactly one
//! decided [`DiskFault`] per record: an EIO before any byte lands, a
//! short write cut at a deterministic prefix, a single silently
//! flipped bit, or an fsync that reports failure after the bytes were
//! written. Every decision and every fault parameter (cut length, bit
//! index) is a pure function of `(chaos seed, site, ordinal)`, and the
//! ordinal mixes the record seq with the replica index
//! ([`disk_ordinal`]) so sibling replicas of the same record fail
//! independently — the property replica fallback recovery relies on.

use std::io::{self, Write};

use crate::chaos::{splitmix64, ChaosConfig, ChaosSite};

/// The disk fault (if any) decided for one journal write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// No fault: the write goes through untouched.
    None,
    /// The write fails with a synthetic EIO before any byte reaches
    /// the file.
    Eio,
    /// Only a deterministic prefix of the planned bytes is written,
    /// then the write fails.
    ShortWrite,
    /// All bytes are written with one deterministically-chosen bit
    /// flipped, and the write *reports success* — silent corruption
    /// that only the per-record checksum can catch.
    BitRot,
    /// All bytes are written but the flush reports failure, modelling
    /// an fsync error where durability is unknown to the writer.
    FsyncFail,
}

/// Ordinal for disk-chaos decisions: mixes the record seq with the
/// replica index so replicas of the same record draw independent
/// fault decisions (a bit-rotted primary leaves replica 1 intact, and
/// vice versa).
pub fn disk_ordinal(seq: u64, replica: u32) -> u64 {
    (seq << 8) | u64::from(replica & 0xFF)
}

/// Decides which fault (if any) strikes the write at `ordinal`. Sites
/// are consulted in a fixed priority order (EIO, short write, bit
/// rot, fsync) so a replay is exact even when several knobs are hot.
pub fn decide(chaos: &ChaosConfig, ordinal: u64) -> DiskFault {
    if chaos.fires(ChaosSite::DiskEio, ordinal) {
        DiskFault::Eio
    } else if chaos.fires(ChaosSite::DiskShortWrite, ordinal) {
        DiskFault::ShortWrite
    } else if chaos.fires(ChaosSite::DiskBitRot, ordinal) {
        DiskFault::BitRot
    } else if chaos.fires(ChaosSite::DiskFsyncFail, ordinal) {
        DiskFault::FsyncFail
    } else {
        DiskFault::None
    }
}

/// Deterministic fault-parameter key for `(seed, ordinal)`: drives the
/// short-write cut length and the bit-rot flip position.
pub fn fault_key(chaos: &ChaosConfig, ordinal: u64) -> u64 {
    splitmix64(chaos.seed ^ ordinal.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5851_F42D_4C95_7F2D)
}

/// A `Write` layer that injects one [`DiskFault`] into a
/// stream of `planned` bytes. Construct it per journal append: the
/// fault and its parameters are fixed at construction so the same
/// `(fault, key, planned)` triple always damages the file the same
/// way, byte for byte.
#[derive(Debug)]
pub struct ChaosWriter<W> {
    inner: W,
    fault: DiskFault,
    /// Short-write cut: bytes allowed through before the failure
    /// (strictly fewer than `planned`).
    cut: u64,
    /// Bit-rot target: absolute bit index within the planned stream.
    flip: u64,
    /// Bytes accepted so far.
    written: u64,
}

impl<W> ChaosWriter<W> {
    /// Wraps `inner` for a write of `planned` bytes under `fault`,
    /// with fault parameters derived from `key` (the journal draws it
    /// per write from the chaos seed and the write's ordinal).
    pub fn new(inner: W, fault: DiskFault, key: u64, planned: u64) -> ChaosWriter<W> {
        let planned = planned.max(1);
        ChaosWriter {
            inner,
            fault,
            cut: key % planned,
            flip: key % (planned * 8),
            written: 0,
        }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.fault {
            DiskFault::Eio => Err(io::Error::other("chaos: injected EIO on journal write")),
            DiskFault::ShortWrite => {
                let room = self.cut.saturating_sub(self.written);
                if room == 0 {
                    return Err(io::Error::other("chaos: injected short journal write"));
                }
                let take = room.min(buf.len() as u64) as usize;
                let n = self.inner.write(&buf[..take])?;
                self.written += n as u64;
                Ok(n)
            }
            DiskFault::BitRot => {
                let start = self.written;
                let end = start + buf.len() as u64;
                let target = self.flip / 8;
                let n = if (start..end).contains(&target) {
                    let mut rotted = buf.to_vec();
                    rotted[(target - start) as usize] ^= 1 << (self.flip % 8);
                    self.inner.write(&rotted)?
                } else {
                    self.inner.write(buf)?
                };
                self.written += n as u64;
                Ok(n)
            }
            DiskFault::None | DiskFault::FsyncFail => {
                let n = self.inner.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        if self.fault == DiskFault::FsyncFail {
            return Err(io::Error::other("chaos: injected fsync failure"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(fault: DiskFault, key: u64, payload: &[u8]) -> (io::Result<()>, Vec<u8>) {
        let mut w = ChaosWriter::new(Vec::new(), fault, key, payload.len() as u64);
        let res = w.write_all(payload).and_then(|()| w.flush());
        (res, w.into_inner())
    }

    #[test]
    fn eio_writes_nothing() {
        let (res, bytes) = run(DiskFault::Eio, 7, b"ckpt test 0\nbody\nend 00\n");
        assert!(res.is_err());
        assert!(bytes.is_empty());
    }

    #[test]
    fn short_write_is_a_strict_prefix() {
        let payload = b"ckpt test 0\nbody\nend 00\n";
        let (res, bytes) = run(DiskFault::ShortWrite, 13, payload);
        assert!(res.is_err());
        assert!(bytes.len() < payload.len());
        assert_eq!(&payload[..bytes.len()], &bytes[..]);
        // Same key, same cut — the damage replays exactly.
        let (_, again) = run(DiskFault::ShortWrite, 13, payload);
        assert_eq!(bytes, again);
    }

    #[test]
    fn bitrot_flips_exactly_one_bit_and_reports_success() {
        let payload = b"ckpt test 0\nbody\nend 00\n";
        let (res, bytes) = run(DiskFault::BitRot, 99, payload);
        assert!(res.is_ok(), "bit rot is silent");
        assert_eq!(bytes.len(), payload.len());
        let flipped: u32 = payload
            .iter()
            .zip(&bytes)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        let (_, again) = run(DiskFault::BitRot, 99, payload);
        assert_eq!(bytes, again);
    }

    #[test]
    fn fsync_fail_writes_everything_then_errors() {
        let payload = b"ckpt test 0\nbody\nend 00\n";
        let (res, bytes) = run(DiskFault::FsyncFail, 3, payload);
        assert!(res.is_err());
        assert_eq!(bytes, payload);
    }

    #[test]
    fn decisions_are_independent_per_replica() {
        let chaos = ChaosConfig::parse("bitrot=0.5,seed=42").unwrap();
        let disagree = (0..64u64).any(|seq| {
            decide(&chaos, disk_ordinal(seq, 0)) != decide(&chaos, disk_ordinal(seq, 1))
        });
        assert!(disagree, "replicas must draw independent fault decisions");
        assert_eq!(decide(&ChaosConfig::disabled(), 5), DiskFault::None);
        let all = ChaosConfig::parse("eio=1.0,bitrot=1.0").unwrap();
        // Fixed priority: EIO outranks bit rot.
        assert_eq!(decide(&all, 0), DiskFault::Eio);
    }
}
