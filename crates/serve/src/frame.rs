//! The `aidft-wire-v1` framing codec.
//!
//! Every message on a tester↔die connection is one frame:
//!
//! ```text
//! +--------+------+-------+-----------+-----------------+----------+
//! | magic  | type | flags | len (u32) | payload (len B) | crc u64  |
//! | 0xA1DF |  u8  |  u8   | LE        |                 | fnv1a    |
//! +--------+------+-------+-----------+-----------------+----------+
//! ```
//!
//! The checksum is [`fnv1a`]: FNV-1a in form, but with the multiplier
//! `0x1000_0000_01B3` rather than the FNV-64 prime, so a standard
//! FNV-1a implementation does not reproduce it. It covers header and
//! payload, so a torn write, a flipped bit, or a mid-frame disconnect
//! is always detected ([`FrameError`]), never misparsed. Bit vectors
//! travel LSB-first-packed with an explicit bit count
//! ([`dft_compress::pack_bits`]); set padding bits are rejected so
//! every vector has exactly one encoding. Decoding is cursor-checked
//! throughout — malformed input yields an error, never a panic or an
//! out-of-bounds read.

use std::io::{self, Read, Write};

use dft_checkpoint::fnv1a;
use dft_compress::{packed_bytes, unpack_bits};

/// First two bytes of every frame.
const MAGIC: u16 = 0xA1DF;
/// Protocol version carried in `Hello` (bumped on wire changes).
pub const PROTOCOL_VERSION: u16 = 1;
/// Upper bound on a frame payload; larger lengths are rejected before
/// any allocation so a corrupt length field cannot balloon memory.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Header bytes before the payload (magic + type + flags + len).
const HEADER_LEN: usize = 8;
/// Trailing checksum bytes.
const CRC_LEN: usize = 8;

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// The byte stream ended mid-frame (torn tail or dropped
    /// connection).
    Torn,
    /// The first two bytes were not the frame magic.
    BadMagic,
    /// The checksum trailer did not match header + payload.
    BadChecksum,
    /// The length field exceeded [`MAX_PAYLOAD`].
    TooLarge,
    /// The payload was structurally malformed (the message names the
    /// offending field).
    BadPayload(&'static str),
    /// A read or write hit its socket deadline: the peer is stalled or
    /// half-open. Liveness only — the session is torn down and the
    /// client reconnects; no state is derived from the timing.
    Timeout,
    /// A transport-level I/O error other than a clean truncation.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn => write!(f, "torn frame (stream ended mid-frame)"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::TooLarge => write!(f, "frame payload exceeds limit"),
            FrameError::BadPayload(what) => write!(f, "malformed frame payload: {what}"),
            FrameError::Timeout => write!(f, "peer deadline exceeded (stalled or half-open)"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    /// A short read is a torn frame; a deadline expiry is a timeout
    /// (`WouldBlock` is what Unix returns for an elapsed `SO_RCVTIMEO`);
    /// anything else is transport I/O.
    fn from(e: io::Error) -> FrameError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::Torn,
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Timeout,
            _ => FrameError::Io(e),
        }
    }
}

impl FrameError {
    /// `true` for transport-level failures a client recovers from by
    /// reconnecting (the session resumes from its last verified
    /// window): torn streams, dropped connections, deadline expiries,
    /// and checksum-corrupted frames. Protocol-level errors (bad magic,
    /// malformed payloads, oversized frames) are bugs, not weather, and
    /// are surfaced instead of retried.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            FrameError::Torn | FrameError::Io(_) | FrameError::Timeout | FrameError::BadChecksum
        )
    }
}

/// One test pattern as it travels to a die: either raw simulation bits
/// or the EDT-compressed form the die's on-chip decompressor expands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stimulus {
    /// Uncompressed full-width pattern (bypass mode: unscannable
    /// designs or cubes the encoder rejected).
    Flat(Vec<bool>),
    /// EDT-compressed: directly-driven primary-input bits plus the
    /// per-shift-cycle channel injections (`channel_bits[cycle]`, one
    /// inner vector per shift cycle, `channels` bits each).
    Edt {
        /// Primary-input bits, netlist source order.
        pi_bits: Vec<bool>,
        /// Channel bits per decompressor shift cycle.
        channel_bits: Vec<Vec<bool>>,
    },
}

/// One protocol message. The session state machine (DESIGN.md) is:
/// client sends `Hello`, server answers `Welcome` (with the resume
/// window for reconnects), then streams `Window` frames while the
/// client uploads one `Signature` per window; failing dies get retest
/// `Window`s, then `Verdict`, and `Bye` ends the die's session. The
/// connection stays open: it may carry the next die's `Hello`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: die introduces itself.
    Hello {
        /// The die's fleet index.
        die_id: u32,
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Server → client: session accepted; geometry and resume point.
    Welcome {
        /// Echoed die index.
        die_id: u32,
        /// First window the server will stream (>0 after a reconnect).
        resume_window: u32,
        /// Windows in the full broadcast.
        total_windows: u32,
        /// Full simulation pattern width (PIs + scan cells).
        pattern_width: u32,
        /// MISR signature width the die must upload.
        misr_width: u32,
    },
    /// Server → client: one pattern window to evaluate.
    Window {
        /// Window index in the broadcast.
        window_idx: u32,
        /// `true` when this is an adaptive-retest replay.
        retest: bool,
        /// The window's patterns.
        stimuli: Vec<Stimulus>,
    },
    /// Client → server: the MISR signature over one window's responses.
    Signature {
        /// The uploading die.
        die_id: u32,
        /// Window the signature covers.
        window_idx: u32,
        /// MISR state after absorbing the window's responses.
        bits: Vec<bool>,
    },
    /// Server → client: final per-die outcome.
    Verdict {
        /// The judged die.
        die_id: u32,
        /// `true` when every window's signature matched golden.
        passed: bool,
        /// `true` when mismatches triggered a retest pass.
        retested: bool,
        /// Ship grade (`full` / `degraded-N` / `scrap`).
        grade: String,
    },
    /// Server → client: the die's session is over. The connection may
    /// carry the next die's `Hello`.
    Bye,
    /// Client → server: liveness beacon. A die about to run a long
    /// window evaluation announces it is alive so the server's idle
    /// deadline does not reap a slow-but-healthy session. Carries no
    /// state; the server only counts it against the heartbeat budget.
    Heartbeat {
        /// The die announcing liveness.
        die_id: u32,
    },
}

const TY_HELLO: u8 = 1;
const TY_WELCOME: u8 = 2;
const TY_WINDOW: u8 = 3;
const TY_SIGNATURE: u8 = 4;
const TY_VERDICT: u8 = 5;
const TY_BYE: u8 = 6;
const TY_HEARTBEAT: u8 = 7;

// --- payload cursor helpers -------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bits(buf: &mut Vec<u8>, bits: &[bool]) {
    put_u32(buf, bits.len() as u32);
    buf.extend(packed_bytes(bits));
}

/// The `Window` payload: index, retest flag, stimulus count, stimuli.
fn put_window(buf: &mut Vec<u8>, window_idx: u32, retest: bool, stimuli: &[Stimulus]) {
    put_u32(buf, window_idx);
    buf.push(u8::from(retest));
    put_u32(buf, stimuli.len() as u32);
    for s in stimuli {
        s.put(buf);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FrameError::BadPayload("short payload"))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn bits(&mut self) -> Result<Vec<bool>, FrameError> {
        let count = self.u32()? as usize;
        if count > MAX_PAYLOAD * 8 {
            return Err(FrameError::BadPayload("bit count exceeds frame limit"));
        }
        let bytes = self.take(count.div_ceil(8))?;
        unpack_bits(bytes, count).ok_or(FrameError::BadPayload("set padding bits"))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::BadPayload("trailing payload bytes"))
        }
    }
}

impl Stimulus {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Stimulus::Flat(bits) => {
                buf.push(0);
                put_bits(buf, bits);
            }
            Stimulus::Edt {
                pi_bits,
                channel_bits,
            } => {
                buf.push(1);
                put_bits(buf, pi_bits);
                put_u32(buf, channel_bits.len() as u32);
                for cycle in channel_bits {
                    put_bits(buf, cycle);
                }
            }
        }
    }

    fn get(c: &mut Cursor<'_>) -> Result<Stimulus, FrameError> {
        match c.u8()? {
            0 => Ok(Stimulus::Flat(c.bits()?)),
            1 => {
                let pi_bits = c.bits()?;
                let cycles = c.u32()? as usize;
                if cycles > MAX_PAYLOAD {
                    return Err(FrameError::BadPayload("cycle count exceeds frame limit"));
                }
                let mut channel_bits = Vec::with_capacity(cycles.min(1 << 16));
                for _ in 0..cycles {
                    channel_bits.push(c.bits()?);
                }
                Ok(Stimulus::Edt {
                    pi_bits,
                    channel_bits,
                })
            }
            _ => Err(FrameError::BadPayload("unknown stimulus tag")),
        }
    }
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TY_HELLO,
            Frame::Welcome { .. } => TY_WELCOME,
            Frame::Window { .. } => TY_WINDOW,
            Frame::Signature { .. } => TY_SIGNATURE,
            Frame::Verdict { .. } => TY_VERDICT,
            Frame::Bye => TY_BYE,
            Frame::Heartbeat { .. } => TY_HEARTBEAT,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Frame::Hello { die_id, version } => {
                put_u32(&mut p, *die_id);
                put_u16(&mut p, *version);
            }
            Frame::Welcome {
                die_id,
                resume_window,
                total_windows,
                pattern_width,
                misr_width,
            } => {
                put_u32(&mut p, *die_id);
                put_u32(&mut p, *resume_window);
                put_u32(&mut p, *total_windows);
                put_u32(&mut p, *pattern_width);
                put_u32(&mut p, *misr_width);
            }
            Frame::Window {
                window_idx,
                retest,
                stimuli,
            } => put_window(&mut p, *window_idx, *retest, stimuli),
            Frame::Signature {
                die_id,
                window_idx,
                bits,
            } => {
                put_u32(&mut p, *die_id);
                put_u32(&mut p, *window_idx);
                put_bits(&mut p, bits);
            }
            Frame::Verdict {
                die_id,
                passed,
                retested,
                grade,
            } => {
                put_u32(&mut p, *die_id);
                p.push(u8::from(*passed));
                p.push(u8::from(*retested));
                put_u32(&mut p, grade.len() as u32);
                p.extend_from_slice(grade.as_bytes());
            }
            Frame::Bye => {}
            Frame::Heartbeat { die_id } => {
                put_u32(&mut p, *die_id);
            }
        }
        p
    }

    fn parse(ty: u8, payload: &[u8]) -> Result<Frame, FrameError> {
        let mut c = Cursor::new(payload);
        let frame = match ty {
            TY_HELLO => Frame::Hello {
                die_id: c.u32()?,
                version: c.u16()?,
            },
            TY_WELCOME => Frame::Welcome {
                die_id: c.u32()?,
                resume_window: c.u32()?,
                total_windows: c.u32()?,
                pattern_width: c.u32()?,
                misr_width: c.u32()?,
            },
            TY_WINDOW => {
                let window_idx = c.u32()?;
                let retest = c.u8()? != 0;
                let n = c.u32()? as usize;
                if n > MAX_PAYLOAD {
                    return Err(FrameError::BadPayload("stimulus count exceeds limit"));
                }
                let mut stimuli = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    stimuli.push(Stimulus::get(&mut c)?);
                }
                Frame::Window {
                    window_idx,
                    retest,
                    stimuli,
                }
            }
            TY_SIGNATURE => Frame::Signature {
                die_id: c.u32()?,
                window_idx: c.u32()?,
                bits: c.bits()?,
            },
            TY_VERDICT => {
                let die_id = c.u32()?;
                let passed = c.u8()? != 0;
                let retested = c.u8()? != 0;
                let len = c.u32()? as usize;
                let grade = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| FrameError::BadPayload("grade not UTF-8"))?
                    .to_owned();
                Frame::Verdict {
                    die_id,
                    passed,
                    retested,
                    grade,
                }
            }
            TY_BYE => Frame::Bye,
            TY_HEARTBEAT => Frame::Heartbeat { die_id: c.u32()? },
            _ => return Err(FrameError::BadPayload("unknown frame type")),
        };
        c.done()?;
        Ok(frame)
    }

    /// Encodes the frame to its full wire bytes (header, payload,
    /// checksum trailer).
    pub fn encode(&self) -> Vec<u8> {
        frame_bytes(self.type_byte(), &self.payload())
    }

    /// Decodes one frame from the front of `buf`, returning the frame
    /// and the bytes it consumed. `Err(Torn)` when `buf` holds only a
    /// prefix of a frame; structural errors otherwise. Never panics.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Torn);
        }
        if u16::from_le_bytes([buf[0], buf[1]]) != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let ty = buf[2];
        let len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge);
        }
        let total = HEADER_LEN + len + CRC_LEN;
        if buf.len() < total {
            return Err(FrameError::Torn);
        }
        let crc = u64::from_le_bytes(buf[total - CRC_LEN..total].try_into().unwrap());
        if fnv1a(&buf[..total - CRC_LEN]) != crc {
            return Err(FrameError::BadChecksum);
        }
        let frame = Frame::parse(ty, &buf[HEADER_LEN..HEADER_LEN + len])?;
        Ok((frame, total))
    }
}

/// The full wire bytes of a frame of type `ty`: header, `payload`,
/// checksum trailer.
fn frame_bytes(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + CRC_LEN);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(ty);
    buf.push(0); // flags, reserved
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = fnv1a(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// The wire bytes of a [`Frame::Window`] over borrowed `stimuli`:
/// exactly what [`Frame::encode`] writes for the same window.
pub(crate) fn encode_window(window_idx: u32, retest: bool, stimuli: &[Stimulus]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_window(&mut payload, window_idx, retest, stimuli);
    frame_bytes(TY_WINDOW, &payload)
}

/// Reads exactly one frame from `r`. A stream that ends mid-frame (or
/// before any byte of one) is [`FrameError::Torn`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if u16::from_le_bytes([header[0], header[1]]) != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge);
    }
    let mut rest = vec![0u8; len + CRC_LEN];
    r.read_exact(&mut rest)?;
    let mut whole = header.to_vec();
    whole.extend_from_slice(&rest);
    Frame::decode(&whole).map(|(f, _)| f)
}

/// Writes one frame to `w`.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Chaos hook: writes only the first half of a frame's wire `bytes`,
/// then flushes — the receiver sees a torn frame and must recover by
/// reconnecting.
pub(crate) fn write_frame_torn(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    w.write_all(&bytes[..bytes.len() / 2])?;
    w.flush()
}

/// Chaos hook: writes the whole frame with one payload bit flipped —
/// the frame arrives complete and well-framed but fails its checksum,
/// so the receiver must reject it (`BadChecksum`) rather than act on
/// corrupted content. The header is left intact so the corruption is
/// caught by the checksum, not by framing.
pub fn write_frame_corrupt(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut bytes = frame.encode();
    let at = HEADER_LEN.min(bytes.len() - 1);
    bytes[at] ^= 0x01;
    w.write_all(&bytes)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                die_id: 7,
                version: PROTOCOL_VERSION,
            },
            Frame::Welcome {
                die_id: 7,
                resume_window: 2,
                total_windows: 9,
                pattern_width: 33,
                misr_width: 17,
            },
            Frame::Window {
                window_idx: 3,
                retest: true,
                stimuli: vec![
                    Stimulus::Flat(vec![true, false, true]),
                    Stimulus::Edt {
                        pi_bits: vec![false; 5],
                        channel_bits: vec![vec![true, false], vec![false, true]],
                    },
                ],
            },
            Frame::Signature {
                die_id: 7,
                window_idx: 3,
                bits: vec![true; 17],
            },
            Frame::Verdict {
                die_id: 7,
                passed: false,
                retested: true,
                grade: "degraded-1".to_owned(),
            },
            Frame::Bye,
            Frame::Heartbeat { die_id: 7 },
        ]
    }

    #[test]
    fn roundtrip_every_frame_type() {
        for f in frames() {
            let bytes = f.encode();
            let (back, used) = Frame::decode(&bytes).expect("decodes");
            assert_eq!(back, f);
            assert_eq!(used, bytes.len());
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `n` bits where bit `i` is set when `i % 3 == 0` or `i % 7 == 5`,
    /// so every byte, the last one included, mixes ones and zeros.
    fn odd_bits(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 3 == 0 || i % 7 == 5).collect()
    }

    /// Pins the wire bytes, not just the round trip: a packing that is
    /// its own inverse but not LSB-first (or a layout change) fails
    /// here even though every round trip still passes.
    #[test]
    fn golden_wire_bytes() {
        let window = Frame::Window {
            window_idx: 5,
            retest: false,
            stimuli: vec![
                Stimulus::Flat(odd_bits(13)),
                Stimulus::Edt {
                    pi_bits: odd_bits(5),
                    channel_bits: vec![odd_bits(97), vec![true; 5]],
                },
            ],
        };
        let signature = Frame::Signature {
            die_id: 1023,
            window_idx: 1,
            bits: odd_bits(13),
        };
        assert_eq!(
            hex(&window.encode()),
            "dfa1030030000000050000000002000000000d0000006912010500000009020000006100000069922c4d92a549b23449962601050000001f3f1fdf052be1d703"
        );
        assert_eq!(
            hex(&signature.encode()),
            "dfa104000e000000ff030000010000000d00000069128aa1de7516d87604"
        );
    }

    #[test]
    fn truncation_and_tampering_detected() {
        let bytes = frames()[2].encode();
        for cut in 0..bytes.len() {
            assert!(matches!(
                Frame::decode(&bytes[..cut]),
                Err(FrameError::Torn)
            ));
        }
        let mut bad = bytes.clone();
        bad[HEADER_LEN] ^= 1;
        assert!(matches!(Frame::decode(&bad), Err(FrameError::BadChecksum)));
        let mut wrong_magic = bytes;
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&wrong_magic),
            Err(FrameError::BadMagic)
        ));
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let mut buf = Vec::new();
        for f in frames() {
            write_frame(&mut buf, &f).unwrap();
        }
        let mut r = &buf[..];
        for f in frames() {
            assert_eq!(read_frame(&mut r).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut r), Err(FrameError::Torn)));
    }

    #[test]
    fn torn_write_is_detected_by_reader() {
        let mut buf = Vec::new();
        write_frame_torn(&mut buf, &frames()[1].encode()).unwrap();
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Torn)));
    }

    #[test]
    fn corrupt_write_is_rejected_by_checksum() {
        for f in frames() {
            let mut buf = Vec::new();
            write_frame_corrupt(&mut buf, &f).unwrap();
            let mut r = &buf[..];
            assert!(
                matches!(read_frame(&mut r), Err(FrameError::BadChecksum)),
                "corrupted {f:?} must fail its checksum"
            );
        }
    }

    #[test]
    fn timeout_classification_and_recoverability() {
        let would_block = io::Error::new(io::ErrorKind::WouldBlock, "rcvtimeo");
        assert!(matches!(FrameError::from(would_block), FrameError::Timeout));
        let timed_out = io::Error::new(io::ErrorKind::TimedOut, "sndtimeo");
        assert!(matches!(FrameError::from(timed_out), FrameError::Timeout));
        assert!(FrameError::Timeout.is_recoverable());
        assert!(FrameError::Torn.is_recoverable());
        assert!(FrameError::BadChecksum.is_recoverable());
        assert!(!FrameError::BadMagic.is_recoverable());
        assert!(!FrameError::BadPayload("x").is_recoverable());
        assert!(!FrameError::TooLarge.is_recoverable());
    }
}
