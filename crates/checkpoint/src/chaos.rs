//! The `AIDFT_CHAOS` fault-injection harness.
//!
//! Chaos decisions are **deterministic**: whether injection point
//! `(site, ordinal)` fires is a pure function of the configured seed, so
//! a chaos run can be replayed exactly and per-site ordinals that are
//! stable across thread counts (e.g. fault-list indices) inject the same
//! failures no matter how work is scheduled.

use std::time::Duration;

/// Which class of failure an injection point belongs to. Each site is
/// salted separately so e.g. `panic` and `delay` decisions at the same
/// ordinal are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// Panic a worker's fault batch (exercises panic isolation).
    WorkerPanic,
    /// Delay a worker batch by [`ChaosConfig::delay`] (exercises
    /// stragglers and deadline drains).
    DelayBatch,
    /// Skip the deadline clock forward by [`ChaosConfig::clock_skip`]
    /// (exercises spurious deadline firings).
    ClockSkip,
    /// Drop a tester↔die connection mid-stream (exercises session
    /// reconnect and window resume in the serve layer).
    DropConn,
    /// Write only a torn prefix of a frame before dropping the
    /// connection (exercises frame-codec truncation detection).
    TornFrame,
    /// Delay a die's signature upload by [`ChaosConfig::delay`]
    /// (exercises per-session backpressure and slow-die isolation).
    DelayDie,
    /// Stall the server mid-stream: hold the connection open and
    /// silent for [`ChaosConfig::stall`] (exercises client read
    /// deadlines — the peer must time out, not hang).
    StallServer,
    /// Accept a session's `Hello` and then go silent without a
    /// `Welcome` — a half-open connection (exercises handshake
    /// deadlines and the reconnect budget).
    HalfOpenConn,
    /// Corrupt a signature upload in flight: the frame arrives
    /// complete but fails its checksum (exercises checksum rejection
    /// and that a corrupt upload is never recorded).
    CorruptFrame,
    /// Fail a journal write with EIO before any byte reaches the file
    /// (exercises replica fallback — the record must survive on a
    /// sibling replica).
    DiskEio,
    /// Write only a deterministic prefix of a journal record, then
    /// fail — the torn tail a kill mid-write leaves (exercises
    /// torn-record skipping and realignment under real truncation
    /// lengths).
    DiskShortWrite,
    /// Flip one deterministically-chosen bit of a journal record and
    /// report *success* — silent corruption, detected only by the
    /// per-record checksum at load/fsck time.
    DiskBitRot,
    /// Write the full record but fail the flush, modelling an fsync
    /// error where on-disk durability is unknown to the writer.
    DiskFsyncFail,
}

impl ChaosSite {
    fn salt(self) -> u64 {
        match self {
            ChaosSite::WorkerPanic => 0x9E37_79B9_7F4A_7C15,
            ChaosSite::DelayBatch => 0xBF58_476D_1CE4_E5B9,
            ChaosSite::ClockSkip => 0xD6E8_FEB8_6659_FD93,
            ChaosSite::DropConn => 0xC2B2_AE3D_27D4_EB4F,
            ChaosSite::TornFrame => 0x1656_67B1_9E37_79F9,
            ChaosSite::DelayDie => 0x2545_F491_4F6C_DD1D,
            ChaosSite::StallServer => 0x8EBC_6AF0_9C88_C6E3,
            ChaosSite::HalfOpenConn => 0x5899_65CC_7537_4E9B,
            ChaosSite::CorruptFrame => 0x1D8E_4E27_C47D_124F,
            ChaosSite::DiskEio => 0xE703_7ED1_A0B4_28DB,
            ChaosSite::DiskShortWrite => 0x3C79_AC49_2BA7_B653,
            ChaosSite::DiskBitRot => 0x6C62_272E_07BB_0142,
            ChaosSite::DiskFsyncFail => 0x27D4_EB2F_1656_67C5,
        }
    }
}

/// Parsed `AIDFT_CHAOS` configuration.
///
/// The environment variable is a comma-separated `key=value` list:
///
/// ```text
/// AIDFT_CHAOS="panic=0.02,delay=0.01,delay_ms=5,shortwrite=0.2,clock=0.01,clock_ms=50,seed=7"
/// ```
///
/// | key        | meaning                                             | default |
/// |------------|-----------------------------------------------------|---------|
/// | `panic`    | probability a fault batch panics                    | 0.0     |
/// | `delay`    | probability a worker chunk is delayed               | 0.0     |
/// | `delay_ms` | delay length in milliseconds                        | 2       |
/// | `clock`    | probability a checkpoint boundary skips the clock   | 0.0     |
/// | `clock_ms` | clock-skip length in milliseconds                   | 100     |
/// | `drop`     | probability a tester↔die connection is dropped      | 0.0     |
/// | `tear`     | probability a frame write is torn mid-frame         | 0.0     |
/// | `stall`    | probability the server stalls silent mid-stream     | 0.0     |
/// | `halfopen` | probability a session goes half-open after `Hello`  | 0.0     |
/// | `corrupt`  | probability a signature upload is corrupted         | 0.0     |
/// | `stall_ms` | how long a stalled/half-open peer holds the socket  | 250     |
/// | `eio`      | probability a journal write fails with EIO          | 0.0     |
/// | `shortwrite` | probability a journal write is cut short (torn record) | 0.0 |
/// | `bitrot`   | probability a journal record lands with one bit flipped | 0.0 |
/// | `fsync_fail` | probability a journal flush reports failure       | 0.0     |
/// | `seed`     | decision seed (replays are exact)                   | 0       |
///
/// The serve layer's delayed-die site ([`ChaosSite::DelayDie`]) fires
/// on the shared `delay`/`delay_ms` knobs (with an independent salt).
/// `stall`/`halfopen`/`corrupt` drive the resilience layer: stalled and
/// half-open peers must hit liveness deadlines (never hang a thread),
/// corrupted uploads must be rejected by the checksum, and a die whose
/// reconnect budget is exhausted must be quarantined `Untestable` —
/// the fleet always completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability a worker's fault batch panics.
    pub panic_prob: f64,
    /// Probability a worker chunk sleeps for [`ChaosConfig::delay`].
    pub delay_prob: f64,
    /// Injected delay length.
    pub delay: Duration,
    /// Probability a checkpoint boundary skips the deadline clock.
    pub clock_skip_prob: f64,
    /// Injected clock-skip length.
    pub clock_skip: Duration,
    /// Probability a tester↔die connection is dropped mid-stream.
    pub drop_prob: f64,
    /// Probability a frame write is torn (partial bytes, then dropped).
    pub tear_prob: f64,
    /// Probability the server stalls silent mid-stream (connection held
    /// open past the client's read deadline).
    pub stall_prob: f64,
    /// Probability a session goes half-open: `Hello` accepted, then
    /// silence instead of `Welcome`.
    pub halfopen_prob: f64,
    /// Probability a die's signature upload is corrupted in flight.
    pub corrupt_prob: f64,
    /// How long a stalled or half-open peer holds the socket before
    /// dropping it.
    pub stall: Duration,
    /// Probability a journal write fails with EIO before any byte
    /// reaches the file.
    pub eio_fail_prob: f64,
    /// Probability a journal write is cut short at a deterministic
    /// prefix, then fails.
    pub shortwrite_prob: f64,
    /// Probability a journal record lands with one bit silently
    /// flipped (the write still reports success).
    pub bitrot_prob: f64,
    /// Probability a journal flush reports failure after the bytes
    /// were written.
    pub fsync_fail_prob: f64,
    /// Seed for the deterministic decision hash.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            panic_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(2),
            clock_skip_prob: 0.0,
            clock_skip: Duration::from_millis(100),
            drop_prob: 0.0,
            tear_prob: 0.0,
            stall_prob: 0.0,
            halfopen_prob: 0.0,
            corrupt_prob: 0.0,
            stall: Duration::from_millis(250),
            eio_fail_prob: 0.0,
            shortwrite_prob: 0.0,
            bitrot_prob: 0.0,
            fsync_fail_prob: 0.0,
            seed: 0,
        }
    }
}

impl ChaosConfig {
    /// The all-off configuration (every probability zero).
    pub fn disabled() -> ChaosConfig {
        ChaosConfig::default()
    }

    /// `true` when at least one injection class can fire.
    pub fn is_active(&self) -> bool {
        self.panic_prob > 0.0
            || self.delay_prob > 0.0
            || self.clock_skip_prob > 0.0
            || self.drop_prob > 0.0
            || self.tear_prob > 0.0
            || self.stall_prob > 0.0
            || self.halfopen_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.has_disk_faults()
    }

    /// `true` when any of the disk-fault knobs can fire (the subset
    /// the journal writer's [`crate::ChaosWriter`] layer cares about).
    pub fn has_disk_faults(&self) -> bool {
        self.eio_fail_prob > 0.0
            || self.shortwrite_prob > 0.0
            || self.bitrot_prob > 0.0
            || self.fsync_fail_prob > 0.0
    }

    /// Reads `AIDFT_CHAOS` from the environment. `None` when unset or
    /// empty; a malformed value is an `Err` so operators notice typos
    /// instead of silently running without chaos.
    pub fn from_env() -> Result<Option<ChaosConfig>, String> {
        match std::env::var("AIDFT_CHAOS") {
            Ok(v) if !v.trim().is_empty() => ChaosConfig::parse(&v).map(Some),
            _ => Ok(None),
        }
    }

    /// Parses the `key=value,key=value` knob list (see the type docs for
    /// the table).
    pub fn parse(text: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos knob `{part}` is not key=value"))?;
            let fval = || -> Result<f64, String> {
                let p: f64 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad chaos probability `{value}` for `{key}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos probability `{key}={value}` outside [0, 1]"));
                }
                Ok(p)
            };
            let uval = || -> Result<u64, String> {
                value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad chaos value `{value}` for `{key}`"))
            };
            match key.trim() {
                "panic" => cfg.panic_prob = fval()?,
                "delay" => cfg.delay_prob = fval()?,
                "delay_ms" => cfg.delay = Duration::from_millis(uval()?),
                "clock" => cfg.clock_skip_prob = fval()?,
                "clock_ms" => cfg.clock_skip = Duration::from_millis(uval()?),
                "drop" => cfg.drop_prob = fval()?,
                "tear" => cfg.tear_prob = fval()?,
                "stall" => cfg.stall_prob = fval()?,
                "halfopen" => cfg.halfopen_prob = fval()?,
                "corrupt" => cfg.corrupt_prob = fval()?,
                "stall_ms" => cfg.stall = Duration::from_millis(uval()?),
                "eio" => cfg.eio_fail_prob = fval()?,
                "shortwrite" => cfg.shortwrite_prob = fval()?,
                "bitrot" => cfg.bitrot_prob = fval()?,
                "fsync_fail" => cfg.fsync_fail_prob = fval()?,
                "seed" => cfg.seed = uval()?,
                other => return Err(format!("unknown chaos knob `{other}`")),
            }
        }
        Ok(cfg)
    }

    /// Whether injection point `(site, ordinal)` fires. Pure function of
    /// `(seed, site, ordinal)` — replays and thread counts cannot change
    /// the answer.
    pub fn fires(&self, site: ChaosSite, ordinal: u64) -> bool {
        let prob = match site {
            ChaosSite::WorkerPanic => self.panic_prob,
            ChaosSite::DelayBatch => self.delay_prob,
            ChaosSite::ClockSkip => self.clock_skip_prob,
            ChaosSite::DropConn => self.drop_prob,
            ChaosSite::TornFrame => self.tear_prob,
            ChaosSite::DelayDie => self.delay_prob,
            ChaosSite::StallServer => self.stall_prob,
            ChaosSite::HalfOpenConn => self.halfopen_prob,
            ChaosSite::CorruptFrame => self.corrupt_prob,
            ChaosSite::DiskEio => self.eio_fail_prob,
            ChaosSite::DiskShortWrite => self.shortwrite_prob,
            ChaosSite::DiskBitRot => self.bitrot_prob,
            ChaosSite::DiskFsyncFail => self.fsync_fail_prob,
        };
        if prob <= 0.0 {
            return false;
        }
        if prob >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ site.salt() ^ ordinal.wrapping_mul(0xA076_1D64_78BD_642F));
        // Map the top 53 bits to [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < prob
    }
}

/// SplitMix64: the standard 64-bit finalizer-style mixer.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_knob_list() {
        let c = ChaosConfig::parse(
            "panic=0.02,delay=0.01,delay_ms=5,clock=0.01,clock_ms=50,drop=0.1,tear=0.05,\
             stall=0.04,halfopen=0.03,corrupt=0.02,stall_ms=80,seed=7",
        )
        .unwrap();
        assert_eq!(c.panic_prob, 0.02);
        assert_eq!(c.delay_prob, 0.01);
        assert_eq!(c.delay, Duration::from_millis(5));
        assert_eq!(c.clock_skip_prob, 0.01);
        assert_eq!(c.clock_skip, Duration::from_millis(50));
        assert_eq!(c.drop_prob, 0.1);
        assert_eq!(c.tear_prob, 0.05);
        assert_eq!(c.stall_prob, 0.04);
        assert_eq!(c.halfopen_prob, 0.03);
        assert_eq!(c.corrupt_prob, 0.02);
        assert_eq!(c.stall, Duration::from_millis(80));
        assert_eq!(c.seed, 7);
        assert!(c.is_active());
        assert!(ChaosConfig::parse("drop=1.0").unwrap().is_active());
        assert!(ChaosConfig::parse("tear=1.0").unwrap().is_active());
        assert!(ChaosConfig::parse("stall=1.0").unwrap().is_active());
        assert!(ChaosConfig::parse("halfopen=1.0").unwrap().is_active());
        assert!(ChaosConfig::parse("corrupt=1.0").unwrap().is_active());
    }

    #[test]
    fn parse_disk_fault_knobs() {
        let c =
            ChaosConfig::parse("eio=0.1,shortwrite=0.2,bitrot=0.3,fsync_fail=0.4,seed=11").unwrap();
        assert_eq!(c.eio_fail_prob, 0.1);
        assert_eq!(c.shortwrite_prob, 0.2);
        assert_eq!(c.bitrot_prob, 0.3);
        assert_eq!(c.fsync_fail_prob, 0.4);
        assert!(c.is_active() && c.has_disk_faults());
        for knob in ["eio", "shortwrite", "bitrot", "fsync_fail"] {
            let one = ChaosConfig::parse(&format!("{knob}=1.0")).unwrap();
            assert!(one.is_active(), "{knob} should activate chaos");
            assert!(one.has_disk_faults(), "{knob} is a disk fault");
        }
        assert!(!ChaosConfig::parse("panic=0.5").unwrap().has_disk_faults());
        assert!(ChaosConfig::parse("bitrot=2.0").is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ChaosConfig::parse("panic").is_err());
        assert!(ChaosConfig::parse("panic=2.0").is_err());
        assert!(ChaosConfig::parse("warp=0.5").is_err());
        // The torn-write knob is `shortwrite`; `io` is not a knob.
        assert!(ChaosConfig::parse("io=0.2").is_err());
        assert!(ChaosConfig::parse("seed=x").is_err());
        assert!(!ChaosConfig::parse("").unwrap().is_active());
    }

    #[test]
    fn decisions_are_deterministic_and_sites_independent() {
        let c = ChaosConfig {
            panic_prob: 0.5,
            delay_prob: 0.5,
            seed: 42,
            ..ChaosConfig::default()
        };
        for i in 0..64 {
            assert_eq!(
                c.fires(ChaosSite::WorkerPanic, i),
                c.fires(ChaosSite::WorkerPanic, i)
            );
        }
        // With both probs at 0.5 the two sites should disagree somewhere.
        assert!((0..64)
            .any(|i| c.fires(ChaosSite::WorkerPanic, i) != c.fires(ChaosSite::DelayBatch, i)));
    }

    #[test]
    fn fire_rate_tracks_probability() {
        let c = ChaosConfig {
            panic_prob: 0.25,
            seed: 9,
            ..ChaosConfig::default()
        };
        let hits = (0..10_000)
            .filter(|&i| c.fires(ChaosSite::WorkerPanic, i))
            .count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
        assert!(!ChaosConfig::disabled().fires(ChaosSite::WorkerPanic, 3));
        let always = ChaosConfig {
            delay_prob: 1.0,
            ..ChaosConfig::default()
        };
        assert!(always.fires(ChaosSite::DelayBatch, 11));
    }
}
