//! The recorded-trace container: a versioned, byte-stable transcript of one
//! simulator run.
//!
//! A trace zips the simulator's cause trace
//! ([`SimBuilder::record_causes`](minsync_net::sim::SimBuilder::record_causes))
//! with its effect trace
//! ([`SimBuilder::record_effects`](minsync_net::sim::SimBuilder::record_effects)):
//! one [`TraceStep`] per handler invocation, carrying what *triggered* the
//! invocation and every effect it queued. That pair is the complete
//! input/output contract of the sans-io [`Node`](minsync_net::Node) API, so
//! a trace can be re-driven and checked with no simulator in the loop (see
//! [`crate::replay`]).
//!
//! The byte format follows the `minsync-wire` rules (little-endian
//! integers, tagged enums, counted sequences) under a trace-specific magic
//! and version, so committed fixture files fail loudly — not confusingly —
//! when the format moves.

use minsync_net::sim::{CauseRecord, EffectRecord};
use minsync_types::fnv1a;
use minsync_wire::{Wire, WireError};

/// Magic tag opening every trace file (distinct from the transport's
/// `MSYN` so a trace is never mistaken for a socket stream).
pub const TRACE_MAGIC: [u8; 4] = *b"MTRC";

/// Trace format version. Bump on any incompatible change to this
/// container *or* to the [`Wire`] encoding of anything a trace embeds.
pub const TRACE_VERSION: u16 = 1;

/// One handler invocation: its trigger and the effects it queued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep<M, O> {
    /// What invoked the handler (start / delivery / timer).
    pub cause: CauseRecord<M>,
    /// What the handler did.
    pub effects: EffectRecord<M, O>,
}

impl<M: Wire, O: Wire> Wire for TraceStep<M, O> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.cause.encode_into(out);
        self.effects.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TraceStep {
            cause: CauseRecord::decode(input)?,
            effects: EffectRecord::decode(input)?,
        })
    }
}

/// Why a trace failed to build or decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The underlying wire decode failed.
    Wire(WireError),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The file's version differs from [`TRACE_VERSION`].
    VersionMismatch {
        /// Version this build writes.
        ours: u16,
        /// Version found in the file.
        theirs: u16,
    },
    /// Cause and effect streams disagree at `index` (different lengths, or
    /// a step whose cause and effects name different times/processes) —
    /// the recording capacities were too small, the streams are from
    /// different runs, or a decoded file was altered.
    Misaligned {
        /// First mismatching step index (or the shorter stream's length).
        index: usize,
    },
    /// Decoding finished with bytes left over.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> Self {
        TraceError::Wire(e)
    }
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Wire(e) => write!(f, "wire error: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::VersionMismatch { ours, theirs } => {
                write!(f, "trace version {theirs}, this build reads {ours}")
            }
            TraceError::Misaligned { index } => {
                write!(f, "cause/effect streams misaligned at step {index}")
            }
            TraceError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after trace")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A complete recorded run: scenario identity plus every invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace<M, O> {
    /// Number of processes.
    pub n: u32,
    /// Simulator seed of the recorded run (replays must reuse it).
    pub seed: u64,
    /// Scenario name, for humans and for registry lookups.
    pub scenario: String,
    /// The invocations, in global simulator order.
    pub steps: Vec<TraceStep<M, O>>,
}

impl<M, O> Trace<M, O>
where
    M: Wire + Clone,
    O: Wire + Clone,
{
    /// Zips a recorded cause trace and effect trace into a `Trace`,
    /// checking the two streams describe the same invocations.
    ///
    /// # Errors
    ///
    /// [`TraceError::Misaligned`] if lengths differ or any step's cause and
    /// effect records disagree on time or process — record both streams
    /// with `usize::MAX` capacity to avoid truncation skew.
    pub fn from_run(
        n: u32,
        seed: u64,
        scenario: impl Into<String>,
        causes: &[CauseRecord<M>],
        effects: &[EffectRecord<M, O>],
    ) -> Result<Self, TraceError> {
        if causes.len() != effects.len() {
            return Err(TraceError::Misaligned {
                index: causes.len().min(effects.len()),
            });
        }
        let steps = causes
            .iter()
            .zip(effects)
            .map(|(c, e)| TraceStep {
                cause: c.clone(),
                effects: e.clone(),
            })
            .collect();
        Trace {
            n,
            seed,
            scenario: scenario.into(),
            steps,
        }
        .aligned()
    }

    /// `self`, if every step's effect record names the time and process of
    /// its cause.
    fn aligned(self) -> Result<Self, TraceError> {
        match self
            .steps
            .iter()
            .position(|s| s.cause.time != s.effects.time || s.cause.process != s.effects.process)
        {
            Some(index) => Err(TraceError::Misaligned { index }),
            None => Ok(self),
        }
    }

    /// Serializes the trace: magic, version, header, steps.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&TRACE_MAGIC);
        TRACE_VERSION.encode_into(&mut out);
        self.n.encode_into(&mut out);
        self.seed.encode_into(&mut out);
        self.scenario.encode_into(&mut out);
        self.steps.encode_into(&mut out);
        out
    }

    /// Deserializes a trace file, validating magic, version, and exact
    /// consumption.
    ///
    /// # Errors
    ///
    /// [`TraceError`] on bad magic, unknown version, malformed bytes,
    /// trailing garbage, or a step whose effects name another time or
    /// process than its cause.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut input = bytes;
        let Some(magic) = input.get(..4) else {
            return Err(TraceError::Wire(WireError::Truncated));
        };
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        input = &input[4..];
        let version = u16::decode(&mut input)?;
        if version != TRACE_VERSION {
            return Err(TraceError::VersionMismatch {
                ours: TRACE_VERSION,
                theirs: version,
            });
        }
        let trace = Trace {
            n: u32::decode(&mut input)?,
            seed: u64::decode(&mut input)?,
            scenario: String::decode(&mut input)?,
            steps: Vec::decode(&mut input)?,
        };
        if !input.is_empty() {
            return Err(TraceError::TrailingBytes { extra: input.len() });
        }
        trace.aligned()
    }

    /// FNV-1a digest of the encoded bytes — the *structured* digest. Unlike
    /// [`Simulation::effect_trace_digest`], which hashes the `Debug`
    /// rendering of the in-memory records, it is pinned to the byte format
    /// (and its explicit version), not to however `#[derive(Debug)]` prints
    /// a struct this release.
    ///
    /// [`Simulation::effect_trace_digest`]: minsync_net::sim::Simulation::effect_trace_digest
    pub fn digest(&self) -> u64 {
        fnv1a(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_net::sim::InvocationCause;
    use minsync_net::{Effect, VirtualTime};
    use minsync_types::ProcessId;

    fn tiny() -> Trace<u64, u64> {
        let causes = vec![
            CauseRecord {
                time: VirtualTime::ZERO,
                process: ProcessId::new(0),
                cause: InvocationCause::Start,
            },
            CauseRecord {
                time: VirtualTime::from_ticks(3),
                process: ProcessId::new(1),
                cause: InvocationCause::Deliver {
                    from: ProcessId::new(0),
                    msg: 9,
                },
            },
        ];
        let effects = vec![
            EffectRecord {
                time: VirtualTime::ZERO,
                process: ProcessId::new(0),
                effects: vec![Effect::Broadcast { msg: 9 }],
            },
            EffectRecord {
                time: VirtualTime::from_ticks(3),
                process: ProcessId::new(1),
                effects: vec![Effect::Output(9), Effect::Halt],
            },
        ];
        Trace::from_run(2, 42, "tiny", &causes, &effects).unwrap()
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = tiny();
        let bytes = t.encode();
        assert_eq!(&bytes[..4], b"MTRC");
        let back = Trace::<u64, u64>::decode(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.digest(), t.digest());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let t = tiny();
        let mut bytes = t.encode();
        bytes[0] = b'X';
        assert_eq!(Trace::<u64, u64>::decode(&bytes), Err(TraceError::BadMagic));
        let mut bytes = t.encode();
        bytes[4] = 99; // version low byte
        assert!(matches!(
            Trace::<u64, u64>::decode(&bytes),
            Err(TraceError::VersionMismatch { theirs: 99, .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = tiny().encode();
        bytes.push(0);
        assert_eq!(
            Trace::<u64, u64>::decode(&bytes),
            Err(TraceError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn misaligned_streams_are_rejected() {
        let t = tiny();
        let causes: Vec<_> = t.steps.iter().map(|s| s.cause.clone()).collect();
        let mut effects: Vec<_> = t.steps.iter().map(|s| s.effects.clone()).collect();
        effects[1].process = ProcessId::new(0);
        assert_eq!(
            Trace::from_run(2, 42, "tiny", &causes, &effects),
            Err(TraceError::Misaligned { index: 1 })
        );
        effects.pop();
        assert_eq!(
            Trace::from_run(2, 42, "tiny", &causes, &effects),
            Err(TraceError::Misaligned { index: 1 })
        );
    }

    #[test]
    fn decode_rejects_an_effect_record_at_another_tick() {
        let mut t = tiny();
        t.steps[1].effects.time = VirtualTime::from_ticks(4);
        assert_eq!(
            Trace::<u64, u64>::decode(&t.encode()),
            Err(TraceError::Misaligned { index: 1 })
        );
    }

    #[test]
    fn digest_is_byte_pinned() {
        // The digest must move iff the bytes move.
        let t = tiny();
        let mut other = t.clone();
        other.seed = 43;
        assert_ne!(t.digest(), other.digest());
        assert_eq!(t.digest(), tiny().digest());
    }
}
