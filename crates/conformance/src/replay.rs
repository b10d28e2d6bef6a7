//! The replayer: [`replay_direct`] checks a recorded [`Trace`] against the
//! current implementation with no substrate at all. Fresh protocol
//! automata are driven through the recorded causes with a bare [`Env`],
//! and every invocation's queued effects must be **byte-identical** to the
//! recording: any behavioral drift in a protocol (different message,
//! different timer, different order) fails on the exact divergent
//! invocation.
//!
//! The automata are deterministic and sans-io, so this checks everything
//! a recording holds about them. Drift in the *simulator* (routing,
//! timing, timers) is caught elsewhere: re-recording a golden scenario must
//! reproduce its committed fixture byte for byte.

use core::fmt::Debug;
use std::collections::{BTreeMap, HashMap, VecDeque};

use minsync_net::driver::{step, Link, StepHooks};
use minsync_net::sim::InvocationCause;
use minsync_net::{derive_stream, Effect, Env, Node, TimerId, TimerTable, VirtualTime};
use minsync_types::ProcessId;

use crate::trace::Trace;

/// Why a replay diverged from the recording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The caller supplied the wrong number of nodes.
    WrongSize {
        /// Processes in the trace.
        expected: usize,
        /// Processes supplied.
        got: usize,
    },
    /// A recorded timer firing was stale or cancelled under replay — the
    /// timer bookkeeping diverged before this step.
    StaleTimer {
        /// Global step index.
        step: usize,
        /// The process.
        process: ProcessId,
    },
    /// An invocation queued different effects than the recording.
    EffectMismatch {
        /// Global step index.
        step: usize,
        /// The process.
        process: ProcessId,
        /// Recorded and replayed effects, `Debug`-formatted.
        detail: String,
    },
    /// The trace is internally inconsistent — it could not have been
    /// produced by the simulator (e.g. a delivery with no matching send, or
    /// a cancelled timer firing that should have produced an invocation).
    Inconsistent {
        /// Global step index.
        step: usize,
        /// What failed to line up.
        detail: String,
    },
}

impl core::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplayError::WrongSize { expected, got } => {
                write!(f, "trace has {expected} processes, caller supplied {got}")
            }
            ReplayError::StaleTimer { step, process } => {
                write!(f, "step {step}: recorded timer stale at {process:?}")
            }
            ReplayError::EffectMismatch {
                step,
                process,
                detail,
            } => write!(f, "step {step} ({process:?}): effects diverged: {detail}"),
            ReplayError::Inconsistent { step, detail } => {
                write!(f, "step {step}: trace is inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Drives fresh automata through the recorded causes with a bare [`Env`]
/// and asserts every invocation queues exactly the recorded effects.
///
/// `nodes` must be freshly-constructed automata in the same line-up as the
/// recorded run. The env's randomness stream and each process's timer
/// table evolve exactly as the simulator's did, so timer ids and `random`
/// draws reproduce bit-for-bit.
///
/// Reproducing the timer tables needs more than the recorded invocations:
/// a cancelled or stale timer firing produces *no* invocation, but the
/// simulator's `try_fire` still consumes it (recycling the slot and
/// bumping its generation, which changes the id the next `set_timer`
/// allocates). The replayer therefore rebuilds the simulator's event
/// ordering — every push gets the same `(time, seq)` key the event queue
/// assigned — and consumes those invisible firings at exactly the point
/// the simulator did. Traces recorded under a dropping schedule oracle are
/// not supported here (dropped messages would shift the seq numbering);
/// golden fixtures are always recorded oracle-free.
///
/// # Errors
///
/// The [`ReplayError`] pinpointing the first divergent step.
pub fn replay_direct<M, O>(
    trace: &Trace<M, O>,
    nodes: Vec<Box<dyn Node<Msg = M, Output = O>>>,
) -> Result<(), ReplayError>
where
    M: Clone + Debug + Send + PartialEq + 'static,
    O: Clone + Debug + Send + PartialEq + 'static,
{
    let n = trace.n as usize;
    if nodes.len() != n {
        return Err(ReplayError::WrongSize {
            expected: n,
            got: nodes.len(),
        });
    }
    let mut nodes = nodes;
    // Same derivation the simulator uses for its shared env.
    let mut env: Env<M, O> = Env::new(n, derive_stream(trace.seed, 1));
    let mut tables: Vec<TimerTable> = (0..n).map(|_| TimerTable::new()).collect();
    // The simulator's event bookkeeping, reconstructed (Start events took
    // queue keys 0..n).
    let mut book = Book {
        me: ProcessId::new(0),
        now: VirtualTime::ZERO,
        seq: n as u64,
        sends: HashMap::new(),
        pending_timers: BTreeMap::new(),
        halted: vec![false; n],
    };

    for (i, recorded) in trace.steps.iter().enumerate() {
        let p = recorded.cause.process;
        let now = recorded.cause.time;
        // Locate this invocation's own queue key.
        let step_seq = match &recorded.cause.cause {
            InvocationCause::Start => p.index() as u64,
            InvocationCause::Deliver { from, msg } => {
                let channel = book
                    .sends
                    .get_mut(&(from.index(), p.index()))
                    .ok_or_else(|| ReplayError::Inconsistent {
                        step: i,
                        detail: format!("delivery from p{} with no prior send", from.index()),
                    })?;
                let pos = channel.iter().position(|(_, m)| m == msg).ok_or_else(|| {
                    ReplayError::Inconsistent {
                        step: i,
                        detail: format!("delivery from p{} matches no sent message", from.index()),
                    }
                })?;
                channel.remove(pos).expect("position just found").0
            }
            InvocationCause::Timer { id } => *book
                .pending_timers
                .iter()
                .find(|(&(t, _), &(tp, tid))| t == now && tp == p && tid == *id)
                .map(|((_, s), _)| s)
                .ok_or(ReplayError::StaleTimer {
                    step: i,
                    process: p,
                })?,
        };
        // Consume every scheduled firing the simulator popped before this
        // invocation. None of them may actually fire — a firing produces an
        // invocation, and the trace has none here — but consuming them is
        // what recycles timer slots at the recorded moments.
        while let Some((&(t, s), &(tp, tid))) = book.pending_timers.first_key_value() {
            if (t, s) >= (now, step_seq) {
                break;
            }
            book.pending_timers.remove(&(t, s));
            if book.halted[tp.index()] {
                continue; // the simulator skips halted processes pre-fire
            }
            if tables[tp.index()].try_fire(tid) {
                return Err(ReplayError::Inconsistent {
                    step: i,
                    detail: format!(
                        "timer {tid:?} of p{} would fire at {t:?}, but the trace records no \
                         invocation for it",
                        tp.index()
                    ),
                });
            }
        }
        // The simulator fires on the per-process table *before* swapping it
        // into the env; mirror that order so generations line up.
        if let InvocationCause::Timer { id } = &recorded.cause.cause {
            book.pending_timers.remove(&(now, step_seq));
            if !tables[p.index()].try_fire(*id) {
                return Err(ReplayError::StaleTimer {
                    step: i,
                    process: p,
                });
            }
        }
        let mut mismatch = None;
        let mut compare = |effects: &[Effect<M, O>]| {
            if effects != recorded.effects.effects {
                mismatch = Some(format!(
                    "recorded {:?}, replayed {:?}",
                    recorded.effects.effects, effects
                ));
            }
        };
        let hooks = StepHooks {
            trace: None,
            record: Some(&mut compare),
        };
        (book.me, book.now) = (p, now);
        core::mem::swap(&mut tables[p.index()], env.timers_mut());
        let node = nodes[p.index()].as_mut();
        step(
            node,
            recorded.cause.cause.clone(),
            p,
            now,
            &mut env,
            &mut book,
            hooks,
        );
        core::mem::swap(&mut tables[p.index()], env.timers_mut());
        if let Some(detail) = mismatch {
            return Err(ReplayError::EffectMismatch {
                step: i,
                process: p,
                detail,
            });
        }
    }
    Ok(())
}

/// The simulator's event bookkeeping as [`replay_direct`] reconstructs it —
/// `seq` mirrors the queue's push counter, `sends` maps each channel to its
/// pushed-but-undelivered messages, and `pending_timers` holds scheduled
/// firings keyed exactly as the queue orders them — and, as the [`Link`] of
/// process `me` at time `now`, how it grows: every effect that pushed an
/// event in the recorded run takes the next queue key here.
struct Book<M> {
    me: ProcessId,
    now: VirtualTime,
    seq: u64,
    sends: HashMap<(usize, usize), VecDeque<(u64, M)>>,
    pending_timers: BTreeMap<(VirtualTime, u64), (ProcessId, TimerId)>,
    halted: Vec<bool>,
}

impl<M: Clone, O> Link<M, O> for Book<M> {
    // `broadcast` is the default: the simulator routes in destination
    // order 0..n, one queue key per copy.
    fn send(&mut self, to: ProcessId, msg: M) {
        let channel = (self.me.index(), to.index());
        self.sends
            .entry(channel)
            .or_default()
            .push_back((self.seq, msg));
        self.seq += 1;
    }

    fn set_timer(&mut self, id: TimerId, delay: u64) {
        let key = (self.now.saturating_add(delay), self.seq);
        self.pending_timers.insert(key, (self.me, id));
        self.seq += 1;
    }

    fn output(&mut self, _event: O) {}

    fn halt(&mut self) {
        self.halted[self.me.index()] = true;
    }
}
