//! Per-session execution: the attempt loop, slot-liveness analysis and
//! survivor re-formation.
//!
//! A [`SessionJob`] is one logical handshake session, abstracted from
//! the protocol it runs: the service hands it an [`AttemptContext`]
//! (attempt number, current roster, derived seed) and gets back an
//! [`AttemptOutcome`] — a verdict plus the attempt's [`TrafficLog`].
//! Everything the service decides — who is still alive, whether to
//! re-form, when to give up — is driven by that log's counters, exactly
//! the information a deployment's traffic accounting would have.
//!
//! **Survivor re-formation** leans on the §7 partially-successful-
//! handshake semantics: survivors of the same group still succeed among
//! themselves, so when an attempt aborts, the service re-forms the
//! session from the slots the traffic log shows to be live and retries
//! under jittered exponential backoff, a bounded attempt count and the
//! per-session deadline. Fewer than two live slots means no session is
//! possible and the retry loop stops immediately (no retry storm).

use super::registry::{RegistryError, SessionId, SessionRegistry, SessionState, TerminalClass};
use super::shed::backoff_delay;
use crate::clock::SharedClock;
use crate::observe::TrafficLog;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What the service tells a job about the attempt it is asking for.
#[derive(Debug, Clone)]
pub struct AttemptContext {
    /// The registry id of the session.
    pub session_id: SessionId,
    /// 0-based attempt number (attempt 0 is the original roster).
    pub attempt: u32,
    /// Original-roster indices participating in this attempt; the
    /// attempt's wire slots are `0..roster.len()` in this order.
    pub roster: Vec<usize>,
    /// Deterministic per-attempt seed (fresh randomness every retry, so
    /// a re-formed session never reuses nonces or transcripts).
    pub seed: u64,
}

/// A job's summary judgement of one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptVerdict {
    /// The protocol completed and the job's success policy is met.
    Success,
    /// The protocol completed as an ordinary failure (e.g. membership
    /// mismatch). Terminal: retrying would not change the outcome.
    Failure,
    /// Some slot aborted (faults, budget exhaustion): the service may
    /// re-form among survivors and retry.
    Abort,
}

/// Everything one attempt produced.
#[derive(Debug, Clone)]
pub struct AttemptOutcome {
    /// The job's verdict.
    pub verdict: AttemptVerdict,
    /// The attempt's eavesdropper log (liveness analysis input).
    pub traffic: TrafficLog,
}

/// One logical session, abstracted from its protocol. Implementations
/// run one attempt per call; the service owns scheduling, liveness,
/// re-formation and classification.
pub trait SessionJob: Send {
    /// Size of the original roster (wire slots of attempt 0).
    fn roster_len(&self) -> usize;
    /// Runs one attempt among `ctx.roster` and reports what happened.
    fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome;
}

/// A recorded attempt, kept in the session's registry entry.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// 0-based attempt number.
    pub attempt: u32,
    /// Original-roster indices that participated.
    pub roster: Vec<usize>,
    /// The job's verdict.
    pub verdict: AttemptVerdict,
    /// Original-roster indices the traffic log showed to be live.
    pub live_slots: Vec<usize>,
    /// The attempt's traffic log.
    pub traffic: TrafficLog,
}

/// A session submission: the job plus its service-level budget.
pub struct SessionSpec {
    /// The job to run.
    pub job: Box<dyn SessionJob>,
    /// Attempts allowed (including the first); at least 1 is assumed.
    pub max_attempts: u32,
    /// Per-session deadline, measured from admission.
    pub deadline: Duration,
}

impl SessionSpec {
    /// A spec with the service defaults filled in at submission time.
    pub fn new(job: Box<dyn SessionJob>) -> SessionSpec {
        SessionSpec {
            job,
            max_attempts: 4,
            deadline: Duration::from_secs(30),
        }
    }

    /// Overrides the attempt budget.
    pub fn with_max_attempts(mut self, n: u32) -> SessionSpec {
        self.max_attempts = n.max(1);
        self
    }

    /// Overrides the per-session deadline.
    pub fn with_deadline(mut self, d: Duration) -> SessionSpec {
        self.deadline = d;
        self
    }
}

/// Liveness analysis: which roster members does this attempt's traffic
/// show to be alive?
///
/// A slot is **live** iff it transmitted as many messages as the most
/// talkative slot of the attempt: the session protocols are uniform
/// (every live party broadcasts once per exchange, aborting parties
/// included — they send decoys), so a lower count is exactly the
/// signature of a crash-stopped or silenced sender. A partition, by
/// contrast, leaves all counts equal (everyone kept transmitting), so
/// every slot stays live and a retry keeps the full roster — which is
/// the right call, since partitions heal.
///
/// `roster` maps the attempt's wire slots back to original-roster
/// indices; the returned vector contains original indices, sorted.
pub fn live_slots(roster: &[usize], traffic: &TrafficLog) -> Vec<usize> {
    let counts: Vec<usize> = (0..roster.len())
        .map(|s| traffic.messages_from(s))
        .collect();
    let max = counts.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return Vec::new();
    }
    roster
        .iter()
        .enumerate()
        .filter(|(s, _)| counts[*s] == max)
        .map(|(_, orig)| *orig)
        .collect()
}

/// Service-side knobs the attempt loop needs (a copy of the relevant
/// [`super::ServiceConfig`] fields, so this module stays decoupled).
#[derive(Clone)]
pub(crate) struct DriveConfig {
    pub(crate) backoff_base: Duration,
    pub(crate) backoff_cap: Duration,
    pub(crate) seed: u64,
    /// Time source of the backoff sleeps: wall time in production, a
    /// virtual clock under the discrete-event simulator so backoff
    /// schedules cost no real time.
    pub(crate) clock: SharedClock,
}

/// Outcome summary handed back to the worker for shape learning.
pub(crate) struct DriveSummary {
    /// Traffic of the first attempt, if it completed fault-free (the
    /// template admission control imitates when shedding).
    pub(crate) clean_traffic: Option<TrafficLog>,
}

fn classify(
    registry: &Mutex<SessionRegistry>,
    id: SessionId,
    class: TerminalClass,
) -> Result<(), RegistryError> {
    registry.lock().transition(id, class.state(), Some(class))
}

/// Runs one session to a terminal state: the attempt loop with deadline
/// checks, liveness analysis, survivor re-formation and jittered
/// backoff. Every path out of this function leaves the registry entry
/// terminal; registry errors (which cannot occur while the service owns
/// the entry exclusively) surface as the entry simply keeping its last
/// legal state, never as a panic.
pub(crate) fn drive(
    registry: &Mutex<SessionRegistry>,
    draining: &AtomicBool,
    config: DriveConfig,
    id: SessionId,
    mut spec: SessionSpec,
) -> DriveSummary {
    let mut summary = DriveSummary {
        clean_traffic: None,
    };
    if registry
        .lock()
        .transition(id, SessionState::Running, None)
        .is_err()
    {
        // The session was classified before a worker reached it (e.g. a
        // drain swept the queue); nothing to run.
        return summary;
    }
    let deadline = registry
        .lock()
        .deadline(id)
        .unwrap_or_else(|| Instant::now() + spec.deadline);
    let mut roster: Vec<usize> = (0..spec.job.roster_len()).collect();
    let mut attempt: u32 = 0;
    loop {
        if Instant::now() >= deadline {
            let _ = classify(registry, id, TerminalClass::DeadlineExceeded);
            return summary;
        }
        let ctx = AttemptContext {
            session_id: id,
            attempt,
            roster: roster.clone(),
            seed: attempt_seed(config.seed, id, attempt),
        };
        let outcome = spec.job.run_attempt(&ctx);
        let live = live_slots(&roster, &outcome.traffic);
        if attempt == 0 && outcome.traffic.faults().total() == 0 {
            summary.clean_traffic = Some(outcome.traffic.clone());
        }
        let _ = registry.lock().record_attempt(
            id,
            AttemptRecord {
                attempt,
                roster: roster.clone(),
                verdict: outcome.verdict,
                live_slots: live.clone(),
                traffic: outcome.traffic,
            },
        );
        let step = next_step(
            outcome.verdict,
            live,
            &ctx,
            spec.max_attempts,
            draining.load(Ordering::SeqCst),
            deadline.saturating_duration_since(Instant::now()),
            (config.backoff_base, config.backoff_cap),
        );
        match step {
            Step::Terminal(class) => {
                let _ = classify(registry, id, class);
                return summary;
            }
            Step::Retry {
                roster: next,
                reformed,
                backoff,
            } => {
                if reformed {
                    let _ = registry.lock().note_reformation(id);
                }
                roster = next;
                attempt += 1;
                // Poll drain during the backoff so shutdown is never
                // stuck behind a sleep. The wait runs on the configured
                // clock: a virtual clock advances instead of blocking,
                // so simulated retries are free.
                let slept_until = config.clock.now() + backoff;
                while config.clock.now() < slept_until && !draining.load(Ordering::SeqCst) {
                    config.clock.sleep(Duration::from_millis(1).min(backoff));
                }
            }
        }
    }
}

/// The seed of attempt `attempt` of session `session` under the
/// service seed `base`: fresh randomness every retry, so a re-formed
/// session never reuses nonces or transcripts.
pub fn attempt_seed(base: u64, session: SessionId, attempt: u32) -> u64 {
    base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(session)
        .wrapping_add(u64::from(attempt) << 32)
}

/// What the attempt loop does after an attempt (see [`next_step`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// The session ends in this class.
    Terminal(TerminalClass),
    /// Run another attempt among `roster` after waiting `backoff`.
    Retry {
        /// Original-roster indices of the next attempt.
        roster: Vec<usize>,
        /// Whether `roster` shrank to the survivors (a re-formation).
        reformed: bool,
        /// Jittered exponential backoff, clipped to the time left.
        backoff: Duration,
    },
}

/// The attempt policy, one decision at a time: how the attempt `ctx`
/// ended (`verdict`, and the roster members `live` showed to be live)
/// decides between a terminal class and a retry. An aborted attempt
/// ends the session when the service is `draining`, when fewer than two
/// members survive (no retry storm) or when `max_attempts` are spent;
/// otherwise it retries among the survivors — re-forming when some
/// member went quiet — after a [`backoff_delay`] on `(base, cap)`
/// clipped to the `remaining` deadline. Both the service's worker loop
/// and the `shs-sim` capacity harness decide through this function.
pub fn next_step(
    verdict: AttemptVerdict,
    live: Vec<usize>,
    ctx: &AttemptContext,
    max_attempts: u32,
    draining: bool,
    remaining: Duration,
    (base, cap): (Duration, Duration),
) -> Step {
    let class = match verdict {
        AttemptVerdict::Success => TerminalClass::Accepted,
        AttemptVerdict::Failure => TerminalClass::Rejected,
        AttemptVerdict::Abort if draining => TerminalClass::Drained,
        AttemptVerdict::Abort if live.len() < 2 => TerminalClass::TooFewSurvivors,
        AttemptVerdict::Abort if ctx.attempt + 1 >= max_attempts => TerminalClass::Exhausted,
        AttemptVerdict::Abort => {
            let reformed = live.len() < ctx.roster.len();
            let backoff = backoff_delay(ctx.attempt + 1, base, cap, ctx.seed).min(remaining);
            return Step::Retry {
                roster: if reformed { live } else { ctx.roster.clone() },
                reformed,
                backoff,
            };
        }
    };
    Step::Terminal(class)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with_counts(counts: &[usize]) -> TrafficLog {
        let mut log = TrafficLog::new();
        for (slot, n) in counts.iter().enumerate() {
            for i in 0..*n {
                log.record(&format!("r{i}"), slot, b"x");
            }
        }
        log
    }

    #[test]
    fn liveness_flags_quieter_slots() {
        let roster = vec![0, 1, 2, 3];
        let log = log_with_counts(&[4, 4, 2, 4]);
        assert_eq!(live_slots(&roster, &log), vec![0, 1, 3]);
    }

    #[test]
    fn liveness_keeps_everyone_when_uniform() {
        let roster = vec![5, 7, 9];
        let log = log_with_counts(&[3, 3, 3]);
        assert_eq!(live_slots(&roster, &log), vec![5, 7, 9]);
    }

    #[test]
    fn liveness_of_silence_is_empty() {
        assert!(live_slots(&[0, 1], &TrafficLog::new()).is_empty());
    }

    #[test]
    fn liveness_maps_to_original_indices() {
        // A re-formed attempt among original slots {0, 2, 3}: wire slot 1
        // (original 2) went quiet.
        let roster = vec![0, 2, 3];
        let log = log_with_counts(&[2, 1, 2]);
        assert_eq!(live_slots(&roster, &log), vec![0, 3]);
    }

    struct ScriptedJob {
        len: usize,
        verdicts: Vec<AttemptVerdict>,
        counts: Vec<Vec<usize>>,
        seen: Vec<AttemptContext>,
    }

    impl SessionJob for ScriptedJob {
        fn roster_len(&self) -> usize {
            self.len
        }
        fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
            let i = ctx.attempt as usize;
            self.seen.push(ctx.clone());
            AttemptOutcome {
                verdict: self.verdicts[i],
                traffic: log_with_counts(&self.counts[i]),
            }
        }
    }

    fn run_scripted(
        verdicts: Vec<AttemptVerdict>,
        counts: Vec<Vec<usize>>,
        max_attempts: u32,
    ) -> (SessionRegistry, SessionId) {
        let len = counts[0].len();
        let registry = Mutex::new(SessionRegistry::new());
        let id = registry
            .lock()
            .admit(len, Instant::now() + Duration::from_secs(10));
        let job = ScriptedJob {
            len,
            verdicts,
            counts,
            seen: Vec::new(),
        };
        let spec = SessionSpec::new(Box::new(job)).with_max_attempts(max_attempts);
        let draining = AtomicBool::new(false);
        let cfg = DriveConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            seed: 7,
            clock: crate::clock::wall(),
        };
        drive(&registry, &draining, cfg, id, spec);
        (registry.into_inner(), id)
    }

    #[test]
    fn abort_then_reformed_success() {
        let (reg, id) = run_scripted(
            vec![AttemptVerdict::Abort, AttemptVerdict::Success],
            vec![vec![3, 3, 1], vec![2, 2]],
            4,
        );
        let e = reg.entry(id).unwrap();
        assert_eq!(e.state, SessionState::Completed);
        assert_eq!(e.class, Some(TerminalClass::Accepted));
        assert_eq!(e.reformations, 1);
        assert_eq!(e.attempts.len(), 2);
        assert_eq!(e.attempts[1].roster, vec![0, 1], "re-formed to survivors");
    }

    #[test]
    fn lone_survivor_stops_immediately() {
        let (reg, id) = run_scripted(
            vec![AttemptVerdict::Abort],
            vec![vec![1, 4, 1]], // only slot 1 fully live
            8,
        );
        let e = reg.entry(id).unwrap();
        assert_eq!(e.class, Some(TerminalClass::TooFewSurvivors));
        assert_eq!(e.attempts.len(), 1, "no retry storm");
    }

    #[test]
    fn attempt_budget_bounds_retries() {
        let (reg, id) = run_scripted(
            vec![AttemptVerdict::Abort, AttemptVerdict::Abort],
            vec![vec![2, 2, 2], vec![2, 2, 2]], // uniform: partition-like
            2,
        );
        let e = reg.entry(id).unwrap();
        assert_eq!(e.class, Some(TerminalClass::Exhausted));
        assert_eq!(e.attempts.len(), 2);
        assert_eq!(e.reformations, 0, "uniform liveness keeps the roster");
    }

    #[test]
    fn ordinary_failure_is_a_completion() {
        let (reg, id) = run_scripted(vec![AttemptVerdict::Failure], vec![vec![2, 2]], 4);
        let e = reg.entry(id).unwrap();
        assert_eq!(e.state, SessionState::Completed);
        assert_eq!(e.class, Some(TerminalClass::Rejected));
    }
}
