//! `service_paced`: the handshake service as an operator runs it.
//! `shs_net::serve::Service` with one worker per CPU runs m = 3
//! sessions drawn from a 12-member `Scheme1` group under
//! `SuccessPolicy::FullOnly`; 70% are clean, 20% lose a slot to a crash
//! after round 1 of their first attempt (and must re-form once), 10%
//! hold an outsider (and must be rejected). Every broadcast exchange
//! waits a fixed 10 ms link delay inside the worker. An open loop at
//! 12 sessions/s (about half the service's capacity on a 2-CPU host)
//! is timed from each session's due time; a burst submitted at once
//! then gives the throughput. The only workload where the serve layer
//! queues, re-forms and sheds, and where a worker waits on the network.

use super::{
    breakdowns, build_group, finish_trace, lockstep, ms, put_handshake_layers, unattributed, Ctx,
    EndToEnd, Setups,
};
use crate::gen::{drbg_label, expected, paced_session, SessionKind, PACED_M, PACED_MEMBERS};
use crate::medium::{ExchangeCounts, LinkMedium};
use crate::report::Report;
use crate::stats::{mean, percentile};
use crate::trace::{within, Tracer};
use shs_core::handshake::Actor;
use shs_core::service::{HandshakeJob, Participant, SuccessPolicy};
use shs_core::{CoreError, GroupConfig, HandshakeOptions, Member, SchemeKind};
use shs_net::fault::{FaultPlan, FaultRule};
use shs_net::serve::{
    AttemptContext, AttemptOutcome, Service, ServiceConfig, SessionJob, SessionSpec, TerminalClass,
};
use shs_net::sync::BroadcastNet;
use shs_net::DeliveryPolicy;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, sessions/s.
pub const RATE: f64 = 12.0;
/// Link delay of every broadcast exchange.
pub const LINK_DELAY: Duration = Duration::from_millis(10);
/// Share of the run spent in the paced phase.
const PACED_SHARE: f64 = 0.6;
/// Burst sessions per measured second.
const BURST_PER_S: f64 = 8.0;
/// Root span of one service attempt.
const ATTEMPT: &str = "attempt";

/// Paced and burst session counts for a run of `seconds`.
pub fn session_counts(seconds: f64) -> (usize, usize) {
    let paced = ((RATE * PACED_SHARE * seconds).round() as usize).max(super::MIN_SESSIONS + 10);
    let burst = ((BURST_PER_S * seconds).round() as usize).max(40);
    (paced, burst)
}

/// Exchange counts per session, written by the workers.
type Sink = Arc<Mutex<HashMap<u64, ExchangeCounts>>>;

/// The benchmark's session job: the operator's `HandshakeJob`, run over
/// a `BroadcastNet` behind the link-delay wrapper, with the crash fault
/// installed on attempt 0 when the input asks for it.
struct PacedJob {
    inner: HandshakeJob,
    crash: Option<usize>,
    tracer: Option<Arc<Tracer>>,
    sink: Sink,
}

impl SessionJob for PacedJob {
    fn roster_len(&self) -> usize {
        PACED_M
    }

    fn run_attempt(&mut self, ctx: &AttemptContext) -> AttemptOutcome {
        let mut net = BroadcastNet::new(ctx.roster.len(), DeliveryPolicy::Synchronous);
        if let (0, Some(slot)) = (ctx.attempt, self.crash) {
            net.set_fault_plan(FaultPlan::new(ctx.seed).with(FaultRule::crash_stop(slot, 1)));
        }
        let tracer = self.tracer.as_deref();
        let inner = &mut self.inner;
        let (out, counts) = within(tracer, ATTEMPT, ctx.session_id, None, |id| {
            let mut medium = LinkMedium::new(net, LINK_DELAY, tracer, ctx.session_id, id);
            let out = inner.run_attempt_on(ctx, &mut medium);
            (out, medium.counts())
        });
        let mut sink = self
            .sink
            .lock()
            .expect("sink poisoned by a panicking worker");
        let total = sink.entry(ctx.session_id).or_default();
        total.exchanges += counts.exchanges;
        total.retries += counts.retries;
        out
    }
}

/// One submitted session.
struct Submitted {
    index: usize,
    id: u64,
    due: Instant,
    kind: SessionKind,
    queued: bool,
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), CoreError> {
    let (n_paced, n_burst) = session_counts(ctx.seconds);
    let workers = crate::host::nproc();
    let config = ServiceConfig {
        workers,
        queue_capacity: n_burst + 16,
        default_deadline: Duration::from_secs(60),
        seed: ctx.seed,
        ..ServiceConfig::default()
    };
    let mut build = |rng: &mut _, s: &mut _| -> Result<(Arc<Vec<Member>>, Service), CoreError> {
        let (_, members) = build_group(
            GroupConfig::test(SchemeKind::Scheme1),
            PACED_MEMBERS,
            rng,
            s,
        )?;
        Ok((Arc::new(members), Service::start(config)))
    };
    let mut idle_drains = Vec::new();
    let mut retire = |(_, svc): (Arc<Vec<Member>>, Service)| {
        idle_drains.push(svc.shutdown(Duration::from_secs(5)).clean());
    };
    // Set-ups in three equal chunks: before the paced phase, between it
    // and the burst (the service idle), and after the burst.
    let chunk = |k: f64| Duration::from_secs_f64(ctx.seconds * k / 3.0);
    let mut setups = Setups::default();
    let (pool, svc) = setups.build(ctx, &mut build)?;
    setups.keep_share(ctx, chunk(1.0), &mut build, &mut retire)?;
    let sink: Sink = Arc::default();
    let opts = HandshakeOptions::default();
    let submit = |index: usize, due: Instant| -> Submitted {
        let input = paced_session(ctx.seed, index);
        let slots = (0..PACED_M)
            .map(|s| match input.kind {
                SessionKind::Outsider { slot } if slot == s => Participant::Outsider,
                _ => Participant::Member(input.roster[s]),
            })
            .collect();
        let crash = match input.kind {
            SessionKind::Crash { slot } => Some(slot),
            _ => None,
        };
        let label = drbg_label(ctx.workload, ctx.seed, &format!("s{index}"));
        let job = PacedJob {
            inner: HandshakeJob::new(Arc::clone(&pool), PACED_M, opts, &label)
                .with_slots(slots)
                .with_policy(SuccessPolicy::FullOnly),
            crash,
            tracer: ctx.shared_tracer_for(index),
            sink: Arc::clone(&sink),
        };
        let sub = svc.submit(SessionSpec::new(Box::new(job)));
        Submitted {
            index,
            id: sub.id(),
            due,
            kind: input.kind,
            queued: sub.queued(),
        }
    };

    // Paced phase: an open loop, each session timed from its due time.
    let gap = Duration::from_secs_f64(1.0 / RATE);
    let t0 = Instant::now() + gap;
    let mut subs = Vec::with_capacity(n_paced + n_burst);
    let mut lateness = Duration::ZERO;
    for index in 0..n_paced {
        let due = t0 + gap * index as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lateness = lateness.max(Instant::now().saturating_duration_since(due));
        subs.push(submit(index, due));
    }
    let idle = svc.wait_idle(Duration::from_secs(90));
    report.check(idle, || "paced phase did not settle".into());
    println!("generator_lateness_max_ms {} ms", ms(lateness));
    if lateness > gap {
        report.invalidate(format!(
            "open-loop generator fell {:.1} ms behind (more than one {:.1} ms gap)",
            ms(lateness),
            ms(gap)
        ));
    }

    setups.keep_share(ctx, chunk(2.0), &mut build, &mut retire)?;

    // Burst phase: everything at once; throughput to the last terminal.
    let burst_start = Instant::now();
    for index in n_paced..n_paced + n_burst {
        subs.push(submit(index, burst_start));
    }
    let idle = svc.wait_idle(Duration::from_secs(90));
    report.check(idle, || "burst phase did not settle".into());

    let mut paced_ms = Vec::new();
    let (mut queue_ms, mut service_ms) = (Vec::new(), Vec::new());
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut service_ns: HashMap<u64, u64> = HashMap::new();
    let mut burst_end = burst_start;
    let mut accepted = 0u64;
    for s in &subs {
        let entry = svc.entry(s.id);
        let want = expected(s.kind);
        let good = s.queued
            && entry.as_ref().is_some_and(|e| {
                e.class == Some(want.class) && e.reformations == want.reformations
            });
        report.check(good, || {
            format!(
                "service_paced session {} ({:?}) ended as {:?}, expected {:?}",
                s.index,
                s.kind,
                entry.as_ref().map(|e| (e.class, e.reformations)),
                want
            )
        });
        let Some(e) = entry else { continue };
        accepted += u64::from(e.class == Some(TerminalClass::Accepted));
        let (Some(started), Some(finished)) = (e.started_at, e.finished_at) else {
            continue;
        };
        if s.index < n_paced {
            paced_ms.push(ms(finished.saturating_duration_since(s.due)));
            queue_ms.push(ms(started.saturating_duration_since(s.due)));
            let served = finished.saturating_duration_since(started);
            service_ms.push(ms(served));
            if ctx.tracer_for(s.index).is_some() {
                traced_ms.push(ms(served));
                service_ns.insert(s.id, served.as_nanos() as u64);
            } else {
                plain_ms.push(ms(served));
            }
        } else {
            burst_end = burst_end.max(finished);
        }
    }
    let stats = svc.stats();
    let leaks = svc.leaks();
    let drained = svc.shutdown(Duration::from_secs(10));
    report.check(
        stats.illegal_transitions == 0 && leaks.is_empty() && drained.clean(),
        || format!("service invariants: {stats:?}, leaks {leaks:?}, drain {drained:?}"),
    );
    setups.keep_share(ctx, chunk(3.0), &mut build, &mut retire)?;
    setups.top_up(ctx, &mut build, &mut retire)?;
    report.check(idle_drains.iter().all(|&c| c), || {
        "an idle set-up service did not drain cleanly".to_string()
    });
    let burst_s = burst_end
        .saturating_duration_since(burst_start)
        .as_secs_f64();
    EndToEnd {
        setup: &setups.samples,
        sessions_ms: &paced_ms,
        sessions_per_s: if burst_s > 0.0 {
            n_burst as f64 / burst_s
        } else {
            0.0
        },
        epochs_ms: &setups.samples.epochs_ms,
        syncs_us: &setups.samples.syncs_us,
    }
    .put(report);

    if let Some(tracer) = ctx.tracer.as_deref() {
        let runs = breakdowns(&tracer.spans(), ATTEMPT);
        put_handshake_layers(report, &runs, true);
        let counts = sink.lock().expect("sink poisoned by a panicking worker");
        let per: Vec<&ExchangeCounts> = counts.values().collect();
        let ex: Vec<f64> = per.iter().map(|c| f64::from(c.exchanges)).collect();
        let re: Vec<f64> = per.iter().map(|c| f64::from(c.retries)).collect();
        report.put("handshake.exchanges_per_session", mean(&ex), "count");
        report.put("handshake.retries_per_session", mean(&re), "count");
        report.put(
            "bigint.modexp_per_session",
            replay_modexp(ctx, &pool),
            "count",
        );
        report.put(
            "serve.queue_wait_ms_p50",
            percentile(&queue_ms, 0.5).unwrap_or(0.0),
            "ms",
        );
        report.put(
            "serve.queue_wait_ms_p90",
            percentile(&queue_ms, 0.9).unwrap_or(0.0),
            "ms",
        );
        report.put(
            "serve.service_ms_p50",
            percentile(&service_ms, 0.5).unwrap_or(0.0),
            "ms",
        );
        let held: u64 = service_ns.values().sum();
        let waited: u64 = runs
            .iter()
            .filter(|b| service_ns.contains_key(&b.root.session))
            .map(|b| b.link_wait)
            .sum();
        let share = if held > 0 {
            waited as f64 / held as f64
        } else {
            0.0
        };
        report.put("serve.link_wait_share", share, "ratio");
        let sessions = subs.len() as f64;
        report.put(
            "serve.attempts_per_session",
            stats.attempts as f64 / sessions,
            "count",
        );
        let per_attempt = if stats.attempts > 0 {
            accepted as f64 / stats.attempts as f64
        } else {
            0.0
        };
        report.put("serve.accepted_per_attempt", per_attempt, "ratio");
        report.put("serve.generator_lateness_ms", ms(lateness), "ms");
        // Conservation per traced session: its attempts (phases,
        // exchanges, link wait) against the worker's service time; the
        // rest is backoff and lifecycle bookkeeping.
        let mut attributed: HashMap<u64, u64> = HashMap::new();
        for b in &runs {
            *attributed.entry(b.root.session).or_default() += b.attributed();
        }
        let errors: Vec<f64> = service_ns
            .iter()
            .map(|(id, &wall)| unattributed(wall, attributed.get(id).copied().unwrap_or(0)))
            .collect();
        finish_trace(ctx, report, &errors, &traced_ms, &plain_ms);
    }
    Ok(())
}

/// Exponentiations per clean session. `HandshakeJob` does not expose
/// per-slot costs, so the count comes from lockstep replays of the
/// first clean rosters (no link delay; the count does not depend on it).
fn replay_modexp(ctx: &Ctx, pool: &[Member]) -> f64 {
    let opts = HandshakeOptions::default();
    let mut counts = Vec::new();
    for index in 0..super::MIN_SESSIONS {
        let input = paced_session(ctx.seed, index);
        if input.kind != SessionKind::Clean {
            continue;
        }
        let actors: Vec<Actor<'_>> = input
            .roster
            .iter()
            .map(|&j| Actor::Member(&pool[j]))
            .collect();
        let mut rng = ctx.rng(&format!("replay{index}"));
        if let (_, Ok(r)) = lockstep(&actors, &opts, &mut rng, None, index as u64) {
            counts.push(r.costs.iter().map(|c| c.modexp).sum::<u64>() as f64);
        }
        if counts.len() == 8 {
            break;
        }
    }
    mean(&counts)
}
