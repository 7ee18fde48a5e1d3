//! The three workloads and what they share: set-up timing, the lockstep
//! session call, outcome checks and the span breakdown of a handshake.

pub mod churn;
pub mod roster;
pub mod service;

use crate::gen::drbg_label;
use crate::medium::{LinkMedium, LINK_WAIT};
use crate::report::Report;
use crate::stats::{median, percentile, MIN_BEYOND};
use crate::trace::{covered, phase_split, to_jsonl, within, Span, Tracer};
use shs_core::handshake::{run_handshake_with_net, Actor, Outcome, SessionResult};
use shs_core::{CoreError, GroupAuthority, GroupConfig, HandshakeOptions, Member};
use shs_crypto::drbg::HmacDrbg;
use shs_net::sync::BroadcastNet;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["service_paced", "roster_m16", "churn_crl"];

/// Sessions a run must time so that its p90 has ten samples beyond it.
pub const MIN_SESSIONS: usize = 100;

/// A run stops timing after this long even if it has too few sessions,
/// so that, with its set-ups, it ends well within its 180 s budget.
pub const HARD_CAP: Duration = Duration::from_secs(110);

/// Largest share of a session's wall time the traced run may leave
/// unattributed to phases, exchanges and link wait.
pub const MAX_UNATTRIBUTED: f64 = 0.10;

/// What a workload run needs to know.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// The span store of a traced run.
    pub tracer: Option<Arc<Tracer>>,
}

impl Ctx {
    /// Seeded DRBG for `what`.
    pub fn rng(&self, what: &str) -> HmacDrbg {
        HmacDrbg::from_seed(drbg_label(self.workload, self.seed, what).as_bytes())
    }

    /// The tracer for session `index`: a traced run traces every other
    /// session and leaves the rest plain, so the two halves, interleaved
    /// in time, give the tracing overhead.
    pub fn tracer_for(&self, index: usize) -> Option<&Tracer> {
        self.tracer.as_deref().filter(|_| index.is_multiple_of(2))
    }

    /// [`Ctx::tracer_for`], shared for a job that outlives the caller.
    pub fn shared_tracer_for(&self, index: usize) -> Option<Arc<Tracer>> {
        self.tracer.clone().filter(|_| index.is_multiple_of(2))
    }

    /// Keep timing sessions? Until `timed` reaches `seconds` and at
    /// least [`MIN_SESSIONS`] sessions ran, capped at [`HARD_CAP`].
    pub fn keep_going(&self, timed: Duration, sessions: usize) -> bool {
        timed < HARD_CAP && (timed.as_secs_f64() < self.seconds || sessions < MIN_SESSIONS)
    }
}

/// Timings collected while setting groups up.
#[derive(Debug, Default)]
pub struct SetupSamples {
    /// Wall time of each complete set-up, s.
    pub setup_s: Vec<f64>,
    /// Each `GroupAuthority::apply_epoch` admission window, ms.
    pub epochs_ms: Vec<f64>,
    /// Each `Member::apply_update` of an existing member, µs.
    pub syncs_us: Vec<f64>,
}

/// Set-up wall time as a share of the timed wall time. Admission cost
/// varies with the certificate primes each set-up draws, and the host's
/// speed drifts over a run, so `setup_s`, and the admission epochs and
/// syncs that set-up yields, are medians over many set-ups spread
/// through the whole run rather than bunched at its ends.
pub const SETUP_SHARE: f64 = 0.25;
/// Set-ups in a run, at least.
pub const MIN_SETUPS: usize = 6;

/// A set-up: builds what a workload runs on from a seeded DRBG, timing
/// its admission windows and syncs into the samples it is given.
pub trait Build<T>: FnMut(&mut HmacDrbg, &mut SetupSamples) -> Result<T, CoreError> {}
impl<T, F: FnMut(&mut HmacDrbg, &mut SetupSamples) -> Result<T, CoreError>> Build<T> for F {}

/// The set-ups of one run: each is timed into `samples.setup_s`, and the
/// wall time they took in all is kept so that a loop can leave it out
/// of its timed region.
#[derive(Debug, Default)]
pub struct Setups {
    /// Timings of every set-up so far.
    pub samples: SetupSamples,
    spent: Duration,
    count: usize,
}

impl Setups {
    /// Wall time spent in set-ups so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Runs one timed set-up and returns what it built.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn build<T>(&mut self, ctx: &Ctx, build: &mut impl Build<T>) -> Result<T, CoreError> {
        let mut rng = ctx.rng(&format!("setup{}", self.count));
        let t = Instant::now();
        let built = build(&mut rng, &mut self.samples);
        let took = t.elapsed();
        self.spent += took;
        self.samples.setup_s.push(took.as_secs_f64());
        self.count += 1;
        built
    }

    /// Repeats set-ups, handing each to `retire`, until set-ups have
    /// taken `SETUP_SHARE` of `timed` in all. A closed loop calls this
    /// after each of its steps, so set-ups are spread through the run.
    ///
    /// # Errors
    ///
    /// The first set-up error.
    pub fn keep_share<T>(
        &mut self,
        ctx: &Ctx,
        timed: Duration,
        build: &mut impl Build<T>,
        retire: &mut impl FnMut(T),
    ) -> Result<(), CoreError> {
        while self.spent.as_secs_f64() < SETUP_SHARE * timed.as_secs_f64() {
            retire(self.build(ctx, build)?);
        }
        Ok(())
    }

    /// Repeats set-ups, handing each to `retire`, until at least
    /// [`MIN_SETUPS`] ran and the samples hold enough admission windows
    /// and syncs for their p50 even in short runs.
    ///
    /// # Errors
    ///
    /// The first set-up error.
    pub fn top_up<T>(
        &mut self,
        ctx: &Ctx,
        build: &mut impl Build<T>,
        retire: &mut impl FnMut(T),
    ) -> Result<(), CoreError> {
        let enough = |s: &SetupSamples| s.epochs_ms.len().min(s.syncs_us.len()) >= 2 * MIN_BEYOND;
        while self.count < MIN_SETUPS || !enough(&self.samples) {
            retire(self.build(ctx, build)?);
        }
        Ok(())
    }
}

/// The timed wall time of a closed loop that started at `started`, when
/// set-ups had taken `before`: its elapsed time less the set-ups run
/// inside it since.
pub fn timed_since(started: Instant, before: Duration, setups: &Setups) -> Duration {
    started
        .elapsed()
        .saturating_sub(setups.spent().saturating_sub(before))
}

/// Builds an authority for `config` and admits `n` members, one
/// `apply_epoch` window per join, with every existing member applying
/// each window's update. Times every window and every member sync.
///
/// # Errors
///
/// Propagates admission and sync errors.
pub fn build_group(
    config: GroupConfig,
    n: usize,
    rng: &mut HmacDrbg,
    samples: &mut SetupSamples,
) -> Result<(GroupAuthority, Vec<Member>), CoreError> {
    let mut ga = shs_core::fixtures::test_authority_with(config, rng);
    let mut members: Vec<Member> = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let (joined, update) = ga.apply_epoch(1, &[], rng)?;
        samples.epochs_ms.push(ms(t.elapsed()));
        for m in &mut members {
            let t = Instant::now();
            m.apply_update(&update)?;
            samples.syncs_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        members.extend(joined);
    }
    Ok((ga, members))
}

/// Did every slot accept and derive one and the same session key?
pub fn all_accept_one_key(outcomes: &[Outcome]) -> bool {
    let first = outcomes.first().and_then(|o| o.session_key.as_ref());
    match first {
        None => false,
        Some(k) => outcomes.iter().all(|o| {
            o.accepted && o.abort.is_none() && o.session_key.as_ref().is_some_and(|x| x.ct_eq(k))
        }),
    }
}

/// One lockstep handshake: `run_handshake_with_net` over a fresh
/// `BroadcastNet` (exactly what `run_handshake` does), wrapped so a
/// traced session records its exchanges. Returns the wall time.
pub fn lockstep(
    actors: &[Actor<'_>],
    opts: &HandshakeOptions,
    rng: &mut HmacDrbg,
    tracer: Option<&Tracer>,
    session: u64,
) -> (Duration, Result<SessionResult, CoreError>) {
    let t = Instant::now();
    let result = within(tracer, HANDSHAKE, session, None, |id| {
        let net = BroadcastNet::new(actors.len(), opts.delivery);
        let mut net = LinkMedium::new(net, Duration::ZERO, tracer, session, id);
        run_handshake_with_net(actors, opts, &mut net, rng)
    });
    (t.elapsed(), result)
}

/// Root span of a lockstep handshake run.
pub const HANDSHAKE: &str = "handshake";

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// One handshake run's time, split by the spans under it.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// The run's root span.
    pub root: Span,
    /// Self time per phase, ns (compute between exchange boundaries).
    pub phases: [u64; 3],
    /// Self time of each exchange, ns (injected link delay excluded).
    pub exchange_self: Vec<u64>,
    /// Injected link delay, ns.
    pub link_wait: u64,
}

impl Breakdown {
    /// Phases plus exchanges plus link wait, ns.
    pub fn attributed(&self) -> u64 {
        self.phases.iter().sum::<u64>() + self.exchange_self.iter().sum::<u64>() + self.link_wait
    }
}

/// Breaks down every span named `root` in `spans`.
pub fn breakdowns(spans: &[Span], root: &str) -> Vec<Breakdown> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let none = Vec::new();
    spans
        .iter()
        .filter(|s| s.name == root)
        .map(|r| {
            let exchanges: Vec<&Span> = children
                .get(&r.id)
                .unwrap_or(&none)
                .iter()
                .copied()
                .filter(|s| s.name.starts_with("exchange.p"))
                .collect();
            let mut exchange_self = Vec::with_capacity(exchanges.len());
            let mut link_wait = 0;
            let mut marks = Vec::with_capacity(exchanges.len());
            for ex in &exchanges {
                let waits: Vec<(u64, u64)> = children
                    .get(&ex.id)
                    .unwrap_or(&none)
                    .iter()
                    .filter(|s| s.name == LINK_WAIT)
                    .map(|s| (s.start, s.end))
                    .collect();
                let wait = covered(&waits, ex.start, ex.end);
                link_wait += wait;
                exchange_self.push(ex.ns() - wait);
                let phase = ex.name.as_bytes()[ex.name.len() - 1] - b'0';
                marks.push((ex.start, ex.end, usize::from(phase)));
            }
            Breakdown {
                root: r.clone(),
                phases: phase_split(r.start, r.end, &marks),
                exchange_self,
                link_wait,
            }
        })
        .collect()
}

/// Adds the phase and exchange metrics of `runs` to `report`.
pub fn put_handshake_layers(report: &mut Report, runs: &[Breakdown], with_exchange: bool) {
    for (k, name) in [
        "handshake.phase1_ms",
        "handshake.phase2_ms",
        "handshake.phase3_ms",
    ]
    .iter()
    .enumerate()
    {
        let v: Vec<f64> = runs.iter().map(|b| b.phases[k] as f64 / 1e6).collect();
        report.put(name, median(&v).unwrap_or(0.0), "ms");
    }
    if with_exchange {
        let v: Vec<f64> = runs
            .iter()
            .flat_map(|b| b.exchange_self.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        report.put("sync.exchange_us", median(&v).unwrap_or(0.0), "us");
    }
}

/// `|wall − attributed| / wall`.
pub fn unattributed(wall_ns: u64, attributed_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    wall_ns.abs_diff(attributed_ns) as f64 / wall_ns as f64
}

/// Closes a traced run: the conservation check over `errors` (one per
/// traced session), the tracing overhead (traced vs plain session
/// medians), the span count, and the spans written under `.bench_out/`.
pub fn finish_trace(
    ctx: &Ctx,
    report: &mut Report,
    errors: &[f64],
    traced_ms: &[f64],
    plain_ms: &[f64],
) {
    let Some(tracer) = ctx.tracer.as_deref() else {
        return;
    };
    let worst = errors.iter().copied().fold(0.0, f64::max);
    report.put("trace.unattributed_max", worst, "ratio");
    if errors.is_empty() {
        report.invalidate("traced run recorded no session to check".to_string());
    } else if worst > MAX_UNATTRIBUTED {
        report.invalidate(format!(
            "conservation: a traced session left {:.1}% of its wall time unattributed (limit {:.0}%)",
            worst * 100.0,
            MAX_UNATTRIBUTED * 100.0
        ));
    }
    let overhead = match (median(traced_ms), median(plain_ms)) {
        (Some(t), Some(p)) if p > 0.0 => t / p - 1.0,
        _ => 0.0,
    };
    report.put("trace.overhead_frac", overhead, "ratio");
    let spans = tracer.spans();
    report.put("trace.spans", spans.len() as f64, "count");
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, to_jsonl(&spans)));
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// Adds the end-to-end metrics every workload reports.
pub struct EndToEnd<'a> {
    /// Set-up samples.
    pub setup: &'a SetupSamples,
    /// Session latencies, ms.
    pub sessions_ms: &'a [f64],
    /// Sessions per second.
    pub sessions_per_s: f64,
    /// Epoch call times, ms.
    pub epochs_ms: &'a [f64],
    /// Member sync times, µs.
    pub syncs_us: &'a [f64],
}

impl EndToEnd<'_> {
    /// Puts the metrics into `report`; a run too short for its p90 is
    /// invalid rather than silently reported with a weaker percentile.
    pub fn put(&self, report: &mut Report) {
        let n = self.sessions_ms.len();
        println!("session_samples {n} count");
        report.put("setup_s", median(&self.setup.setup_s).unwrap_or(0.0), "s");
        for (name, p) in [("session_ms_p50", 0.5), ("session_ms_p90", 0.9)] {
            match percentile(self.sessions_ms, p) {
                Some(v) => report.put(name, v, "ms"),
                None => report.invalidate(format!("{n} sessions are too few to report {name}")),
            }
        }
        report.put("sessions_per_s", self.sessions_per_s, "1/s");
        report.put("success_frac", 1.0 - report.failed_frac(), "ratio");
        for (name, v, unit) in [
            ("epoch_ms_p50", self.epochs_ms, "ms"),
            ("sync_us_p50", self.syncs_us, "us"),
        ] {
            match percentile(v, 0.5) {
                Some(x) => report.put(name, x, unit),
                None => {
                    report.invalidate(format!("{} samples are too few to report {name}", v.len()))
                }
            }
        }
    }
}
