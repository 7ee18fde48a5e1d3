//! `roster_m16`: one client runs lockstep handshakes back to back among
//! all 16 members of a `Scheme2SelfDistinct` group, default options
//! (parallel Phase-III verification on). Phase III checks 16×15
//! signatures and BD runs with 16 parties, so the batch verifier, the
//! bigint kernels and the worker pool do most of the work; there is no
//! queue, link delay, CRL or TCP.

use super::{
    all_accept_one_key, breakdowns, build_group, finish_trace, lockstep, ms, put_handshake_layers,
    timed_since, unattributed, Ctx, EndToEnd, Setups, HANDSHAKE,
};
use crate::gen::{roster_order, traced_sample, ROSTER_M};
use crate::report::Report;
use crate::stats::mean;
use shs_core::handshake::Actor;
use shs_core::{CoreError, GroupConfig, HandshakeOptions, HandshakeTranscript, SchemeKind};
use std::collections::HashMap;
use std::time::Instant;

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), CoreError> {
    let config = GroupConfig::test(SchemeKind::Scheme2SelfDistinct);
    let mut build = |rng: &mut _, s: &mut _| build_group(config, ROSTER_M, rng, s);
    let mut setups = Setups::default();
    let (ga, members) = setups.build(ctx, &mut build)?;
    let opts = HandshakeOptions::default();

    let mut latencies = Vec::new();
    let mut ok = Vec::new();
    let mut sampled: Vec<(usize, HandshakeTranscript, Vec<usize>)> = Vec::new();
    let (mut traced_ms, mut plain_ms, mut walls) = (Vec::new(), Vec::new(), HashMap::new());
    let (mut modexp, mut exchanges, mut retries) = (Vec::new(), Vec::new(), Vec::new());
    let (started, before) = (Instant::now(), setups.spent());
    let mut i = 0;
    while ctx.keep_going(timed_since(started, before, &setups), i) {
        let order = roster_order(ctx.seed, i);
        let actors: Vec<Actor<'_>> = order.iter().map(|&j| Actor::Member(&members[j])).collect();
        let mut rng = ctx.rng(&format!("s{i}"));
        let tracer = ctx.tracer_for(i);
        let (wall, result) = lockstep(&actors, &opts, &mut rng, tracer, i as u64);
        latencies.push(ms(wall));
        if tracer.is_some() {
            traced_ms.push(ms(wall));
            walls.insert(i as u64, wall.as_nanos() as u64);
        } else {
            plain_ms.push(ms(wall));
        }
        match result {
            Ok(r) => {
                ok.push(all_accept_one_key(&r.outcomes) && r.outcomes.len() == ROSTER_M);
                modexp.push(r.costs.iter().map(|c| c.modexp).sum::<u64>() as f64);
                exchanges.push(f64::from(r.stats.exchanges));
                retries.push(f64::from(r.stats.retries));
                if traced_sample(ctx.seed, i) {
                    sampled.push((i, r.transcript, order));
                }
            }
            Err(e) => {
                eprintln!("perfbench: session {i}: {e}");
                ok.push(false);
            }
        }
        i += 1;
        let timed = timed_since(started, before, &setups);
        setups.keep_share(ctx, timed, &mut build, &mut drop)?;
    }
    let elapsed = timed_since(started, before, &setups).as_secs_f64();
    setups.top_up(ctx, &mut build, &mut drop)?;

    // Outside the timed region: the sampled transcripts must open to
    // the members who sat in each slot.
    for (i, transcript, order) in &sampled {
        let traced = ga.trace(transcript);
        let right = traced.len() == order.len()
            && traced
                .iter()
                .all(|t| t.result.as_ref().ok() == Some(&members[order[t.slot]].id()));
        ok[*i] &= right;
    }
    println!("traced_transcripts {} count", sampled.len());
    for (i, good) in ok.iter().enumerate() {
        report.check(*good, || {
            format!("roster_m16 session {i} failed its outcome check")
        });
    }
    EndToEnd {
        setup: &setups.samples,
        sessions_ms: &latencies,
        sessions_per_s: i as f64 / elapsed,
        epochs_ms: &setups.samples.epochs_ms,
        syncs_us: &setups.samples.syncs_us,
    }
    .put(report);

    if let Some(tracer) = ctx.tracer.as_deref() {
        let runs = breakdowns(&tracer.spans(), HANDSHAKE);
        put_handshake_layers(report, &runs, true);
        report.put("bigint.modexp_per_session", mean(&modexp), "count");
        report.put("handshake.exchanges_per_session", mean(&exchanges), "count");
        report.put("handshake.retries_per_session", mean(&retries), "count");
        let errors: Vec<f64> = runs
            .iter()
            .filter_map(|b| {
                walls
                    .get(&b.root.session)
                    .map(|&w| unattributed(w, b.attributed()))
            })
            .collect();
        finish_trace(ctx, report, &errors, &traced_ms, &plain_ms);
    }
    Ok(())
}
