//! `churn_crl`: membership writes beside handshake reads. A `Scheme1`
//! group (signatures checked against the CRL) with an LKH tree of
//! capacity 2^16 and 24 standing members; each window revokes two
//! seeded members and admits two in one `apply_epoch` call, every
//! remaining member applies the window's update, and four seeded m = 3
//! handshakes follow. The CRL grows by two tokens per window, so each
//! signature check costs more as the run goes on. The only workload
//! that runs GSIG joins, CGKD rekeys, sealed bulletin-board updates and
//! CRL deltas.

use super::{
    all_accept_one_key, breakdowns, build_group, finish_trace, lockstep, ms, put_handshake_layers,
    timed_since, unattributed, Ctx, EndToEnd, Setups, HANDSHAKE,
};
use crate::gen::{traced_sample, ChurnScript, CHURN_JOINS, CHURN_M, CHURN_STANDING};
use crate::report::Report;
use crate::stats::mean;
use shs_core::handshake::Actor;
use shs_core::{CoreError, GroupConfig, HandshakeOptions, HandshakeTranscript, Member, SchemeKind};
use shs_gsig::ky::MemberId;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// LKH capacity of the churn group.
pub const CAPACITY: u32 = 1 << 16;

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), CoreError> {
    let config = GroupConfig {
        capacity: CAPACITY,
        ..GroupConfig::test(SchemeKind::Scheme1)
    };
    let mut build = |rng: &mut _, s: &mut _| build_group(config, CHURN_STANDING, rng, s);
    let mut setups = Setups::default();
    let (mut ga, standing) = setups.build(ctx, &mut build)?;
    let mut members: BTreeMap<u64, Member> = standing.into_iter().map(|m| (m.id().0, m)).collect();
    let mut script = ChurnScript::new(ctx.seed);
    let script_matches = members.keys().copied().eq(script.members().iter().copied());
    report.check(script_matches, || {
        "standing member ids differ from the script".to_string()
    });
    let opts = HandshakeOptions::default();
    let mut rng = ctx.rng("windows");

    let (mut epochs_ms, mut syncs_us, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut ok = Vec::new();
    let mut sampled: Vec<(usize, HandshakeTranscript, Vec<u64>)> = Vec::new();
    let (mut traced_ms, mut plain_ms, mut walls) = (Vec::new(), Vec::new(), HashMap::new());
    let (mut modexp, mut exchanges, mut retries) = (Vec::new(), Vec::new(), Vec::new());
    let (started, before) = (Instant::now(), setups.spent());
    let mut windows = 0;
    while ctx.keep_going(timed_since(started, before, &setups), latencies.len()) {
        let window = script.next_window();
        let leave_ids: Vec<MemberId> = window.leavers.iter().map(|&id| MemberId(id)).collect();
        let t = Instant::now();
        let applied = ga.apply_epoch(CHURN_JOINS, &leave_ids, &mut rng);
        epochs_ms.push(ms(t.elapsed()));
        let mut epoch_ok = false;
        if let Ok((joined, update)) = applied {
            for id in &window.leavers {
                members.remove(id);
            }
            let mut synced = true;
            for m in members.values_mut() {
                let t = Instant::now();
                synced &= m.apply_update(&update).is_ok();
                syncs_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            let ids: Vec<u64> = joined.iter().map(|m| m.id().0).collect();
            members.extend(joined.into_iter().map(|m| (m.id().0, m)));
            epoch_ok = synced
                && ids == window.joiners
                && members.values().all(|m| {
                    m.group_key().ct_eq(ga.group_key()) && m.crl_version() == ga.crl_version()
                });
        }
        report.check(epoch_ok, || format!("churn_crl window {windows} failed"));
        windows += 1;

        for roster in &window.rosters {
            let i = latencies.len();
            let actors: Vec<Actor<'_>> = roster
                .iter()
                .filter_map(|id| members.get(id))
                .map(Actor::Member)
                .collect();
            if actors.len() != CHURN_M {
                latencies.push(0.0);
                ok.push(false);
                continue;
            }
            let mut srng = ctx.rng(&format!("s{i}"));
            let tracer = ctx.tracer_for(i);
            let (wall, result) = lockstep(&actors, &opts, &mut srng, tracer, i as u64);
            latencies.push(ms(wall));
            if tracer.is_some() {
                traced_ms.push(ms(wall));
                walls.insert(i as u64, wall.as_nanos() as u64);
            } else {
                plain_ms.push(ms(wall));
            }
            match result {
                Ok(r) => {
                    ok.push(all_accept_one_key(&r.outcomes));
                    modexp.push(r.costs.iter().map(|c| c.modexp).sum::<u64>() as f64);
                    exchanges.push(f64::from(r.stats.exchanges));
                    retries.push(f64::from(r.stats.retries));
                    if traced_sample(ctx.seed, i) {
                        sampled.push((i, r.transcript, roster.clone()));
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: session {i}: {e}");
                    ok.push(false);
                }
            }
        }
        let timed = timed_since(started, before, &setups);
        setups.keep_share(ctx, timed, &mut build, &mut drop)?;
    }
    let elapsed = timed_since(started, before, &setups).as_secs_f64();
    setups.top_up(ctx, &mut build, &mut drop)?;

    // Outside the timed region: sampled transcripts open to their
    // signers (revoked since or not: the manager keeps every record).
    for (i, transcript, roster) in &sampled {
        let traced = ga.trace(transcript);
        let right = traced.len() == roster.len()
            && traced
                .iter()
                .all(|t| t.result.as_ref().ok() == Some(&MemberId(roster[t.slot])));
        ok[*i] &= right;
    }
    println!("windows {windows} count");
    println!("crl_tokens_at_end {} count", ga.crl_version());
    println!("traced_transcripts {} count", sampled.len());
    for (i, good) in ok.iter().enumerate() {
        report.check(*good, || {
            format!("churn_crl session {i} failed its outcome check")
        });
    }
    EndToEnd {
        setup: &setups.samples,
        sessions_ms: &latencies,
        sessions_per_s: latencies.len() as f64 / elapsed,
        epochs_ms: &epochs_ms,
        syncs_us: &syncs_us,
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
