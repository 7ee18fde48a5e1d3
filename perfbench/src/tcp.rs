//! The TCP probe of the traced run: two co-members handshake over
//! loopback TCP the way `shs-node` does, for a fixed number of sessions.
//! Each session binds its own relay; two threads each attach a
//! `TcpParty` and call `run_party`, then leave; the relay is drained and
//! shut down before the next session starts. It is the benchmark's only
//! caller of `shs_net::tcp`: attach, relay rounds and the relay's
//! polling sleeps.
//!
//! It is a probe rather than a workload because its session times step
//! by the relay's 10 ms accept and `wait_done` polls: a slight host
//! slowdown moves a run's p90 and throughput by whole polls, which
//! leaves no steady end-to-end figure to bound.

use crate::gen::drbg_label;
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::{within, Tracer};
use crate::workloads::{build_group, ms, SetupSamples};
use shs_core::handshake::party::{run_party, PartyOutcome};
use shs_core::{Actor, CoreError, GroupConfig, HandshakeOptions, Member, SchemeKind};
use shs_net::tcp::{RelayConfig, RelayHandle, SupervisorConfig, TcpParty};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Sessions the probe runs.
pub const TCP_SESSIONS: usize = 60;
/// How long a party waits for its co-party in each round.
const COLLECT_TIMEOUT: Duration = Duration::from_secs(5);
/// DRBG namespace of the probe.
const LABEL: &str = "tcp_probe";

/// What one party thread reports.
struct PartyRun {
    outcome: Result<PartyOutcome, CoreError>,
    attach: Duration,
    party: Duration,
    returned: Instant,
}

fn run_one(
    addr: SocketAddr,
    member: &Member,
    seed: u64,
    rng_label: &str,
    tracer: &Tracer,
    session: u64,
    root: Option<u64>,
) -> PartyRun {
    let sup = SupervisorConfig {
        seed,
        ..SupervisorConfig::default()
    };
    let t = Instant::now();
    let link = within(Some(tracer), "tcp.attach", session, root, |_| {
        TcpParty::attach(addr, sup, None)
    });
    let attach = t.elapsed();
    let mut link = match link {
        Ok(l) => l,
        Err(e) => {
            return PartyRun {
                outcome: Err(CoreError::Net(e)),
                attach,
                party: Duration::ZERO,
                returned: Instant::now(),
            }
        }
    };
    let mut rng = shs_crypto::drbg::HmacDrbg::from_seed(rng_label.as_bytes());
    let actor = Actor::Member(member);
    let opts = HandshakeOptions::default();
    let t = Instant::now();
    let outcome = within(Some(tracer), "tcp.party", session, root, |_| {
        run_party(&actor, &opts, &mut link, COLLECT_TIMEOUT, &mut rng)
    });
    let party = t.elapsed();
    let returned = Instant::now();
    link.finish();
    PartyRun {
        outcome,
        attach,
        party,
        returned,
    }
}

/// Runs [`TCP_SESSIONS`] sessions, checks each (both parties accept with
/// one session key, the relay drains, no seat crashed) and adds the
/// `tcp.*` metrics to `report`.
///
/// # Errors
///
/// Set-up failures, or a relay that cannot bind.
pub fn probe(seed: u64, tracer: &Tracer, report: &mut Report) -> Result<(), CoreError> {
    let config = GroupConfig::test(SchemeKind::Scheme1);
    let mut rng =
        shs_crypto::drbg::HmacDrbg::from_seed(drbg_label(LABEL, seed, "setup").as_bytes());
    let (_, members) = build_group(config, 2, &mut rng, &mut SetupSamples::default())?;

    let (mut attach_ms, mut party_ms, mut teardown_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire = Vec::new();
    let (mut reconnects, mut timeouts) = (0u64, 0u64);
    for i in 0..TCP_SESSIONS {
        let session = i as u64;
        let root = tracer.open("tcp.session", session, None);
        let root_id = Some(root.id());
        let relay = RelayHandle::bind("127.0.0.1:0", RelayConfig::new(2), None)?;
        let addr = relay.addr();
        let runs: Vec<PartyRun> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .iter()
                .enumerate()
                .map(|(j, member)| {
                    let label = drbg_label(LABEL, seed, &format!("s{i}/p{j}"));
                    let seed = seed.wrapping_mul(31).wrapping_add((2 * i + j) as u64);
                    s.spawn(move || run_one(addr, member, seed, &label, tracer, session, root_id))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("party thread panicked"))
                .collect()
        });
        let returned = runs.iter().map(|r| r.returned).max();
        let (done, traffic, crashed) =
            within(Some(tracer), "tcp.teardown", session, root_id, |_| {
                let done = relay.wait_done(Duration::from_secs(5));
                let seen = (done, relay.traffic(), relay.crashed_slots());
                relay.shutdown();
                seen
            });
        teardown_ms.push(returned.map_or(0.0, |t| ms(t.elapsed())));
        tracer.close(root);

        let mut keys = Vec::new();
        for r in &runs {
            attach_ms.push(ms(r.attach));
            party_ms.push(ms(r.party));
            if let Ok(out) = &r.outcome {
                keys.push((out.outcome.accepted, out.outcome.session_key.clone()));
                reconnects += out.stats.reconnects;
                timeouts += out.stats.deadline_timeouts;
            }
        }
        wire.push(traffic.total_bytes() as f64);
        let one_key = keys.len() == 2
            && keys.iter().all(|(acc, k)| {
                *acc && k
                    .as_ref()
                    .zip(keys[0].1.as_ref())
                    .is_some_and(|(a, b)| a.ct_eq(b))
            });
        report.check(one_key && done && crashed.is_empty(), || {
            let errs: Vec<Option<&CoreError>> = runs.iter().map(|r| r.outcome.as_ref().err()).collect();
            format!("tcp probe session {i}: keys agree={one_key} relay done={done} crashed={crashed:?} errors={errs:?}")
        });
    }
    report.put("tcp.attach_ms", median(&attach_ms).unwrap_or(0.0), "ms");
    report.put("tcp.party_ms", median(&party_ms).unwrap_or(0.0), "ms");
    report.put("tcp.teardown_ms", median(&teardown_ms).unwrap_or(0.0), "ms");
    report.put("tcp.wire_bytes_per_session", mean(&wire), "bytes");
    report.put("tcp.reconnects", reconnects as f64, "count");
    report.put("tcp.deadline_timeouts", timeouts as f64, "count");
    Ok(())
}
