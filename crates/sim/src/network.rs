//! The simulated media: [`SimMedium`] (lockstep, implements [`Medium`])
//! and [`run_session`] (per-party) — the two seams through which the
//! *unmodified* handshake machine runs under virtual time.
//!
//! Both deliver through [`shs_net::wire::Wire`], the fault rule every
//! medium runs — [`Wire::lockstep`] like [`shs_net::sync::BroadcastNet`]
//! and the TCP relay for the lockstep medium, [`Wire::broadcast`] (crash
//! and delay clocks per sender broadcast) for the per-party session — so
//! [`FaultPlan`] coin order, the eavesdropper log discipline and the
//! crash clocks are the production ones by construction. What they add,
//! in the per-delivery hook, is *time*:
//! every delivery gets a seeded latency draw, collect windows and
//! patience are measured on the virtual clock, and nothing ever calls
//! `thread::sleep`.
//!
//! # Determinism
//!
//! The per-party session needs no threads: [`PartyMachine`] is sans-IO,
//! so one event loop steps every slot's machine and owns the [`Wire`].
//! Parties act in slot order at each instant, transit times are pure
//! functions of `(seed, round, from, to, sequence, copy)`, and
//! simultaneous events pop in `(time, event id)` order, so the same seed
//! gives the same trace on any host. The simulator holds no locks.

use crate::core::{nanos, EventQueue, LatencyModel, Nanos, TraceFingerprint};
use rand::RngCore;
use shs_core::handshake::machine::{PartyMachine, Poll};
use shs_core::{Actor, CoreError, HandshakeOptions, PartyOutcome};
use shs_net::fault::FaultPlan;
use shs_net::observe::TrafficLog;
use shs_net::sync::Received;
use shs_net::wire::{Arrival, Origin, Wire};
use shs_net::{Medium, NetError};
use std::time::Duration;

/// How long a lockstep exchange waits (in virtual time) for deliveries
/// that never arrive before handing the engine an incomplete view —
/// the simulated analogue of a per-round collect deadline.
pub const DEFAULT_EXCHANGE_PATIENCE: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// SimMedium: the lockstep medium under virtual time
// ---------------------------------------------------------------------------

/// A lockstep broadcast medium with virtual-time accounting: drop-in
/// for [`shs_net::sync::BroadcastNet`] (same delivery and fault
/// semantics, synchronous slot order), plus a virtual clock that
/// charges each exchange what it would have cost on a real network —
/// the maximum arrival latency when every view completed, or the full
/// exchange patience when some delivery was lost and the engine would
/// have waited out its window.
pub struct SimMedium {
    slots: usize,
    latency: LatencyModel,
    patience: Nanos,
    wire: Wire,
    now: Nanos,
    exchange_seq: u64,
    deliveries: u64,
    fingerprint: TraceFingerprint,
}

impl SimMedium {
    /// A fault-free simulated medium connecting `slots` parties.
    pub fn new(slots: usize, latency: LatencyModel) -> SimMedium {
        SimMedium {
            slots,
            latency,
            patience: nanos(DEFAULT_EXCHANGE_PATIENCE),
            wire: Wire::new(None),
            now: 0,
            exchange_seq: 0,
            deliveries: 0,
            fingerprint: TraceFingerprint::new(),
        }
    }

    /// Installs a fault schedule; delivery is no longer guaranteed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.wire.set_plan(plan);
    }

    /// Overrides the per-exchange patience window.
    pub fn set_patience(&mut self, patience: Duration) {
        self.patience = nanos(patience);
    }

    /// Virtual time elapsed on this medium.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.now)
    }

    /// Exchanges performed.
    pub fn exchanges(&self) -> u64 {
        self.exchange_seq
    }

    /// Delivery copies that arrived.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// The event-trace fingerprint accumulated so far.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.value()
    }
}

impl Medium for SimMedium {
    fn slots(&self) -> usize {
        self.slots
    }

    fn exchange(
        &mut self,
        round: &str,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<Received>>, NetError> {
        if outgoing.len() != self.slots {
            return Err(NetError::IncompleteRound);
        }
        self.exchange_seq += 1;
        let round_key = crate::core::fnv1a(round.as_bytes());
        let outgoing: Vec<Option<Vec<u8>>> = outgoing.into_iter().map(Some).collect();
        let mut max_arrival: Nanos = 0;
        let mut complete = true;
        let seq = self.exchange_seq;
        let on_arrival = |a: &Arrival| {
            // A lost delivery leaves its receiver's view short: the
            // engine side would wait out the patience window.
            let Some(payload) = &a.payload else {
                complete = false;
                return;
            };
            let (from, to) = (a.from_slot, a.to_slot);
            let lat = match a.origin {
                Origin::Fresh(n) => {
                    let lat = self.latency.draw(round, from, to, seq, n as u64);
                    let len = payload.len() as u64;
                    self.fingerprint
                        .fold(&[round_key, from as u64, to as u64, len, lat]);
                    lat
                }
                Origin::Released(_) => {
                    let lat = self.latency.draw(round, from, to, seq, 0x8000);
                    self.fingerprint
                        .fold(&[round_key, from as u64, to as u64, lat]);
                    lat
                }
            };
            max_arrival = max_arrival.max(lat);
            self.deliveries += 1;
        };
        let inboxes = self
            .wire
            .lockstep(round, &outgoing, |_| true, None, on_arrival);
        // Charge the exchange its virtual cost.
        let cost = if complete {
            max_arrival
        } else {
            self.patience.max(max_arrival)
        };
        self.now = self.now.saturating_add(cost);
        self.fingerprint
            .fold(&[round_key, self.exchange_seq, cost, u64::from(complete)]);
        Ok(inboxes)
    }

    fn traffic_snapshot(&self) -> TrafficLog {
        self.wire.log().clone()
    }

    fn crashed_slots(&self) -> Vec<usize> {
        self.wire.crashed_slots(self.slots)
    }
}

// ---------------------------------------------------------------------------
// The per-party session under virtual time
// ---------------------------------------------------------------------------

/// A delivery in flight: scheduled on the event queue, lands with the
/// receiver at its arrival time.
struct Delivery {
    to: usize,
    from: usize,
    round: String,
    payload: Vec<u8>,
}

/// One party of a per-party session: its machine, its own randomness,
/// and its side of the network.
struct Seat<'a, 'r> {
    machine: PartyMachine<'a>,
    rng: &'r mut dyn RngCore,
    /// Collect deadline of the open round's current attempt; `None`
    /// while the party is running local stages (or done).
    deadline: Option<Nanos>,
    /// Broadcasts so far: the sequence key of the latency draws.
    sent: u64,
    /// Deliveries of rounds this party has not opened yet. Under
    /// virtual latency a fast party's next-round broadcast can overtake
    /// a slow delivery; dropping it would turn a guaranteed-delivery run
    /// lossy.
    mailbox: Vec<(String, usize, Vec<u8>)>,
    /// The wire crash-silenced one of this party's broadcasts.
    silenced: bool,
    done: bool,
}

/// The shared medium of a per-party session: the fault-delivery rule,
/// the virtual clock and the in-flight deliveries.
struct Net {
    m: usize,
    now: Nanos,
    timeout: Nanos,
    wire: Wire,
    queue: EventQueue<Delivery>,
    latency: LatencyModel,
    fingerprint: TraceFingerprint,
    /// Monotone event id, the queue tiebreak for simultaneous events.
    eid: u64,
}

impl Net {
    /// Broadcasts the party's open-round payload through
    /// [`Wire::broadcast`] (per-sender crash clock, eavesdropper log,
    /// released delayed copies, per-receiver faulting),
    /// scheduling every copy that arrives, and starts its collect window.
    fn send(&mut self, slot: usize, seat: &mut Seat<'_, '_>) {
        let (seq, round) = (seat.sent, seat.machine.label().to_string());
        seat.sent += 1;
        let payload = seat.machine.payload();
        let (queue, latency, eid, now) = (&mut self.queue, &self.latency, &mut self.eid, self.now);
        let live = self.wire.broadcast(&round, slot, payload, self.m, |a| {
            let Some(payload) = a.payload else { return };
            let copy = match a.origin {
                Origin::Fresh(n) => n as u64,
                Origin::Released(n) => 0x8000 + n as u64,
            };
            let lat = latency.draw(&round, a.from_slot, a.to_slot, seq, copy);
            *eid += 1;
            let delivery = Delivery {
                to: a.to_slot,
                from: a.from_slot,
                round: round.clone(),
                payload,
            };
            queue.push(now.saturating_add(lat), *eid, delivery);
        });
        if live {
            let round_key = crate::core::fnv1a(round.as_bytes());
            let len = payload.len() as u64;
            self.fingerprint.fold(&[round_key, slot as u64, seq, len]);
        } else {
            seat.silenced = true;
        }
        seat.deadline = Some(self.now.saturating_add(self.timeout));
    }
}

/// Everything a simulated per-party session produced.
#[derive(Debug)]
pub struct SimSessionReport {
    /// Per-slot results, as [`shs_core::handshake::party::run_party`]
    /// reports them (transport counters are zero).
    pub outputs: Vec<PartyOutcome>,
    /// The eavesdropper's log (carries the fault tallies).
    pub traffic: TrafficLog,
    /// Virtual time the session spanned.
    pub elapsed: Duration,
    /// The deterministic event-trace fingerprint.
    pub fingerprint: u64,
}

/// Runs a handshake among `actors`, each slot a per-party
/// [`PartyMachine`] drawing from its own entry of `rngs`, over the
/// simulated medium — the virtual-time analogue of one thread per slot
/// driving [`shs_core::handshake::party::run_party`] over a TCP relay:
/// the same transcript under an empty plan (guaranteed delivery), the
/// same fault vocabulary under a non-empty one, but each round's
/// `collect_timeout` is virtual and the whole session runs on the
/// calling thread with zero wall-clock sleeps.
///
/// One event loop owns every machine and the [`Wire`]. Parties run their
/// local stages in slot order at each instant; then every party whose
/// view completed or whose collect window closed settles; only when none
/// can move does virtual time advance, to the next delivery or the
/// earliest deadline. A slot the wire crash-silenced ends
/// [`shs_core::AbortReason::Crashed`], as in the lockstep driver.
///
/// # Errors
///
/// [`CoreError::BadSession`] unless `rngs` has one entry per actor (and
/// the session has at least two slots).
pub fn run_session<'a, R: RngCore>(
    actors: &'a [Actor<'a>],
    opts: &HandshakeOptions,
    plan: FaultPlan,
    latency: LatencyModel,
    collect_timeout: Duration,
    rngs: &mut [R],
) -> Result<SimSessionReport, CoreError> {
    let m = actors.len();
    if rngs.len() != m {
        return Err(CoreError::BadSession);
    }
    let mut seats = Vec::with_capacity(m);
    for (slot, (actor, rng)) in actors.iter().zip(rngs.iter_mut()).enumerate() {
        let rng: &mut dyn RngCore = rng;
        seats.push(Seat {
            machine: PartyMachine::new(actor, slot, m, opts, rng)?,
            rng,
            deadline: None,
            sent: 0,
            mailbox: Vec::new(),
            silenced: false,
            done: false,
        });
    }
    let mut net = Net {
        m,
        now: 0,
        timeout: nanos(collect_timeout),
        wire: Wire::new(Some(plan)),
        queue: EventQueue::new(),
        latency,
        fingerprint: TraceFingerprint::new(),
        eid: 0,
    };
    loop {
        let mut moved = false;
        for (slot, seat) in seats.iter_mut().enumerate() {
            if seat.done {
                continue;
            }
            match seat.deadline {
                None => {
                    moved = true;
                    match seat.machine.step(seat.rng)? {
                        Poll::Continue => {}
                        Poll::Done => seat.done = true,
                        Poll::Exchange => {
                            net.send(slot, seat);
                            let label = seat.machine.label().to_string();
                            for (round, from, payload) in std::mem::take(&mut seat.mailbox) {
                                if round == label {
                                    seat.machine.receive(from, &payload);
                                } else {
                                    seat.mailbox.push((round, from, payload));
                                }
                            }
                        }
                    }
                }
                Some(deadline) => {
                    let complete = seat.machine.view_complete();
                    if complete || net.now >= deadline {
                        moved = true;
                        seat.deadline = None;
                        if seat.machine.settle(complete) {
                            net.send(slot, seat);
                        }
                    }
                }
            }
        }
        if moved {
            continue;
        }
        // Every unfinished party now waits on its collect window: advance
        // to the next delivery, or to the earliest deadline before it.
        let deadline = seats.iter().filter_map(|s| s.deadline).min();
        match (net.queue.peek_time(), deadline) {
            (_, None) => break, // every party is done
            (Some(t), Some(d)) if t <= d => {
                let Some((t, delivery)) = net.queue.pop() else {
                    break;
                };
                net.now = net.now.max(t);
                let (from, to) = (delivery.from, delivery.to);
                let len = delivery.payload.len() as u64;
                net.fingerprint.fold(&[t, from as u64, to as u64, len]);
                let Some(seat) = seats.get_mut(to).filter(|s| !s.done) else {
                    continue;
                };
                if seat.deadline.is_some() && seat.machine.label() == delivery.round {
                    seat.machine.receive(from, &delivery.payload);
                } else {
                    seat.mailbox.push((delivery.round, from, delivery.payload));
                }
            }
            (_, Some(d)) => net.now = net.now.max(d),
        }
    }
    Ok(SimSessionReport {
        outputs: seats
            .into_iter()
            .map(|s| s.machine.into_outcome(s.silenced))
            .collect(),
        traffic: net.wire.log().clone(),
        elapsed: Duration::from_nanos(net.now),
        fingerprint: net.fingerprint.value(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shs_core::{AbortReason, Member, SchemeKind};
    use shs_crypto::drbg::HmacDrbg;
    use shs_net::fault::FaultRule;

    fn members(n: usize) -> Vec<Member> {
        let mut rng = HmacDrbg::from_seed(b"sim-network-members");
        shs_core::fixtures::group_with_members(SchemeKind::Scheme1, n, &mut rng)
            .unwrap()
            .1
    }

    fn session(members: &[Member], plan: FaultPlan, latency: LatencyModel) -> SimSessionReport {
        let actors: Vec<Actor<'_>> = members.iter().map(Actor::Member).collect();
        let mut rngs: Vec<HmacDrbg> = (0..members.len())
            .map(|i| HmacDrbg::from_seed(format!("sim-network-party-{i}").as_bytes()))
            .collect();
        let opts = HandshakeOptions::default();
        let collect = Duration::from_millis(50);
        run_session(&actors, &opts, plan, latency, collect, &mut rngs).unwrap()
    }

    #[test]
    fn every_view_completes_in_virtual_time() {
        let members = members(4);
        let started = std::time::Instant::now();
        let report = session(&members, FaultPlan::new(1), LatencyModel::lan(2));
        for (slot, party) in report.outputs.iter().enumerate() {
            let o = &party.outcome;
            assert!(o.accepted, "slot {slot}");
            assert_eq!(o.same_group_slots, vec![0, 1, 2, 3], "slot {slot}");
            assert_eq!(o.verified_slots, vec![0, 1, 2, 3], "slot {slot}");
            assert_eq!(party.stats.retries, 0, "slot {slot}: no view came up short");
        }
        assert_eq!(report.traffic.len(), 4 * 4, "four rounds, four senders");
        assert!(
            report.elapsed >= Duration::from_micros(4 * 200),
            "latency charged"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "virtual waiting, not wall waiting"
        );
    }

    #[test]
    fn same_seed_same_trace() {
        let members = members(3);
        let run = || {
            let report = session(
                &members,
                FaultPlan::new(9).with(FaultRule::drop().with_probability(0.4)),
                LatencyModel::lan(5),
            );
            (report.fingerprint, report.elapsed, report.traffic)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "fingerprint");
        assert_eq!(a.1, b.1, "elapsed");
        assert_eq!(a.2, b.2, "traffic log");
    }

    #[test]
    fn dropped_delivery_times_out_the_collector() {
        let members = members(2);
        let report = session(
            &members,
            FaultPlan::new(3).with(FaultRule::drop().from(1).to(0)),
            LatencyModel::lan(4),
        );
        let short = &report.outputs[0];
        assert_eq!(
            short.outcome.abort,
            Some(AbortReason::KeyAgreement),
            "slot 0 never got slot 1's key-agreement message"
        );
        assert!(short.stats.retries > 0, "slot 0 waited out its windows");
        assert!(report.traffic.faults().dropped >= 1);
    }

    #[test]
    fn crash_stop_silences_the_sender_after_its_budget() {
        let members = members(3);
        let report = session(
            &members,
            FaultPlan::new(6).with(FaultRule::crash_stop(2, 1)),
            LatencyModel::lan(7),
        );
        let from_2 = report
            .traffic
            .records()
            .iter()
            .filter(|r| r.from_slot == 2)
            .count();
        assert_eq!(from_2, 1, "slot 2 reached the wire once, then died");
        assert!(report.traffic.faults().crash_silenced >= 1);
        assert_eq!(report.outputs[2].outcome.abort, Some(AbortReason::Crashed));
        for survivor in &report.outputs[..2] {
            assert!(!survivor.outcome.accepted);
            assert!(
                survivor.outcome.abort.is_some(),
                "slot 2's round 2 never came"
            );
        }
    }

    #[test]
    fn duplicated_deliveries_are_collected_once() {
        let members = members(3);
        let report = session(
            &members,
            FaultPlan::new(4).with(FaultRule::duplicate()),
            LatencyModel::lan(8),
        );
        let key = report.outputs[0].outcome.session_key.clone();
        assert!(key.is_some());
        for (slot, party) in report.outputs.iter().enumerate() {
            assert!(party.outcome.accepted, "slot {slot}");
            assert_eq!(party.outcome.session_key, key, "slot {slot}: one key");
        }
        assert!(report.traffic.faults().duplicated >= 1);
    }

    /// The per-sender delay clock ticks on any broadcast under the held
    /// copy's label: slot 1's first-round copy to slot 0 comes out with
    /// slot 2's first send of that round, not with a retransmission.
    #[test]
    fn delayed_copy_is_released_by_the_next_same_label_send() {
        let members = members(3);
        let report = session(
            &members,
            FaultPlan::new(5).with(FaultRule::delay(1).from(1).to(0).at_most(1)),
            LatencyModel::lan(9),
        );
        for (slot, party) in report.outputs.iter().enumerate() {
            assert!(party.outcome.accepted, "slot {slot}");
            assert_eq!(party.stats.retries, 0, "slot {slot}: no retransmission");
        }
        let faults = report.traffic.faults();
        assert_eq!((faults.delayed, faults.redelivered), (1, 1));
    }

    #[test]
    fn sim_medium_matches_broadcast_net_on_the_same_plan() {
        use shs_net::sync::BroadcastNet;
        use shs_net::DeliveryPolicy;
        let payloads: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 8]).collect();
        let plan = || {
            FaultPlan::new(11)
                .with(FaultRule::drop().with_probability(0.5))
                .with(FaultRule::duplicate().in_round("r2"))
        };
        let mut real = BroadcastNet::new(3, DeliveryPolicy::Synchronous);
        real.set_fault_plan(plan());
        let mut sim = SimMedium::new(3, LatencyModel::lan(1));
        sim.set_fault_plan(plan());
        for round in ["r1", "r2", "r1"] {
            let a = real.exchange(round, payloads.clone()).unwrap();
            let b = Medium::exchange(&mut sim, round, payloads.clone()).unwrap();
            assert_eq!(a, b, "round {round}");
        }
        assert_eq!(
            real.traffic_snapshot(),
            sim.traffic_snapshot(),
            "same log, same fault tallies"
        );
        assert!(sim.elapsed() > Duration::ZERO);
    }
}
