//! The fault-delivery rule, written once for every medium.
//!
//! The eavesdropper's [`TrafficLog`] records exactly what live senders
//! put on the wire; faults act only downstream of it, one (sender,
//! receiver) delivery at a time, through [`FaultPlan::deliver`]. A
//! crash-stopped sender transmits and logs nothing, and copies a delay
//! rule held back come out on a later send with the same round label.
//!
//! [`Wire`] owns that rule together with the plan and the log.
//! [`Wire::lockstep`] runs one exchange of every slot's payload, its crash
//! clock ticking per exchange ([`crate::sync::BroadcastNet`], the TCP
//! relay, `shs-sim`'s `SimMedium`). [`Wire::broadcast`] relays one
//! sender's message, its crash clock ticking per broadcast of that sender
//! (`shs-sim`'s per-party session). Its delay clock ticks on every
//! broadcast under the same label, from any sender: a held copy comes out
//! on the `rounds`-th such broadcast, whether that is a retransmission or
//! another slot's first send of the round. Both consume the plan's seeded
//! coins in one fixed order. What a medium does
//! beyond the rule — charge latency, build frames, shuffle — happens in
//! its per-delivery hook, which sees every decision as an [`Arrival`].

use crate::fault::FaultPlan;
use crate::observe::TrafficLog;
use crate::sync::{InterceptCtx, Interceptor, Received};

/// Where a delivered copy comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// The `n`-th copy of a fresh send (`n > 0` only under duplication).
    Fresh(usize),
    /// The `n`-th copy this call released from an earlier delay.
    Released(usize),
}

/// One delivery decision, as the per-delivery hook sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Sender slot.
    pub from_slot: usize,
    /// Receiver slot.
    pub to_slot: usize,
    /// Fresh or released copy, and its index.
    pub origin: Origin,
    /// The bytes that arrived; `None` when nothing of a live sender's
    /// send reached the receiver now (dropped, delayed or partitioned).
    pub payload: Option<Vec<u8>>,
}

/// One medium's fault-delivery state: the optional [`FaultPlan`], the
/// eavesdropper's log and the per-sender crash clock.
#[derive(Debug, Default)]
pub struct Wire {
    plan: Option<FaultPlan>,
    log: TrafficLog,
    /// Live broadcasts per sender: the crash clock of [`Wire::broadcast`].
    sent_live: Vec<u64>,
}

impl Wire {
    /// A wire under `plan` (`None` guarantees delivery).
    pub fn new(plan: Option<FaultPlan>) -> Wire {
        Wire {
            plan,
            ..Wire::default()
        }
    }

    /// Installs a fault schedule; delivery is no longer guaranteed.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// The installed fault schedule, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// The eavesdropper's log so far, fault tallies included.
    pub fn log(&self) -> &TrafficLog {
        &self.log
    }

    /// Every slot below `slots` the plan has crash-stopped.
    pub fn crashed_slots(&self, slots: usize) -> Vec<usize> {
        self.plan
            .as_ref()
            .map_or_else(Vec::new, |p| p.crashed_slots(slots))
    }

    /// Records the deliveries a medium's own flow control has shed so
    /// far in the log's tallies.
    pub fn set_backpressure_dropped(&mut self, dropped: u64) {
        let mut faults = self.log.faults().clone();
        faults.backpressure_dropped = dropped;
        self.log.set_faults(faults);
    }

    /// Runs one lockstep exchange under `round`; `outgoing[i]` is slot
    /// `i`'s payload (`None`: it sent nothing). Entry `i` of the result
    /// is slot `i`'s inbox — each live sender's copies in slot order,
    /// then the copies this exchange released — and stays empty for
    /// slots `receives` rejects, on which the plan spends no coins.
    /// `rewrite` (the man in the middle) may tamper with each
    /// per-receiver payload before the plan sees it.
    pub fn lockstep(
        &mut self,
        round: &str,
        outgoing: &[Option<Vec<u8>>],
        receives: impl Fn(usize) -> bool,
        mut rewrite: Option<&mut Interceptor<'_>>,
        mut on: impl FnMut(&Arrival),
    ) -> Vec<Vec<Received>> {
        // The fault clock advances first: it releases the copies due on
        // this (retransmission) exchange and decides which senders are dead.
        let (due, silent) = match self.plan.as_mut() {
            Some(plan) => {
                let due = plan.begin_exchange(round);
                (
                    due,
                    (0..outgoing.len()).map(|s| plan.suppress_send(s)).collect(),
                )
            }
            None => (Vec::new(), vec![false; outgoing.len()]),
        };
        let live: Vec<Option<&Vec<u8>>> = outgoing
            .iter()
            .zip(silent)
            .map(|(p, mute)| p.as_ref().filter(|_| !mute))
            .collect();
        // The eavesdropper sees every live send, before any per-receiver
        // fault touches it.
        for (slot, payload) in live.iter().enumerate() {
            if let Some(payload) = payload {
                self.log.record(round, slot, payload);
            }
        }
        let mut inboxes = vec![Vec::new(); outgoing.len()];
        for (to_slot, inbox) in inboxes.iter_mut().enumerate() {
            if !receives(to_slot) {
                continue;
            }
            inbox.reserve(outgoing.len());
            let mut emit = |a: Arrival| {
                on(&a);
                if let Some(payload) = a.payload {
                    inbox.push(Received {
                        from_slot: a.from_slot,
                        payload,
                    });
                }
            };
            for (from_slot, payload) in live.iter().enumerate() {
                let Some(payload) = payload else { continue };
                let mut payload = payload.to_vec();
                if let Some(hook) = rewrite.as_mut() {
                    hook(
                        InterceptCtx {
                            round,
                            from_slot,
                            to_slot,
                        },
                        &mut payload,
                    );
                }
                self.deliver(round, from_slot, to_slot, payload, &mut emit);
            }
            for (n, r) in due.iter().filter(|r| r.to_slot == to_slot).enumerate() {
                let (from_slot, payload) = (r.from_slot, Some(r.payload.clone()));
                let origin = Origin::Released(n);
                emit(Arrival {
                    from_slot,
                    to_slot,
                    origin,
                    payload,
                });
            }
        }
        self.sync_faults();
        inboxes
    }

    /// Relays one broadcast of `from_slot` under `round` to receivers
    /// `0..receivers`: `on` sees first the copies it releases (earlier
    /// sends of the same label held back by a delay), then the fresh
    /// copies in receiver order. Returns `false` when the sender has
    /// spent its crash-stop budget: the broadcast never reaches the wire
    /// or the log.
    pub fn broadcast(
        &mut self,
        round: &str,
        from_slot: usize,
        payload: &[u8],
        receivers: usize,
        mut on: impl FnMut(Arrival),
    ) -> bool {
        if self.sent_live.len() <= from_slot {
            self.sent_live.resize(from_slot + 1, 0);
        }
        let sent = &mut self.sent_live[from_slot];
        if let Some(plan) = self.plan.as_mut() {
            if plan
                .crash_budget(from_slot)
                .is_some_and(|b| *sent >= u64::from(b))
            {
                plan.note_crash_silenced();
                self.log.set_faults(plan.counters().clone());
                return false;
            }
        }
        *sent += 1;
        self.log.record(round, from_slot, payload);
        let due = self.plan.as_mut().map(|p| p.begin_exchange(round));
        for (n, d) in due.into_iter().flatten().enumerate() {
            let (to_slot, payload) = (d.to_slot, Some(d.payload));
            let origin = Origin::Released(n);
            on(Arrival {
                from_slot: d.from_slot,
                to_slot,
                origin,
                payload,
            });
        }
        for to_slot in 0..receivers {
            self.deliver(round, from_slot, to_slot, payload.to_vec(), &mut on);
        }
        self.sync_faults();
        true
    }

    /// One (sender, receiver) delivery through the plan.
    fn deliver(
        &mut self,
        round: &str,
        from_slot: usize,
        to_slot: usize,
        payload: Vec<u8>,
        emit: &mut impl FnMut(Arrival),
    ) {
        let arrival = |n, payload| Arrival {
            from_slot,
            to_slot,
            origin: Origin::Fresh(n),
            payload,
        };
        let Some(plan) = self.plan.as_mut() else {
            return emit(arrival(0, Some(payload)));
        };
        let copies = plan.deliver(round, from_slot, to_slot, payload);
        if copies.is_empty() {
            emit(arrival(0, None));
        }
        for (n, copy) in copies.into_iter().enumerate() {
            emit(arrival(n, Some(copy)));
        }
    }

    /// Copies the plan's authoritative tallies into the log.
    fn sync_faults(&mut self) {
        if let Some(plan) = self.plan.as_ref() {
            self.log.set_faults(plan.counters().clone());
        }
    }
}
