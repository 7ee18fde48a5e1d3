//! Wrappers the benchmark puts between the handshake engine and its
//! medium: a fixed link delay per broadcast exchange (the network a
//! worker waits on) and, when tracing, one span per exchange.

use crate::trace::{phase_of, within, Tracer};
use shs_net::observe::TrafficLog;
use shs_net::sync::Received;
use shs_net::{Medium, NetError, TransportCounters};
use std::time::Duration;

/// Span name of an exchange in phase `p`.
pub fn exchange_name(p: usize) -> &'static str {
    match p {
        1 => "exchange.p1",
        2 => "exchange.p2",
        _ => "exchange.p3",
    }
}

/// Span name of the injected link delay (child of an exchange span).
pub const LINK_WAIT: &str = "link_wait";

/// Exchange/retry counts of one handshake run, as the wrapper saw them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeCounts {
    /// Broadcast exchanges (base rounds plus retransmissions).
    pub exchanges: u32,
    /// Exchanges that repeated the previous round label.
    pub retries: u32,
}

impl ExchangeCounts {
    fn note(&mut self, round: &str, last: &mut String) {
        self.exchanges += 1;
        if round == last {
            self.retries += 1;
        }
        last.clear();
        last.push_str(round);
    }
}

/// A lockstep [`Medium`] that sleeps `delay` before every exchange and
/// records exchange spans under `parent`.
pub struct LinkMedium<'t, M> {
    inner: M,
    delay: Duration,
    tracer: Option<&'t Tracer>,
    session: u64,
    parent: Option<u64>,
    counts: ExchangeCounts,
    last: String,
}

impl<'t, M: Medium> LinkMedium<'t, M> {
    /// Wraps `inner`.
    pub fn new(
        inner: M,
        delay: Duration,
        tracer: Option<&'t Tracer>,
        session: u64,
        parent: Option<u64>,
    ) -> Self {
        LinkMedium {
            inner,
            delay,
            tracer,
            session,
            parent,
            counts: ExchangeCounts::default(),
            last: String::new(),
        }
    }

    /// Exchanges seen so far.
    pub fn counts(&self) -> ExchangeCounts {
        self.counts
    }
}

impl<M: Medium> Medium for LinkMedium<'_, M> {
    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn exchange(
        &mut self,
        round: &str,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<Received>>, NetError> {
        self.counts.note(round, &mut self.last);
        let (tracer, session, delay) = (self.tracer, self.session, self.delay);
        let inner = &mut self.inner;
        within(
            tracer,
            exchange_name(phase_of(round)),
            session,
            self.parent,
            |id| {
                if !delay.is_zero() {
                    within(tracer, LINK_WAIT, session, id, |_| {
                        std::thread::sleep(delay)
                    });
                }
                inner.exchange(round, outgoing)
            },
        )
    }

    fn traffic_snapshot(&self) -> TrafficLog {
        self.inner.traffic_snapshot()
    }

    fn crashed_slots(&self) -> Vec<usize> {
        self.inner.crashed_slots()
    }

    fn transport_counters(&self) -> TransportCounters {
        self.inner.transport_counters()
    }
}
