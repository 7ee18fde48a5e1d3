//! The broadcast relay: bridges framed TCP connections into lockstep
//! exchanges, with fault injection at the framing boundary.
//!
//! One relay hosts one session of `slots` parties. Parties attach with
//! a `Hello`/`Welcome` exchange (the seat roster supports re-attachment
//! after a lost connection), then every `Broadcast` frame they send is
//! gathered into per-round batches. When a batch is complete — or the
//! round deadline expires after its first frame — the relay runs one
//! *exchange* through [`Wire::lockstep`], the same fault-delivery rule
//! [`crate::sync::BroadcastNet`] runs, with the [`FaultPlan`] at the
//! framing boundary: crash-stopped senders go silent, the
//! eavesdropper's log records what each live sender put on the wire,
//! and frames in flight may then be dropped, duplicated, corrupted,
//! truncated, delayed to a later matching exchange, or cut by a
//! partition. Each live seat's inbox ships as `Broadcast` frames
//! followed by one `RoundEnd`; seats that vanished are masked out as
//! receivers, so the plan spends no coins on them.
//!
//! Because parties retransmit independently in the distributed setting,
//! the relay keeps each seat's **last payload per round label** and
//! fills it in for live seats that have not re-sent when a
//! retransmission exchange fires: every exchange carries one payload
//! per live slot, so retransmissions stay shape-uniform on the wire
//! exactly as the lockstep engine's all-slots-retransmit rule
//! guarantees in-process. A retransmission exchange fires on the first
//! fresh frame; a stood-in seat's own copy of the same send, still in
//! flight then, is absorbed when it arrives instead of firing one more
//! exchange, so a lockstep retransmission of all slots is one exchange
//! here too.
//!
//! A receiver that stops draining its socket past the write deadline
//! cannot wedge the relay: the relay aborts that seat's connection and
//! retires the seat, as if it had vanished, and tallies the frames it
//! could not finish writing as
//! [`crate::observe::FaultCounters::backpressure_dropped`]. The seat is
//! not kept on, because a timed-out write may already have put part of a
//! frame on the socket; anything written after it would reach the
//! receiver as a torn stream. The stalled party reads the whole frames
//! that did arrive, then a disconnect, and may re-attach to its seat.

use crate::fault::FaultPlan;
use crate::observe::TrafficLog;
use crate::tcp::conn::{ConnConfig, FramedConn};
use crate::tcp::frame::{Frame, VERSION};
use crate::wire::Wire;
use crate::{NetError, TransportCounters};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Tuning of one relay-hosted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayConfig {
    /// Number of party seats.
    pub slots: usize,
    /// An exchange fires this long after its first frame even if some
    /// live seat has not contributed (desynchronized parties; the seat's
    /// cached payload for the label stands in when it exists).
    pub round_deadline: Duration,
    /// How long to wait for all seats to attach before starting with
    /// whoever came (absent seats count as vanished).
    pub gather_deadline: Duration,
    /// Reader idle detection: a seat silent for this long (no frames,
    /// no heartbeats) is declared gone.
    pub idle_timeout: Duration,
    /// Deadlines of every accepted connection.
    pub conn: ConnConfig,
}

impl RelayConfig {
    /// Defaults for a session of `slots` parties.
    pub fn new(slots: usize) -> RelayConfig {
        RelayConfig {
            slots,
            round_deadline: Duration::from_secs(2),
            gather_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            conn: ConnConfig::default(),
        }
    }
}

/// Seat occupancy in the attachment roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seat {
    Free,
    Taken,
    /// Previously taken, connection lost — eligible for re-attachment.
    Gone,
}

enum Event {
    Attached {
        slot: usize,
        writer: FramedConn,
    },
    Frame {
        slot: usize,
        round: String,
        payload: Vec<u8>,
    },
    Gone {
        slot: usize,
        graceful: bool,
    },
}

#[derive(Default)]
struct Shared {
    log: TrafficLog,
    crashed: Vec<usize>,
    counters: TransportCounters,
    done: bool,
}

/// A bound, running relay. Dropping the handle stops the relay and
/// joins its threads.
pub struct RelayHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Mutex<Shared>>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    core_thread: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RelayHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RelayHandle {{ addr: {} }}", self.addr)
    }
}

impl RelayHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts relaying a session
    /// per `config`, with `plan` injected at the framing boundary.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the listener cannot bind.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: RelayConfig,
        plan: Option<FaultPlan>,
    ) -> Result<RelayHandle, NetError> {
        let listener = TcpListener::bind(addr).map_err(|_| NetError::Disconnected)?;
        let local = listener.local_addr().map_err(|_| NetError::Disconnected)?;
        listener
            .set_nonblocking(true)
            .map_err(|_| NetError::Disconnected)?;

        let shared = Arc::new(Mutex::new(Shared::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let roster = Arc::new(Mutex::new(vec![Seat::Free; config.slots]));
        // Events: frames from every reader plus attach/gone notices.
        // Bounded so a flooding sender backpressures at its socket.
        let (tx, rx) = bounded::<Event>(1024);

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            let roster = Arc::clone(&roster);
            thread::spawn(move || accept_loop(&listener, &config, &stop, &tx, &roster))
        };
        drop(tx);
        let core_thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let roster = Arc::clone(&roster);
            thread::spawn(move || core_loop(config, plan, &rx, &shared, &stop, &roster))
        };

        Ok(RelayHandle {
            addr: local,
            shared,
            stop,
            accept_thread: Some(accept_thread),
            core_thread: Some(core_thread),
        })
    }

    /// The bound address (query it after binding port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Snapshot of the eavesdropper's log so far.
    pub fn traffic(&self) -> TrafficLog {
        self.shared.lock().log.clone()
    }

    /// Seats currently considered crash-stopped: fault-plan crashes plus
    /// seats that vanished without a graceful `Bye`.
    pub fn crashed_slots(&self) -> Vec<usize> {
        self.shared.lock().crashed.clone()
    }

    /// Relay-side transport counters.
    pub fn counters(&self) -> TransportCounters {
        self.shared.lock().counters
    }

    /// Has the session completed (every attached seat said `Bye` or
    /// vanished)?
    pub fn done(&self) -> bool {
        self.shared.lock().done
    }

    /// Blocks until the session completes or `timeout` expires; returns
    /// whether it completed.
    pub fn wait_done(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.done() {
                return true;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.done()
    }

    /// Stops the relay and joins its threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.core_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RelayHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    config: &RelayConfig,
    stop: &AtomicBool,
    tx: &Sender<Event>,
    roster: &Mutex<Vec<Seat>>,
) {
    let mut readers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if let Some(handle) = admit(stream, config, tx, roster) {
                    readers.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for r in readers {
        let _ = r.join();
    }
}

/// Runs the hello exchange on a fresh connection and, on success,
/// spawns its reader thread. Refused connections get a `Bye`.
fn admit(
    stream: std::net::TcpStream,
    config: &RelayConfig,
    tx: &Sender<Event>,
    roster: &Mutex<Vec<Seat>>,
) -> Option<thread::JoinHandle<()>> {
    let mut conn = FramedConn::new(stream, config.conn).ok()?;
    let hello = conn.recv_within(Duration::from_secs(2)).ok()?;
    let Frame::Hello { version, want_slot } = hello else {
        let _ = conn.send(&Frame::Bye);
        return None;
    };
    if version != VERSION {
        let _ = conn.send(&Frame::Bye);
        return None;
    }
    let slot = {
        let mut seats = roster.lock();
        let want = (want_slot != u32::MAX).then_some(want_slot as usize);
        let granted = match want {
            Some(s) => seats
                .get(s)
                .is_some_and(|seat| *seat != Seat::Taken)
                .then_some(s),
            None => seats.iter().position(|seat| *seat == Seat::Free),
        };
        match granted {
            Some(s) => {
                if let Some(seat) = seats.get_mut(s) {
                    *seat = Seat::Taken;
                }
                s
            }
            None => {
                drop(seats);
                let _ = conn.send(&Frame::Bye);
                return None;
            }
        }
    };
    if conn
        .send(&Frame::Welcome {
            slot: slot as u32,
            slots: config.slots as u32,
        })
        .is_err()
    {
        if let Some(seat) = roster.lock().get_mut(slot) {
            *seat = Seat::Gone;
        }
        return None;
    }
    let writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => {
            if let Some(seat) = roster.lock().get_mut(slot) {
                *seat = Seat::Gone;
            }
            return None;
        }
    };
    if tx.send(Event::Attached { slot, writer }).is_err() {
        return None;
    }
    let tx = tx.clone();
    let idle = config.idle_timeout;
    Some(thread::spawn(move || reader_loop(conn, slot, idle, &tx)))
}

/// Reads one seat's connection until `Bye`, disconnect, idle timeout or
/// a malformed frame; forwards broadcasts, swallows heartbeats.
fn reader_loop(mut conn: FramedConn, slot: usize, idle: Duration, tx: &Sender<Event>) {
    let graceful = loop {
        match conn.recv_within(idle) {
            Ok(Frame::Broadcast { round, payload, .. }) => {
                if tx
                    .send(Event::Frame {
                        slot,
                        round,
                        payload,
                    })
                    .is_err()
                {
                    break false;
                }
            }
            Ok(Frame::Heartbeat) => {}
            Ok(Frame::Bye) => break true,
            // Hello/Welcome/RoundEnd from a client are protocol abuse;
            // a frame error means the stream desynchronized. Both end
            // the seat.
            Ok(_) => break false,
            // One full idle window with no traffic at all: declare the
            // seat dead rather than blocking forever.
            Err(_) => break false,
        }
    };
    let _ = tx.send(Event::Gone { slot, graceful });
}

/// Cap on frames parked for future exchanges; beyond it the oldest are
/// shed like any other backpressure loss.
const STASH_CAP: usize = 1024;

struct CoreState {
    m: usize,
    alive: Vec<bool>,
    /// Seats that attached at least once (a seat that attached and then
    /// left gracefully is done, not crashed).
    ever_attached: Vec<bool>,
    /// Seats that disappeared without a graceful `Bye`.
    vanished: Vec<bool>,
    writers: Vec<Option<FramedConn>>,
    /// Last payload each seat sent per round label (stand-in for
    /// retransmission exchanges the seat did not re-send into).
    cache: Vec<HashMap<String, Vec<u8>>>,
    /// Frames waiting for a later exchange (other labels, duplicates).
    stash: VecDeque<(usize, String, Vec<u8>)>,
    /// Per seat, the label whose cached payload stood in for it in the
    /// last exchange, until the seat's next frame. That frame, when it
    /// repeats the cached payload, is the seat's own copy of the send the
    /// exchange already carried (still in flight when it fired), and is
    /// absorbed rather than firing a second exchange.
    stood_in: Vec<Option<String>>,
    wire: Wire,
    bp_dropped: u64,
}

impl CoreState {
    fn apply(&mut self, ev: Event, roster: &Mutex<Vec<Seat>>) {
        match ev {
            Event::Attached { slot, writer } => {
                if let (Some(w), Some(a)) = (self.writers.get_mut(slot), self.alive.get_mut(slot)) {
                    *w = Some(writer);
                    *a = true;
                }
                if let Some(e) = self.ever_attached.get_mut(slot) {
                    *e = true;
                }
                if let Some(v) = self.vanished.get_mut(slot) {
                    *v = false;
                }
                // What a re-attached seat sends next makes up for its lost
                // connection; none of it is an in-flight copy to absorb.
                if let Some(stood_in) = self.stood_in.get_mut(slot) {
                    *stood_in = None;
                }
            }
            Event::Frame {
                slot,
                round,
                payload,
            } => {
                let stood_in = self.stood_in.get_mut(slot).and_then(Option::take);
                let cached = self.cache.get(slot).and_then(|c| c.get(&round));
                if stood_in.as_ref() == Some(&round) && cached == Some(&payload) {
                    return;
                }
                if slot < self.m {
                    if self.stash.len() >= STASH_CAP {
                        self.stash.pop_front();
                        self.bp_dropped += 1;
                    }
                    self.stash.push_back((slot, round, payload));
                }
            }
            Event::Gone { slot, graceful } => {
                if let Some(a) = self.alive.get_mut(slot) {
                    *a = false;
                }
                if !graceful {
                    if let Some(v) = self.vanished.get_mut(slot) {
                        *v = true;
                    }
                }
                if let Some(w) = self.writers.get_mut(slot) {
                    if let Some(conn) = w.as_mut() {
                        conn.abort();
                    }
                    *w = None;
                }
                if let Some(seat) = roster.lock().get_mut(slot) {
                    *seat = Seat::Gone;
                }
            }
        }
    }

    fn any_alive(&self) -> bool {
        self.alive.iter().any(|&a| a)
    }

    /// All currently crashed seats: fault-plan crashes plus vanished
    /// connections.
    fn crashed(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.wire.crashed_slots(self.m);
        for (s, v) in self.vanished.iter().enumerate() {
            if *v && !out.contains(&s) {
                out.push(s);
            }
        }
        out.sort_unstable();
        out
    }

    fn publish(&self, shared: &Mutex<Shared>, done: bool) {
        let mut sh = shared.lock();
        sh.log = self.wire.log().clone();
        // lint:allow(lock-order) reason="crashed() reaches Wire::crashed_slots, which holds no lock; the analyzer's name-based resolution lands on RelayHandle::crashed_slots (which locks shared) instead"
        sh.crashed = self.crashed();
        sh.done = done;
    }

    /// Runs one exchange over `batch` (fresh frames per seat) through
    /// [`Wire::lockstep`], the rule `BroadcastNet::exchange` runs too,
    /// with vanished seats masked out as receivers. The log is published
    /// before any frame ships, so a party that has its inbox can read a
    /// log that already holds the exchange.
    fn run_exchange(
        &mut self,
        label: &str,
        mut batch: Vec<Option<Vec<u8>>>,
        shared: &Mutex<Shared>,
    ) {
        // Live seats that did not re-send: their cached payload for this
        // label stands in, keeping retransmissions all-slots-uniform.
        for (s, cell) in batch.iter_mut().enumerate() {
            if cell.is_none() && self.alive.get(s).copied().unwrap_or(false) {
                if let Some(p) = self.cache.get(s).and_then(|c| c.get(label)) {
                    *cell = Some(p.clone());
                    if let Some(stood_in) = self.stood_in.get_mut(s) {
                        *stood_in = Some(label.to_string());
                    }
                }
            }
        }
        let alive = &self.alive;
        let inboxes = self.wire.lockstep(
            label,
            &batch,
            |to| alive.get(to).copied().unwrap_or(false),
            None,
            |_| {},
        );
        self.publish(shared, false);
        for (to, inbox) in inboxes.into_iter().enumerate() {
            if !self.alive.get(to).copied().unwrap_or(false) {
                continue;
            }
            let mut outbox: Vec<Frame> = inbox
                .into_iter()
                .map(|r| Frame::Broadcast {
                    round: label.to_string(),
                    from_slot: r.from_slot as u32,
                    payload: r.payload,
                })
                .collect();
            outbox.push(Frame::RoundEnd {
                round: label.to_string(),
            });
            self.ship(to, &outbox);
        }
        // Fresh frames update the retransmission cache.
        for (s, payload) in batch.into_iter().enumerate() {
            if let (Some(p), Some(c)) = (payload, self.cache.get_mut(s)) {
                c.insert(label.to_string(), p);
            }
        }
        if self.bp_dropped > 0 {
            self.wire.set_backpressure_dropped(self.bp_dropped);
        }
    }

    /// Writes an outbox to one seat. A disconnect retires the seat. So
    /// does a write deadline, after aborting the connection: the timed-out
    /// write may have left part of a frame on the socket, so nothing more
    /// can follow it. The frames not fully written are shed (backpressure;
    /// the receiver's collect deadline and the session budget absorb the
    /// loss).
    fn ship(&mut self, to: usize, outbox: &[Frame]) {
        let Some(Some(conn)) = self.writers.get_mut(to) else {
            return;
        };
        for (sent, frame) in outbox.iter().enumerate() {
            match conn.send(frame) {
                Ok(()) => {}
                Err(e) => {
                    if e == NetError::Timeout {
                        conn.abort();
                        self.bp_dropped += (outbox.len() - sent) as u64;
                    }
                    if let Some(a) = self.alive.get_mut(to) {
                        *a = false;
                    }
                    if let Some(v) = self.vanished.get_mut(to) {
                        *v = true;
                    }
                    if let Some(w) = self.writers.get_mut(to) {
                        *w = None;
                    }
                    return;
                }
            }
        }
    }
}

fn core_loop(
    config: RelayConfig,
    plan: Option<FaultPlan>,
    rx: &Receiver<Event>,
    shared: &Mutex<Shared>,
    stop: &AtomicBool,
    roster: &Mutex<Vec<Seat>>,
) {
    let m = config.slots;
    let mut st = CoreState {
        m,
        alive: vec![false; m],
        ever_attached: vec![false; m],
        vanished: vec![false; m],
        writers: (0..m).map(|_| None).collect(),
        cache: vec![HashMap::new(); m],
        stood_in: vec![None; m],
        stash: VecDeque::new(),
        wire: Wire::new(plan),
        bp_dropped: 0,
    };

    // ---- Gather: wait for the seats to attach --------------------------
    let gather_deadline = Instant::now() + config.gather_deadline;
    while st.ever_attached.iter().filter(|&&e| e).count() < m && !stop.load(Ordering::SeqCst) {
        let left = gather_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match rx.recv_timeout(left.min(Duration::from_millis(50))) {
            Ok(ev) => st.apply(ev, roster),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Seats that never showed up before the gather deadline count as
    // crash-stopped; seats that attached and already left are judged by
    // how they left (the `Gone` event).
    for s in 0..m {
        if !st.ever_attached.get(s).copied().unwrap_or(false) {
            if let Some(v) = st.vanished.get_mut(s) {
                *v = true;
            }
        }
    }
    st.publish(shared, !st.any_alive());

    // ---- Exchange loop -------------------------------------------------
    'session: while st.any_alive() && !stop.load(Ordering::SeqCst) {
        // Assemble one exchange: a label plus fresh frames per seat.
        let mut label: Option<String> = None;
        let mut batch: Vec<Option<Vec<u8>>> = vec![None; m];
        let mut first_at: Option<Instant> = None;

        loop {
            // Fold parked frames in first.
            let mut parked = std::mem::take(&mut st.stash);
            while let Some((s, l, p)) = parked.pop_front() {
                match &label {
                    None => {
                        label = Some(l);
                        first_at = Some(Instant::now());
                        if let Some(cell) = batch.get_mut(s) {
                            *cell = Some(p);
                        }
                    }
                    Some(cur) if *cur == l && batch.get(s).is_some_and(Option::is_none) => {
                        if let Some(cell) = batch.get_mut(s) {
                            *cell = Some(p);
                        }
                    }
                    _ => st.stash.push_back((s, l, p)),
                }
            }

            if let Some(l) = &label {
                let complete = (0..m).all(|s| {
                    !st.alive.get(s).copied().unwrap_or(false)
                        || batch.get(s).is_some_and(Option::is_some)
                        || st.cache.get(s).is_some_and(|c| c.contains_key(l))
                });
                let expired = first_at.is_some_and(|t| t.elapsed() >= config.round_deadline);
                if complete || expired {
                    break;
                }
            }
            if !st.any_alive() {
                break 'session;
            }
            if stop.load(Ordering::SeqCst) {
                break 'session;
            }
            let wait = first_at.map_or(Duration::from_millis(100), |t| {
                config
                    .round_deadline
                    .saturating_sub(t.elapsed())
                    .min(Duration::from_millis(100))
                    .max(Duration::from_millis(1))
            });
            match rx.recv_timeout(wait) {
                Ok(ev) => st.apply(ev, roster),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break 'session,
            }
        }

        if let Some(l) = label.take() {
            st.run_exchange(&l, std::mem::take(&mut batch), shared);
            st.publish(shared, false);
        }
    }

    // ---- Teardown ------------------------------------------------------
    for w in st.writers.iter_mut() {
        if let Some(conn) = w.as_mut() {
            let _ = conn.send(&Frame::Bye);
            conn.abort();
        }
        *w = None;
    }
    st.publish(shared, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::supervisor::{attach, SupervisorConfig};

    fn fast_relay(m: usize, plan: Option<FaultPlan>) -> RelayHandle {
        let config = RelayConfig {
            gather_deadline: Duration::from_secs(5),
            round_deadline: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(5),
            ..RelayConfig::new(m)
        };
        RelayHandle::bind("127.0.0.1:0", config, plan).unwrap()
    }

    #[test]
    fn two_seats_complete_one_round() {
        let relay = fast_relay(2, None);
        let addr = relay.addr();
        let parties: Vec<_> = (0..2)
            .map(|i| {
                let cfg = SupervisorConfig::default();
                thread::spawn(move || {
                    let mut a = attach(addr, &cfg, None).unwrap();
                    a.conn
                        .send(&Frame::Broadcast {
                            round: "r1".to_string(),
                            from_slot: a.slot as u32,
                            payload: vec![i as u8; 8],
                        })
                        .unwrap();
                    let mut got = Vec::new();
                    loop {
                        match a.conn.recv().unwrap() {
                            Frame::Broadcast { from_slot, .. } => got.push(from_slot),
                            Frame::RoundEnd { round } => {
                                assert_eq!(round, "r1");
                                break;
                            }
                            _ => {}
                        }
                    }
                    a.conn.goodbye();
                    got
                })
            })
            .collect();
        for p in parties {
            let mut got = p.join().unwrap();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1], "everyone hears everyone, echo included");
        }
        assert!(relay.wait_done(Duration::from_secs(5)));
        assert_eq!(relay.traffic().len(), 2);
        relay.shutdown();
    }

    #[test]
    fn slot_reservation_and_rejoin() {
        let relay = fast_relay(2, None);
        let addr = relay.addr();
        let cfg = SupervisorConfig::default();
        let a = attach(addr, &cfg, Some(1)).unwrap();
        assert_eq!(a.slot, 1);
        // The seat is taken now.
        assert_eq!(attach(addr, &cfg, Some(1)).unwrap_err(), NetError::Refused);
        // Drop it hard; the seat becomes Gone and may be reclaimed.
        drop(a.conn);
        let deadline = Instant::now() + Duration::from_secs(5);
        let rejoined = loop {
            match attach(addr, &cfg, Some(1)) {
                Ok(at) => break at,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(50)),
                Err(e) => panic!("rejoin failed: {e}"),
            }
        };
        assert_eq!(rejoined.slot, 1);
        relay.shutdown();
    }

    /// A seat that floods the relay and does not read stalls its own
    /// socket. The relay sheds what it cannot write and retires the seat
    /// instead of writing more after a timed-out, possibly partial frame:
    /// the stalled seat reads whole frames and then a disconnect, never a
    /// torn stream, and the draining seat still finishes the session.
    #[test]
    fn stalled_receiver_is_retired_without_tearing_its_stream() {
        let config = RelayConfig {
            gather_deadline: Duration::from_secs(5),
            round_deadline: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(5),
            conn: ConnConfig {
                write_deadline: Duration::from_millis(100),
                ..ConnConfig::default()
            },
            ..RelayConfig::new(2)
        };
        let relay = RelayHandle::bind("127.0.0.1:0", config, None).unwrap();
        let addr = relay.addr();
        let cfg = SupervisorConfig::default();
        let drainer = thread::spawn(move || {
            let a = attach(addr, &cfg, Some(0)).unwrap();
            let mut conn = a.conn;
            while conn.recv_within(Duration::from_millis(500)).is_ok() {}
            conn.goodbye();
        });
        let mut stalled = attach(addr, &cfg, Some(1)).unwrap().conn;
        for _ in 0..40 {
            let frame = Frame::Broadcast {
                round: "flood".to_string(),
                from_slot: 1,
                payload: vec![0xA5; 900 * 1024],
            };
            if stalled.send(&frame).is_err() {
                break;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while relay.traffic().faults().backpressure_dropped == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(50));
        }
        let err = loop {
            match stalled.recv_within(Duration::from_secs(2)) {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(err, NetError::Disconnected, "whole frames, then the abort");
        assert!(relay.traffic().faults().backpressure_dropped >= 1);
        drainer.join().unwrap();
        assert!(relay.wait_done(Duration::from_secs(10)), "relay wedged");
        relay.shutdown();
    }

    #[test]
    fn vanished_seat_is_reported_crashed() {
        let relay = fast_relay(2, None);
        let addr = relay.addr();
        let cfg = SupervisorConfig::default();
        let a = attach(addr, &cfg, Some(0)).unwrap();
        let b = attach(addr, &cfg, Some(1)).unwrap();
        drop(b.conn); // vanishes without Bye
        a.conn.goodbye();
        assert!(relay.wait_done(Duration::from_secs(5)));
        assert_eq!(relay.crashed_slots(), vec![1]);
        relay.shutdown();
    }
}
