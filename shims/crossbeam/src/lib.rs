//! Offline stand-in for `crossbeam`, backed by `std::sync::mpsc`.
//!
//! Only the `channel` MPSC surface the workspace uses is provided: the
//! [`channel::bounded`] constructor, blocking and non-blocking sends, and
//! the deadline receive. `std`'s channels are MPSC rather than MPMC,
//! which matches every use site here (each receiver has a single owner
//! thread).

#![forbid(unsafe_code)]

/// Multi-producer channels (subset of `crossbeam::channel`).
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// All receivers disconnected.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    /// Sending half of a channel.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message, blocking while the channel is at capacity;
        /// fails only if every receiver is dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg).map_err(|mpsc::SendError(m)| SendError(m))
        }

        /// Enqueues a message without blocking: a channel at capacity
        /// reports [`TrySendError::Full`] immediately.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            self.0.try_send(msg).map_err(|e| match e {
                mpsc::TrySendError::Full(m) => TrySendError::Full(m),
                mpsc::TrySendError::Disconnected(m) => TrySendError::Disconnected(m),
            })
        }
    }

    /// Receiving half of a channel.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks for the next message up to `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }

    /// Creates a bounded MPSC channel holding at most `cap` messages;
    /// further sends block (or fail from `try_send`) until the receiver
    /// drains. `cap = 0` is a rendezvous channel, as in real crossbeam.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const TICK: Duration = Duration::from_millis(1);

        #[test]
        fn send_recv_try_timeout() {
            let (tx, rx) = bounded(4);
            tx.send(1).unwrap();
            assert_eq!(rx.recv_timeout(TICK), Ok(1));
            assert_eq!(rx.recv_timeout(TICK), Err(RecvTimeoutError::Timeout));
            drop(tx);
            assert_eq!(rx.recv_timeout(TICK), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn bounded_reports_full_without_blocking() {
            let (tx, rx) = bounded(2);
            assert_eq!(tx.try_send(1), Ok(()));
            assert_eq!(tx.try_send(2), Ok(()));
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(rx.recv_timeout(TICK), Ok(1));
            assert_eq!(tx.try_send(3), Ok(()));
            assert_eq!(rx.recv_timeout(TICK), Ok(2));
            assert_eq!(rx.recv_timeout(TICK), Ok(3));
            drop(rx);
            assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
        }

        #[test]
        fn bounded_send_unblocks_when_drained() {
            let (tx, rx) = bounded(1);
            tx.send(10).unwrap();
            let t = std::thread::spawn(move || tx.send(11));
            let wait = Duration::from_secs(5);
            assert_eq!(rx.recv_timeout(wait), Ok(10));
            assert_eq!(rx.recv_timeout(wait), Ok(11));
            t.join().unwrap().unwrap();
        }
    }
}
