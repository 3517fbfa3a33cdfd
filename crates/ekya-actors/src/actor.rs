//! Core actor abstraction: long-running worker threads with typed
//! mailboxes.
//!
//! Ekya's implementation runs its scheduler, micro-profiler and
//! training/inference jobs as long-running Ray actors (§5): "a benefit of
//! using the actor abstraction is its highly optimized initialization
//! cost and failure recovery", and request queueing while a model's
//! weights reload comes for free because messages wait in the mailbox.
//! This module is the same abstraction on OS threads + crossbeam
//! channels — CPU-bound work belongs on threads, not an async runtime.

use crossbeam::channel::{bounded, Receiver, Sender};
use std::thread::JoinHandle;

/// A message-handling actor. One instance runs on one thread; `handle`
/// is invoked for each message in arrival order.
pub trait Actor: Send + 'static {
    /// Message type.
    type Msg: Send + 'static;
    /// Reply type (use `()` for fire-and-forget actors).
    type Reply: Send + 'static;

    /// Processes one message.
    fn handle(&mut self, msg: Self::Msg) -> Self::Reply;
}

/// Errors from interacting with an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorError {
    /// The actor's mailbox is closed (actor stopped).
    Stopped,
    /// The actor panicked while processing this request.
    Panicked,
}

impl std::fmt::Display for ActorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActorError::Stopped => write!(f, "actor stopped"),
            ActorError::Panicked => write!(f, "actor panicked"),
        }
    }
}

impl std::error::Error for ActorError {}

pub(crate) enum Envelope<A: Actor> {
    Tell(A::Msg),
    Ask(A::Msg, Sender<A::Reply>),
    Stop,
}

/// An in-flight reply from [`Address::ask_deferred`]: the request is
/// already queued with the actor; [`Pending::wait`] blocks for the
/// reply. Splitting *send* from *wait* lets one thread fan a request
/// out to several actors and only then start waiting, so the actors
/// work concurrently instead of serialising behind one blocking `ask`
/// at a time.
#[must_use = "a deferred ask does nothing until waited on"]
pub struct Pending<R> {
    rx: Receiver<R>,
}

impl<R> Pending<R> {
    /// Blocks until the actor replies. A dropped reply sender means the
    /// actor died (or panicked) while holding the request.
    pub fn wait(self) -> Result<R, ActorError> {
        self.rx.recv().map_err(|_| ActorError::Panicked)
    }
}

/// A cloneable, lifecycle-free address of an actor: lets other actors (or
/// threads) send messages without owning the actor's join handle. Sends
/// fail with [`ActorError::Stopped`] once the actor shuts down.
pub struct Address<A: Actor> {
    sender: Sender<Envelope<A>>,
    name: String,
}

impl<A: Actor> Clone for Address<A> {
    fn clone(&self) -> Self {
        Self { sender: self.sender.clone(), name: self.name.clone() }
    }
}

impl<A: Actor> Address<A> {
    /// The actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fire-and-forget send (see [`ActorHandle::tell`]).
    pub fn tell(&self, msg: A::Msg) -> Result<(), ActorError> {
        self.sender.send(Envelope::Tell(msg)).map_err(|_| ActorError::Stopped)
    }

    /// Request/response (see [`ActorHandle::ask`]).
    pub fn ask(&self, msg: A::Msg) -> Result<A::Reply, ActorError> {
        let (tx, rx) = bounded(1);
        self.sender.send(Envelope::Ask(msg, tx)).map_err(|_| ActorError::Stopped)?;
        rx.recv().map_err(|_| ActorError::Panicked)
    }

    /// Queues a request and returns immediately with a [`Pending`] reply
    /// slot; [`Pending::wait`] blocks for the answer. Backpressure is
    /// unchanged — on a full bounded mailbox the *send* blocks, exactly
    /// like [`Address::ask`].
    pub fn ask_deferred(&self, msg: A::Msg) -> Result<Pending<A::Reply>, ActorError> {
        let (tx, rx) = bounded(1);
        self.sender.send(Envelope::Ask(msg, tx)).map_err(|_| ActorError::Stopped)?;
        Ok(Pending { rx })
    }
}

/// Handle for sending messages to a spawned actor.
pub struct ActorHandle<A: Actor> {
    pub(crate) sender: Sender<Envelope<A>>,
    pub(crate) join: Option<JoinHandle<()>>,
    pub(crate) name: String,
}

impl<A: Actor> ActorHandle<A> {
    /// The actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A cloneable address for this actor (e.g. to hand to another
    /// actor), independent of the handle's lifecycle ownership.
    pub fn address(&self) -> Address<A> {
        Address { sender: self.sender.clone(), name: self.name.clone() }
    }

    /// Fire-and-forget send. Messages queue in arrival order — including
    /// while the actor is busy with a long request (e.g. reloading model
    /// weights, §5).
    pub fn tell(&self, msg: A::Msg) -> Result<(), ActorError> {
        self.sender.send(Envelope::Tell(msg)).map_err(|_| ActorError::Stopped)
    }

    /// Request/response: blocks until the actor replies.
    pub fn ask(&self, msg: A::Msg) -> Result<A::Reply, ActorError> {
        let (tx, rx) = bounded(1);
        self.sender.send(Envelope::Ask(msg, tx)).map_err(|_| ActorError::Stopped)?;
        // A dropped reply sender means the actor died (or panicked) while
        // holding our request.
        rx.recv().map_err(|_| ActorError::Panicked)
    }

    /// Queues a request without waiting (see [`Address::ask_deferred`]).
    pub fn ask_deferred(&self, msg: A::Msg) -> Result<Pending<A::Reply>, ActorError> {
        let (tx, rx) = bounded(1);
        self.sender.send(Envelope::Ask(msg, tx)).map_err(|_| ActorError::Stopped)?;
        Ok(Pending { rx })
    }

    /// Number of messages waiting in the mailbox.
    pub fn mailbox_len(&self) -> usize {
        self.sender.len()
    }

    /// Stops the actor after it drains messages queued before this call,
    /// and joins its thread.
    pub fn stop(mut self) {
        let _ = self.sender.send(Envelope::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl<A: Actor> Drop for ActorHandle<A> {
    fn drop(&mut self) {
        // Graceful: ask the thread to stop and detach.
        let _ = self.sender.send(Envelope::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Spawns `actor` on a dedicated thread with a **bounded** mailbox of
/// `capacity` messages (floored at 1); messages are handled strictly in
/// arrival order.
///
/// Backpressure, not buffering: a `tell` or `ask` issued while the
/// mailbox is full *blocks the producer* until the actor drains a slot.
/// This is what keeps a fast producer (e.g. a load generator pumping
/// inference batches) from growing an unbounded queue behind a slow
/// consumer — the §5 concern that a busy trainer must not let the
/// inference queue eat all memory.
pub fn spawn_bounded<A: Actor>(
    name: impl Into<String>,
    mut actor: A,
    capacity: usize,
) -> ActorHandle<A> {
    let name = name.into();
    let (tx, rx) = bounded::<Envelope<A>>(capacity.max(1));
    let join = std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            while let Ok(envelope) = rx.recv() {
                match envelope {
                    Envelope::Tell(msg) => {
                        let _ = actor.handle(msg);
                    }
                    Envelope::Ask(msg, reply) => {
                        let out = actor.handle(msg);
                        let _ = reply.send(out);
                    }
                    Envelope::Stop => break,
                }
            }
        })
        .expect("spawn actor thread");
    ActorHandle { sender: tx, join: Some(join), name }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use std::time::Duration;

    struct Counter {
        count: u64,
    }

    enum CounterMsg {
        Add(u64),
        Get,
        SlowReload(Duration),
    }

    impl Actor for Counter {
        type Msg = CounterMsg;
        type Reply = u64;

        fn handle(&mut self, msg: CounterMsg) -> u64 {
            match msg {
                CounterMsg::Add(n) => {
                    self.count += n;
                    self.count
                }
                CounterMsg::Get => self.count,
                CounterMsg::SlowReload(d) => {
                    // Stands in for "loading new model weights" (§5).
                    std::thread::sleep(d);
                    self.count
                }
            }
        }
    }

    #[test]
    fn ask_roundtrip() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        assert_eq!(h.ask(CounterMsg::Add(5)).unwrap(), 5);
        assert_eq!(h.ask(CounterMsg::Add(3)).unwrap(), 8);
        assert_eq!(h.ask(CounterMsg::Get).unwrap(), 8);
        h.stop();
    }

    #[test]
    fn tell_is_processed_in_order() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        for _ in 0..100 {
            h.tell(CounterMsg::Add(1)).unwrap();
        }
        assert_eq!(h.ask(CounterMsg::Get).unwrap(), 100);
        h.stop();
    }

    #[test]
    fn requests_queue_during_slow_reload() {
        // Messages sent while the actor is busy reloading must queue and
        // then be served — the §5 checkpoint-reload behaviour.
        let h = spawn_bounded("model", Counter { count: 7 }, 8);
        h.tell(CounterMsg::SlowReload(Duration::from_millis(100))).unwrap();
        let start = std::time::Instant::now();
        // This ask arrives during the reload and waits its turn.
        assert_eq!(h.ask(CounterMsg::Get).unwrap(), 7);
        assert!(start.elapsed() >= Duration::from_millis(80), "should have queued");
        h.stop();
    }

    #[test]
    fn stop_after_drain() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        h.tell(CounterMsg::Add(2)).unwrap();
        h.tell(CounterMsg::Add(2)).unwrap();
        h.stop(); // must not lose the queued adds
                  // (No way to observe post-stop; absence of deadlock is the check.)
    }

    #[test]
    fn ask_after_stop_fails() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        let sender = h.sender.clone();
        h.stop();
        // `stop` joins the actor thread, which owns the receiver, so the
        // channel is disconnected by the time `stop` returns.
        assert!(sender.send(Envelope::Tell(CounterMsg::Add(1))).is_err());
    }

    #[test]
    fn mailbox_length_visible() {
        let h = spawn_bounded("model", Counter { count: 0 }, 8);
        h.tell(CounterMsg::SlowReload(Duration::from_millis(50))).unwrap();
        h.tell(CounterMsg::Add(1)).unwrap();
        h.tell(CounterMsg::Add(1)).unwrap();
        // At least one message should still be queued while the reload
        // runs (timing-tolerant: >= 0 always true, check it drains).
        assert_eq!(h.ask(CounterMsg::Get).unwrap(), 2);
        assert_eq!(h.mailbox_len(), 0);
        h.stop();
    }

    #[test]
    fn address_is_cloneable_and_routes() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        let addr = h.address();
        let addr2 = addr.clone();
        assert_eq!(addr.name(), "counter");
        addr.tell(CounterMsg::Add(2)).unwrap();
        assert_eq!(addr2.ask(CounterMsg::Get).unwrap(), 2);
        h.stop();
        // After stop, the address reports the actor as gone.
        assert_eq!(addr2.tell(CounterMsg::Add(1)), Err(ActorError::Stopped));
    }

    /// An actor that must be explicitly released (one token per message)
    /// before it processes anything — a deterministic stand-in for "the
    /// consumer is busy" without sleeping and hoping.
    struct Gated {
        release: Receiver<()>,
        seen: Vec<u64>,
    }

    enum GatedMsg {
        Record(u64),
        Seen,
    }

    impl Actor for Gated {
        type Msg = GatedMsg;
        type Reply = Vec<u64>;

        fn handle(&mut self, msg: GatedMsg) -> Vec<u64> {
            match msg {
                GatedMsg::Record(v) => {
                    self.release.recv().expect("gate token");
                    self.seen.push(v);
                    Vec::new()
                }
                GatedMsg::Seen => self.seen.clone(),
            }
        }
    }

    #[test]
    fn bounded_mailbox_blocks_producer_instead_of_growing() {
        // Backpressure contract: with a capacity-2 mailbox and a stalled
        // consumer, a producer pumping 10 messages must get stuck after
        // at most 3 sends (1 in the handler + 2 queued) — the queue must
        // NOT absorb all 10. Releasing the gate then drains everything,
        // in order.
        use std::sync::atomic::{AtomicU64, Ordering};

        let (gate_tx, gate_rx) = unbounded::<()>();
        let h = spawn_bounded("gated", Gated { release: gate_rx, seen: Vec::new() }, 2);
        let addr = h.address();
        let sent = std::sync::Arc::new(AtomicU64::new(0));
        let sent_in_producer = std::sync::Arc::clone(&sent);
        let producer = std::thread::spawn(move || {
            for v in 0..10 {
                addr.tell(GatedMsg::Record(v)).unwrap();
                sent_in_producer.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Give the producer ample time to run ahead if the mailbox were
        // unbounded; with the gate closed it can complete at most 3 sends.
        std::thread::sleep(Duration::from_millis(150));
        let stuck_at = sent.load(Ordering::SeqCst);
        assert!(stuck_at <= 3, "producer sent {stuck_at} messages past a full capacity-2 mailbox");
        // Release one token per message: the producer unblocks and every
        // message is processed in arrival order.
        for _ in 0..10 {
            gate_tx.send(()).unwrap();
        }
        producer.join().unwrap();
        let seen = h.ask(GatedMsg::Seen).unwrap();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>(), "order must be preserved");
        h.stop();
    }

    /// An unsupervised actor that dies takes its mailbox with it: asks
    /// already queued behind the fatal message must fail, not hang —
    /// their reply senders are dropped with the discarded queue.
    #[test]
    fn asks_queued_behind_a_fatal_panic_all_fail() {
        let (gate_tx, gate_rx) = unbounded::<()>();
        let h = spawn_bounded("doomed", Gated { release: gate_rx, seen: Vec::new() }, 8);
        // Message 1 parks in the handler; 2..=5 queue behind it.
        let pending: Vec<_> =
            (1..=5).map(|v| h.ask_deferred(GatedMsg::Record(v)).unwrap()).collect();
        // Closing the gate makes the handler's `expect("gate token")`
        // panic on message 1, killing the actor thread.
        drop(gate_tx);
        for p in pending {
            assert_eq!(p.wait().err(), Some(ActorError::Panicked));
        }
        assert_eq!(h.ask(GatedMsg::Seen).err(), Some(ActorError::Stopped));
    }

    /// Deferred asks let one producer put work on several actors before
    /// waiting on any reply — and each `Pending` resolves to its own
    /// actor's answer.
    #[test]
    fn ask_deferred_overlaps_requests() {
        let a = spawn_bounded("counter-a", Counter { count: 10 }, 8);
        let b = spawn_bounded("counter-b", Counter { count: 20 }, 8);
        let pa = a.ask_deferred(CounterMsg::Add(1)).unwrap();
        let pb = b.address().ask_deferred(CounterMsg::Add(2)).unwrap();
        assert_eq!(pb.wait().unwrap(), 22);
        assert_eq!(pa.wait().unwrap(), 11);
        a.stop();
        b.stop();
    }

    #[test]
    fn bounded_capacity_is_floored_at_one() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 0);
        assert_eq!(h.ask(CounterMsg::Add(1)).unwrap(), 1);
        h.stop();
    }

    #[test]
    fn address_usable_from_other_threads() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        let addr = h.address();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let a = addr.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        a.tell(CounterMsg::Add(1)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.ask(CounterMsg::Get).unwrap(), 100);
        h.stop();
    }
}
