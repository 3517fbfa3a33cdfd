//! The actor runtime the daemon runs on: long-running worker threads with
//! typed, bounded mailboxes.
//!
//! Ekya's implementation runs its scheduler, micro-profiler and
//! training/inference jobs as long-running Ray actors (§5): "a benefit of
//! using the actor abstraction is its highly optimized initialization
//! cost and failure recovery", and request queueing while a model's
//! weights reload comes for free because messages wait in the mailbox.
//! This module is the same abstraction on OS threads + `std::sync::mpsc`
//! channels — CPU-bound work belongs on threads, not an async runtime.
//!
//! Every message is a request: [`Address::ask`] blocks for the reply,
//! [`Address::ask_deferred`] queues it and hands back a [`Pending`]. A
//! supervised actor ([`spawn_supervised_bounded`]) is built from a
//! *factory*: when a handler panics, the supervisor discards the
//! poisoned state, rebuilds the actor and keeps serving the remaining
//! mailbox, and the asker whose request caused the panic observes
//! [`ActorError::Panicked`].

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A message-handling actor. One instance runs on one thread; `handle`
/// is invoked for each message in arrival order.
pub trait Actor: Send + 'static {
    /// Message type.
    type Msg: Send + 'static;
    /// Reply type.
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

enum Envelope<A: Actor> {
    Ask(A::Msg, SyncSender<A::Reply>),
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
    sender: SyncSender<Envelope<A>>,
}

impl<A: Actor> Clone for Address<A> {
    fn clone(&self) -> Self {
        Self { sender: self.sender.clone() }
    }
}

impl<A: Actor> Address<A> {
    /// Request/response: blocks until the actor replies.
    pub fn ask(&self, msg: A::Msg) -> Result<A::Reply, ActorError> {
        self.ask_deferred(msg)?.wait()
    }

    /// Queues a request and returns immediately with a [`Pending`] reply
    /// slot. Requests queue in arrival order — including while the actor
    /// is busy with a long one (e.g. reloading model weights, §5). On a
    /// full mailbox the *send* blocks until the actor drains a slot.
    pub fn ask_deferred(&self, msg: A::Msg) -> Result<Pending<A::Reply>, ActorError> {
        let (tx, rx) = sync_channel(1);
        self.sender.send(Envelope::Ask(msg, tx)).map_err(|_| ActorError::Stopped)?;
        Ok(Pending { rx })
    }
}

/// Owning handle of a spawned actor: its address, its thread, and the
/// number of times supervision rebuilt it. Dropping the handle stops the
/// actor after it drains the messages queued so far.
pub struct ActorHandle<A: Actor> {
    addr: Address<A>,
    join: Option<JoinHandle<()>>,
    restarts: Arc<AtomicU64>,
}

impl<A: Actor> ActorHandle<A> {
    /// A cloneable address for this actor (e.g. to hand to another
    /// actor), independent of the handle's lifecycle ownership.
    pub fn address(&self) -> Address<A> {
        self.addr.clone()
    }

    /// See [`Address::ask`].
    pub fn ask(&self, msg: A::Msg) -> Result<A::Reply, ActorError> {
        self.addr.ask(msg)
    }

    /// See [`Address::ask_deferred`].
    pub fn ask_deferred(&self, msg: A::Msg) -> Result<Pending<A::Reply>, ActorError> {
        self.addr.ask_deferred(msg)
    }

    /// Times a supervised actor's state was rebuilt after a panic (always
    /// 0 for [`spawn_bounded`] actors).
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Stops the actor after it drains messages queued before this call,
    /// and joins its thread.
    pub fn stop(self) {
        drop(self);
    }
}

impl<A: Actor> Drop for ActorHandle<A> {
    fn drop(&mut self) {
        let _ = self.addr.sender.send(Envelope::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Starts thread `name` running `run` over a fresh mailbox of `capacity`
/// messages (floored at 1, since `sync_channel(0)` would be a rendezvous
/// channel); `run` counts restarts into the handle's counter.
fn spawn<A: Actor>(
    name: String,
    capacity: usize,
    run: impl FnOnce(Receiver<Envelope<A>>, &AtomicU64) + Send + 'static,
) -> ActorHandle<A> {
    let (sender, rx) = sync_channel(capacity.max(1));
    let restarts = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&restarts);
    let join = std::thread::Builder::new()
        .name(name)
        .spawn(move || run(rx, &counter))
        .expect("spawn actor thread");
    ActorHandle { addr: Address { sender }, join: Some(join), restarts }
}

/// Spawns `actor` on a dedicated thread with a **bounded** mailbox of
/// `capacity` messages (floored at 1); messages are handled strictly in
/// arrival order.
///
/// Backpressure, not buffering: an ask issued while the mailbox is full
/// *blocks the producer* until the actor drains a slot. This is what
/// keeps a fast producer (e.g. a load generator pumping inference
/// batches) from growing an unbounded queue behind a slow consumer — the
/// §5 concern that a busy trainer must not let the inference queue eat
/// all memory. A panic in `handle` ends the actor; the asks queued
/// behind it fail with [`ActorError::Panicked`].
pub fn spawn_bounded<A: Actor>(
    name: impl Into<String>,
    mut actor: A,
    capacity: usize,
) -> ActorHandle<A> {
    spawn(name.into(), capacity, move |rx, _| {
        while let Ok(Envelope::Ask(msg, reply)) = rx.recv() {
            let _ = reply.send(actor.handle(msg));
        }
    })
}

/// Spawns a supervised actor with [`spawn_bounded`]'s bounded mailbox
/// plus restart-on-panic failure recovery. `factory` builds (and
/// rebuilds) the actor state. A restart does not disturb the mailbox —
/// the channel outlives the actor state, so messages queued behind a
/// panic are served in their original order by the rebuilt actor.
pub fn spawn_supervised_bounded<A, F>(
    name: impl Into<String>,
    factory: F,
    capacity: usize,
) -> ActorHandle<A>
where
    A: Actor,
    F: Fn() -> A + Send + 'static,
{
    spawn(name.into(), capacity, move |rx, restarts| 'supervise: loop {
        let mut actor = factory();
        while let Ok(Envelope::Ask(msg, reply)) = rx.recv() {
            match std::panic::catch_unwind(AssertUnwindSafe(|| actor.handle(msg))) {
                Ok(out) => {
                    let _ = reply.send(out);
                }
                Err(_) => {
                    restarts.fetch_add(1, Ordering::Relaxed);
                    // `reply` drops here, so the asker sees `Panicked`.
                    continue 'supervise;
                }
            }
        }
        break;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Mutex;
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
    fn deferred_asks_are_processed_in_order() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        let pending: Vec<_> =
            (0..100).map(|_| h.ask_deferred(CounterMsg::Add(1)).unwrap()).collect();
        let replies: Vec<u64> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
        assert_eq!(replies, (1..=100).collect::<Vec<u64>>(), "each add sees all earlier ones");
        assert_eq!(h.ask(CounterMsg::Get).unwrap(), 100);
        h.stop();
    }

    #[test]
    fn requests_queue_during_slow_reload() {
        // Messages sent while the actor is busy reloading must queue and
        // then be served — the §5 checkpoint-reload behaviour.
        let h = spawn_bounded("model", Counter { count: 7 }, 8);
        let reload = h.ask_deferred(CounterMsg::SlowReload(Duration::from_millis(100))).unwrap();
        let start = std::time::Instant::now();
        // This ask arrives during the reload and waits its turn.
        assert_eq!(h.ask(CounterMsg::Get).unwrap(), 7);
        assert!(start.elapsed() >= Duration::from_millis(80), "should have queued");
        assert_eq!(reload.wait().unwrap(), 7);
        h.stop();
    }

    #[test]
    fn stop_after_drain() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        // The reload keeps the actor busy so both adds are still queued
        // when `stop` is called.
        let reload = h.ask_deferred(CounterMsg::SlowReload(Duration::from_millis(20))).unwrap();
        let adds: Vec<_> = (0..2).map(|_| h.ask_deferred(CounterMsg::Add(2)).unwrap()).collect();
        h.stop();
        assert_eq!(reload.wait(), Ok(0));
        let sums: Vec<_> = adds.into_iter().map(Pending::wait).collect();
        assert_eq!(sums, vec![Ok(2), Ok(4)], "stop must not lose the queued adds");
    }

    #[test]
    fn ask_after_stop_fails() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        let addr = h.address();
        h.stop();
        // `stop` joins the actor thread, which owns the receiver, so the
        // channel is disconnected by the time `stop` returns.
        assert_eq!(addr.ask_deferred(CounterMsg::Add(1)).err(), Some(ActorError::Stopped));
    }

    #[test]
    fn address_is_cloneable_and_routes() {
        let h = spawn_bounded("counter", Counter { count: 0 }, 8);
        let addr = h.address();
        let addr2 = addr.clone();
        let add = addr.ask_deferred(CounterMsg::Add(2)).unwrap();
        assert_eq!(addr2.ask(CounterMsg::Get).unwrap(), 2);
        assert_eq!(add.wait().unwrap(), 2);
        h.stop();
        // After stop, the address reports the actor as gone.
        assert_eq!(addr2.ask_deferred(CounterMsg::Add(1)).err(), Some(ActorError::Stopped));
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
        let (gate_tx, gate_rx) = channel::<()>();
        let h = spawn_bounded("gated", Gated { release: gate_rx, seen: Vec::new() }, 2);
        let addr = h.address();
        let sent = Arc::new(AtomicU64::new(0));
        let sent_in_producer = Arc::clone(&sent);
        let producer = std::thread::spawn(move || {
            (0..10)
                .map(|v| {
                    let p = addr.ask_deferred(GatedMsg::Record(v)).unwrap();
                    sent_in_producer.fetch_add(1, Ordering::SeqCst);
                    p
                })
                .collect::<Vec<_>>()
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
        for p in producer.join().unwrap() {
            p.wait().unwrap();
        }
        let seen = h.ask(GatedMsg::Seen).unwrap();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>(), "order must be preserved");
        h.stop();
    }

    /// An unsupervised actor that dies takes its mailbox with it: asks
    /// already queued behind the fatal message must fail, not hang —
    /// their reply senders are dropped with the discarded queue.
    #[test]
    fn asks_queued_behind_a_fatal_panic_all_fail() {
        let (gate_tx, gate_rx) = channel::<()>();
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
                    let pending: Vec<_> =
                        (0..25).map(|_| a.ask_deferred(CounterMsg::Add(1)).unwrap()).collect();
                    for p in pending {
                        p.wait().unwrap();
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

    /// An actor that panics on demand.
    struct Flaky {
        value: i64,
    }

    enum FlakyMsg {
        Set(i64),
        Get,
        Boom,
    }

    impl Actor for Flaky {
        type Msg = FlakyMsg;
        type Reply = i64;

        fn handle(&mut self, msg: FlakyMsg) -> i64 {
            match msg {
                FlakyMsg::Set(v) => {
                    self.value = v;
                    v
                }
                FlakyMsg::Get => self.value,
                FlakyMsg::Boom => panic!("injected failure"),
            }
        }
    }

    #[test]
    fn survives_panics_and_restarts() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 0 }, 8);
        assert_eq!(h.ask(FlakyMsg::Set(42)).unwrap(), 42);
        // Panic: the asker sees the failure...
        assert_eq!(h.ask(FlakyMsg::Boom), Err(ActorError::Panicked));
        // ...and the actor restarts with fresh state from the factory.
        assert_eq!(h.ask(FlakyMsg::Get).unwrap(), 0);
        assert_eq!(h.restarts(), 1);
        h.stop();
    }

    #[test]
    fn multiple_restarts() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 7 }, 8);
        for _ in 0..5 {
            assert_eq!(h.ask(FlakyMsg::Boom), Err(ActorError::Panicked));
        }
        assert_eq!(h.restarts(), 5);
        assert_eq!(h.ask(FlakyMsg::Get).unwrap(), 7);
        h.stop();
    }

    #[test]
    fn dropped_pending_panics_do_not_kill_service() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 1 }, 8);
        drop(h.ask_deferred(FlakyMsg::Boom).unwrap());
        drop(h.ask_deferred(FlakyMsg::Boom).unwrap());
        assert_eq!(h.ask(FlakyMsg::Get).unwrap(), 1);
        assert_eq!(h.restarts(), 2);
        h.stop();
    }

    #[test]
    fn queued_messages_survive_restart() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 0 }, 8);
        let boom = h.ask_deferred(FlakyMsg::Boom).unwrap();
        let set = h.ask_deferred(FlakyMsg::Set(9)).unwrap(); // queued behind the panic
        assert_eq!(h.ask(FlakyMsg::Get).unwrap(), 9, "message after panic must be served");
        assert_eq!(boom.wait(), Err(ActorError::Panicked));
        assert_eq!(set.wait(), Ok(9));
        h.stop();
    }

    /// An actor that records every value it was handed, so message order
    /// is observable from the outside.
    struct Recorder {
        log: Arc<Mutex<Vec<i64>>>,
    }

    enum RecorderMsg {
        Record(i64),
        Boom,
    }

    impl Actor for Recorder {
        type Msg = RecorderMsg;
        type Reply = ();

        fn handle(&mut self, msg: RecorderMsg) {
            match msg {
                RecorderMsg::Record(v) => self.log.lock().unwrap().push(v),
                RecorderMsg::Boom => panic!("injected failure"),
            }
        }
    }

    #[test]
    fn bounded_supervised_preserves_order_across_restart() {
        // The bounded mailbox outlives the actor state: messages queued
        // behind a panic must be served by the rebuilt actor in their
        // original arrival order, with nothing dropped or reordered.
        let log = Arc::new(Mutex::new(Vec::new()));
        let factory_log = Arc::clone(&log);
        let h = spawn_supervised_bounded(
            "recorder",
            move || Recorder { log: Arc::clone(&factory_log) },
            4,
        );
        let pending: Vec<_> = [
            RecorderMsg::Record(1),
            RecorderMsg::Record(2),
            RecorderMsg::Boom,
            RecorderMsg::Record(3), // queued behind the panic
            RecorderMsg::Record(4),
        ]
        .into_iter()
        .map(|m| h.ask_deferred(m).unwrap())
        .collect();
        // Synchronise: the ask drains everything queued before it.
        h.ask(RecorderMsg::Record(5)).unwrap();
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3, 4, 5], "order must survive the restart");
        let replies: Vec<_> = pending.into_iter().map(Pending::wait).collect();
        assert_eq!(replies, vec![Ok(()), Ok(()), Err(ActorError::Panicked), Ok(()), Ok(())]);
        assert_eq!(h.restarts(), 1);
        h.stop();
    }

    #[test]
    fn bounded_supervised_panics_surface_to_asker() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let factory_log = Arc::clone(&log);
        let h = spawn_supervised_bounded(
            "recorder",
            move || Recorder { log: Arc::clone(&factory_log) },
            2,
        );
        assert_eq!(h.ask(RecorderMsg::Boom), Err(ActorError::Panicked));
        h.ask(RecorderMsg::Record(1)).unwrap();
        assert_eq!(*log.lock().unwrap(), vec![1]);
        assert_eq!(h.restarts(), 1);
        h.stop();
    }

    #[test]
    fn supervised_address_routes_and_survives_panics() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 3 }, 8);
        let addr = h.address();
        assert_eq!(addr.ask(FlakyMsg::Boom), Err(ActorError::Panicked));
        assert_eq!(addr.ask(FlakyMsg::Get).unwrap(), 3, "address keeps working after restart");
        assert_eq!(h.restarts(), 1);
        h.stop();
    }
}
