//! Supervised actors: restart-on-panic failure recovery.
//!
//! The paper calls out the actor abstraction's "highly optimized
//! initialization cost and failure recovery" (§5). A supervised actor is
//! built from a *factory* so that when a message handler panics, the
//! supervisor discards the poisoned state, rebuilds the actor, and keeps
//! serving the remaining mailbox — the asker whose request caused the
//! panic observes [`ActorError::Panicked`].

use crate::actor::{Actor, ActorError, ActorHandle, Address, Envelope};
use crossbeam::channel::bounded;
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Statistics exposed by a supervised actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisorStats {
    /// Number of times the actor state was rebuilt after a panic.
    pub restarts: u64,
    /// Messages processed successfully.
    pub handled: u64,
}

/// Handle to a supervised actor plus its restart statistics.
pub struct SupervisedHandle<A: Actor> {
    handle: ActorHandle<A>,
    stats: Arc<Mutex<SupervisorStats>>,
}

impl<A: Actor> SupervisedHandle<A> {
    /// Fire-and-forget send (see [`ActorHandle::tell`]).
    pub fn tell(&self, msg: A::Msg) -> Result<(), ActorError> {
        self.handle.tell(msg)
    }

    /// Request/response (see [`ActorHandle::ask`]). A panic inside the
    /// handler surfaces as [`ActorError::Panicked`]; the actor itself
    /// restarts and keeps serving.
    pub fn ask(&self, msg: A::Msg) -> Result<A::Reply, ActorError> {
        self.handle.ask(msg)
    }

    /// A cloneable address for this actor (see [`ActorHandle::address`]).
    /// Sends through the address get the same supervision: a panic
    /// surfaces as [`ActorError::Panicked`] and the actor restarts.
    pub fn address(&self) -> Address<A> {
        self.handle.address()
    }

    /// Current restart/handled counters.
    pub fn stats(&self) -> SupervisorStats {
        *self.stats.lock()
    }

    /// Stops the actor and joins its thread.
    pub fn stop(self) {
        self.handle.stop()
    }
}

/// Spawns a supervised actor with a **bounded** mailbox of `capacity`
/// messages (floored at 1): restart-on-panic failure recovery plus
/// [`crate::spawn_bounded`]'s producer backpressure. `factory` builds
/// (and rebuilds) the actor state. A restart does not disturb the
/// mailbox — the channel outlives the actor state, so messages queued
/// behind a panic are served in their original order by the rebuilt
/// actor.
pub fn spawn_supervised_bounded<A, F>(
    name: impl Into<String>,
    factory: F,
    capacity: usize,
) -> SupervisedHandle<A>
where
    A: Actor,
    F: Fn() -> A + Send + 'static,
{
    let name = name.into();
    let (tx, rx) = bounded::<Envelope<A>>(capacity.max(1));
    let stats = Arc::new(Mutex::new(SupervisorStats::default()));
    let thread_stats = Arc::clone(&stats);
    let join = std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            'supervise: loop {
                let mut actor = factory();
                loop {
                    let Ok(envelope) = rx.recv() else { break 'supervise };
                    match envelope {
                        Envelope::Stop => break 'supervise,
                        Envelope::Tell(msg) => {
                            let result =
                                std::panic::catch_unwind(AssertUnwindSafe(|| actor.handle(msg)));
                            match result {
                                Ok(_) => thread_stats.lock().handled += 1,
                                Err(_) => {
                                    thread_stats.lock().restarts += 1;
                                    continue 'supervise; // rebuild state
                                }
                            }
                        }
                        Envelope::Ask(msg, reply) => {
                            let result =
                                std::panic::catch_unwind(AssertUnwindSafe(|| actor.handle(msg)));
                            match result {
                                Ok(out) => {
                                    thread_stats.lock().handled += 1;
                                    let _ = reply.send(out);
                                }
                                Err(_) => {
                                    thread_stats.lock().restarts += 1;
                                    drop(reply); // asker sees Panicked
                                    continue 'supervise;
                                }
                            }
                        }
                    }
                }
            }
        })
        .expect("spawn supervised actor thread");
    SupervisedHandle { handle: ActorHandle { sender: tx, join: Some(join), name }, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let stats = h.stats();
        assert_eq!(stats.restarts, 1);
        assert!(stats.handled >= 2);
        h.stop();
    }

    #[test]
    fn multiple_restarts() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 7 }, 8);
        for _ in 0..5 {
            assert_eq!(h.ask(FlakyMsg::Boom), Err(ActorError::Panicked));
        }
        assert_eq!(h.stats().restarts, 5);
        assert_eq!(h.ask(FlakyMsg::Get).unwrap(), 7);
        h.stop();
    }

    #[test]
    fn tell_panics_do_not_kill_service() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 1 }, 8);
        h.tell(FlakyMsg::Boom).unwrap();
        h.tell(FlakyMsg::Boom).unwrap();
        assert_eq!(h.ask(FlakyMsg::Get).unwrap(), 1);
        assert_eq!(h.stats().restarts, 2);
        h.stop();
    }

    #[test]
    fn queued_messages_survive_restart() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 0 }, 8);
        h.tell(FlakyMsg::Boom).unwrap();
        h.tell(FlakyMsg::Set(9)).unwrap(); // queued behind the panic
        assert_eq!(h.ask(FlakyMsg::Get).unwrap(), 9, "message after panic must be served");
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
                RecorderMsg::Record(v) => self.log.lock().push(v),
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
        h.tell(RecorderMsg::Record(1)).unwrap();
        h.tell(RecorderMsg::Record(2)).unwrap();
        h.tell(RecorderMsg::Boom).unwrap();
        h.tell(RecorderMsg::Record(3)).unwrap(); // queued behind the panic
        h.tell(RecorderMsg::Record(4)).unwrap();
        // Synchronise: the ask drains everything queued before it.
        h.ask(RecorderMsg::Record(5)).unwrap();
        assert_eq!(*log.lock(), vec![1, 2, 3, 4, 5], "order must survive the restart");
        assert_eq!(h.stats().restarts, 1);
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
        assert_eq!(*log.lock(), vec![1]);
        assert_eq!(h.stats().restarts, 1);
        h.stop();
    }

    #[test]
    fn supervised_address_routes_and_survives_panics() {
        let h = spawn_supervised_bounded("flaky", || Flaky { value: 3 }, 8);
        let addr = h.address();
        assert_eq!(addr.ask(FlakyMsg::Boom), Err(ActorError::Panicked));
        assert_eq!(addr.ask(FlakyMsg::Get).unwrap(), 3, "address keeps working after restart");
        assert_eq!(h.stats().restarts, 1);
        h.stop();
    }
}
