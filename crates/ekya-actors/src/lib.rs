#![warn(missing_docs)]

//! # ekya-actors — actor runtime substrate for the Ekya reproduction
//!
//! The paper implements Ekya's modules — scheduler, micro-profiler and
//! per-stream training/inference jobs — as long-running Ray actors (§5).
//! This crate is the dependency-light Rust stand-in: typed mailboxes over
//! crossbeam channels on OS threads (CPU-bound work does not belong on an
//! async runtime), `ask`/`tell` messaging, request queueing while an
//! actor is busy (the §5 model-reload behaviour), and supervised restart
//! on panic (the §5 "failure recovery").
//!
//! Implemented: typed actors, blocking and deferred ask, ordered
//! mailboxes, and panic supervision with state rebuild. Every mailbox is
//! **bounded** — [`spawn_bounded`] and [`spawn_supervised_bounded`] are
//! the only constructors — so a slow consumer (a trainer hogging its
//! thread, a shard mid-reload) blocks its producers instead of growing a
//! queue until the box runs out of memory.
//! Omitted: distribution across machines, actor migration — neither is
//! needed for a single edge server.

pub mod actor;
pub mod supervisor;

pub use actor::{spawn_bounded, Actor, ActorError, ActorHandle, Address, Pending};
pub use supervisor::{spawn_supervised_bounded, SupervisedHandle, SupervisorStats};
