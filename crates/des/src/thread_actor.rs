//! Blocking-style actors for the deterministic simulator.
//!
//! SPMD code (the MPI baseline) is far more natural to write in blocking
//! style (`recv()` suspends the rank) than as explicit continuations. This
//! module bridges blocking code into the sequential DES: each actor runs on
//! its own OS thread, but *exactly one* thread — either the simulator or a
//! single actor — is runnable at any instant. Control passes via rendezvous
//! channels:
//!
//! - the simulator resumes an actor by handing it an answer value `A`;
//! - the actor runs until it issues its next request `Q` (or finishes),
//!   which suspends it and returns control to the simulator.
//!
//! Strict hand-off means the interleaving is a deterministic function of the
//! event schedule, so simulations involving dozens of rank threads remain
//! bit-reproducible.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// What an actor thread reports when it suspends.
pub enum Suspended<Q, T> {
    /// The actor issued a request and is blocked awaiting its answer.
    Request(Q),
    /// The actor's body returned with this value; the thread has exited.
    Finished(T),
}

/// Handle given to the blocking actor body for talking to the simulator.
pub struct ThreadCtx<Q, A, T> {
    req_tx: SyncSender<Suspended<Q, T>>,
    ans_rx: Receiver<A>,
}

impl<Q, A, T> ThreadCtx<Q, A, T> {
    /// Issue a request to the simulator and block until it answers.
    ///
    /// # Panics
    /// Panics if the simulator side has been dropped (the simulation was
    /// abandoned while this actor was still live).
    pub fn call(&self, request: Q) -> A {
        self.req_tx
            .send(Suspended::Request(request))
            .expect("simulator dropped while actor still running");
        self.ans_rx
            .recv()
            .expect("simulator dropped while actor awaiting answer")
    }
}

/// The simulator-side handle of a blocking actor.
pub struct ThreadActor<Q, A, T> {
    ans_tx: SyncSender<A>,
    req_rx: Receiver<Suspended<Q, T>>,
    handle: Option<JoinHandle<()>>,
    finished: bool,
}

impl<Q, A, T> ThreadActor<Q, A, T>
where
    Q: Send + 'static,
    A: Send + 'static,
    T: Send + 'static,
{
    /// Spawn the actor. The body does not begin executing until the first
    /// [`ThreadActor::resume`] call, whose answer value acts purely as a
    /// start token the body never sees.
    pub fn spawn<F>(name: String, body: F) -> Self
    where
        F: FnOnce(&ThreadCtx<Q, A, T>) -> T + Send + 'static,
    {
        // Capacity-1 channels: with strict hand-off there is at most one
        // in-flight message per direction, so sends never block.
        let (ans_tx, ans_rx) = sync_channel::<A>(1);
        let (req_tx, req_rx) = sync_channel::<Suspended<Q, T>>(1);
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let ctx = ThreadCtx { req_tx, ans_rx };
                // Wait for the start token before running user code.
                let _start: A = ctx
                    .ans_rx
                    .recv()
                    .expect("simulator dropped before starting actor");
                let result = body(&ctx);
                let _ = ctx.req_tx.send(Suspended::Finished(result));
            })
            .expect("failed to spawn actor thread");
        ThreadActor {
            ans_tx,
            req_rx,
            handle: Some(handle),
            finished: false,
        }
    }

    /// Hand `answer` to the actor and run it until its next suspension.
    ///
    /// The first `resume` after `spawn` starts the body; its answer value is
    /// discarded by the actor.
    pub fn resume(&mut self, answer: A) -> Suspended<Q, T> {
        assert!(!self.finished, "resumed an already-finished actor");
        self.ans_tx
            .send(answer)
            .expect("actor thread died unexpectedly");
        let s = self
            .req_rx
            .recv()
            .expect("actor thread died unexpectedly (panicked?)");
        if matches!(s, Suspended::Finished(_)) {
            self.finished = true;
        }
        s
    }

    /// Whether the actor body has returned.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl<Q, A, T> Drop for ThreadActor<Q, A, T> {
    fn drop(&mut self) {
        // Dropping ans_tx makes a blocked actor's recv fail; it then panics
        // in its own thread, which we swallow on join. This only happens
        // when a simulation is abandoned mid-flight (e.g. a failing test).
        if let Some(h) = self.handle.take() {
            drop(std::mem::replace(&mut self.ans_tx, sync_channel(1).0));
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_round_trip() {
        // Actor doubles each answer it receives and asks for more.
        let mut actor: ThreadActor<u32, u32, u32> =
            ThreadActor::spawn("doubler".into(), |ctx| {
                let mut acc = 0;
                for _ in 0..3 {
                    acc = ctx.call(acc * 2 + 1);
                }
                acc
            });
        // First resume delivers the start token.
        let mut next = match actor.resume(0) {
            Suspended::Request(q) => q,
            Suspended::Finished(_) => panic!("finished too early"),
        };
        assert_eq!(next, 1); // 0*2+1
        next = match actor.resume(next + 10) {
            Suspended::Request(q) => q,
            _ => panic!(),
        };
        assert_eq!(next, 23); // 11*2+1
        next = match actor.resume(next) {
            Suspended::Request(q) => q,
            _ => panic!(),
        };
        assert_eq!(next, 47); // 23*2+1
        match actor.resume(100) {
            Suspended::Finished(v) => assert_eq!(v, 100),
            _ => panic!("expected finish"),
        }
        assert!(actor.is_finished());
    }

    #[test]
    fn actor_with_no_requests_finishes_immediately() {
        let mut actor: ThreadActor<(), (), &'static str> =
            ThreadActor::spawn("noop".into(), |_| "done");
        match actor.resume(()) {
            Suspended::Finished(v) => assert_eq!(v, "done"),
            _ => panic!("expected immediate finish"),
        }
    }

    #[test]
    fn dropping_simulator_side_reaps_blocked_actor() {
        let mut actor: ThreadActor<u32, u32, ()> =
            ThreadActor::spawn("orphan".into(), |ctx| {
                let _ = ctx.call(7);
            });
        match actor.resume(0) {
            Suspended::Request(q) => assert_eq!(q, 7),
            _ => panic!(),
        }
        drop(actor); // must not hang
    }

    #[test]
    fn many_actors_interleave_deterministically() {
        let run = || {
            let mut order = Vec::new();
            let mut actors: Vec<ThreadActor<usize, usize, usize>> = (0..8)
                .map(|i| {
                    ThreadActor::spawn(format!("a{i}"), move |ctx| {
                        let mut x = i;
                        for _ in 0..4 {
                            x = ctx.call(x);
                        }
                        x
                    })
                })
                .collect();
            let mut live = actors.len();
            // Kick off with start tokens; collect first requests.
            let mut pending: Vec<Option<usize>> = actors
                .iter_mut()
                .map(|a| match a.resume(0) {
                    Suspended::Request(q) => Some(q),
                    Suspended::Finished(_) => None,
                })
                .collect();
            while live > 0 {
                for (i, a) in actors.iter_mut().enumerate() {
                    if a.is_finished() {
                        continue;
                    }
                    if let Some(q) = pending[i].take() {
                        order.push((i, q));
                        match a.resume(q + 1) {
                            Suspended::Request(q2) => pending[i] = Some(q2),
                            Suspended::Finished(v) => {
                                order.push((i, 1000 + v));
                                live -= 1;
                            }
                        }
                    }
                }
            }
            order
        };
        assert_eq!(run(), run());
    }
}
