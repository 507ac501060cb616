//! Kernel: drain before kill (the §3.5 stable update's removal step).
//!
//! Scaling a node in retires some of its tasks. The streaming manager
//! re-routes every predecessor away from a retired task, then kills it.
//! Tuples the predecessor sent before the re-route may still sit in the
//! retired task's input ring. The pre-fix protocol waited a fixed time
//! and then killed, so a backlogged or descheduled task died with input
//! still queued. The fixed protocol orders the kill in band: the
//! predecessor sends a `DRAIN` marker behind its last tuple on the FIFO
//! path, the retired task answers the manager's `FENCE` only once it has
//! processed that marker, and the manager kills only after the answer.
//!
//! Invariant: **no lost tuple** — every tuple the predecessor sent to the
//! retired task is processed before the task dies.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{bounded, thread, Mutex, Notify};
use std::collections::VecDeque;
use std::sync::Arc;

/// What arrives at the retired task's input ring, where the data path
/// from the predecessor and the controller's `PacketOut`s merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// A data tuple (its sequence number).
    Data(u32),
    /// The predecessor's drain marker: nothing from it follows.
    Drain,
    /// The manager's fence: answer once the marker has been processed.
    Fence,
}

/// The retired task's side of the protocol.
pub struct DrainKernel {
    input: Mutex<VecDeque<Msg>>,
    notify: Notify,
    killed: AtomicBool,
    sent: Mutex<Vec<u32>>,
    processed: Mutex<Vec<u32>>,
}

impl DrainKernel {
    /// A running task with an empty input ring.
    pub fn new() -> Self {
        DrainKernel {
            input: Mutex::new(VecDeque::new()),
            notify: Notify::new(),
            killed: AtomicBool::new(false),
            sent: Mutex::new(Vec::new()),
            processed: Mutex::new(Vec::new()),
        }
    }

    /// Appends to the task's input ring (FIFO per sender).
    pub fn deliver(&self, msg: Msg) {
        if let Msg::Data(n) = msg {
            self.sent.lock().push(n);
        }
        self.input.lock().push_back(msg);
        self.notify.notify_all();
    }

    /// The manager's kill: the task exits at its next loop turn, and
    /// whatever is still queued dies with it.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::Release);
        self.notify.notify_all();
    }

    /// The task's worker loop. Sends on `fence_reply` once a fence and
    /// the drain marker have both been processed.
    pub fn run(&self, fence_reply: crate::sync::Sender<()>) {
        let (mut drained, mut fenced) = (false, false);
        loop {
            let seen = self.notify.epoch();
            if self.killed.load(Ordering::Acquire) {
                return;
            }
            let next = self.input.lock().pop_front();
            match next {
                Some(Msg::Data(n)) => self.processed.lock().push(n),
                Some(Msg::Drain) => drained = true,
                Some(Msg::Fence) => fenced = true,
                None => self.notify.wait_from(seen),
            }
            if drained && fenced {
                fenced = false;
                let _ = fence_reply.send(());
            }
        }
    }

    /// (sent to the task, processed by the task).
    pub fn finish(&self) -> (Vec<u32>, Vec<u32>) {
        (self.sent.lock().clone(), self.processed.lock().clone())
    }
}

impl Default for DrainKernel {
    fn default() -> Self {
        DrainKernel::new()
    }
}

/// A predecessor sends two tuples to the retired task, is re-routed
/// away, and (fixed protocol) marks the end of its stream. The manager
/// re-routes and kills — after a bounded wait (pre-fix) or after the
/// task's fence reply (fixed). No tuple sent to the task may be lost.
pub fn scale_in_scenario(fixed: bool) {
    let kernel = Arc::new(DrainKernel::new());
    let (reroute_tx, reroute_rx) = bounded::<()>(1);
    let (reply_tx, reply_rx) = bounded::<()>(1);

    let task_kernel = Arc::clone(&kernel);
    let task = thread::spawn(move || task_kernel.run(reply_tx));

    let pred_kernel = Arc::clone(&kernel);
    let predecessor = thread::spawn(move || {
        pred_kernel.deliver(Msg::Data(0));
        pred_kernel.deliver(Msg::Data(1));
        // The ROUTING tuple drops the task from the hop set.
        let _ = reroute_rx.recv();
        if fixed {
            pred_kernel.deliver(Msg::Drain);
        }
    });

    // The manager.
    let _ = reroute_tx.send(());
    if fixed {
        kernel.deliver(Msg::Fence);
        let _ = reply_rx.recv();
    } else {
        // The drain sleep: a guess at how long the backlog takes.
        thread::yield_now();
    }
    kernel.kill();

    predecessor.join();
    task.join();
    let (sent, processed) = kernel.finish();
    assert_eq!(
        processed, sent,
        "lost a tuple: the retired task was killed with input still queued"
    );
}
