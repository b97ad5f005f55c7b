//! The service's network entry path: a handful of event-loop
//! threads multiplexing every connection over `poll(2)` (the vendored
//! [`polling`] binding), so one node holds tens of thousands of idle
//! keep-alive connections without a thread per socket.
//!
//! Division of labour:
//!
//! - **Event loops** ([`reactor`]) own the sockets: accept, read,
//!   incremental parse ([`crate::http::parse_request`]), write with
//!   backpressure, keep-alive idle sweep. All loops poll one shared
//!   listener; the kernel's accept race balances them.
//! - **Connection state machines** ([`conn`]) keep per-connection
//!   buffers and the in-order response slot queue that makes
//!   pipelining safe: responses are written strictly in request
//!   order, however out of order the jobs finish.
//! - **Scheduling work never runs here.** Routing goes through
//!   [`crate::server`]; a submission that needs a worker registers a
//!   [`crate::engine::Job::on_finish`] watcher and parks only its
//!   *slot*, not a thread. The worker's completion is posted to the
//!   owning loop's [`Inbox`] and flushed on the next wakeup.
//!
//! Responses are rendered to wire bytes by
//! [`crate::http::render_response`].

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::Engine;
use crate::http::Response;

pub mod chaos;
pub(crate) mod conn;
pub(crate) mod reactor;

/// Counters the reactor maintains, rendered as the
/// `noc_svc_reactor_*` metrics family.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Connections currently open (gauge).
    pub connections: AtomicU64,
    /// Connections accepted since start.
    pub accepted: AtomicU64,
    /// Readiness wakeups — `poll(2)` returns — across event loops.
    pub wakeups: AtomicU64,
    /// Connections currently blocked on socket write backpressure
    /// (gauge).
    pub write_stalled: AtomicU64,
    /// Responses that hit write backpressure and waited for
    /// `POLLOUT` at least once.
    pub write_stalls_entered: AtomicU64,
}

/// Reactor tuning knobs, filled from the service config.
pub(crate) struct ReactorOptions {
    /// Event-loop threads.
    pub loops: usize,
    /// Largest accepted request body, bytes.
    pub max_body: usize,
    /// Keep-alive idle timeout.
    pub idle_timeout: Duration,
}

/// One queued job completion, posted from a scheduler worker to the
/// event loop owning the connection.
pub(crate) struct Completion {
    /// The connection's loop-local token.
    pub token: u64,
    /// The response slot within the connection.
    pub seq: u64,
    /// The finished response (rendered to wire bytes by the loop,
    /// which knows the slot's keep-alive decision).
    pub response: Response,
}

/// A loop's cross-thread mailbox: completions plus the byte-pipe that
/// wakes the loop out of `poll`.
pub(crate) struct Inbox {
    completions: Mutex<Vec<Completion>>,
    /// Write side of the waker pipe (a loopback socket pair —
    /// everything stays `std`). Nonblocking: a full pipe already
    /// means a wakeup is pending.
    waker_tx: Mutex<TcpStream>,
}

impl Inbox {
    fn new(waker_tx: TcpStream) -> Inbox {
        Inbox {
            completions: Mutex::new(Vec::new()),
            waker_tx: Mutex::new(waker_tx),
        }
    }

    /// Queues a completion and wakes the loop.
    pub(crate) fn post(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("inbox lock")
            .push(completion);
        self.wake();
    }

    /// Wakes the loop without queueing anything (shutdown nudge).
    pub(crate) fn wake(&self) {
        let mut tx = self.waker_tx.lock().expect("inbox lock");
        // WouldBlock means unread wake bytes are already in the pipe.
        let _ = tx.write(&[1]);
    }

    /// Takes every queued completion.
    pub(crate) fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("inbox lock"))
    }
}

/// The running reactor: join handles plus the per-loop inboxes used
/// to nudge loops awake at shutdown.
pub(crate) struct ReactorHandle {
    loops: Vec<JoinHandle<()>>,
    inboxes: Vec<Arc<Inbox>>,
}

impl ReactorHandle {
    /// Wakes every loop (they observe the stop flag, drain in-flight
    /// responses and exit) and joins them.
    pub(crate) fn shutdown(self) {
        for inbox in &self.inboxes {
            inbox.wake();
        }
        for handle in self.loops {
            let _ = handle.join();
        }
    }

    /// Blocks until every loop exits.
    pub(crate) fn wait(self) {
        for handle in self.loops {
            let _ = handle.join();
        }
    }
}

/// Builds one waker pipe: a connected loopback socket pair, both ends
/// nonblocking. The read side is polled; the write side lives in the
/// loop's [`Inbox`].
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let tx = TcpStream::connect(addr)?;
    let local = tx.local_addr()?;
    // Guard against a stray connection racing us to the ephemeral
    // port: accept until we see our own peer.
    let rx = loop {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            break rx;
        }
    };
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// Drains the waker pipe so its readability is level-triggered per
/// wake batch, not sticky.
pub(crate) fn drain_waker(rx: &mut TcpStream) {
    let mut sink = [0u8; 256];
    loop {
        match rx.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Spawns the event loops over a shared nonblocking listener.
pub(crate) fn spawn(
    engine: Arc<Engine>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    opts: &ReactorOptions,
) -> io::Result<ReactorHandle> {
    let stats = Arc::new(ReactorStats::default());
    engine.metrics.set_reactor_stats(Arc::clone(&stats));
    listener.set_nonblocking(true)?;
    let mut loops = Vec::new();
    let mut inboxes = Vec::new();
    for i in 0..opts.loops.max(1) {
        let (tx, rx) = waker_pair()?;
        let inbox = Arc::new(Inbox::new(tx));
        let ctx = reactor::LoopCtx {
            engine: Arc::clone(&engine),
            inbox: Arc::clone(&inbox),
            stop: Arc::clone(&stop),
            stats: Arc::clone(&stats),
            max_body: opts.max_body,
            idle_timeout: opts.idle_timeout,
        };
        let listener = listener.try_clone()?;
        loops.push(
            std::thread::Builder::new()
                .name(format!("svc-reactor-{i}"))
                .spawn(move || reactor::event_loop(&ctx, &listener, rx))?,
        );
        inboxes.push(inbox);
    }
    Ok(ReactorHandle { loops, inboxes })
}
