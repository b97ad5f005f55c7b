//! The closed-loop load generator: a fixed number of clients, each on its
//! own keep-alive connection, each sending its next request only after
//! the previous answer arrived — callers waiting for their schedule.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::http::Conn;

/// Client threads and connections: the host's CPU count (2), so the
/// load generator never needs more threads than the machine has.
pub const CLIENTS: usize = 2;

/// Operations per connection before a client reconnects. The server's
/// event loops race to accept each connection, and two connections on
/// one loop serialize behind each other; reconnecting redraws that
/// placement many times per run instead of once, so a run measures the
/// average placement rather than one random draw.
const OPS_PER_CONNECTION: usize = 16;

/// One completed operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub idx: usize,
    /// Send of the first request byte to the last response byte.
    pub ms: f64,
    /// When the operation completed, seconds into its phase.
    pub end_s: f64,
    pub error: Option<String>,
    /// The final answer's bytes, kept only where `keep(idx)` asked.
    pub body: Option<Vec<u8>>,
}

/// What an operation did: the final answer's bytes or why it failed.
pub type OpResult = Result<Vec<u8>, String>;

/// Runs operations `0, 1, 2, ...` until `limit` have started or, when
/// given, `seconds` have passed. Returns them sorted by index.
pub fn closed_loop(
    addr: SocketAddr,
    limit: usize,
    seconds: Option<f64>,
    keep: &(dyn Fn(usize) -> bool + Sync),
    op: &(dyn Fn(&mut Conn, usize) -> OpResult + Sync),
) -> Vec<Op> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut conn = None;
                let mut mine: Vec<Op> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let elapsed = started.elapsed().as_secs_f64();
                    if idx >= limit || seconds.is_some_and(|s| elapsed >= s) {
                        break;
                    }
                    if mine.len().is_multiple_of(OPS_PER_CONNECTION) {
                        conn = Conn::connect(addr).ok();
                    }
                    let t0 = Instant::now();
                    let result = match conn.as_mut() {
                        Some(c) => op(c, idx),
                        None => Err("cannot connect".to_owned()),
                    };
                    let ms = t0.elapsed().as_secs_f64() * 1000.0;
                    let end_s = started.elapsed().as_secs_f64();
                    let (error, body) = match result {
                        Ok(bytes) => (None, keep(idx).then_some(bytes)),
                        Err(e) => {
                            // The connection may be broken mid-answer.
                            conn = Conn::connect(addr).ok();
                            (Some(e), None)
                        }
                    };
                    mine.push(Op {
                        idx,
                        ms,
                        end_s,
                        error,
                        body,
                    });
                }
                done.lock().expect("no client panics").extend(mine);
            });
        }
    });
    let mut ops = done.into_inner().expect("no client panics");
    ops.sort_by_key(|o| o.idx);
    ops
}

/// `POST path body`, demanding `status`; the answer's bytes.
pub fn post_expect(conn: &mut Conn, path: &str, body: &[u8], status: u16) -> OpResult {
    let reply = conn
        .post(path, body)
        .map_err(|e| format!("transport: {e}"))?;
    if reply.status == status {
        Ok(reply.body)
    } else {
        Err(format!(
            "status {} (wanted {status}): {}",
            reply.status,
            String::from_utf8_lossy(&reply.body[..reply.body.len().min(200)])
        ))
    }
}
