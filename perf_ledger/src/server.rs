//! The real `noceas serve` as a child process: spawn, readiness, metric
//! scrapes, peak memory, and kill -9.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Conn;

/// The `noceas` binary built next to this benchmark.
pub fn noceas() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?.with_file_name("noceas");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found; build it with the benchmark (perf_ledger/run.sh)",
                exe.display()
            ),
        ))
    }
}

/// A running server process. Dropping it kills the process and waits
/// for it, so no server outlives the benchmark.
pub struct Server {
    child: Child,
    /// Held open for the server's lifetime: it announced its address
    /// here and must never write into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `noceas serve --addr 127.0.0.1:0 <extra>` and returns once
    /// `/healthz` answered 200, with the seconds that took (spawn to
    /// first 200). Everything but the listen address and `extra` is
    /// `ServiceConfig`'s default. The server's stderr goes to `log`.
    pub fn spawn(extra: &[String], log: &Path) -> io::Result<(Server, f64)> {
        let exe = noceas()?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Owned by `Server` from here on, so every error path below
        // kills and reaps the child.
        let mut server = Server {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::other(format!("server did not announce its address: {line:?}"))
            })?;
        while server.get("/healthz")?.0 != 200 {
            if started.elapsed() > Duration::from_secs(60) {
                return Err(io::Error::other("server never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    fn get(&self, path: &str) -> io::Result<(u16, String)> {
        let reply = Conn::connect(self.addr)?.get(path)?;
        Ok((
            reply.status,
            String::from_utf8_lossy(&reply.body).into_owned(),
        ))
    }

    /// The unlabelled samples of `/metrics`, by name.
    pub fn metrics(&self) -> io::Result<HashMap<String, f64>> {
        let (_, text) = self.get("/metrics")?;
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(name, v)| Some((name.to_owned(), v.trim().parse().ok()?)))
            .collect())
    }

    /// Peak resident memory of the server so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// kill -9, then reap the process.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter delta between two scrapes (0 for absent counters).
pub fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}
