//! Shared plumbing of the load tools that talk to a running `noceas
//! serve`: the fixed-seed problem generator and the client helpers.

use std::net::SocketAddr;
use std::time::Duration;

use noc_ctg::prelude::{TaskGraph, TgffConfig, TgffGenerator};
use noc_platform::prelude::Platform;
use noc_svc::client::{Client, ClientResponse};

/// The platform every generated problem targets.
const PLATFORM: &str = "mesh:2x2";

/// The parsed `mesh:2x2` platform every generated problem targets.
#[must_use]
pub fn platform() -> Platform {
    noc_svc::spec::parse_platform(PLATFORM).expect("platform parses")
}

/// One fixed-seed problem: a category-I TGFF graph on `mesh:2x2`.
pub struct Problem {
    /// The generated graph.
    pub graph: TaskGraph,
    /// The graph's JSON, as request bodies embed it.
    pub json: String,
}

impl Problem {
    /// Generates the `tasks`-task graph drawn from `seed`.
    #[must_use]
    pub fn new(seed: u64, tasks: usize) -> Self {
        let mut cfg = TgffConfig::category_i(seed);
        cfg.task_count = tasks;
        let graph = TgffGenerator::new(cfg)
            .generate(&platform())
            .expect("graph generates");
        let json = serde_json::to_string(&graph).expect("serializes");
        Problem { graph, json }
    }

    /// The `POST /v1/schedule` body asking `scheduler` for this problem.
    #[must_use]
    pub fn body(&self, scheduler: &str) -> String {
        format!(
            r#"{{"graph":{},"platform":"{PLATFORM}","scheduler":"{scheduler}"}}"#,
            self.json
        )
    }
}

/// The fixed-seed request mix: `graphs` problems times `schedulers`.
/// Problem `g` is drawn from `seed + g` with `10 + (g % cycle) * 2`
/// tasks. Identical mix indices must answer identical bytes.
#[must_use]
pub fn mix(seed: u64, graphs: usize, cycle: usize, schedulers: &[&str]) -> Vec<String> {
    let mut mix = Vec::with_capacity(graphs * schedulers.len());
    for g in 0..graphs {
        let problem = Problem::new(seed.wrapping_add(g as u64), 10 + (g % cycle) * 2);
        mix.extend(schedulers.iter().map(|scheduler| problem.body(scheduler)));
    }
    mix
}

/// Connects to a service, retrying for up to `patience` while it
/// boots, with `timeout` on every read and write.
///
/// # Errors
///
/// A message naming `addr` when nothing accepted in time.
pub fn connect(addr: SocketAddr, patience: Duration, timeout: Duration) -> Result<Client, String> {
    let mut client =
        Client::connect_retry(addr, patience).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let _ = client.set_timeout(timeout);
    Ok(client)
}

/// Posts `body` to `path` and demands the `status` answer.
///
/// # Errors
///
/// The transport failure, or the status that came instead with its
/// body.
pub fn post_expect(
    client: &mut Client,
    path: &str,
    body: &str,
    status: u16,
) -> Result<ClientResponse, String> {
    let resp = client.post(path, body).map_err(|e| e.to_string())?;
    if resp.status == status {
        Ok(resp)
    } else {
        Err(format!(
            "answered {} (want {status}): {}",
            resp.status, resp.body
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over each body followed by a newline.
    fn digest(bodies: &[String]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for body in bodies {
            for &byte in body.as_bytes().iter().chain(b"\n") {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The mixes the load tools send, pinned to the bodies their
    /// per-tool generators produced before they shared this one:
    /// `svc_load`'s load wave at `--graphs 12` with and without
    /// `--stats`, its cluster mix at `--graphs 6` (all at seed 1516),
    /// and `obs_overhead`'s mix.
    #[test]
    fn mixes_are_pinned() {
        let cases = [
            (mix(1516, 12, 4, &["edf", "dls"]), 24, 0x1c4a_a692_ecda_3511),
            (
                mix(1516, 12, 4, &["edf", "dls", "eas"]),
                36,
                0x3fde_8864_e642_4748,
            ),
            (mix(1516, 6, 4, &["edf", "dls"]), 12, 0x0ece_23f2_7b1c_bed3),
            (mix(0x0B5, 3, 3, &["edf", "dls"]), 6, 0x7fdf_401a_39dc_f2a7),
        ];
        for (bodies, len, pinned) in cases {
            assert_eq!(bodies.len(), len);
            assert_eq!(digest(&bodies), pinned, "{}", bodies[0]);
        }
    }
}
