//! Three in-process nodes exercising the cluster tier end to end:
//! cross-node byte determinism with zero recomputation, replication to
//! the owner chain, owner death leaving survivors able to serve the
//! exact bytes from replicated records, and a network-fault partition
//! matrix (one-way partition, peer flap, slow peer) run through the
//! in-process [`ChaosProxy`].

use std::collections::HashMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use noc_svc::client::Client;
use noc_svc::cluster::Ring;
use noc_svc::net::chaos::ChaosProxy;
use noc_svc::{Server, ServiceConfig};

/// Reserves `n` distinct loopback ports by binding ephemeral
/// listeners, then releases them for the servers to claim. The gap is
/// racy in principle; in practice the kernel does not reissue a
/// just-released ephemeral port to another process this quickly.
fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("binds"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect()
}

fn start_node(addr: &str, peers: &[String]) -> Server {
    Server::start(ServiceConfig {
        addr: addr.to_owned(),
        http_workers: 2,
        sched_workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        peers: peers.to_vec(),
        self_addr: Some(addr.to_owned()),
        ..ServiceConfig::default()
    })
    .expect("node starts")
}

fn client_for(addr: &str) -> Client {
    Client::connect_retry(addr.parse().expect("socket addr"), Duration::from_secs(5))
        .expect("connects")
}

fn graph_json(seed: u64, tasks: usize) -> String {
    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform");
    let mut cfg = noc_ctg::prelude::TgffConfig::category_i(seed);
    cfg.task_count = tasks;
    let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
        .generate(&platform)
        .expect("generates");
    serde_json::to_string(&graph).expect("serializes")
}

fn schedule_body(graph: &str, scheduler: &str) -> String {
    format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"{scheduler}"}}"#)
}

/// Scrapes one counter/gauge value from a node's `/metrics`.
fn scrape(client: &mut Client, metric: &str) -> u64 {
    let resp = client.get("/metrics").expect("scrapes");
    assert_eq!(resp.status, 200);
    resp.body
        .lines()
        .find_map(|l| l.strip_prefix(metric).and_then(|v| v.trim().parse().ok()))
        .unwrap_or_else(|| panic!("{metric} missing from /metrics"))
}

/// Waits until `addr` answers `/v1/internal/lookup/<id>` with 200 —
/// i.e. replication of `id` to that node has settled.
fn await_record(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut client = client_for(addr);
    loop {
        match client.get(&format!("/v1/internal/lookup/{id}")) {
            Ok(resp) if resp.status == 200 => return,
            _ if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("record {id} never replicated to {addr}: last answer {other:?}"),
        }
    }
}

#[test]
fn every_node_answers_identical_bytes_with_zero_recompute() {
    let peers = free_addrs(3);
    let servers: Vec<Server> = peers.iter().map(|a| start_node(a, &peers)).collect();
    let ring = Ring::new(peers.clone());

    // Four distinct problems, all filled through node 0.
    let bodies: Vec<String> = [(41u64, "edf"), (41, "dls"), (42, "edf"), (42, "dls")]
        .iter()
        .map(|(seed, scheduler)| schedule_body(&graph_json(*seed, 10), scheduler))
        .collect();
    let mut via_node0 = client_for(&peers[0]);
    let mut reference: Vec<(String, String)> = Vec::new(); // (id, body)
    for body in &bodies {
        let resp = via_node0.post("/v1/schedule", body).expect("fills");
        assert_eq!(resp.status, 200, "fill failed: {}", resp.body);
        let id = resp
            .header("x-request-hash")
            .expect("hash header")
            .to_owned();
        reference.push((id, resp.body));
    }

    // Replication must land the record at the owner and successor.
    for (id, _) in &reference {
        for node in ring.owner_chain(id, 2) {
            await_record(node, id);
        }
    }

    // Every other node answers every problem with the exact bytes —
    // from its replica ("hit") or a peer fill ("peer"), never a
    // recompute.
    for addr in &peers[1..] {
        let mut client = client_for(addr);
        for (body, (id, expected)) in bodies.iter().zip(&reference) {
            let resp = client.post("/v1/schedule", body).expect("answers");
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.header("x-request-hash"),
                Some(id.as_str()),
                "nodes must agree on the request identity"
            );
            assert_eq!(
                &resp.body, expected,
                "node {addr} answered different bytes for {id}"
            );
            let label = resp.header("x-cache").expect("cache label").to_owned();
            assert!(
                label == "hit" || label == "peer",
                "node {addr} answered {id} via `{label}` — that is a recompute"
            );
        }
    }

    // The cluster as a whole computed each problem exactly once.
    let executed: u64 = peers
        .iter()
        .map(|a| scrape(&mut client_for(a), "noc_svc_schedules_executed_total "))
        .sum();
    assert_eq!(
        executed,
        bodies.len() as u64,
        "cluster must compute each distinct problem exactly once"
    );
    // And the peer-fill path was genuinely exercised.
    let fills: u64 = peers
        .iter()
        .map(|a| scrape(&mut client_for(a), "noc_svc_cluster_peer_fill_total "))
        .sum();
    let received: u64 = peers
        .iter()
        .map(|a| {
            scrape(
                &mut client_for(a),
                "noc_svc_cluster_replication_received_total ",
            )
        })
        .sum();
    assert!(
        fills + received > 0,
        "cross-node answers must come from fills or replicas"
    );
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn owner_death_leaves_survivors_serving_replicated_bytes() {
    let peers = free_addrs(3);
    let mut servers: HashMap<String, Server> = peers
        .iter()
        .map(|a| (a.clone(), start_node(a, &peers)))
        .collect();
    let ring = Ring::new(peers.clone());

    let body = schedule_body(&graph_json(77, 12), "edf");
    let mut via_node0 = client_for(&peers[0]);
    let resp = via_node0.post("/v1/schedule", &body).expect("fills");
    assert_eq!(resp.status, 200, "fill failed: {}", resp.body);
    let id = resp
        .header("x-request-hash")
        .expect("hash header")
        .to_owned();
    let expected = resp.body;
    drop(via_node0);

    // Wait for the record to reach the full owner chain, then kill
    // the owner.
    let owner = ring.owner(&id).to_owned();
    for node in ring.owner_chain(&id, 2) {
        await_record(node, &id);
    }
    let survivors: Vec<String> = peers.iter().filter(|a| **a != owner).cloned().collect();
    let executed_before: u64 = survivors
        .iter()
        .map(|a| scrape(&mut client_for(a), "noc_svc_schedules_executed_total "))
        .sum();
    servers.remove(&owner).expect("owner is a node").shutdown();

    // Every survivor still answers the exact bytes without computing:
    // the successor holds the replica, everyone else peer-fills from
    // it after the dead owner fails fast.
    for addr in &survivors {
        let mut client = client_for(addr);
        let resp = client
            .post("/v1/schedule", &body)
            .expect("survivor answers");
        assert_eq!(resp.status, 200, "survivor {addr} failed: {}", resp.body);
        assert_eq!(
            resp.body, expected,
            "survivor {addr} answered different bytes after owner death"
        );
        let label = resp.header("x-cache").expect("cache label").to_owned();
        assert!(
            label == "hit" || label == "peer",
            "survivor {addr} answered via `{label}` — that is a recompute"
        );
    }
    let executed_after: u64 = survivors
        .iter()
        .map(|a| scrape(&mut client_for(a), "noc_svc_schedules_executed_total "))
        .sum();
    assert_eq!(
        executed_before, executed_after,
        "owner death must not force a recompute anywhere"
    );
    for server in servers.into_values() {
        server.shutdown();
    }
}

/// A cluster whose inter-node traffic runs through [`ChaosProxy`]s:
/// each node's ring identity is its proxy's address, its listener is a
/// hidden direct address, and test clients dial the direct addresses
/// so faults hit only peer-to-peer traffic.
struct ProxiedCluster {
    /// Ring identities — the proxy addresses, as the peers dial them.
    identities: Vec<String>,
    /// The nodes' real listener addresses (bypass the proxies).
    direct: Vec<String>,
    proxies: Vec<ChaosProxy>,
    servers: Vec<Server>,
    ring: Ring,
}

impl ProxiedCluster {
    /// `anti_entropy` of `None` disables the sweep, isolating the
    /// retry-queue path.
    fn start(n: usize, peer_timeout: Duration, anti_entropy: Option<Duration>) -> ProxiedCluster {
        let identities = free_addrs(n);
        let direct = free_addrs(n);
        let proxies: Vec<ChaosProxy> = identities
            .iter()
            .zip(&direct)
            .map(|(public, real)| {
                ChaosProxy::start(public, real.parse().expect("addr")).expect("proxy starts")
            })
            .collect();
        let servers: Vec<Server> = direct
            .iter()
            .zip(&identities)
            .map(|(real, identity)| {
                Server::start(ServiceConfig {
                    addr: real.clone(),
                    http_workers: 2,
                    sched_workers: 2,
                    queue_capacity: 8,
                    cache_capacity: 64,
                    peers: identities.clone(),
                    self_addr: Some(identity.clone()),
                    peer_timeout,
                    probe_interval: Duration::from_millis(50),
                    anti_entropy_interval: anti_entropy.unwrap_or(Duration::ZERO),
                    ..ServiceConfig::default()
                })
                .expect("node starts")
            })
            .collect();
        let ring = Ring::new(identities.clone());
        ProxiedCluster {
            identities,
            direct,
            proxies,
            servers,
            ring,
        }
    }

    /// Fills `body` through node `via` (direct), returning the record
    /// id and the reference bytes.
    fn fill(&self, via: usize, body: &str) -> (String, String) {
        let mut client = client_for(&self.direct[via]);
        let resp = client.post("/v1/schedule", body).expect("fills");
        assert_eq!(resp.status, 200, "fill failed: {}", resp.body);
        let id = resp
            .header("x-request-hash")
            .expect("hash header")
            .to_owned();
        (id, resp.body)
    }

    fn shutdown(mut self) {
        for server in self.servers.drain(..) {
            server.shutdown();
        }
        for mut proxy in self.proxies.drain(..) {
            proxy.shutdown();
        }
    }
}

/// Waits until the summed replication retry backlog across all nodes
/// reaches zero.
fn await_lag_drained(direct: &[String]) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let lag: u64 = direct
            .iter()
            .map(|a| scrape(&mut client_for(a), "noc_svc_cluster_replication_lag "))
            .sum();
        if lag == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replication lag stuck at {lag} after heal"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn one_way_partition_heals_into_full_replication_without_recompute() {
    let cluster = ProxiedCluster::start(
        3,
        Duration::from_millis(500),
        Some(Duration::from_millis(300)),
    );

    // One-way partition: node 0's *inbound* proxy denies everything,
    // but node 0 can still dial out to its peers' proxies.
    cluster.proxies[0].policy().set_deny(true);

    // Fill through a survivor while the partition is up. Every fill
    // must answer 200 — a dead peer can never fail a request.
    let bodies: Vec<String> = [(201u64, "edf"), (201, "dls"), (202, "edf"), (203, "dls")]
        .iter()
        .map(|(seed, scheduler)| schedule_body(&graph_json(*seed, 10), scheduler))
        .collect();
    let mut reference: Vec<(String, String)> = Vec::new();
    for body in &bodies {
        reference.push(cluster.fill(1, body));
    }

    // The other survivor answers everything byte-identically while
    // the partition is still up — zero wrong answers mid-fault.
    let mut via_node2 = client_for(&cluster.direct[2]);
    for (body, (id, expected)) in bodies.iter().zip(&reference) {
        let resp = via_node2.post("/v1/schedule", body).expect("answers");
        assert_eq!(resp.status, 200, "survivor failed mid-partition");
        assert_eq!(
            &resp.body, expected,
            "survivor diverged on {id} mid-partition"
        );
    }

    // Heal. Anti-entropy (plus the retry queues) must land every
    // record on its full owner chain with no operator action.
    cluster.proxies[0].policy().set_deny(false);
    for (id, _) in &reference {
        for node in cluster.ring.owner_chain(id, 2) {
            await_record(node, id);
        }
    }
    await_lag_drained(&cluster.direct);

    // The previously partitioned node now answers everything without
    // recomputing: its replica ("hit") or a peer fill ("peer").
    let mut via_node0 = client_for(&cluster.direct[0]);
    for (body, (id, expected)) in bodies.iter().zip(&reference) {
        let resp = via_node0.post("/v1/schedule", body).expect("answers");
        assert_eq!(resp.status, 200);
        assert_eq!(&resp.body, expected, "node 0 diverged on {id} after heal");
        let label = resp.header("x-cache").expect("cache label").to_owned();
        assert!(
            label == "hit" || label == "peer",
            "node 0 answered {id} via `{label}` after heal — that is a recompute"
        );
    }
    cluster.shutdown();
}

#[test]
fn peer_flap_during_replication_drains_the_retry_queue_after_recovery() {
    // Anti-entropy off: convergence here must come from the retry
    // queue plus the failure detector's probe path alone.
    let cluster = ProxiedCluster::start(3, Duration::from_millis(500), None);

    // Flap node 0 down before any traffic.
    cluster.proxies[0].policy().set_deny(true);

    // Fill through node 1 until at least one record's owner chain
    // includes node 0 — those deliveries must queue, not vanish.
    let mut reference: Vec<(String, String, String)> = Vec::new(); // (id, body, bytes)
    let mut targets_node0 = false;
    for seed in 0..24u64 {
        let body = schedule_body(&graph_json(300 + seed, 10), "edf");
        let (id, bytes) = cluster.fill(1, &body);
        let chain = cluster.ring.owner_chain(&id, 2);
        targets_node0 |= chain.contains(&cluster.identities[0].as_str());
        reference.push((id, body, bytes));
        if targets_node0 && reference.len() >= 4 {
            break;
        }
    }
    assert!(
        targets_node0,
        "24 problems all missed node 0's ring ranges — rings this lopsided are a bug"
    );

    // The failed deliveries are counted and queued on node 1.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let failures = scrape(
            &mut client_for(&cluster.direct[1]),
            "noc_svc_cluster_replication_delivery_failures_total ",
        );
        if failures > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "deliveries to the flapped peer never failed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Heal the flap: a detector probe lets the queue drain, every
    // queued record lands, and the lag returns to zero.
    cluster.proxies[0].policy().set_deny(false);
    for (id, _, _) in &reference {
        for node in cluster.ring.owner_chain(id, 2) {
            await_record(node, id);
        }
    }
    await_lag_drained(&cluster.direct);
    let recoveries: u64 = cluster
        .direct
        .iter()
        .map(|a| scrape(&mut client_for(a), "noc_svc_cluster_peer_recoveries_total "))
        .sum();
    assert!(
        recoveries > 0,
        "the detector must record the peer coming back Up"
    );

    // And the records the flapped node now holds serve the exact
    // reference bytes.
    let mut via_node0 = client_for(&cluster.direct[0]);
    for (id, body, expected) in &reference {
        let resp = via_node0.post("/v1/schedule", body).expect("answers");
        assert_eq!(resp.status, 200);
        assert_eq!(&resp.body, expected, "node 0 diverged on {id} after flap");
    }
    cluster.shutdown();
}

#[test]
fn slow_peer_under_the_timeout_serves_while_over_it_falls_to_the_successor() {
    // 1 s peer timeout per the cluster default; the proxy injects
    // 900 ms — slow but legal — then 2.5 s — over the timeout.
    let cluster = ProxiedCluster::start(3, Duration::from_secs(1), None);

    // Find two records whose owner chain *excludes* node 2, so a read
    // via node 2 must peer-fill through the (about to be slowed)
    // proxies of nodes 0 and 1.
    let mut remote: Vec<(String, String, String)> = Vec::new(); // (id, body, bytes)
    for seed in 0..24u64 {
        let body = schedule_body(&graph_json(400 + seed, 10), "edf");
        let (id, bytes) = cluster.fill(0, &body);
        let chain = cluster.ring.owner_chain(&id, 2);
        if !chain.contains(&cluster.identities[2].as_str()) {
            remote.push((id, body, bytes));
            if remote.len() == 2 {
                break;
            }
        }
    }
    assert_eq!(remote.len(), 2, "no records landed off node 2's ranges");
    for (id, _, _) in &remote {
        for node in cluster.ring.owner_chain(id, 2) {
            await_record(node, id);
        }
    }

    // 900 ms of injected latency on both owners: the peer fill is slow
    // but inside the 1 s budget, so it must still be served as a fill,
    // with the peers still counted Up (no failures, no fallback).
    cluster.proxies[0]
        .policy()
        .set_latency(Duration::from_millis(900));
    cluster.proxies[1]
        .policy()
        .set_latency(Duration::from_millis(900));
    let mut via_node2 = client_for(&cluster.direct[2]);
    let (id, body, expected) = &remote[0];
    let sent = Instant::now();
    let resp = via_node2.post("/v1/schedule", body).expect("answers");
    let elapsed = sent.elapsed();
    assert_eq!(resp.status, 200);
    assert_eq!(&resp.body, expected, "slow-peer fill diverged on {id}");
    assert_eq!(
        resp.header("x-cache"),
        Some("peer"),
        "a record off node 2's ranges must arrive by peer fill"
    );
    assert!(
        elapsed >= Duration::from_millis(700),
        "the injected latency never applied (took {elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_secs(4),
        "a slow-but-legal peer must not cascade into timeouts (took {elapsed:?})"
    );

    // 2.5 s of injected latency: over the timeout, the owner fill
    // fails, and the answer still arrives — recomputed or from the
    // successor — byte-identical, bounded by timeout + compute.
    cluster.proxies[0]
        .policy()
        .set_latency(Duration::from_millis(2500));
    cluster.proxies[1]
        .policy()
        .set_latency(Duration::from_millis(2500));
    let (id, body, expected) = &remote[1];
    let resp = via_node2.post("/v1/schedule", body).expect("answers");
    assert_eq!(resp.status, 200);
    assert_eq!(&resp.body, expected, "over-timeout read diverged on {id}");
    let errors = scrape(
        &mut client_for(&cluster.direct[2]),
        "noc_svc_cluster_peer_fill_errors_total ",
    );
    assert!(
        errors > 0,
        "an over-timeout peer must be counted as a fill failure"
    );
    cluster.shutdown();
}

/// A peer-filled request must be reconstructable as one connected
/// span tree across the cluster: the target's root and `peer_fill`
/// hop plus the owner's `/v1/internal/lookup` serving span, all under
/// the trace id the target's `X-Noc-Trace` response header names.
#[test]
fn peer_fill_reconstructs_one_cross_node_span_tree() {
    let peers = free_addrs(3);
    let servers: Vec<Server> = peers.iter().map(|a| start_node(a, &peers)).collect();
    let ring = Ring::new(peers.clone());

    // Hunt (deterministically — ids are content hashes) for a problem
    // whose owner chain contains the filling node 0, so the one node
    // outside the chain holds neither a replica nor a cache entry and
    // must answer via a peer fill.
    let mut via_node0 = client_for(&peers[0]);
    let mut chosen: Option<(String, String, String)> = None; // (id, body, target)
    for seed in 60..80u64 {
        let body = schedule_body(&graph_json(seed, 10), "edf");
        let resp = via_node0.post("/v1/schedule", &body).expect("fills");
        assert_eq!(resp.status, 200, "fill failed: {}", resp.body);
        let id = resp.header("x-request-hash").expect("hash").to_owned();
        let chain = ring.owner_chain(&id, 2);
        if chain.contains(&peers[0].as_str()) {
            let target = peers
                .iter()
                .find(|p| !chain.contains(&p.as_str()))
                .expect("3 nodes, chain of 2")
                .clone();
            chosen = Some((id, body, target));
            break;
        }
    }
    let (id, body, target) = chosen.expect("some seed lands its owner chain on node 0");
    for node in ring.owner_chain(&id, 2) {
        await_record(node, &id);
    }

    // The cross-node request: answered via peer fill, and stamped
    // with the trace id the whole tree hangs under.
    let mut via_target = client_for(&target);
    let resp = via_target.post("/v1/schedule", &body).expect("answers");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("x-cache"),
        Some("peer"),
        "the off-chain node must answer via peer fill"
    );
    let trace_id = resp
        .header("x-noc-trace")
        .expect("traced response names its trace")
        .to_owned();

    // Scrape every node's flight recorder and pool the spans.
    let mut spans: Vec<noc_svc::obs::SpanWire> = Vec::new();
    let mut contributing = 0usize;
    for addr in &peers {
        let mut client = client_for(addr);
        let resp = client
            .get(&format!("/v1/internal/trace/{trace_id}"))
            .expect("scrapes recorder");
        if resp.status != 200 {
            continue;
        }
        let dump: noc_svc::obs::TraceDump =
            serde_json::from_str(&resp.body).expect("trace dump parses");
        assert!(!dump.spans.is_empty());
        contributing += 1;
        spans.extend(dump.spans);
    }
    assert!(
        contributing >= 2,
        "a peer-filled request must leave spans on at least two nodes"
    );

    // One connected tree: exactly one root, every parent resolves.
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.span).collect();
    let roots: Vec<&noc_svc::obs::SpanWire> = spans.iter().filter(|s| s.parent_span == 0).collect();
    assert_eq!(roots.len(), 1, "expected a single root span, got {roots:?}");
    assert_eq!(roots[0].stage, "/v1/schedule");
    for span in &spans {
        assert!(
            span.parent_span == 0 || known.contains(&span.parent_span),
            "span {:x} on {} references unknown parent {:x}",
            span.span,
            span.node,
            span.parent_span
        );
        assert_eq!(span.trace, trace_id);
    }
    let stages: Vec<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
    assert!(stages.contains(&"peer_fill"), "stages: {stages:?}");
    assert!(
        stages.contains(&"/v1/internal/lookup"),
        "the owner's serving span must join the tree: {stages:?}"
    );
    for server in servers {
        server.shutdown();
    }
}

/// The flight recorder must never change response bytes: a server
/// with the recorder at 4096 entries and one with it disabled answer
/// identical bodies and cache labels for the same request sequence —
/// the only difference is the `X-Noc-Trace` header itself.
#[test]
fn recorder_toggle_never_changes_response_bytes() {
    let start = |entries: usize| {
        Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            http_workers: 2,
            sched_workers: 2,
            queue_capacity: 8,
            cache_capacity: 64,
            flight_recorder_entries: entries,
            ..ServiceConfig::default()
        })
        .expect("starts")
    };
    let traced = start(4096);
    let plain = start(0);
    let mut traced_client = client_for(&traced.addr().to_string());
    let mut plain_client = client_for(&plain.addr().to_string());

    let bodies: Vec<String> = [(51u64, "edf"), (51, "dls"), (52, "edf")]
        .iter()
        .map(|(seed, scheduler)| schedule_body(&graph_json(*seed, 10), scheduler))
        .collect();
    // Two passes: cold computes, then cache hits — both must match.
    for pass in 0..2 {
        for (i, body) in bodies.iter().enumerate() {
            let t = traced_client.post("/v1/schedule", body).expect("traced");
            let p = plain_client.post("/v1/schedule", body).expect("plain");
            assert_eq!(t.status, p.status, "pass {pass} body {i}");
            assert_eq!(
                t.header("x-cache"),
                p.header("x-cache"),
                "pass {pass} body {i}"
            );
            assert_eq!(
                t.body, p.body,
                "recorder toggle changed response bytes (pass {pass}, body {i})"
            );
            assert!(
                t.header("x-noc-trace").is_some(),
                "recorder-on answers carry their trace id"
            );
            assert!(
                p.header("x-noc-trace").is_none(),
                "recorder-off answers must not pay for trace minting"
            );
        }
    }
    traced.shutdown();
    plain.shutdown();
}
