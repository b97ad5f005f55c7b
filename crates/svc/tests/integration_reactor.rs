//! End-to-end tests of the nonblocking reactor against real sockets:
//! pinned wire bytes for every answer class, HTTP/1.1 keep-alive and
//! pipelining, protocol-error handling, and a herd of idle
//! connections that must cost nothing and lose nothing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use noc_svc::{Server, ServiceConfig};

fn config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        http_workers: 2,
        sched_workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
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

fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: noc-svc\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads exactly one HTTP response (headers + `Content-Length` body)
/// off the stream, carrying any pipelined surplus across calls.
fn read_one_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Vec<u8> {
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("reads response");
        assert!(n > 0, "connection closed before a full response");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..header_end]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length present");
    let total = header_end + 4 + content_length;
    while carry.len() < total {
        let n = stream.read(&mut chunk).expect("reads body");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let response = carry[..total].to_vec();
    carry.drain(..total);
    response
}

/// One request/response round trip on a fresh raw socket.
fn raw_roundtrip(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request).expect("writes");
    let mut carry = Vec::new();
    read_one_response(&mut stream, &mut carry)
}

/// The response as text, minus its `X-Noc-Trace` line: the trace id
/// is minted per request, so it is the one header a golden cannot pin.
fn strip_trace(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec())
        .expect("responses are UTF-8")
        .split_inclusive("\r\n")
        .filter(|line| !line.starts_with("X-Noc-Trace: "))
        .collect()
}

/// Pinned answers, captured when these bytes were still asserted equal
/// across two independent entry paths. Each is the status line and
/// headers, then the body verbatim, or for schedule bodies their
/// FNV-1a digest.
const GOLDEN: [(&str, &str); 8] = [
    (
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 1378\r\n\
         Connection: keep-alive\r\nX-Cache: miss\r\n\
         X-Request-Hash: ffcddbbc4bd5b59270e075340c6e4047\r\n\r\n",
        "fnv1a:7f33aaf4a6aef99e",
    ),
    (
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 1378\r\n\
         Connection: keep-alive\r\nX-Cache: hit\r\n\
         X-Request-Hash: ffcddbbc4bd5b59270e075340c6e4047\r\n\r\n",
        "fnv1a:7f33aaf4a6aef99e",
    ),
    (
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 1378\r\n\
         Connection: keep-alive\r\nX-Cache: miss\r\n\
         X-Request-Hash: 574792df435468fe70160dc97b427563\r\n\r\n",
        "fnv1a:5dbfd7451be6a783",
    ),
    (
        "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 74\r\n\
         Connection: keep-alive\r\n\r\n",
        r#"{"error":"invalid request body: missing field `graph` in ValidateRequest"}"#,
    ),
    (
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 3\r\n\
         Connection: keep-alive\r\n\r\n",
        "ok\n",
    ),
    (
        "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 23\r\n\
         Connection: keep-alive\r\n\r\n",
        r#"{"error":"no such job"}"#,
    ),
    (
        "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n\
         Content-Length: 30\r\nConnection: keep-alive\r\n\r\n",
        r#"{"error":"method not allowed"}"#,
    ),
    (
        "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 28\r\n\
         Connection: keep-alive\r\n\r\n",
        r#"{"error":"no such endpoint"}"#,
    ),
];

#[test]
fn every_answer_class_matches_its_golden_wire_bytes() {
    let server = Server::start(config()).expect("starts");
    let graph = graph_json(71, 10);
    let requests = [
        post_bytes("/v1/schedule", &schedule_body(&graph, "edf")),
        post_bytes("/v1/schedule", &schedule_body(&graph, "edf")), // cache hit
        post_bytes("/v1/schedule", &schedule_body(&graph, "dls")),
        post_bytes("/v1/validate", "{\"not\":\"a schedule\"}"),
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"GET /v1/jobs/feed HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"DELETE /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"GET /nowhere HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n".to_vec(),
    ];
    for (request, (want_head, want_body)) in requests.iter().zip(GOLDEN) {
        let text = strip_trace(&raw_roundtrip(server.addr(), request));
        let (head, body) = text.split_at(text.find("\r\n\r\n").expect("has a head") + 4);
        let body = if want_body.starts_with("fnv1a:") {
            format!("fnv1a:{:016x}", noc_svc::hash::fnv1a64(body.as_bytes()))
        } else {
            body.to_owned()
        };
        assert_eq!((head, body.as_str()), (want_head, want_body));
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let server = Server::start(config()).expect("starts");
    // Three schedule requests with distinct answers, written
    // back-to-back before reading anything: responses must come back
    // in request order even though the jobs may finish out of order.
    let bodies: Vec<String> = (0..3)
        .map(|i| schedule_body(&graph_json(100 + i, 10 + (i as usize % 3) * 2), "edf"))
        .collect();
    let mut pipelined = Vec::new();
    for body in &bodies {
        pipelined.extend_from_slice(&post_bytes("/v1/schedule", body));
    }
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(&pipelined).expect("writes all three");
    let mut carry = Vec::new();
    let responses: Vec<Vec<u8>> = (0..3)
        .map(|_| read_one_response(&mut stream, &mut carry))
        .collect();
    drop(stream);
    // Each pipelined answer must equal the answer a dedicated
    // connection gets for the same body — correct pairing, in order.
    for (body, pipelined_response) in bodies.iter().zip(&responses) {
        let fresh = raw_roundtrip(server.addr(), &post_bytes("/v1/schedule", body));
        let strip = |bytes: &[u8]| {
            let text = String::from_utf8_lossy(bytes).into_owned();
            // The fresh response is a cache hit; the schedule bytes and
            // hash must match, the X-Cache label legitimately differs.
            let body_at = text.find("\r\n\r\n").expect("has body") + 4;
            let hash = text
                .lines()
                .find_map(|l| l.strip_prefix("X-Request-Hash: "))
                .expect("hash header")
                .to_owned();
            (hash, text[body_at..].to_owned())
        };
        assert_eq!(
            strip(pipelined_response),
            strip(&fresh),
            "pipelined answers must pair with their requests in order"
        );
    }
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_then_close_closes() {
    let server = Server::start(config()).expect("starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut carry = Vec::new();
    for _ in 0..5 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("writes");
        let response = read_one_response(&mut stream, &mut carry);
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200"), "got {text}");
        assert!(text.contains("Connection: keep-alive"));
    }
    // `Connection: close` answers once, then the server hangs up.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("writes");
    let response = read_one_response(&mut stream, &mut carry);
    assert!(String::from_utf8_lossy(&response).contains("Connection: close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("reads EOF");
    assert!(rest.is_empty(), "server must close after Connection: close");
    server.shutdown();
}

#[test]
fn protocol_errors_answer_pinned_bytes_and_close() {
    let server = Server::start(config()).expect("starts");
    let oversized = format!(
        "POST /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    let cases = [
        (
            oversized.into_bytes(),
            "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\n\
             Content-Length: 52\r\nConnection: close\r\n\r\n\
             {\"error\":\"request body of 67108864 bytes too large\"}",
        ),
        (
            b"NOT A REQUEST AT ALL\r\n\r\n".to_vec(),
            "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
             Content-Length: 60\r\nConnection: close\r\n\r\n\
             {\"error\":\"malformed request: unsupported version `REQUEST`\"}",
        ),
    ];
    for (request, want) in cases {
        let answer = raw_roundtrip(server.addr(), &request);
        assert_eq!(String::from_utf8_lossy(&answer), want);
    }
    server.shutdown();
}

#[test]
fn a_herd_of_idle_connections_survives_a_working_wave() {
    let server = Server::start(config()).expect("starts");
    // A few hundred idle sockets (the CI-sized stand-in for the 10k
    // loopback gate, which needs a raised fd limit) parked while real
    // requests flow.
    let idle: Vec<TcpStream> = (0..256)
        .map(|i| {
            TcpStream::connect(server.addr()).unwrap_or_else(|e| panic!("idle connection {i}: {e}"))
        })
        .collect();
    let graph = graph_json(9, 10);
    let reference = raw_roundtrip(
        server.addr(),
        &post_bytes("/v1/schedule", &schedule_body(&graph, "edf")),
    );
    assert!(String::from_utf8_lossy(&reference).starts_with("HTTP/1.1 200"));
    // The reactor reports the herd on its connections gauge.
    let metrics = String::from_utf8_lossy(&raw_roundtrip(
        server.addr(),
        b"GET /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    ))
    .into_owned();
    let open: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("noc_svc_reactor_connections "))
        .and_then(|v| v.trim().parse().ok())
        .expect("reactor gauge present");
    assert!(open >= 256, "gauge reports {open}, herd is 256");
    // Every idle socket is still a usable keep-alive connection.
    for (i, mut stream) in idle.into_iter().enumerate() {
        if i % 64 != 0 {
            continue; // probe a sample; dropping the rest closes them
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("idle socket writes");
        let response = read_one_response(&mut stream, &mut Vec::new());
        assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200"));
    }
    server.shutdown();
}
