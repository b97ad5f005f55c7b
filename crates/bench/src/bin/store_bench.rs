//! Persistent schedule-store microbenchmark for CI: fills a segment
//! log with deterministic schedule responses, measures disk-tier vs
//! RAM-tier hit latency, times cold-start recovery with and without
//! the packed index (index load vs full segment rescan), verifies
//! every recovered record byte-identically, and writes
//! `BENCH_store.json` (first argument overrides the path).
//!
//! The CI gate: every record must survive both reopen paths with its
//! exact bytes, and the store must never degrade during the run; the
//! process exits non-zero otherwise.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use noc_svc::cache::JobOutput;
use noc_svc::store::{Store, StoreConfig, StoreStats, TieredStore};

/// Records written to the store; bodies are ~2 KiB, so the log spans
/// several rotated segments at the 256 KiB threshold below.
const RECORDS: usize = 2000;
/// Segment rotation threshold — small, so recovery walks many files.
const SEGMENT_BYTES: u64 = 256 * 1024;
/// Lookups timed per tier.
const LOOKUPS: usize = 4000;

#[derive(Debug, Serialize)]
struct TierLatency {
    tier: String,
    lookups: usize,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

#[derive(Debug, Serialize)]
struct Recovery {
    /// `index` (packed `.idx` files present) or `rescan` (`.idx`
    /// deleted, every segment re-scanned and re-checksummed).
    path: String,
    open_s: f64,
    records: usize,
    segments: u64,
    /// All records re-read byte-identically after this open.
    byte_identical: bool,
}

#[derive(Debug, Serialize)]
struct StoreBench {
    bench: String,
    records: usize,
    segment_bytes: u64,
    fill_s: f64,
    rotations: u64,
    log_bytes: u64,
    latency: Vec<TierLatency>,
    recovery: Vec<Recovery>,
    degraded: bool,
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64) * p).ceil() as usize;
    sorted_us[idx.clamp(1, sorted_us.len()) - 1] as f64
}

/// The deterministic (key, body) pair for record `i` — a synthetic
/// schedule response of realistic size.
fn record(i: usize) -> (String, String) {
    let key =
        format!("{{\"graph\":\"bench-{i:06}\",\"platform\":\"mesh:4x4\",\"scheduler\":\"eas\"}}");
    let mut body = String::with_capacity(2200);
    body.push_str("{\"scheduler\":\"eas\",\"schedule\":[");
    for t in 0..64usize {
        if t > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"task\":{t},\"pe\":{},\"start\":{},\"end\":{}}}",
            (i + t) % 16,
            t * 100 + i,
            t * 100 + i + 80
        ));
    }
    body.push_str(&format!(
        "],\"makespan\":{},\"energy_nj\":{}.5}}",
        6400 + i,
        900 + i
    ));
    (key, body)
}

/// Opens the store and verifies every record's bytes; returns the
/// timing row for the artifact.
fn timed_open(dir: &std::path::Path, path: &str) -> (Recovery, bool) {
    let stats = Arc::new(StoreStats::default());
    let t0 = Instant::now();
    let store = Store::open(
        StoreConfig {
            dir: dir.to_path_buf(),
            segment_max_bytes: SEGMENT_BYTES,
            faults: None,
        },
        Arc::clone(&stats),
    )
    .expect("store reopens");
    let open_s = t0.elapsed().as_secs_f64();
    let mut byte_identical = true;
    for i in 0..RECORDS {
        let (key, body) = record(i);
        match store.get(&key) {
            Some(output) if *output.body == body => {}
            _ => {
                eprintln!("error: record {i} diverged after {path} recovery");
                byte_identical = false;
            }
        }
    }
    let degraded = store.is_degraded();
    (
        Recovery {
            path: path.to_owned(),
            open_s,
            records: store.len(),
            segments: stats.segments.load(std::sync::atomic::Ordering::Relaxed),
            byte_identical,
        },
        degraded,
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_store.json".to_owned());
    let dir = std::env::temp_dir().join(format!("noc-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("== Persistent store baseline: {RECORDS} records, {SEGMENT_BYTES}-byte segments ==\n");

    // Fill.
    let stats = Arc::new(StoreStats::default());
    let store = Store::open(
        StoreConfig {
            dir: dir.clone(),
            segment_max_bytes: SEGMENT_BYTES,
            faults: None,
        },
        Arc::clone(&stats),
    )
    .expect("store opens");
    let t0 = Instant::now();
    for i in 0..RECORDS {
        let (key, body) = record(i);
        assert!(
            store.put(&key, &JobOutput::new(Arc::new(body))),
            "fill write {i} must land"
        );
    }
    let fill_s = t0.elapsed().as_secs_f64();
    let rotations = stats.rotations.load(std::sync::atomic::Ordering::Relaxed);
    let log_bytes = std::fs::read_dir(&dir)
        .expect("store dir lists")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "log"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    println!(
        "fill: {RECORDS} records in {fill_s:.3}s ({rotations} rotations, {log_bytes} log bytes)"
    );

    // Disk-tier hit latency: a 1-entry memory tier forces every lookup
    // of a *different* key to the segment log.
    let disk_tier = TieredStore::with_disk(1, Some(store));
    let mut disk_us: Vec<u64> = Vec::with_capacity(LOOKUPS);
    for n in 0..LOOKUPS {
        let (key, _) = record((n * 7919) % RECORDS);
        let t0 = Instant::now();
        let hit = disk_tier.get(&key);
        disk_us.push(t0.elapsed().as_micros() as u64);
        assert!(hit.is_some(), "disk-tier lookup must hit");
    }
    disk_us.sort_unstable();

    // RAM-tier hit latency: a memory tier big enough to hold
    // everything, warmed by one promotion pass.
    let ram_tier = TieredStore::memory_only(RECORDS);
    for i in 0..RECORDS {
        let (key, body) = record(i);
        ram_tier.insert(&key, &JobOutput::new(Arc::new(body)));
    }
    let mut ram_us: Vec<u64> = Vec::with_capacity(LOOKUPS);
    for n in 0..LOOKUPS {
        let (key, _) = record((n * 7919) % RECORDS);
        let t0 = Instant::now();
        let hit = ram_tier.get(&key);
        ram_us.push(t0.elapsed().as_micros() as u64);
        assert!(hit.is_some(), "RAM-tier lookup must hit");
    }
    ram_us.sort_unstable();
    let latency = vec![
        TierLatency {
            tier: "ram".to_owned(),
            lookups: LOOKUPS,
            p50_us: percentile(&ram_us, 0.50),
            p99_us: percentile(&ram_us, 0.99),
            max_us: *ram_us.last().expect("samples") as f64,
        },
        TierLatency {
            tier: "disk".to_owned(),
            lookups: LOOKUPS,
            p50_us: percentile(&disk_us, 0.50),
            p99_us: percentile(&disk_us, 0.99),
            max_us: *disk_us.last().expect("samples") as f64,
        },
    ];
    for l in &latency {
        println!(
            "{:<4} tier: p50 {:>7.1}us  p99 {:>7.1}us  max {:>8.1}us",
            l.tier, l.p50_us, l.p99_us, l.max_us
        );
    }
    let fill_degraded = disk_tier.degraded();
    drop(disk_tier);

    // Cold-start recovery, packed-index path: reopen with `.idx` files
    // in place.
    let (with_index, degraded_a) = timed_open(&dir, "index");
    // Cold-start recovery, rescan path: delete every index file so
    // open must re-scan and re-checksum each segment.
    for entry in std::fs::read_dir(&dir).expect("store dir lists").flatten() {
        if entry.path().extension().is_some_and(|x| x == "idx") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    let (rescanned, degraded_b) = timed_open(&dir, "rescan");
    for r in [&with_index, &rescanned] {
        println!(
            "cold start ({:<6}): {:.4}s for {} records across {} segments",
            r.path, r.open_s, r.records, r.segments
        );
    }

    let report = StoreBench {
        bench: "store".to_owned(),
        records: RECORDS,
        segment_bytes: SEGMENT_BYTES,
        fill_s,
        rotations,
        log_bytes,
        latency,
        degraded: fill_degraded || degraded_a || degraded_b,
        recovery: vec![with_index, rescanned],
    };
    let failed = report.degraded || report.recovery.iter().any(|r| !r.byte_identical);
    if let Err(e) = noc_bench::write_json(&out_path, &report) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("\nBaseline written to {out_path}");
    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        eprintln!("gate failure: recovery diverged or the store degraded");
        std::process::exit(1);
    }
    println!("gate passed: both recovery paths reproduced every record byte-identically");
}
