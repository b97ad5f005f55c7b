//! Workload inputs, each a pure function of `(seed, index)`: the same
//! seed always yields byte-identical request bodies, and the service
//! receives only these bodies.
//!
//! Mixes are stratified — every block of requests holds each size class
//! in its exact share, in a seeded order — so a run's median falls
//! inside one class instead of flipping between two modes from seed to
//! seed.

use noc_ctg::prelude::{TaskGraph, TgffConfig, TgffGenerator};
use noc_platform::Platform;

use crate::stats::{fnv1a, fnv1a_from};

/// The seed whose input and output digests are pinned in
/// [`PINNED`]; every run re-checks them whatever its own seed.
pub const DEFAULT_SEED: u64 = 1;

/// One size class of a request mix.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    pub platform: &'static str,
    pub tasks: usize,
    pub scheduler: &'static str,
    /// TGFF deadline laxity (lower is tighter).
    pub laxity: f64,
    /// Slots per stratification block.
    pub weight: usize,
}

/// svc_cold: distinct category-I EAS problems. Laxity 2.6 keeps
/// search & repair out of the cold path (about 0.3% of these graphs
/// need it; at the paper's 1.9 it is 2%, with half-second tails).
pub const COLD: [Class; 4] = [
    class("mesh:4x4", 60, "eas", 2.6, 3),
    class("mesh:4x4", 100, "eas", 2.6, 10),
    class("mesh:4x4", 160, "eas", 2.6, 4),
    class("mesh:4x4", 250, "eas", 2.6, 3),
];

/// Distinct svc_cold problems; more than the default 1024-entry response
/// cache holds, so cycling through them in order never hits.
pub const COLD_POOL: usize = 1200;

/// svc_hot: four body-size classes from ~4 KB to ~132 KB, weighted
/// 45/30/19/6 over the requests. Hit latency within a class is bimodal
/// on a shared host — the 15 KB class answers in ~2.3 ms or ~3.8 ms,
/// the 132 KB class in ~80 ms or ~135 ms — and the slower mode's share
/// swings from a few percent to most of a run with the neighbours'
/// load. The weights put the median 1/6 of the way into the 15 KB class
/// and p95 1/6 of the way into the 132 KB class, inside the faster
/// mode unless the slower one holds more than 5/6 of the class.
pub const HOT: [Class; 4] = [
    class("mesh:2x2", 16, "edf", 1.9, 45),
    class("mesh:3x3", 40, "dls", 1.9, 30),
    class("mesh:4x4", 100, "eas", 1.9, 19),
    class("mesh:4x4", 250, "eas", 1.9, 6),
];

/// svc_hot problems per class (48 in all).
pub const HOT_PER_CLASS: usize = 12;

/// svc_durable: small (~4 KB) baseline-scheduled problems, so the
/// store and journal writes are a visible share of each request and
/// the journal a restart replays stays small enough to recover in
/// seconds.
pub const DURABLE: [Class; 2] = [
    class("mesh:2x2", 16, "edf", 1.9, 1),
    class("mesh:2x2", 16, "dls", 1.9, 1),
];

/// batch_repair: tight-deadline graphs, most of which miss deadlines
/// after level scheduling and need LTS/GTM repair.
pub const REPAIR: [Class; 1] = [class("mesh:2x2", 40, "eas", 0.9, 1)];

const fn class(
    platform: &'static str,
    tasks: usize,
    scheduler: &'static str,
    laxity: f64,
    weight: usize,
) -> Class {
    Class {
        platform,
        tasks,
        scheduler,
        laxity,
        weight,
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Problem {
    pub class: Class,
    /// `POST /v1/schedule` body.
    pub body: String,
}

impl Problem {
    /// The same request submitted as an async (journaled) job.
    pub fn async_body(&self) -> String {
        let head = self
            .body
            .strip_suffix('}')
            .expect("bodies are JSON objects");
        format!("{head},\"mode\":\"async\"}}")
    }
}

/// Distinct per-workload streams of the seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Cold = 1,
    Hot = 2,
    HotPick = 3,
    Durable = 4,
    Repair = 5,
}

/// SplitMix64 finalizer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A 64-bit value derived from `(seed, stream, index)`.
pub fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ stream as u64) ^ index)
}

/// Slots per stratification block of a mix: Σ weight.
pub fn block(classes: &[Class]) -> usize {
    classes.iter().map(|c| c.weight).sum()
}

/// The class (index into `classes`) of mix slot `index`: block
/// `index / Σweight` holds every class `weight` times, shuffled by the
/// seed.
pub fn class_of(classes: &[Class], seed: u64, stream: Stream, index: usize) -> usize {
    let block = block(classes);
    let mut slots: Vec<usize> = classes
        .iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.weight))
        .collect();
    let mut state = mix(seed, stream, (index / block) as u64);
    for i in (1..slots.len()).rev() {
        state = splitmix(state);
        slots.swap(i, (state % (i as u64 + 1)) as usize);
    }
    slots[index % block]
}

/// Builds the platform a class names.
pub fn platform(spec: &str) -> Platform {
    noc_svc::spec::parse_platform(spec).expect("benchmark platform specs parse")
}

/// The TGFF graph of one class member.
pub fn graph(class: &Class, platform: &Platform, tgff_seed: u64) -> TaskGraph {
    let mut cfg = TgffConfig::category_i(tgff_seed);
    cfg.task_count = class.tasks;
    cfg.deadline_laxity = class.laxity;
    TgffGenerator::new(cfg)
        .generate(platform)
        .expect("TGFF generation succeeds")
}

/// The request body scheduling `graph` on `class`.
pub fn body(class: &Class, graph: &TaskGraph) -> String {
    let graph_json = serde_json::to_string(graph).expect("graphs serialize");
    format!(
        "{{\"graph\":{graph_json},\"platform\":\"{}\",\"scheduler\":\"{}\"}}",
        class.platform, class.scheduler
    )
}

/// Caches one parsed platform per spec while a pool is generated.
#[derive(Default)]
pub struct Platforms(Vec<(&'static str, Platform)>);

impl Platforms {
    pub fn get(&mut self, spec: &'static str) -> &Platform {
        let at = match self.0.iter().position(|(s, _)| *s == spec) {
            Some(at) => at,
            None => {
                self.0.push((spec, platform(spec)));
                self.0.len() - 1
            }
        };
        &self.0[at].1
    }
}

fn problem(
    platforms: &mut Platforms,
    class: Class,
    seed: u64,
    stream: Stream,
    index: u64,
) -> Problem {
    let g = graph(
        &class,
        platforms.get(class.platform),
        mix(seed, stream, index),
    );
    Problem {
        body: body(&class, &g),
        class,
    }
}

/// svc_cold request `index`.
pub fn cold(platforms: &mut Platforms, seed: u64, index: usize) -> Problem {
    let class = COLD[class_of(&COLD, seed, Stream::Cold, index)];
    problem(platforms, class, seed, Stream::Cold, index as u64)
}

/// The 48 svc_hot problems: class `i / HOT_PER_CLASS`.
pub fn hot_problems(seed: u64) -> Vec<Problem> {
    let mut platforms = Platforms::default();
    (0..HOT.len() * HOT_PER_CLASS)
        .map(|i| {
            problem(
                &mut platforms,
                HOT[i / HOT_PER_CLASS],
                seed,
                Stream::Hot,
                i as u64,
            )
        })
        .collect()
}

/// Which svc_hot problem request `index` asks for: the class from the
/// stratified 45/30/19/6 mix, the member uniformly within it.
pub fn hot_pick(seed: u64, index: usize) -> usize {
    let c = class_of(&HOT, seed, Stream::HotPick, index);
    let member = (mix(seed, Stream::HotPick, !(index as u64)) % HOT_PER_CLASS as u64) as usize;
    c * HOT_PER_CLASS + member
}

/// svc_durable request `index` (edf and dls alternate in seeded order).
pub fn durable(platforms: &mut Platforms, seed: u64, index: usize) -> Problem {
    let class = DURABLE[class_of(&DURABLE, seed, Stream::Durable, index)];
    problem(platforms, class, seed, Stream::Durable, index as u64)
}

/// batch_repair graph `index` and its class.
pub fn repair(platforms: &mut Platforms, seed: u64, index: usize) -> (Class, TaskGraph) {
    let class = REPAIR[0];
    let g = graph(
        &class,
        platforms.get(class.platform),
        mix(seed, Stream::Repair, index as u64),
    );
    (class, g)
}

/// Problems whose digests are pinned, per workload.
pub const PINNED_PROBLEMS: usize = 4;

/// Pinned FNV-1a digests of the first [`PINNED_PROBLEMS`] request
/// bodies of [`DEFAULT_SEED`] and of the responses the library
/// computes for them: `(workload, input digest, output digest)`. A
/// change to TGFF generation or to response bytes fails the run here
/// instead of silently measuring different traffic.
pub const PINNED: [(&str, u64, u64); 4] = [
    ("svc_cold", 0x9eec_2ac0_b6c7_1bdf, 0x5bf8_b3b1_9b64_8a5f),
    ("svc_hot", 0x03ba_2aaf_2378_e338, 0x860a_334a_d026_6103),
    ("svc_durable", 0x05c9_0675_98ff_b4b1, 0x108d_e532_6230_9acb),
    ("batch_repair", 0xb6de_a8c3_db0e_2124, 0x0928_b878_7d3e_53e4),
];

/// The first [`PINNED_PROBLEMS`] inputs of a workload under `seed`.
pub fn pinned_inputs(workload: &str, seed: u64) -> Vec<Problem> {
    let mut platforms = Platforms::default();
    let hot = if workload == "svc_hot" {
        hot_problems(seed)
    } else {
        Vec::new()
    };
    (0..PINNED_PROBLEMS)
        .map(|i| match workload {
            "svc_cold" => cold(&mut platforms, seed, i),
            "svc_hot" => hot[i * HOT_PER_CLASS].clone(),
            "svc_durable" => durable(&mut platforms, seed, i),
            "batch_repair" => {
                let (class, g) = repair(&mut platforms, seed, i);
                Problem {
                    body: body(&class, &g),
                    class,
                }
            }
            other => panic!("unknown workload {other}"),
        })
        .collect()
}

/// Digest over a sequence of byte strings, each length-prefixed.
pub fn digest<'a>(items: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    items.into_iter().fold(fnv1a(b"perf_ledger"), |h, item| {
        fnv1a_from(fnv1a_from(h, &(item.len() as u64).to_le_bytes()), item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let mut a = Platforms::default();
        let mut b = Platforms::default();
        for i in [0, 7, 19] {
            assert_eq!(cold(&mut a, 5, i).body, cold(&mut b, 5, i).body);
            assert_eq!(durable(&mut a, 5, i).body, durable(&mut b, 5, i).body);
            assert_eq!(
                serde_json::to_string(&repair(&mut a, 5, i).1).unwrap(),
                serde_json::to_string(&repair(&mut b, 5, i).1).unwrap()
            );
        }
        assert_ne!(cold(&mut a, 5, 0).body, cold(&mut a, 6, 0).body);
        assert_ne!(cold(&mut a, 5, 0).body, cold(&mut a, 5, 1).body);
        let hot: Vec<String> = hot_problems(9).into_iter().map(|p| p.body).collect();
        let again: Vec<String> = hot_problems(9).into_iter().map(|p| p.body).collect();
        assert_eq!(hot, again);
        assert_eq!(
            (0..50).map(|i| hot_pick(9, i)).collect::<Vec<_>>(),
            (0..50).map(|i| hot_pick(9, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stratified_blocks_hold_exact_class_shares() {
        for seed in 0..5 {
            let mut counts = [0usize; 4];
            for i in 0..200 {
                counts[class_of(&COLD, seed, Stream::Cold, i)] += 1;
            }
            assert_eq!(counts, [30, 100, 40, 30], "seed {seed}");
            let picks: Vec<usize> = (0..200)
                .map(|i| hot_pick(seed, i) / HOT_PER_CLASS)
                .collect();
            let share = |c| picks.iter().filter(|&&p| p == c).count();
            assert_eq!([share(0), share(1), share(2), share(3)], [90, 60, 38, 12]);
        }
    }

    #[test]
    fn async_bodies_only_add_the_mode() {
        let mut platforms = Platforms::default();
        let p = durable(&mut platforms, 1, 0);
        let a = p.async_body();
        assert!(a.ends_with(",\"mode\":\"async\"}"));
        assert_eq!(&a[..p.body.len() - 1], &p.body[..p.body.len() - 1]);
    }
}
