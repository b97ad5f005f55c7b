//! The cycle-driven wormhole network model.
//!
//! Every directed link transmits at most one flit per tick. A message
//! ("worm") acquires its route's channels head-first; body flits stream
//! behind through the routers' register buffers; a channel is released
//! once the tail flit has crossed it. Blocked heads stall in place with
//! their buffered flits (no virtual channels, as in the paper's simple
//! router). Channel arbitration is FIFO by request time with message-id
//! tie-breaking, so simulations are fully deterministic.
//!
//! Contention-free latency of a `F`-flit message over `k` links is
//! `F + k - 1` ticks: the schedule-table model used by the schedulers
//! accounts the `F` serialization ticks and abstracts away the `k - 1`
//! pipeline-fill ticks; the simulator exists to measure exactly such
//! gaps (see `DESIGN.md` §6).

use noc_platform::routing::LinkId;
use noc_platform::units::Time;
use noc_platform::Platform;

use crate::config::SimConfig;
use crate::message::{Message, MessageId};

#[derive(Debug, Clone)]
struct Worm {
    msg: Message,
    route: Vec<LinkId>,
    flits: u64,
    /// Links acquired so far (a prefix of `route`).
    acquired: usize,
    /// Flits transmitted over each route link.
    sent: Vec<u64>,
    /// Flits sitting in the downstream buffer of each route link.
    buffered: Vec<u64>,
    /// Flits delivered at the destination.
    absorbed: u64,
    /// Earliest tick each acquired link may transmit (router pipeline).
    ready_at: Vec<Time>,
    /// When the head started waiting for its next channel.
    requesting_since: Option<Time>,
    completed_at: Option<Time>,
    /// Permanently undeliverable: a link on the remaining route failed.
    stranded: bool,
}

impl Worm {
    fn is_done(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Delivered or stranded — either way the network owes it nothing.
    fn is_settled(&self) -> bool {
        self.is_done() || self.stranded
    }

    /// `true` if the head flit is ready to request the next channel.
    fn head_waiting(&self) -> bool {
        if self.is_settled() || self.acquired == self.route.len() {
            return false;
        }
        if self.acquired == 0 {
            return true; // head still at the source
        }
        self.buffered[self.acquired - 1] >= 1
    }
}

/// The wormhole network simulator; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct NetworkSim {
    config: SimConfig,
    now: Time,
    worms: Vec<Worm>,
    /// Current channel owner per link.
    owner: Vec<Option<MessageId>>,
    /// Busy ticks per link (for utilization stats).
    busy: Vec<u64>,
    /// Links that have permanently failed mid-simulation.
    dead: Vec<bool>,
}

impl NetworkSim {
    /// Creates an idle network for `platform`.
    #[must_use]
    pub fn new(platform: &Platform, config: SimConfig) -> Self {
        NetworkSim {
            config,
            now: Time::ZERO,
            worms: Vec::new(),
            owner: vec![None; platform.link_count()],
            busy: vec![0; platform.link_count()],
            dead: vec![false; platform.link_count()],
        }
    }

    /// Injects a message whose route the caller provides explicitly
    /// (use [`NetworkSim::inject_on`] to resolve it from a platform).
    ///
    /// Local messages (`src == dst`) complete instantly at their
    /// injection time.
    ///
    /// # Panics
    ///
    /// Panics if the message's injection time lies in the simulator's
    /// past (`inject_at < now`).
    fn inject_with_route(&mut self, msg: Message, route: Vec<LinkId>) -> MessageId {
        assert!(
            msg.inject_at >= self.now,
            "cannot inject into the past: {} < {}",
            msg.inject_at,
            self.now
        );
        let id = MessageId::new(self.worms.len() as u32);
        let flits = self.config.flits_for(msg.volume.bits());
        let completed_at = if route.is_empty() {
            Some(msg.inject_at)
        } else {
            None
        };
        // A route crossing an already-failed link can never deliver:
        // the worm is stranded on arrival rather than deadlocking.
        let stranded = route.iter().any(|l| self.dead[l.index()]);
        let n = route.len();
        self.worms.push(Worm {
            msg,
            route,
            flits,
            acquired: 0,
            sent: vec![0; n],
            buffered: vec![0; n],
            absorbed: 0,
            ready_at: vec![Time::ZERO; n],
            requesting_since: None,
            completed_at,
            stranded,
        });
        id
    }

    /// Convenience wrapper resolving the route from `platform`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range for `platform`, or if
    /// the injection time lies in the past.
    pub fn inject_on(&mut self, platform: &Platform, msg: Message) -> MessageId {
        let route = platform.route(msg.src, msg.dst).to_vec();
        self.inject_with_route(msg, route)
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Delivery time of a message, if delivered.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn completion(&self, id: MessageId) -> Option<Time> {
        self.worms[id.index()].completed_at
    }

    /// `true` once every injected message has been delivered (or
    /// stranded by a link failure — stranded worms are never delivered
    /// and no longer occupy the network).
    #[must_use]
    fn is_idle(&self) -> bool {
        self.worms.iter().all(Worm::is_settled)
    }

    /// `true` if the message was stranded by a link failure and will
    /// never be delivered.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn stranded(&self, id: MessageId) -> bool {
        self.worms[id.index()].stranded
    }

    /// Permanently fails a link, effective immediately.
    ///
    /// Every in-flight worm whose *remaining* route crosses the link
    /// (tail not yet past it) is stranded: it will never complete, and
    /// all channels it still holds are released so other traffic can
    /// proceed. Worms whose tail already cleared the link are
    /// unaffected. Future injections routed over the link strand at
    /// injection time.
    ///
    /// Returns the messages stranded by this failure, in id order.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn fail_link(&mut self, link: LinkId) -> Vec<MessageId> {
        assert!(link.index() < self.dead.len(), "unknown link {link}");
        if self.dead[link.index()] {
            return Vec::new();
        }
        self.dead[link.index()] = true;
        let mut newly = Vec::new();
        for (i, w) in self.worms.iter_mut().enumerate() {
            if w.is_settled() {
                continue;
            }
            let severed = w
                .route
                .iter()
                .enumerate()
                .any(|(j, &l)| l == link && w.sent[j] < w.flits);
            if !severed {
                continue;
            }
            w.stranded = true;
            w.requesting_since = None;
            newly.push(MessageId::new(i as u32));
            // Release every channel the dead worm still owns.
            for (j, &l) in w.route.iter().enumerate().take(w.acquired) {
                if w.sent[j] < w.flits {
                    self.owner[l.index()] = None;
                }
            }
        }
        newly
    }

    /// Advances one tick. Returns `true` if anything happened (a grant,
    /// a flit movement, or a pending future injection exists).
    pub fn tick(&mut self) -> bool {
        let now = self.now;
        let mut activity = false;

        // 1. Register channel requests.
        for w in &mut self.worms {
            if w.msg.inject_at > now || w.is_settled() {
                continue;
            }
            if w.head_waiting() && w.requesting_since.is_none() {
                w.requesting_since = Some(now);
            }
        }

        // 2. FIFO arbitration per free link.
        let mut grants: Vec<(usize, MessageId)> = Vec::new(); // (worm idx, _)
        for (i, w) in self.worms.iter().enumerate() {
            if w.requesting_since.is_none() || w.msg.inject_at > now {
                continue;
            }
            let link = w.route[w.acquired];
            if self.owner[link.index()].is_some() {
                continue;
            }
            // Earliest requester wins; ties by message id (== index).
            let better = grants
                .iter()
                .find(|(j, _)| self.worms[*j].route[self.worms[*j].acquired] == link);
            match better {
                None => grants.push((i, MessageId::new(i as u32))),
                Some(&(j, _)) => {
                    let (a, b) = (self.worms[j].requesting_since, w.requesting_since);
                    if b < a {
                        let pos = grants.iter().position(|&(x, _)| x == j).expect("present");
                        grants[pos] = (i, MessageId::new(i as u32));
                    }
                }
            }
        }
        for (i, id) in grants {
            let hop_latency = self.config.hop_latency;
            let w = &mut self.worms[i];
            let link = w.route[w.acquired];
            self.owner[link.index()] = Some(id);
            w.ready_at[w.acquired] = now + Time::new(hop_latency);
            w.acquired += 1;
            w.requesting_since = None;
            activity = true;
        }

        // 3. Flit movement, head links first so freed buffer slots chain.
        for i in 0..self.worms.len() {
            let w = &mut self.worms[i];
            if w.msg.inject_at > now || w.is_settled() || w.acquired == 0 {
                continue;
            }
            let last = w.route.len() - 1;
            for j in (0..w.acquired).rev() {
                if w.sent[j] >= w.flits {
                    continue; // tail already past this link
                }
                if now < w.ready_at[j] {
                    // Router pipeline still setting up: progress will
                    // happen without further external events, so this
                    // counts as activity (otherwise run_until_idle would
                    // misdiagnose a pipeline warm-up as a deadlock).
                    activity = true;
                    continue;
                }
                let upstream_ready = if j == 0 {
                    w.sent[0] < w.flits
                } else {
                    w.buffered[j - 1] >= 1
                };
                let downstream_free = j == last || w.buffered[j] < self.config.buffer_flits;
                if !(upstream_ready && downstream_free) {
                    continue;
                }
                w.sent[j] += 1;
                if j > 0 {
                    w.buffered[j - 1] -= 1;
                }
                if j == last {
                    w.absorbed += 1;
                } else {
                    w.buffered[j] += 1;
                }
                self.busy[w.route[j].index()] += 1;
                activity = true;
                // Tail passed: release the channel.
                if w.sent[j] == w.flits {
                    self.owner[w.route[j].index()] = None;
                }
            }
            if w.absorbed == w.flits {
                w.completed_at = Some(now + Time::new(1));
            }
        }

        // Future injections count as pending activity.
        let pending = self
            .worms
            .iter()
            .any(|w| w.msg.inject_at > now && !w.is_settled());
        self.now = now + Time::new(1);
        activity || pending
    }

    /// Runs until every message is delivered, fast-forwarding through
    /// fully idle gaps, and returns the latest delivery time.
    ///
    /// # Panics
    ///
    /// Panics if the network livelocks (possible only with
    /// deadlock-prone custom routing functions; XY/YX and BFS
    /// shortest-path on meshes are deadlock-free), after a generous
    /// bound of `2^32` ticks.
    pub fn run_until_idle(&mut self) -> Time {
        const BOUND: u64 = 1 << 32;
        let start = self.now;
        while !self.is_idle() {
            let progressed = self.tick();
            if !progressed {
                // Idle gap: jump to the next injection, if any.
                let next = self
                    .worms
                    .iter()
                    .filter(|w| !w.is_settled() && w.msg.inject_at > self.now)
                    .map(|w| w.msg.inject_at)
                    .min();
                match next {
                    Some(t) => self.now = t,
                    None => panic!("network stalled with undelivered messages (deadlock)"),
                }
            }
            assert!(
                (self.now - start) < Time::new(BOUND),
                "network exceeded {BOUND} ticks; suspected livelock"
            );
        }
        self.worms
            .iter()
            .filter_map(|w| w.completed_at)
            .max()
            .unwrap_or(self.now)
    }

    /// Ideal (contention-free) delivery time of a message:
    /// `inject + flits + (links - 1)(1 + hop_latency) + hop_latency`
    /// (or `inject` for local ones).
    #[must_use]
    pub fn ideal_completion(&self, id: MessageId) -> Time {
        let w = &self.worms[id.index()];
        if w.route.is_empty() {
            return w.msg.inject_at;
        }
        let k = w.route.len() as u64;
        let h = self.config.hop_latency;
        w.msg.inject_at + Time::new(w.flits + (k - 1) * (1 + h) + h)
    }

    /// Busy ticks per link, link-id order.
    #[must_use]
    pub fn link_busy_ticks(&self) -> &[u64] {
        &self.busy
    }

    /// Delivery statistics of one message, if delivered.
    #[must_use]
    pub fn message_stats(&self, id: MessageId) -> Option<MessageStats> {
        let w = &self.worms[id.index()];
        let delivered_at = w.completed_at?;
        let ideal = self.ideal_completion(id);
        Some(MessageStats {
            injected_at: w.msg.inject_at,
            delivered_at,
            ideal,
            stall_ticks: delivered_at.saturating_sub(ideal).ticks(),
        })
    }
}

/// Per-message delivery statistics (see [`NetworkSim::message_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageStats {
    /// When the message became ready for injection.
    pub injected_at: Time,
    /// When the tail flit was absorbed at the destination.
    pub delivered_at: Time,
    /// Contention-free delivery time for comparison.
    pub ideal: Time,
    /// Ticks lost to channel contention and back-pressure.
    pub stall_ticks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_platform::prelude::*;

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .link_bandwidth(32.0)
            .build()
            .unwrap()
    }

    fn msg(src: u32, dst: u32, bits: u64, at: u64) -> Message {
        Message::new(
            TileId::new(src),
            TileId::new(dst),
            Volume::from_bits(bits),
            Time::new(at),
        )
    }

    #[test]
    fn single_hop_latency_is_flit_count() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        // 320 bits = 10 flits over 1 link: latency 10.
        let id = sim.inject_on(&p, msg(0, 1, 320, 0));
        sim.run_until_idle();
        assert_eq!(sim.completion(id), Some(Time::new(10)));
        assert_eq!(sim.ideal_completion(id), Time::new(10));
    }

    #[test]
    fn multi_hop_adds_pipeline_fill() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        // 10 flits over 2 links: 10 + 2 - 1 = 11.
        let id = sim.inject_on(&p, msg(0, 3, 320, 0));
        sim.run_until_idle();
        assert_eq!(sim.completion(id), Some(Time::new(11)));
    }

    #[test]
    fn local_message_is_instant() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        let id = sim.inject_on(&p, msg(2, 2, 4096, 7));
        assert_eq!(sim.completion(id), Some(Time::new(7)));
        assert!(sim.is_idle());
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        // Two messages over the same single link 0 -> 1, same inject time.
        let a = sim.inject_on(&p, msg(0, 1, 320, 0));
        let b = sim.inject_on(&p, msg(0, 1, 320, 0));
        sim.run_until_idle();
        assert_eq!(sim.completion(a), Some(Time::new(10)));
        // b waits for a's tail: grant at t=10, done at 20.
        assert_eq!(sim.completion(b), Some(Time::new(20)));
    }

    #[test]
    fn fifo_arbitration_prefers_earlier_requester() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        // b (higher id) requests earlier and must win the channel.
        let a = sim.inject_on(&p, msg(0, 1, 320, 5));
        let b = sim.inject_on(&p, msg(0, 1, 320, 0));
        sim.run_until_idle();
        assert_eq!(sim.completion(b), Some(Time::new(10)));
        assert_eq!(sim.completion(a), Some(Time::new(20)));
    }

    #[test]
    fn blocked_head_stalls_and_recovers() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        // a occupies link 1->3 (XY route of 1 -> 3). b goes 0 -> 1 -> 3 and
        // must stall at the second hop until a's tail passes.
        let a = sim.inject_on(&p, msg(1, 3, 640, 0)); // 20 flits
        let b = sim.inject_on(&p, msg(0, 3, 320, 0)); // 10 flits via 0->1->3
        sim.run_until_idle();
        assert_eq!(sim.completion(a), Some(Time::new(20)));
        let done_b = sim.completion(b).unwrap();
        assert!(
            done_b > Time::new(11),
            "b must have been delayed, got {done_b}"
        );
        // b's head waits at router 1; once 1->3 frees at t=20 it streams
        // its remaining flits: finish = 20 + 10 (some flits already
        // buffered downstream of 0->1).
        assert_eq!(done_b, Time::new(30));
    }

    #[test]
    fn idle_gaps_are_fast_forwarded() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        let id = sim.inject_on(&p, msg(0, 1, 32, 1_000_000));
        let end = sim.run_until_idle();
        assert_eq!(sim.completion(id), Some(Time::new(1_000_001)));
        assert_eq!(end, Time::new(1_000_001));
    }

    #[test]
    fn link_utilization_counts_flits() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        sim.inject_on(&p, msg(0, 1, 320, 0)); // 10 flits over one link
        sim.run_until_idle();
        let total: u64 = sim.link_busy_ticks().iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn deep_worm_respects_small_buffers() {
        // On a 4x1 line, a long message with 1-flit buffers still arrives;
        // the pipeline just runs at 1 flit/tick.
        let p = Platform::builder()
            .topology(TopologySpec::mesh(4, 1))
            .link_bandwidth(32.0)
            .build()
            .unwrap();
        let mut sim = NetworkSim::new(&p, SimConfig::new(32, 1));
        let id = sim.inject_on(&p, msg(0, 3, 320, 0)); // 10 flits, 3 links
        sim.run_until_idle();
        assert_eq!(sim.completion(id), Some(Time::new(12))); // 10 + 3 - 1
    }

    #[test]
    fn hop_latency_adds_router_pipeline_delay() {
        let p = platform();
        // 10 flits over 1 link with 1-tick routers: 10 + 1 = 11.
        let mut sim = NetworkSim::new(&p, SimConfig::new(32, 2).with_hop_latency(1));
        let a = sim.inject_on(&p, msg(0, 1, 320, 0));
        // 10 flits over 2 links: 10 + 1*(1+1) + 1 = 13.
        let b = sim.inject_on(&p, msg(3, 0, 320, 0));
        sim.run_until_idle();
        assert_eq!(sim.completion(a), Some(Time::new(11)));
        assert_eq!(sim.completion(b), Some(Time::new(13)));
        assert_eq!(sim.ideal_completion(a), Time::new(11));
        assert_eq!(sim.ideal_completion(b), Time::new(13));
    }

    #[test]
    fn message_stats_count_contention_stalls() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        let a = sim.inject_on(&p, msg(0, 1, 320, 0));
        let b = sim.inject_on(&p, msg(0, 1, 320, 0)); // serialized behind a
        sim.run_until_idle();
        let sa = sim.message_stats(a).expect("delivered");
        let sb = sim.message_stats(b).expect("delivered");
        assert_eq!(sa.stall_ticks, 0);
        assert_eq!(sb.stall_ticks, 10);
        assert_eq!(sb.delivered_at, Time::new(20));
    }

    #[test]
    fn stats_absent_before_delivery() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        let a = sim.inject_on(&p, msg(0, 1, 320, 5));
        assert!(sim.message_stats(a).is_none());
    }

    #[test]
    fn failed_link_strands_inflight_worm() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        let id = sim.inject_on(&p, msg(0, 1, 320, 0)); // 10 flits
        for _ in 0..3 {
            sim.tick();
        }
        let link = p.route(TileId::new(0), TileId::new(1))[0];
        let stranded = sim.fail_link(link);
        assert_eq!(stranded, vec![id]);
        assert!(sim.stranded(id));
        assert!(sim.is_idle(), "stranded worms no longer occupy the net");
        assert_eq!(sim.completion(id), None);
        // Failing the same link again reports nothing new.
        assert!(sim.fail_link(link).is_empty());
    }

    #[test]
    fn failure_after_tail_passed_is_harmless() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        let id = sim.inject_on(&p, msg(0, 1, 320, 0));
        sim.run_until_idle();
        let link = p.route(TileId::new(0), TileId::new(1))[0];
        assert!(sim.fail_link(link).is_empty());
        assert_eq!(sim.completion(id), Some(Time::new(10)));
    }

    #[test]
    fn stranded_worm_releases_its_channels() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        // a goes 0 -> 1 -> 3; killing 1->3 mid-flight must free 0->1
        // so b (injected later over 0->1) still delivers.
        let a = sim.inject_on(&p, msg(0, 3, 640, 0)); // 20 flits
        for _ in 0..5 {
            sim.tick();
        }
        let second_hop = p.route(TileId::new(0), TileId::new(3))[1];
        assert_eq!(sim.fail_link(second_hop), vec![a]);
        let b = sim.inject_on(&p, msg(0, 1, 320, 6));
        sim.run_until_idle();
        assert!(sim.stranded(a));
        assert_eq!(sim.completion(b), Some(Time::new(16)));
    }

    #[test]
    fn injection_over_dead_link_strands_immediately() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        let link = p.route(TileId::new(0), TileId::new(1))[0];
        sim.fail_link(link);
        let id = sim.inject_on(&p, msg(0, 1, 320, 0));
        assert!(sim.stranded(id));
        assert!(sim.is_idle());
        // Traffic avoiding the dead link is unaffected.
        let ok = sim.inject_on(&p, msg(2, 3, 320, 0));
        sim.run_until_idle();
        assert_eq!(sim.completion(ok), Some(Time::new(10)));
    }

    #[test]
    #[should_panic(expected = "inject into the past")]
    fn injecting_into_the_past_panics() {
        let p = platform();
        let mut sim = NetworkSim::new(&p, SimConfig::default());
        sim.inject_on(&p, msg(0, 1, 32, 10));
        sim.run_until_idle();
        sim.inject_on(&p, msg(0, 1, 32, 0));
    }
}
