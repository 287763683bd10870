//! Everything a workload feeds the program, derived from `--seed`.
//!
//! The program under test never sees the seed itself: it sees a
//! generated dataset, model/partition configs carrying derived seeds,
//! a request stream and a delta stream. The same seed gives the same
//! inputs, bit for bit.

use distgnn_cachesim::{RequestConfig, RequestStream};
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_serve::GraphDelta;
use std::time::Instant;

/// SplitMix64 finalizer over `seed` and a per-purpose salt, so the
/// derived seeds are independent of each other.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The derived seeds, one per consumer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    pub dataset: u64,
    pub model: u64,
    /// `DistConfig::seed`: clone-tree root selection.
    pub partition: u64,
    pub requests: u64,
    pub deltas: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            dataset: mix(seed, 1),
            model: mix(seed, 2),
            partition: mix(seed, 3),
            requests: mix(seed, 4),
            deltas: mix(seed, 5),
        }
    }
}

/// Generates the workload's dataset; returns it with the generation
/// time in ms (input generation, never part of any end-to-end metric).
pub fn dataset(base: ScaledConfig, scale: f64, seeds: &Seeds) -> (Dataset, f64) {
    let mut cfg = base.scaled_by(scale);
    cfg.seed = seeds.dataset;
    let t = Instant::now();
    let ds = Dataset::generate(&cfg);
    (ds, t.elapsed().as_secs_f64() * 1e3)
}

/// Deltas per `apply_deltas` call.
pub const DELTA_BATCH: usize = 16;
/// One delta batch goes in before every `DELTA_EVERY`-th request.
pub const DELTA_EVERY: usize = 4;
/// Vertices per request (and the engine's `max_batch`).
pub const REQUEST_VERTICES: usize = 64;
/// Power-law exponent of the request popularity (web-like traffic).
pub const REQUEST_ALPHA: f64 = 0.99;

/// Alternating add-edge / remove-edge batches. Added edges have
/// SplitMix64 endpoints; each removal takes back an edge the previous
/// batch added, so removals hit real edges and the graph keeps its size
/// over a long stream (the first batch's removals, and any duplicate
/// add, are ignored by the engine, as in a real feed).
pub struct DeltaStream {
    state: u64,
    num_vertices: u64,
    last_added: Vec<(u32, u32)>,
}

impl DeltaStream {
    pub fn new(num_vertices: usize, seed: u64) -> Self {
        DeltaStream {
            state: seed,
            num_vertices: num_vertices as u64,
            last_added: Vec::new(),
        }
    }

    fn next_vertex(&mut self) -> u32 {
        self.state = self.state.wrapping_add(1);
        (mix(self.state, 6) % self.num_vertices) as u32
    }

    /// Overwrites `out` with the next batch (its capacity is reused).
    pub fn fill(&mut self, out: &mut Vec<GraphDelta>) {
        out.clear();
        for i in 0..DELTA_BATCH / 2 {
            let (src, dst) = (self.next_vertex(), self.next_vertex());
            out.push(GraphDelta::AddEdge { src, dst });
            let (rs, rd) = match self.last_added.get(i) {
                Some(&edge) => edge,
                None => (self.next_vertex(), self.next_vertex()),
            };
            out.push(GraphDelta::RemoveEdge { src: rs, dst: rd });
            if i < self.last_added.len() {
                self.last_added[i] = (src, dst);
            } else {
                self.last_added.push((src, dst));
            }
        }
    }
}

pub fn request_stream(num_vertices: usize, seed: u64) -> RequestStream {
    RequestStream::new(RequestConfig {
        num_vertices,
        alpha: REQUEST_ALPHA,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_and_repeat() {
        let a = Seeds::derive(7);
        assert_eq!(a, Seeds::derive(7));
        assert_ne!(a, Seeds::derive(8));
        let all = [a.dataset, a.model, a.partition, a.requests, a.deltas];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn delta_stream_is_deterministic_alternating_and_in_range() {
        let mut a = DeltaStream::new(100, 42);
        let mut b = DeltaStream::new(100, 42);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            a.fill(&mut x);
            b.fill(&mut y);
            assert_eq!(x, y);
            assert_eq!(x.len(), DELTA_BATCH);
            for (i, d) in x.iter().enumerate() {
                match d {
                    GraphDelta::AddEdge { src, dst } => {
                        assert_eq!(i % 2, 0);
                        assert!(*src < 100 && *dst < 100);
                    }
                    GraphDelta::RemoveEdge { src, dst } => {
                        assert_eq!(i % 2, 1);
                        assert!(*src < 100 && *dst < 100);
                    }
                    GraphDelta::AddVertex { .. } => panic!("stream never adds vertices"),
                }
            }
        }
        let mut c = DeltaStream::new(100, 43);
        c.fill(&mut y);
        assert_ne!(x, y, "a different seed gives a different stream");
    }

    #[test]
    fn removals_take_back_the_previous_batch() {
        let mut s = DeltaStream::new(1000, 9);
        let (mut first, mut second) = (Vec::new(), Vec::new());
        s.fill(&mut first);
        s.fill(&mut second);
        for i in 0..DELTA_BATCH / 2 {
            let GraphDelta::AddEdge { src, dst } = first[2 * i] else {
                panic!("even = add")
            };
            assert_eq!(second[2 * i + 1], GraphDelta::RemoveEdge { src, dst });
        }
    }

    #[test]
    fn same_seed_same_dataset() {
        let seeds = Seeds::derive(3);
        let (a, _) = dataset(ScaledConfig::am_s(), 0.25, &seeds);
        let (b, _) = dataset(ScaledConfig::am_s(), 0.25, &seeds);
        assert_eq!(a.graph.indices(), b.graph.indices());
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        let (c, _) = dataset(ScaledConfig::am_s(), 0.25, &Seeds::derive(4));
        assert_ne!(a.graph.indices(), c.graph.indices());
    }
}
