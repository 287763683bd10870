//! The query engine: precomputed aggregation + incremental maintenance.
//!
//! # Cache layout
//!
//! A full GraphSAGE forward is `L` rounds of aggregate → linear → ReLU
//! over every vertex. For serving, everything up to the final linear
//! layer is a pure function of the (frozen) parameters and the graph,
//! so the engine materializes it once at build time:
//!
//! * `hidden[l]` — the post-ReLU activations of hidden layer `l`,
//!   maintained *eagerly* (they feed other vertices' aggregations).
//! * `agg_last`, `logits`, `classes` — the final layer's aggregation
//!   output, logits, and argmax class per vertex, maintained *lazily*
//!   behind a per-row version stamp (they feed only that vertex's own
//!   answer).
//!
//! A point query on a current row is then an O(1) class lookup. A
//! stale row re-aggregates and runs one `1 x d` dense layer; a batch
//! gathers only its *stale* rows and pushes them through the dense
//! layer as one `k x d` matmul, so a mostly-warm batch amortizes both
//! the repair matmul and the per-call overhead across the chunk.
//!
//! # Bit-identity
//!
//! The caches are built with the mono kernels pinned to one source
//! block (`with_blocks(1)`), whose per-row accumulation order is the
//! CSR neighbour order — the same order [`aggregate_row`] uses for
//! incremental rebuilds. Row-wise recomputation is therefore
//! bit-identical to the bulk build, which is what lets the tests demand
//! exact equality between served logits, the trainer's final forward,
//! and a cold rebuild after pure-addition deltas.
//!
//! # Incremental maintenance
//!
//! [`ServeEngine::apply_deltas`] applies structural updates, then
//! propagates a dirty set through the hidden layers: the vertices whose
//! adjacency changed seed the set, each hidden layer re-aggregates
//! exactly the dirty rows and pushes them through its dense layer as one
//! prefix product, and the set expands along out-edges between layers
//! (a changed activation can only affect its out-neighbours).
//! The final expansion stamps `input_version`, invalidating `agg_last`
//! rows without touching them; queries re-aggregate on first miss.

use std::sync::Arc;

use distgnn_graph::Csr;
use distgnn_kernels::{gcn, AggregationConfig, PreparedAggregation};
use distgnn_core::GraphSage;
use distgnn_telemetry::{Metric, MetricsRegistry, Phase, Recorder};
use distgnn_tensor::{ops, Matrix};

/// Build-time knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Kernel configuration for the bulk cache build. The block count
    /// is forced to 1 regardless of what the caller picks: blocked
    /// builds reorder the per-element accumulation, which would break
    /// bit-identity with row-wise incremental rebuilds.
    pub kernel: AggregationConfig,
    /// Largest batch the reusable query workspace is sized for; bigger
    /// query slices are served in chunks of this size.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { kernel: AggregationConfig::optimized(1), max_batch: 256 }
    }
}

/// One structural or feature update to the served graph.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphDelta {
    /// New directed edge `src -> dst` (affects `dst`'s aggregation).
    AddEdge { src: u32, dst: u32 },
    /// Remove directed edge `src -> dst`.
    RemoveEdge { src: u32, dst: u32 },
    /// New isolated vertex with the given feature row; it takes the
    /// next free id, so later deltas in the same batch may wire it up.
    AddVertex { features: Vec<f32> },
}

/// What one [`ServeEngine::apply_deltas`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Deltas that changed the graph.
    pub applied: usize,
    /// Deltas skipped as no-ops: duplicate edges, missing edges,
    /// out-of-range endpoints, wrong-width feature rows.
    pub ignored: usize,
    pub new_vertices: usize,
    /// Hidden-layer rows recomputed eagerly.
    pub rows_recomputed: u64,
    /// `agg_last` rows invalidated for lazy recomputation.
    pub rows_invalidated: u64,
}

/// Cumulative serving counters (exported via [`ServeEngine::export_metrics`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    pub queries: u64,
    pub batches: u64,
    /// Queries answered from a current `agg_last` row.
    pub cache_hits: u64,
    /// Queries that re-aggregated a stale row first.
    pub cache_misses: u64,
    pub deltas_applied: u64,
    /// All rows re-aggregated incrementally (eager hidden + lazy final).
    pub rows_reaggregated: u64,
}

/// Per-element accumulation in CSR neighbour order, then the GCN
/// epilogue — bit-identical to the bulk kernel with one source block
/// followed by [`gcn::gcn_normalize`].
fn aggregate_row(adj: &[u32], input: &Matrix, deg: f32, v: usize, out: &mut [f32]) {
    out.iter_mut().for_each(|x| *x = 0.0);
    for &u in adj {
        ops::axpy(1.0, input.row(u as usize), out);
    }
    let inv = 1.0 / (deg + 1.0);
    for (o, &f) in out.iter_mut().zip(input.row(v)) {
        *o = (*o + f) * inv;
    }
}

fn grow_rows(m: &mut Matrix, rows: usize) {
    if m.rows() >= rows {
        return;
    }
    let mut bigger = Matrix::zeros(rows, m.cols());
    let old = m.as_slice();
    bigger.as_mut_slice()[..old.len()].copy_from_slice(old);
    *m = bigger;
}

fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best as u32
}

/// The serving engine: frozen model + mutable graph + activation caches.
pub struct ServeEngine {
    model: GraphSage,
    /// In-neighbour lists, ascending (CSR row order — the accumulation
    /// order bit-identity depends on).
    adj_in: Vec<Vec<u32>>,
    /// Out-neighbour lists, for dirty-set propagation.
    adj_out: Vec<Vec<u32>>,
    /// In-degrees as f32 (the GCN normalizer input).
    degrees: Vec<f32>,
    features: Matrix,
    /// Post-ReLU activations per hidden layer (eagerly maintained).
    hidden: Vec<Matrix>,
    /// Final-layer aggregation cache (lazily maintained).
    agg_last: Matrix,
    /// Cached logits per vertex — `agg_last` pushed through the final
    /// dense layer, repaired under the same version stamps.
    logits: Matrix,
    /// Cached argmax class per vertex (repaired with `logits`).
    classes: Vec<u32>,
    /// Bumped once per delta batch that changes the graph.
    version: u64,
    /// Version each cached row must match to be served.
    input_version: Vec<u64>,
    /// Version each cached row was last recomputed at.
    row_version: Vec<u64>,
    /// Scratch membership flags for delta propagation.
    dirty: Vec<bool>,
    /// Per-hidden-layer `rows x in_dim` aggregation scratch for the
    /// dirty rows of a delta batch, grown to the largest dirty set seen.
    agg_scratch: Vec<Matrix>,
    /// Per-hidden-layer `rows x out_dim` pre-activation scratch, grown
    /// with `agg_scratch`.
    z_scratch: Vec<Matrix>,
    /// `max_batch x last_in` gathered stale aggregation rows.
    batch_agg: Matrix,
    /// `max_batch x num_classes` repair-logits workspace.
    batch_logits: Matrix,
    /// Vertex ids gathered into `batch_agg` (repair scatter targets).
    miss_idx: Vec<u32>,
    max_batch: usize,
    recorder: Arc<Recorder>,
    stats: ServeStats,
}

impl ServeEngine {
    /// Builds every cache with one bulk pass of the mono kernels.
    pub fn new(model: GraphSage, graph: &Csr, features: Matrix, cfg: &ServeConfig) -> ServeEngine {
        Self::with_recorder(model, graph, features, cfg, Arc::new(Recorder::disabled()))
    }

    /// [`ServeEngine::new`] with spans and counters going to `recorder`
    /// (phases [`Phase::ServeQuery`] / [`Phase::ServeDelta`]).
    pub fn with_recorder(
        model: GraphSage,
        graph: &Csr,
        features: Matrix,
        cfg: &ServeConfig,
        recorder: Arc<Recorder>,
    ) -> ServeEngine {
        let n = graph.num_vertices();
        assert_eq!(features.rows(), n, "feature row count vs graph");
        assert_eq!(
            features.cols(),
            model.layers[0].in_dim(),
            "feature width vs model input"
        );
        assert!(cfg.max_batch > 0, "max_batch must be positive");

        let num_layers = model.num_layers();
        let num_hidden = num_layers - 1;
        let kernel = cfg.kernel.with_blocks(1);
        let prep = PreparedAggregation::new(graph, kernel);
        let degrees = graph.degrees_f32();

        // Bulk build: hidden activations layer by layer, then the
        // final-layer aggregation cache.
        let mut hidden = Vec::with_capacity(num_hidden);
        for l in 0..num_hidden {
            let input = if l == 0 { &features } else { &hidden[l - 1] };
            let mut agg = Matrix::zeros(n, model.layers[l].in_dim());
            gcn::gcn_aggregate_prepared_into(&prep, input, &degrees, &mut agg);
            let mut z = Matrix::zeros(n, model.layers[l].out_dim());
            model.layers[l].forward_into(&agg, &mut z);
            ops::relu_inplace(&mut z);
            hidden.push(z);
        }
        let last_input = hidden.last().unwrap_or(&features);
        let mut agg_last = Matrix::zeros(n, model.layers[num_hidden].in_dim());
        gcn::gcn_aggregate_prepared_into(&prep, last_input, &degrees, &mut agg_last);
        let mut logits = Matrix::zeros(n, model.layers[num_hidden].out_dim());
        model.layers[num_hidden].forward_into(&agg_last, &mut logits);
        let classes = (0..n).map(|v| argmax(logits.row(v))).collect();

        let adj_in: Vec<Vec<u32>> = (0..n as u32).map(|v| graph.neighbors(v).to_vec()).collect();
        let mut adj_out: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, adj) in adj_in.iter().enumerate() {
            for &u in adj {
                adj_out[u as usize].push(v as u32);
            }
        }

        let agg_scratch =
            (0..num_hidden).map(|l| Matrix::zeros(1, model.layers[l].in_dim())).collect();
        let z_scratch =
            (0..num_hidden).map(|l| Matrix::zeros(1, model.layers[l].out_dim())).collect();
        let batch_agg = Matrix::zeros(cfg.max_batch, model.layers[num_hidden].in_dim());
        let batch_logits = Matrix::zeros(cfg.max_batch, model.layers[num_hidden].out_dim());

        ServeEngine {
            model,
            adj_in,
            adj_out,
            degrees,
            features,
            hidden,
            agg_last,
            logits,
            classes,
            version: 0,
            input_version: vec![0; n],
            row_version: vec![0; n],
            dirty: vec![false; n],
            agg_scratch,
            z_scratch,
            batch_agg,
            batch_logits,
            miss_idx: Vec::with_capacity(cfg.max_batch),
            max_batch: cfg.max_batch,
            recorder,
            stats: ServeStats::default(),
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.adj_in.len()
    }

    pub fn num_classes(&self) -> usize {
        self.batch_logits.cols()
    }

    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Re-aggregates `agg_last[v]` and gathers it into `batch_agg`
    /// slot `slot` for the batched dense-layer repair.
    fn gather_stale_row(&mut self, v: usize, slot: usize) {
        let Self { features, hidden, agg_last, batch_agg, adj_in, degrees, .. } = self;
        let input: &Matrix = match hidden.last() {
            Some(m) => m,
            None => features,
        };
        aggregate_row(&adj_in[v], input, degrees[v], v, agg_last.row_mut(v));
        batch_agg.row_mut(slot).copy_from_slice(agg_last.row(v));
        self.miss_idx.push(v as u32);
        self.stats.cache_misses += 1;
        self.stats.rows_reaggregated += 1;
    }

    /// Pushes the gathered stale rows through the final dense layer in
    /// one batched call and scatters logits + classes back to the
    /// caches. No-op when everything hit.
    fn repair_gathered(&mut self) {
        let k = self.miss_idx.len();
        if k == 0 {
            return;
        }
        let last = self.model.layers.last().expect("model has layers");
        last.forward_prefix_into(&self.batch_agg, k, &mut self.batch_logits);
        for slot in 0..k {
            let v = self.miss_idx[slot] as usize;
            self.logits.row_mut(v).copy_from_slice(self.batch_logits.row(slot));
            self.classes[v] = argmax(self.batch_logits.row(slot));
            self.row_version[v] = self.input_version[v];
        }
        self.miss_idx.clear();
    }

    /// Classifies one vertex. Allocation-free; O(1) when the cached row
    /// is current.
    pub fn query(&mut self, v: u32) -> u32 {
        let mut class = [0u32];
        self.query_batch(&[v], &mut class);
        class[0]
    }

    /// Classifies `vertices[i]` into `classes[i]` in chunks of
    /// `max_batch`: cache hits are O(1) lookups, and the stale rows of
    /// each chunk are re-aggregated and pushed through the final dense
    /// layer as one batched prefix matmul. Allocation-free.
    pub fn query_batch(&mut self, vertices: &[u32], classes: &mut [u32]) {
        assert_eq!(vertices.len(), classes.len(), "output length mismatch");
        let rec = Arc::clone(&self.recorder);
        for (vs, cs) in vertices.chunks(self.max_batch).zip(classes.chunks_mut(self.max_batch)) {
            let _span = rec.scope(Phase::ServeQuery);
            for &v in vs {
                let v = v as usize;
                assert!(v < self.num_vertices(), "query for unknown vertex {v}");
                if self.row_version[v] == self.input_version[v] {
                    self.stats.cache_hits += 1;
                } else {
                    let slot = self.miss_idx.len();
                    self.gather_stale_row(v, slot);
                    // A vertex repeated within the chunk gathers twice;
                    // the scatter just writes the same row twice.
                }
            }
            self.repair_gathered();
            for (c, &v) in cs.iter_mut().zip(vs) {
                *c = self.classes[v as usize];
            }
            self.stats.queries += vs.len() as u64;
            self.stats.batches += 1;
        }
    }

    /// Writes vertex `v`'s logits into `out` (length `num_classes`).
    /// Allocation-free.
    pub fn logits_into(&mut self, v: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.num_classes(), "logits width");
        let rec = Arc::clone(&self.recorder);
        let _span = rec.scope(Phase::ServeQuery);
        let v = v as usize;
        assert!(v < self.num_vertices(), "query for unknown vertex {v}");
        if self.row_version[v] == self.input_version[v] {
            self.stats.cache_hits += 1;
        } else {
            self.gather_stale_row(v, 0);
            self.repair_gathered();
        }
        out.copy_from_slice(self.logits.row(v));
        self.stats.queries += 1;
        self.stats.batches += 1;
    }

    /// Writes vertex `v`'s learned representation (the last hidden
    /// activation; the raw features for a single-layer model) into
    /// `out`. Allocation-free — hidden layers are eagerly maintained.
    pub fn embedding_into(&mut self, v: u32, out: &mut [f32]) {
        let rec = Arc::clone(&self.recorder);
        let _span = rec.scope(Phase::ServeQuery);
        let v = v as usize;
        assert!(v < self.num_vertices(), "query for unknown vertex {v}");
        let src: &Matrix = self.hidden.last().unwrap_or(&self.features);
        out.copy_from_slice(src.row(v));
        self.stats.queries += 1;
    }

    /// Applies a batch of graph updates and repairs the caches
    /// incrementally. The delta path may allocate (adjacency and
    /// matrices can grow); only the query path is allocation-free.
    pub fn apply_deltas(&mut self, deltas: &[GraphDelta]) -> DeltaReport {
        let rec = Arc::clone(&self.recorder);
        let _span = rec.scope(Phase::ServeDelta);
        let mut report = DeltaReport::default();
        let feat_dim = self.features.cols();
        let mut cur: Vec<u32> = Vec::new();
        let mut new_features: Vec<(usize, Vec<f32>)> = Vec::new();

        let mark = |dirty: &mut Vec<bool>, cur: &mut Vec<u32>, v: usize| {
            if !dirty[v] {
                dirty[v] = true;
                cur.push(v as u32);
            }
        };

        for delta in deltas {
            match delta {
                GraphDelta::AddEdge { src, dst } => {
                    let (s, d) = (*src as usize, *dst as usize);
                    if s >= self.adj_in.len() || d >= self.adj_in.len() {
                        report.ignored += 1;
                        continue;
                    }
                    match self.adj_in[d].binary_search(src) {
                        // Parallel edges are not modelled; a duplicate
                        // add is a no-op.
                        Ok(_) => report.ignored += 1,
                        Err(pos) => {
                            self.adj_in[d].insert(pos, *src);
                            self.adj_out[s].push(*dst);
                            self.degrees[d] += 1.0;
                            mark(&mut self.dirty, &mut cur, d);
                            report.applied += 1;
                        }
                    }
                }
                GraphDelta::RemoveEdge { src, dst } => {
                    let (s, d) = (*src as usize, *dst as usize);
                    if s >= self.adj_in.len() || d >= self.adj_in.len() {
                        report.ignored += 1;
                        continue;
                    }
                    match self.adj_in[d].binary_search(src) {
                        Ok(pos) => {
                            self.adj_in[d].remove(pos);
                            if let Some(p) = self.adj_out[s].iter().position(|x| x == dst) {
                                self.adj_out[s].swap_remove(p);
                            }
                            self.degrees[d] -= 1.0;
                            mark(&mut self.dirty, &mut cur, d);
                            report.applied += 1;
                        }
                        Err(_) => report.ignored += 1,
                    }
                }
                GraphDelta::AddVertex { features } => {
                    if features.len() != feat_dim {
                        report.ignored += 1;
                        continue;
                    }
                    let v = self.adj_in.len();
                    self.adj_in.push(Vec::new());
                    self.adj_out.push(Vec::new());
                    self.degrees.push(0.0);
                    self.input_version.push(0);
                    self.row_version.push(0);
                    self.classes.push(0);
                    self.dirty.push(false);
                    new_features.push((v, features.clone()));
                    mark(&mut self.dirty, &mut cur, v);
                    report.applied += 1;
                    report.new_vertices += 1;
                }
            }
        }

        if report.applied == 0 {
            for &v in &cur {
                self.dirty[v as usize] = false;
            }
            return report;
        }

        // Grow the row-indexed matrices once, then land new features.
        let n = self.adj_in.len();
        if report.new_vertices > 0 {
            grow_rows(&mut self.features, n);
            for m in &mut self.hidden {
                grow_rows(m, n);
            }
            grow_rows(&mut self.agg_last, n);
            grow_rows(&mut self.logits, n);
            for (v, f) in &new_features {
                self.features.row_mut(*v).copy_from_slice(f);
            }
        }

        self.version += 1;

        // Propagate: re-aggregate each hidden layer's dirty rows, then
        // widen the set along out-edges (a changed activation reaches
        // exactly its out-neighbours at the next layer).
        let num_hidden = self.model.num_layers() - 1;
        for l in 0..num_hidden {
            {
                let Self { model, features, hidden, agg_scratch, z_scratch, adj_in, degrees, .. } =
                    self;
                let (before, rest) = hidden.split_at_mut(l);
                let out_m = &mut rest[0];
                let input: &Matrix = if l == 0 { features } else { &before[l - 1] };
                let ascr = &mut agg_scratch[l];
                let zscr = &mut z_scratch[l];
                grow_rows(ascr, cur.len());
                grow_rows(zscr, cur.len());
                // Layer `l` reads only layer `l - 1`, so every dirty row
                // can be aggregated first and pushed through the dense
                // layer as one prefix product; each prefix row has the
                // bits of the same row computed alone.
                for (slot, &v) in cur.iter().enumerate() {
                    let v = v as usize;
                    aggregate_row(&adj_in[v], input, degrees[v], v, ascr.row_mut(slot));
                }
                model.layers[l].forward_prefix_into(ascr, cur.len(), zscr);
                for (slot, &v) in cur.iter().enumerate() {
                    for (o, &z) in out_m.row_mut(v as usize).iter_mut().zip(zscr.row(slot)) {
                        *o = z.max(0.0);
                    }
                }
                report.rows_recomputed += cur.len() as u64;
            }
            let frontier = cur.len();
            for i in 0..frontier {
                let v = cur[i] as usize;
                for w_idx in 0..self.adj_out[v].len() {
                    let w = self.adj_out[v][w_idx] as usize;
                    if !self.dirty[w] {
                        self.dirty[w] = true;
                        cur.push(w as u32);
                    }
                }
            }
        }
        if num_hidden == 0 {
            // Single-layer model: `agg_last` aggregates raw features,
            // which only structural seeds and new vertices perturb —
            // plus the out-neighbours of new-vertex feature rows.
            let frontier = cur.len();
            for i in 0..frontier {
                let v = cur[i] as usize;
                for w_idx in 0..self.adj_out[v].len() {
                    let w = self.adj_out[v][w_idx] as usize;
                    if !self.dirty[w] {
                        self.dirty[w] = true;
                        cur.push(w as u32);
                    }
                }
            }
        }

        // `cur` now covers every vertex whose final-layer aggregation
        // input changed; stamp them stale and let queries repair lazily.
        for &v in &cur {
            let v = v as usize;
            self.input_version[v] = self.version;
            self.dirty[v] = false;
        }
        report.rows_invalidated = cur.len() as u64;
        self.stats.deltas_applied += report.applied as u64;
        self.stats.rows_reaggregated += report.rows_recomputed;
        report
    }

    /// Exports the engine's current graph + features — what a cold
    /// rebuild would start from (the equivalence oracle in the tests).
    pub fn export_graph(&self) -> (Csr, Matrix) {
        let mut edges = distgnn_graph::EdgeList::new(self.adj_in.len());
        for (v, adj) in self.adj_in.iter().enumerate() {
            for &u in adj {
                edges.push(u, v as u32);
            }
        }
        (Csr::from_edges(&edges), self.features.clone())
    }

    /// Adds the serving counters to rank `rank`'s metrics.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, rank: usize) {
        let r = reg.rank_mut(rank);
        r.add(Metric::QueriesServed, self.stats.queries);
        r.add(Metric::QueryBatches, self.stats.batches);
        r.add(Metric::ServeCacheHits, self.stats.cache_hits);
        r.add(Metric::ServeCacheMisses, self.stats.cache_misses);
        r.add(Metric::DeltasApplied, self.stats.deltas_applied);
        r.add(Metric::RowsReaggregated, self.stats.rows_reaggregated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgnn_core::{SageConfig, SingleSocketAggregator};
    use distgnn_graph::generators::community_power_law;
    use distgnn_tensor::init::random_features;

    fn setup(n: usize, seed: u64) -> (Csr, Matrix, GraphSage) {
        let edges = community_power_law(n, n * 6, 3, 0.8, 0.7, seed).symmetrize();
        let g = Csr::from_edges(&edges);
        let f = random_features(n, 7, seed + 1);
        let cfg = SageConfig { in_dim: 7, hidden: vec![9, 5], num_classes: 4, seed: seed + 2 };
        (g, f, GraphSage::new(&cfg))
    }

    fn reference_logits(model: &GraphSage, g: &Csr, f: &Matrix) -> Matrix {
        let mut agg = SingleSocketAggregator::new(g, AggregationConfig::optimized(1));
        model.forward(&mut agg, f).0
    }

    #[test]
    fn served_logits_match_full_forward_bitwise() {
        let (g, f, model) = setup(40, 11);
        let want = reference_logits(&model, &g, &f);
        let mut eng = ServeEngine::new(model, &g, f, &ServeConfig::default());
        let mut out = vec![0.0f32; 4];
        for v in 0..40u32 {
            eng.logits_into(v, &mut out);
            assert_eq!(out.as_slice(), want.row(v as usize), "vertex {v}");
        }
        assert_eq!(eng.stats().cache_hits, 40);
        assert_eq!(eng.stats().cache_misses, 0);
    }

    #[test]
    fn batch_classes_match_point_queries() {
        let (g, f, model) = setup(30, 3);
        let mut eng =
            ServeEngine::new(model, &g, f, &ServeConfig { max_batch: 8, ..Default::default() });
        let vs: Vec<u32> = (0..30).map(|i| (i * 7) % 30).collect();
        let mut batch = vec![0u32; vs.len()];
        eng.query_batch(&vs, &mut batch);
        for (i, &v) in vs.iter().enumerate() {
            assert_eq!(eng.query(v), batch[i], "vertex {v}");
        }
        // 30 queries in chunks of 8 = 4 batches, plus 30 point batches.
        assert_eq!(eng.stats().batches, 4 + 30);
        assert_eq!(eng.stats().queries, 60);
    }

    #[test]
    fn add_edge_deltas_match_cold_rebuild_bitwise() {
        let (g, f, model) = setup(36, 5);
        let mut eng = ServeEngine::new(model.clone(), &g, f, &ServeConfig::default());
        let deltas = vec![
            GraphDelta::AddEdge { src: 0, dst: 20 },
            GraphDelta::AddEdge { src: 20, dst: 0 },
            GraphDelta::AddEdge { src: 7, dst: 31 },
            GraphDelta::AddVertex { features: vec![0.25; 7] },
            GraphDelta::AddEdge { src: 36, dst: 3 },
            GraphDelta::AddEdge { src: 4, dst: 36 },
        ];
        let report = eng.apply_deltas(&deltas);
        assert_eq!(report.applied, 6);
        assert_eq!(report.new_vertices, 1);
        assert!(report.rows_invalidated > 0);

        let (g2, f2) = eng.export_graph();
        let mut cold = ServeEngine::new(model, &g2, f2, &ServeConfig::default());
        let n = eng.num_vertices();
        assert_eq!(n, 37);
        let (mut a, mut b) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        for v in 0..n as u32 {
            eng.logits_into(v, &mut a);
            cold.logits_into(v, &mut b);
            assert_eq!(a, b, "vertex {v} diverged after incremental repair");
        }
        assert!(eng.stats().cache_misses >= report.rows_invalidated.min(1));
    }

    #[test]
    fn remove_edge_deltas_match_cold_rebuild() {
        let (g, f, model) = setup(28, 9);
        let mut eng = ServeEngine::new(model.clone(), &g, f, &ServeConfig::default());
        // Remove the first two real edges.
        let (v0, v1) = (0u32, 1u32);
        let mut deltas = Vec::new();
        for v in [v0, v1] {
            if let Some(&u) = g.neighbors(v).first() {
                deltas.push(GraphDelta::RemoveEdge { src: u, dst: v });
            }
        }
        assert!(!deltas.is_empty());
        let report = eng.apply_deltas(&deltas);
        assert_eq!(report.applied, deltas.len());

        let (g2, f2) = eng.export_graph();
        let mut cold = ServeEngine::new(model, &g2, f2, &ServeConfig::default());
        let (mut a, mut b) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        for v in 0..eng.num_vertices() as u32 {
            eng.logits_into(v, &mut a);
            cold.logits_into(v, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() <= 1e-5, "vertex {v}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn noop_deltas_are_ignored_and_free() {
        let (g, f, model) = setup(20, 1);
        let mut eng = ServeEngine::new(model, &g, f, &ServeConfig::default());
        let u = g.neighbors(5).first().copied().unwrap_or(0);
        let deltas = vec![
            GraphDelta::AddEdge { src: u, dst: 5 },            // duplicate
            GraphDelta::RemoveEdge { src: 19, dst: 19 },       // self-loop absent
            GraphDelta::AddEdge { src: 99, dst: 0 },           // out of range
            GraphDelta::AddVertex { features: vec![1.0; 3] },  // wrong width
        ];
        let report = eng.apply_deltas(&deltas);
        assert_eq!(report.applied, 0);
        assert_eq!(report.ignored, 4);
        assert_eq!(report.rows_invalidated, 0);
        // Nothing invalidated: every query stays a hit.
        eng.query(5);
        assert_eq!(eng.stats().cache_hits, 1);
    }

    #[test]
    fn embedding_is_last_hidden_row() {
        let (g, f, model) = setup(16, 2);
        let mut agg = SingleSocketAggregator::new(&g, AggregationConfig::optimized(1));
        let (_, cache) = model.forward(&mut agg, &f);
        // Last hidden activation = relu of the second-to-last pre-activation.
        let want = ops::relu(&cache.pre_activations[model.num_layers() - 2]);
        let mut eng = ServeEngine::new(model, &g, f, &ServeConfig::default());
        let mut out = vec![0.0f32; 5];
        eng.embedding_into(3, &mut out);
        assert_eq!(out.as_slice(), want.row(3));
    }

    #[test]
    fn metrics_export_lands_in_registry() {
        let (g, f, model) = setup(12, 7);
        let mut eng = ServeEngine::new(model, &g, f, &ServeConfig::default());
        let mut classes = vec![0u32; 5];
        eng.query_batch(&[0, 1, 2, 3, 4], &mut classes);
        // Find an edge that is not already present.
        let (src, dst) = (0..12u32)
            .flat_map(|d| (0..12u32).map(move |s| (s, d)))
            .find(|(s, d)| s != d && g.neighbors(*d).binary_search(s).is_err())
            .expect("some edge is absent");
        let report = eng.apply_deltas(&[GraphDelta::AddEdge { src, dst }]);
        assert_eq!(report.applied, 1);
        let mut reg = MetricsRegistry::new(1);
        eng.export_metrics(&mut reg, 0);
        assert_eq!(reg.rank(0).get(Metric::QueriesServed), 5);
        assert_eq!(reg.rank(0).get(Metric::QueryBatches), 1);
        assert_eq!(reg.rank(0).get(Metric::DeltasApplied), 1);
        assert_eq!(reg.rank(0).get(Metric::ServeCacheHits), 5);
    }
}
