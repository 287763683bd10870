//! Compressed-sparse-row adjacency, oriented destination-major.
//!
//! Row `v` holds the in-neighbours of `v` (sources of edges `u -> v`),
//! matching the pull-style aggregation of the paper's Alg. 1. Each
//! neighbour slot also records the original edge id so edge-feature
//! operands (`f_E[e_uv]`) can be gathered.

use crate::{EdgeId, EdgeList, VertexId};

/// Destination-major CSR adjacency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    num_vertices: usize,
    /// Row offsets; length `num_vertices + 1`.
    indptr: Vec<usize>,
    /// Source vertex per slot.
    indices: Vec<VertexId>,
    /// Original edge id per slot (parallel to `indices`).
    edge_ids: Vec<EdgeId>,
}

impl Csr {
    /// Builds the destination-major CSR from an edge list using a
    /// counting sort, so construction is `O(|V| + |E|)`.
    pub fn from_edges(edges: &EdgeList) -> Self {
        let n = edges.num_vertices();
        let m = edges.num_edges();
        let mut counts = vec![0usize; n + 1];
        for &v in edges.destinations() {
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0 as VertexId; m];
        let mut edge_ids = vec![0 as EdgeId; m];
        for (eid, u, v) in edges.iter() {
            let slot = cursor[v as usize];
            cursor[v as usize] += 1;
            indices[slot] = u;
            edge_ids[slot] = eid as EdgeId;
        }
        // Sort each row by source id for deterministic iteration order.
        let mut csr = Csr { num_vertices: n, indptr, indices, edge_ids };
        csr.sort_rows();
        csr
    }

    /// Builds directly from raw parts.
    ///
    /// Each row's sources must ascend, as every other constructor
    /// leaves them: the aggregation kernels' bit-identity to the
    /// reference rests on that order (DESIGN.md invariant 1).
    ///
    /// # Panics
    /// Panics if the parts are inconsistent (wrong lengths, unsorted
    /// offsets, out-of-range sources, or a row whose sources descend).
    pub fn from_parts(
        num_vertices: usize,
        indptr: Vec<usize>,
        indices: Vec<VertexId>,
        edge_ids: Vec<EdgeId>,
    ) -> Self {
        assert_eq!(indptr.len(), num_vertices + 1, "indptr length");
        assert!(indptr.windows(2).all(|w| w[0] <= w[1]), "indptr not monotone");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr tail");
        assert_eq!(indices.len(), edge_ids.len(), "indices/edge_ids length");
        assert!(
            indices.iter().all(|&u| (u as usize) < num_vertices),
            "source out of range"
        );
        assert!(
            indptr.windows(2).all(|w| indices[w[0]..w[1]].windows(2).all(|p| p[0] <= p[1])),
            "row sources not ascending"
        );
        Csr { num_vertices, indptr, indices, edge_ids }
    }

    fn sort_rows(&mut self) {
        for v in 0..self.num_vertices {
            let (lo, hi) = (self.indptr[v], self.indptr[v + 1]);
            let mut pairs: Vec<(VertexId, EdgeId)> = self.indices[lo..hi]
                .iter()
                .copied()
                .zip(self.edge_ids[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable();
            for (i, (u, e)) in pairs.into_iter().enumerate() {
                self.indices[lo + i] = u;
                self.edge_ids[lo + i] = e;
            }
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// In-neighbours (sources) of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.indices[self.indptr[v]..self.indptr[v + 1]]
    }

    /// Edge ids parallel to [`Self::neighbors`].
    #[inline]
    pub fn edge_ids(&self, v: VertexId) -> &[EdgeId] {
        let v = v as usize;
        &self.edge_ids[self.indptr[v]..self.indptr[v + 1]]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.indptr[v + 1] - self.indptr[v]
    }

    /// In-degrees of all vertices as `f32` (GCN normalization denominators).
    pub fn degrees_f32(&self) -> Vec<f32> {
        (0..self.num_vertices)
            .map(|v| (self.indptr[v + 1] - self.indptr[v]) as f32)
            .collect()
    }

    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    pub fn indices(&self) -> &[VertexId] {
        &self.indices
    }

    pub fn edge_id_slots(&self) -> &[EdgeId] {
        &self.edge_ids
    }

    /// The reverse graph: row `u` lists destinations `v` of edges
    /// `u -> v`. Needed by the backward pass, where gradients flow
    /// against edge direction.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.num_vertices + 1];
        for &u in &self.indices {
            counts[u as usize + 1] += 1;
        }
        for i in 0..self.num_vertices {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0 as VertexId; self.num_edges()];
        let mut edge_ids = vec![0 as EdgeId; self.num_edges()];
        for v in 0..self.num_vertices {
            for (slot_idx, &u) in self.neighbors(v as VertexId).iter().enumerate() {
                let eid = self.edge_ids(v as VertexId)[slot_idx];
                let slot = cursor[u as usize];
                cursor[u as usize] += 1;
                indices[slot] = v as VertexId;
                edge_ids[slot] = eid;
            }
        }
        let mut out = Csr { num_vertices: self.num_vertices, indptr, indices, edge_ids };
        out.sort_rows();
        out
    }

    /// Reconstructs the edge list `(src, dst)` with edge ids restored to
    /// their original positions.
    pub fn to_edge_list(&self) -> EdgeList {
        let m = self.num_edges();
        let mut src = vec![0 as VertexId; m];
        let mut dst = vec![0 as VertexId; m];
        for v in 0..self.num_vertices {
            for (k, &u) in self.neighbors(v as VertexId).iter().enumerate() {
                let eid = self.edge_ids(v as VertexId)[k] as usize;
                src[eid] = u;
                dst[eid] = v as VertexId;
            }
        }
        EdgeList::from_arrays(self.num_vertices, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> EdgeList {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        EdgeList::from_pairs(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn builds_in_neighbour_rows() {
        let g = Csr::from_edges(&diamond());
        assert_eq!(g.neighbors(0), &[3]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert_eq!(g.degree(3), 2);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn edge_ids_track_original_positions() {
        let g = Csr::from_edges(&diamond());
        // Edges into 3 were list entries 2 (1->3) and 3 (2->3).
        assert_eq!(g.edge_ids(3), &[2, 3]);
        assert_eq!(g.edge_ids(0), &[4]);
    }

    #[test]
    fn rows_are_sorted_by_source() {
        let e = EdgeList::from_pairs(3, &[(2, 0), (1, 0), (0, 0)]);
        let g = Csr::from_edges(&e);
        assert_eq!(g.neighbors(0), &[0, 1, 2]);
    }

    #[test]
    fn transpose_reverses_adjacency() {
        let g = Csr::from_edges(&diamond());
        let t = g.transpose();
        // In t, row u lists v with u -> v in the original.
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert_eq!(t.neighbors(3), &[0]);
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn to_edge_list_round_trips() {
        let e = diamond();
        let g = Csr::from_edges(&e);
        assert_eq!(g.to_edge_list(), e);
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let e = EdgeList::from_pairs(5, &[(0, 4)]);
        let g = Csr::from_edges(&e);
        for v in 0..4 {
            assert!(g.neighbors(v).is_empty());
        }
        assert_eq!(g.neighbors(4), &[0]);
    }

    #[test]
    #[should_panic(expected = "indptr not monotone")]
    fn from_parts_validates_offsets() {
        let _ = Csr::from_parts(2, vec![0, 2, 1], vec![0], vec![0]);
    }

    #[test]
    #[should_panic(expected = "row sources not ascending")]
    fn from_parts_rejects_descending_row_sources() {
        let _ = Csr::from_parts(3, vec![0, 0, 0, 2], vec![1, 0], vec![0, 1]);
    }
}
