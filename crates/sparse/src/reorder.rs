//! Locality-aware row/column reordering — the fourth reconfiguration
//! axis.
//!
//! A sparse matrix arrives in whatever order its generator (or its
//! on-disk file) produced, and that arrival order decides how the
//! x-vector and matrix lines are revisited during SpMV. The
//! hypergraph-partitioning line of work (Akbudak/Kayaaslan/Aykanat)
//! shows that permuting rows and columns to concentrate reuse is the
//! single biggest locality lever left once the storage format is fixed;
//! OSKI reports that blocked formats reward bandwidth-reducing
//! permutations most.
//!
//! This module provides the cheap end of that spectrum:
//!
//! * [`ReorderKind::DegreeSort`] — rows and columns independently
//!   sorted by descending degree, packing the hubs of a power-law
//!   graph into the first cache lines;
//! * [`ReorderKind::Rcm`] — reverse Cuthill–McKee over the symmetrized
//!   pattern, the classic bandwidth-reducing breadth-first ordering;
//! * [`ReorderKind::WindowCluster`] — a segment/window-clustering
//!   heuristic inspired by the hypergraph model: columns are assigned
//!   new indices in the order heavy rows touch them, so columns that
//!   co-occur in a row land in the same [`SEG_COLS`]-wide segment.
//!
//! All three produce an exact [`Permutation`]: a validated bijection on
//! rows and on columns with lossless [`Permutation::apply_coo`] /
//! [`Permutation::invert`], so a reordered matrix is a pure re-indexing
//! — every entry, explicit zeros included, survives bit-for-bit.
//! [`ReorderProbe`] samples bandwidth and segment occupancy before and
//! after each candidate permutation so the runtime's decision tree can
//! pick a reordering from O(nnz / stride) work, the same way the format
//! axis is steered by [`FormatProbe`](crate::FormatProbe).
//!
//! [`SEG_COLS`]: crate::bitmap::SEG_COLS

use crate::bitmap::SEG_COLS;
use crate::coo::CooMatrix;
use crate::{CscMatrix, Idx, Result, SparseError};
use std::collections::HashSet;
use std::fmt;

/// Which reordering the plan applies to the matrix image — `None` keeps
/// the arrival order. The runtime treats this as a reconfiguration axis
/// alongside the software dataflow, hardware substrate and storage
/// format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReorderKind {
    /// Arrival order: no permutation is applied.
    #[default]
    None,
    /// Rows and columns independently sorted by descending degree.
    DegreeSort,
    /// Reverse Cuthill–McKee over the symmetrized pattern (square
    /// matrices; identity on rectangles).
    Rcm,
    /// Segment/window clustering: columns renumbered in the order the
    /// heaviest rows touch them (square matrices; identity on
    /// rectangles).
    WindowCluster,
}

impl ReorderKind {
    /// Every kind, `None` first — the sweep order used by benches.
    pub const ALL: [ReorderKind; 4] = [
        ReorderKind::None,
        ReorderKind::DegreeSort,
        ReorderKind::Rcm,
        ReorderKind::WindowCluster,
    ];

    /// The non-trivial candidates a probe evaluates, in
    /// [`ReorderProbe`] array order.
    pub const CANDIDATES: [ReorderKind; 3] = [
        ReorderKind::DegreeSort,
        ReorderKind::Rcm,
        ReorderKind::WindowCluster,
    ];

    /// Short lowercase name, used in plan keys, bench tables and CLI
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            ReorderKind::None => "arrival",
            ReorderKind::DegreeSort => "degsort",
            ReorderKind::Rcm => "rcm",
            ReorderKind::WindowCluster => "window",
        }
    }

    /// Position of `self` in [`ReorderKind::CANDIDATES`] (`None` has
    /// no slot).
    pub fn candidate_index(self) -> Option<usize> {
        ReorderKind::CANDIDATES.iter().position(|&k| k == self)
    }
}

impl fmt::Display for ReorderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An exact, validated row/column permutation.
///
/// `row_new[r]` is the new index of old row `r`; `col_new[c]` the new
/// index of old column `c`. Both are bijections (checked at
/// construction), so applying a permutation never merges or drops
/// entries and [`Permutation::invert`] is a true inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    row_new: Vec<Idx>,
    col_new: Vec<Idx>,
}

/// Checks that `perm` is a bijection on `0..perm.len()`.
fn validate_bijection(perm: &[Idx], what: &str) -> Result<()> {
    let n = perm.len();
    let mut seen = vec![false; n];
    for (i, &p) in perm.iter().enumerate() {
        let p = p as usize;
        if p >= n {
            return Err(SparseError::InvalidPermutation(format!(
                "{what} maps {i} to {p}, outside 0..{n}"
            )));
        }
        if seen[p] {
            return Err(SparseError::InvalidPermutation(format!(
                "{what} maps two indices to {p}"
            )));
        }
        seen[p] = true;
    }
    Ok(())
}

/// Turns a visit order (`order[k]` = old index placed at new position
/// `k`) into a new-of-old map.
fn invert_order(order: &[Idx]) -> Vec<Idx> {
    let mut new_of = vec![0 as Idx; order.len()];
    for (new, &old) in order.iter().enumerate() {
        new_of[old as usize] = new as Idx;
    }
    new_of
}

impl Permutation {
    /// The identity permutation on a `rows` × `cols` shape.
    pub fn identity(rows: usize, cols: usize) -> Permutation {
        Permutation {
            row_new: (0..rows as Idx).collect(),
            col_new: (0..cols as Idx).collect(),
        }
    }

    /// Builds a permutation from explicit new-of-old maps, validating
    /// both as bijections.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidPermutation`] if either map is out of
    /// bounds or maps two indices to the same target.
    pub fn new(row_new: Vec<Idx>, col_new: Vec<Idx>) -> Result<Permutation> {
        validate_bijection(&row_new, "row permutation")?;
        validate_bijection(&col_new, "column permutation")?;
        Ok(Permutation { row_new, col_new })
    }

    /// A symmetric (square) permutation: rows and columns share one
    /// new-of-old map.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidPermutation`] if `new_of` is not a
    /// bijection.
    pub fn symmetric(new_of: Vec<Idx>) -> Result<Permutation> {
        validate_bijection(&new_of, "symmetric permutation")?;
        Ok(Permutation {
            row_new: new_of.clone(),
            col_new: new_of,
        })
    }

    /// Number of rows the permutation covers.
    pub fn rows(&self) -> usize {
        self.row_new.len()
    }

    /// Number of columns the permutation covers.
    pub fn cols(&self) -> usize {
        self.col_new.len()
    }

    /// New index of each old row.
    pub fn row_new(&self) -> &[Idx] {
        &self.row_new
    }

    /// New index of each old column.
    pub fn col_new(&self) -> &[Idx] {
        &self.col_new
    }

    /// Whether both maps are the identity.
    pub fn is_identity(&self) -> bool {
        self.row_new
            .iter()
            .enumerate()
            .all(|(i, &p)| p as usize == i)
            && self
                .col_new
                .iter()
                .enumerate()
                .all(|(i, &p)| p as usize == i)
    }

    /// The inverse permutation (old-of-new becomes new-of-old).
    pub fn invert(&self) -> Permutation {
        Permutation {
            row_new: invert_order(&self.row_new),
            col_new: invert_order(&self.col_new),
        }
    }

    /// Applies the permutation to a matrix: entry `(r, c, v)` moves to
    /// `(row_new[r], col_new[c], v)` bit-for-bit. Because the maps are
    /// bijections the result has exactly the same entries — explicit
    /// zeros included — so `apply_coo` then [`Permutation::invert`]
    /// `.apply_coo` is the identity on the canonical triplet list.
    ///
    /// # Panics
    ///
    /// If the matrix shape does not match the permutation's.
    pub fn apply_coo(&self, coo: &CooMatrix) -> CooMatrix {
        assert_eq!(coo.rows(), self.rows(), "row shape mismatch");
        assert_eq!(coo.cols(), self.cols(), "column shape mismatch");
        let triplets: Vec<(Idx, Idx, f32)> = coo
            .iter()
            .map(|(r, c, v)| (self.row_new[r as usize], self.col_new[c as usize], v))
            .collect();
        CooMatrix::from_triplets(coo.rows(), coo.cols(), triplets)
            .expect("bijection keeps every entry in bounds")
    }

    /// Permutes a dense vector from old column space into new column
    /// space: `out[col_new[i]] = x[i]`.
    ///
    /// # Panics
    ///
    /// If `x.len()` does not match the column count.
    pub fn permute_dense(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols(), "vector length mismatch");
        let mut out = vec![0.0f32; x.len()];
        for (i, &v) in x.iter().enumerate() {
            out[self.col_new[i] as usize] = v;
        }
        out
    }

    /// Un-permutes a result vector from new row space back into old row
    /// space: `out[i] = y[row_new[i]]`. Inverse of streaming the
    /// reordered matrix against a [`Permutation::permute_dense`]'d
    /// input.
    ///
    /// # Panics
    ///
    /// If `y.len()` does not match the row count.
    pub fn unpermute_result(&self, y: &[f32]) -> Vec<f32> {
        assert_eq!(y.len(), self.rows(), "vector length mismatch");
        (0..y.len()).map(|i| y[self.row_new[i] as usize]).collect()
    }

    /// Maps a sorted active-column list through `col_new` into `out`,
    /// re-sorted ascending — the form kernels expect. Allocation-free
    /// when `out` has capacity.
    pub fn permute_active(&self, active: &[Idx], out: &mut Vec<Idx>) {
        out.clear();
        out.extend(active.iter().map(|&c| self.col_new[c as usize]));
        out.sort_unstable();
    }

    /// Sets `mask[col_new[c]] = on` for every `c` in `active` — the
    /// membership form of [`Permutation::permute_active`] for consumers
    /// that only test a column's activity: no output list, no sort. The
    /// set bits after marking from an all-false mask are exactly the
    /// entries of the sorted permuted list.
    ///
    /// # Panics
    ///
    /// If an index is out of range of `col_new` or `mask`.
    pub fn mark_active(&self, active: &[Idx], mask: &mut [bool], on: bool) {
        for &c in active {
            mask[self.col_new[c as usize] as usize] = on;
        }
    }
}

/// Computes the permutation for `kind` on `coo`. `ReorderKind::None`
/// (and the square-only heuristics on rectangular matrices) return the
/// identity.
pub fn compute(kind: ReorderKind, coo: &CooMatrix) -> Permutation {
    match kind {
        ReorderKind::None => Permutation::identity(coo.rows(), coo.cols()),
        ReorderKind::DegreeSort => degree_sort(coo),
        ReorderKind::Rcm => rcm(coo),
        ReorderKind::WindowCluster => window_cluster(coo),
    }
}

/// New-of-old map that sorts indices by descending degree, ties broken
/// by original index (stable, so equal-degree matrices keep arrival
/// order).
fn degree_order(counts: &[usize]) -> Vec<Idx> {
    let mut order: Vec<Idx> = (0..counts.len() as Idx).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(counts[i as usize]), i));
    invert_order(&order)
}

/// Rows and columns independently sorted by descending degree. Works on
/// any shape; on power-law graphs this packs the hub columns — the ones
/// every row touches — into the first x-vector cache lines.
pub fn degree_sort(coo: &CooMatrix) -> Permutation {
    Permutation {
        row_new: degree_order(&coo.row_counts()),
        col_new: degree_order(&coo.col_counts()),
    }
}

/// Symmetrized adjacency in flat CSR form (self-loops dropped,
/// duplicates removed): the neighbors of `v` are
/// `nbrs[start[v]..start[v + 1]]`, each list ordered by ascending
/// (degree, index) — the neighbor visit order of the RCM BFS.
struct SymmetricAdjacency {
    start: Vec<usize>,
    nbrs: Vec<Idx>,
    /// Every vertex, by ascending (degree, index).
    by_degree: Vec<Idx>,
}

impl SymmetricAdjacency {
    /// Builds the adjacency of a square `coo` in `O(nnz + n log n)`.
    /// Vertex `v`'s neighbors are the union of row `v` and column `v`
    /// (the latter from the CSC image), deduplicated with a
    /// per-vertex stamp; one sort of packed keys orders the vertices,
    /// and one scatter then fills every list in that order.
    fn of(coo: &CooMatrix) -> Self {
        let n = coo.rows();
        let entries = coo.entries();
        let csc = CscMatrix::from(coo);

        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        let mut nbrs: Vec<Idx> = Vec::with_capacity(2 * entries.len());
        // `seen[u] == v + 1`: `u` is already on `v`'s list.
        let mut seen: Vec<Idx> = vec![0; n];
        let mut at = 0usize;
        for v in 0..n as Idx {
            let row_from = at;
            while at < entries.len() && entries[at].row == v {
                at += 1;
            }
            let outs = entries[row_from..at].iter().map(|t| t.col);
            let ins = csc.col(v as usize).0.iter().copied();
            for u in outs.chain(ins) {
                if u != v && seen[u as usize] != v + 1 {
                    seen[u as usize] = v + 1;
                    nbrs.push(u);
                }
            }
            start.push(nbrs.len());
        }

        // Vertices by ascending (degree, index), packed into one u64
        // key (indices are unique, so the order is total).
        let mut keys: Vec<u64> = (0..n)
            .map(|v| degree_key(start[v + 1] - start[v], v as Idx))
            .collect();
        keys.sort_unstable();
        let by_degree: Vec<Idx> = keys.into_iter().map(|key| key as Idx).collect();

        // Every list in that order without sorting it: the pattern is
        // symmetric, so appending each `u`, taken in (degree, index)
        // order, to the list of each of its neighbors fills list `v`
        // with exactly `v`'s neighbors, in that order.
        let mut ordered = vec![0 as Idx; nbrs.len()];
        let mut cursor = start[..n].to_vec();
        for &u in &by_degree {
            for &v in &nbrs[start[u as usize]..start[u as usize + 1]] {
                let slot = &mut cursor[v as usize];
                ordered[*slot] = u;
                *slot += 1;
            }
        }
        SymmetricAdjacency {
            start,
            nbrs: ordered,
            by_degree,
        }
    }

    fn neighbors(&self, v: Idx) -> &[Idx] {
        &self.nbrs[self.start[v as usize]..self.start[v as usize + 1]]
    }
}

/// `(degree, index)` packed so that `u64` order is tuple order.
fn degree_key(degree: usize, v: Idx) -> u64 {
    ((degree as u64) << 32) | u64::from(v)
}

/// Reverse Cuthill–McKee over the symmetrized pattern: breadth-first
/// from the lowest-degree vertex of each component, neighbors visited
/// in ascending degree, final order reversed. The classic
/// bandwidth-reducing ordering; identity on rectangular matrices.
pub fn rcm(coo: &CooMatrix) -> Permutation {
    if coo.rows() != coo.cols() {
        return Permutation::identity(coo.rows(), coo.cols());
    }
    let n = coo.rows();
    let adj = SymmetricAdjacency::of(coo);

    // Seeds come from the global (degree, index) order: its first
    // unvisited vertex is the minimum-degree vertex of its (entirely
    // unvisited) component, so each component starts from a
    // pseudo-peripheral seed. `order` doubles as the BFS queue:
    // vertices are appended when discovered and popped at `head`.
    let mut visited = vec![false; n];
    let mut order: Vec<Idx> = Vec::with_capacity(n);
    let mut head = 0usize;
    for &start in &adj.by_degree {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        order.push(start);
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &u in adj.neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    order.push(u);
                }
            }
        }
    }
    order.reverse();
    Permutation::symmetric(invert_order(&order)).expect("BFS visits each vertex once")
}

/// Segment/window clustering, the hypergraph-inspired heuristic: walk
/// rows in descending degree and hand each not-yet-renumbered column
/// the next new index, so columns that co-occur in heavy rows land in
/// the same [`SEG_COLS`]-wide segment (one bitmap word, one x-vector
/// window). Rows share the symmetric map; identity on rectangles.
pub fn window_cluster(coo: &CooMatrix) -> Permutation {
    if coo.rows() != coo.cols() {
        return Permutation::identity(coo.rows(), coo.cols());
    }
    let n = coo.rows();
    let row_counts = coo.row_counts();

    // Per-row triplet slices: the canonical entry list is sorted by
    // (row, col), so rows are contiguous runs.
    let mut row_start = vec![0usize; n + 1];
    for r in 0..n {
        row_start[r + 1] = row_start[r] + row_counts[r];
    }
    let entries = coo.entries();

    let mut row_order: Vec<Idx> = (0..n as Idx).collect();
    row_order.sort_by_key(|&r| (std::cmp::Reverse(row_counts[r as usize]), r));

    const UNASSIGNED: Idx = Idx::MAX;
    let mut new_of = vec![UNASSIGNED; n];
    let mut next: Idx = 0;
    for &r in &row_order {
        let r = r as usize;
        for t in &entries[row_start[r]..row_start[r + 1]] {
            let c = t.col as usize;
            if new_of[c] == UNASSIGNED {
                new_of[c] = next;
                next += 1;
            }
        }
    }
    // Columns no row touches keep their relative order at the tail.
    for slot in &mut new_of {
        if *slot == UNASSIGNED {
            *slot = next;
            next += 1;
        }
    }
    Permutation::symmetric(new_of).expect("every column assigned exactly once")
}

/// Mean |new_row − new_col| over entries sampled at `stride` — the
/// bandwidth estimate both RCM and the decision gate use. `perm =
/// None` measures arrival order. Returns 0 for empty samples.
pub fn bandwidth_estimate(coo: &CooMatrix, perm: Option<&Permutation>, stride: usize) -> f64 {
    let stride = stride.max(1);
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for t in coo.entries().iter().step_by(stride) {
        let (r, c) = match perm {
            Some(p) => (p.row_new[t.row as usize], p.col_new[t.col as usize]),
            None => (t.row, t.col),
        };
        sum += (f64::from(r) - f64::from(c)).abs();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Sampled entries per distinct `(row, col / SEG_COLS)` segment — the
/// same occupancy statistic [`FormatProbe`](crate::FormatProbe) uses to
/// steer the bitmap format, here evaluated under a candidate
/// permutation. Higher is better (denser segments). Returns 0 for
/// empty samples.
pub fn segment_occupancy(coo: &CooMatrix, perm: Option<&Permutation>, stride: usize) -> f64 {
    let stride = stride.max(1);
    let mut segments: HashSet<(Idx, Idx)> = HashSet::new();
    let mut count = 0u64;
    for t in coo.entries().iter().step_by(stride) {
        let (r, c) = match perm {
            Some(p) => (p.row_new[t.row as usize], p.col_new[t.col as usize]),
            None => (t.row, t.col),
        };
        segments.insert((r, c / SEG_COLS as Idx));
        count += 1;
    }
    if segments.is_empty() {
        0.0
    } else {
        count as f64 / segments.len() as f64
    }
}

/// Entries to sample per probe statistic — keeps the probe O(1)-ish on
/// big matrices while exact on small ones.
const PROBE_SAMPLES: usize = 4096;

/// Cheap locality statistics before and after each candidate
/// permutation, computed once per graph and cached on the shared graph
/// state. The decision tree turns these into a [`ReorderKind`] the same
/// way segment occupancy and block fill steer the format axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderProbe {
    /// Sampled mean |row − col| in arrival order.
    pub arrival_bandwidth: f64,
    /// Sampled segment occupancy in arrival order.
    pub arrival_occupancy: f64,
    /// Post-permute bandwidth per [`ReorderKind::CANDIDATES`] slot.
    pub bandwidth: [f64; 3],
    /// Post-permute segment occupancy per candidate slot.
    pub occupancy: [f64; 3],
}

impl ReorderProbe {
    /// Probes `coo`: candidate permutations are computed transiently,
    /// statistics sampled at a stride targeting [`PROBE_SAMPLES`]
    /// entries.
    pub fn of(coo: &CooMatrix) -> ReorderProbe {
        let stride = (coo.nnz() / PROBE_SAMPLES).max(1);
        let mut probe = ReorderProbe {
            arrival_bandwidth: bandwidth_estimate(coo, None, stride),
            arrival_occupancy: segment_occupancy(coo, None, stride),
            bandwidth: [0.0; 3],
            occupancy: [0.0; 3],
        };
        for (slot, kind) in ReorderKind::CANDIDATES.into_iter().enumerate() {
            let perm = compute(kind, coo);
            probe.bandwidth[slot] = bandwidth_estimate(coo, Some(&perm), stride);
            probe.occupancy[slot] = segment_occupancy(coo, Some(&perm), stride);
        }
        probe
    }

    /// Improvement ratio of `kind` over arrival order: the better of
    /// bandwidth shrinkage (`arrival / permuted`) and occupancy growth
    /// (`permuted / arrival`). 1.0 means "no better"; `None` and
    /// degenerate statistics report 1.0.
    pub fn gain(&self, kind: ReorderKind) -> f64 {
        let Some(slot) = kind.candidate_index() else {
            return 1.0;
        };
        let bw_gain = if self.bandwidth[slot] > 0.0 {
            self.arrival_bandwidth / self.bandwidth[slot]
        } else {
            1.0
        };
        let occ_gain = if self.arrival_occupancy > 0.0 {
            self.occupancy[slot] / self.arrival_occupancy
        } else {
            1.0
        };
        bw_gain.max(occ_gain)
    }

    /// The candidate with the highest [`ReorderProbe::gain`] and that
    /// gain, for the decision gate to threshold.
    pub fn best(&self) -> (ReorderKind, f64) {
        let mut best = (ReorderKind::DegreeSort, f64::MIN);
        for kind in ReorderKind::CANDIDATES {
            let g = self.gain(kind);
            if g > best.1 {
                best = (kind, g);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CooMatrix {
        // A path with vertices deliberately scrambled: vertex i sits at
        // matrix index (i * 7) % n, so arrival bandwidth is large and
        // RCM has something to recover.
        let place = |i: usize| ((i * 7) % n) as Idx;
        let mut triplets = Vec::new();
        for i in 0..n - 1 {
            triplets.push((place(i), place(i + 1), 1.0));
            triplets.push((place(i + 1), place(i), 1.0));
        }
        CooMatrix::from_triplets(n, n, triplets).unwrap()
    }

    #[test]
    fn identity_is_identity() {
        let p = Permutation::identity(4, 7);
        assert!(p.is_identity());
        assert_eq!(p.invert(), p);
        let m = CooMatrix::from_triplets(4, 7, vec![(1, 6, 2.5), (3, 0, -1.0)]).unwrap();
        let back = p.apply_coo(&m);
        assert_eq!(back.entries(), m.entries());
    }

    #[test]
    fn construction_rejects_non_bijections() {
        assert!(Permutation::new(vec![0, 0], vec![0, 1]).is_err());
        assert!(Permutation::new(vec![0, 2], vec![0, 1]).is_err());
        assert!(Permutation::symmetric(vec![1, 1, 0]).is_err());
    }

    #[test]
    fn apply_then_inverse_is_identity() {
        let m = path_graph(31);
        for kind in ReorderKind::ALL {
            let p = compute(kind, &m);
            let back = p.invert().apply_coo(&p.apply_coo(&m));
            assert_eq!(back.entries(), m.entries(), "{kind} round trip");
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_on_a_scrambled_path() {
        let m = path_graph(97);
        let p = rcm(&m);
        let before = bandwidth_estimate(&m, None, 1);
        let after = bandwidth_estimate(&m, Some(&p), 1);
        // RCM on a path recovers (nearly) the natural ordering:
        // bandwidth collapses from O(n) to O(1).
        assert!(
            after < before / 4.0,
            "rcm bandwidth {after} not < {before} / 4"
        );
    }

    #[test]
    fn window_cluster_packs_cooccurring_columns() {
        // Two heavy rows each touching a scattered column set; the
        // clustering must give each row's columns consecutive indices.
        let n = 128;
        let cols_a = [5usize, 40, 77, 101];
        let cols_b = [9usize, 33, 64, 120];
        let mut triplets = Vec::new();
        for &c in &cols_a {
            triplets.push((0 as Idx, c as Idx, 1.0));
        }
        for &c in &cols_b {
            triplets.push((1 as Idx, c as Idx, 1.0));
        }
        let m = CooMatrix::from_triplets(n, n, triplets).unwrap();
        let p = window_cluster(&m);
        let news: Vec<Idx> = cols_a.iter().map(|&c| p.col_new()[c]).collect();
        assert_eq!(news, vec![0, 1, 2, 3], "row 0's columns pack first");
        let news: Vec<Idx> = cols_b.iter().map(|&c| p.col_new()[c]).collect();
        assert_eq!(news, vec![4, 5, 6, 7], "row 1's columns pack next");
    }

    #[test]
    fn degree_sort_handles_rectangles() {
        let m =
            CooMatrix::from_triplets(2, 5, vec![(0, 4, 1.0), (1, 4, 1.0), (1, 0, 2.0)]).unwrap();
        let p = degree_sort(&m);
        assert_eq!(p.rows(), 2);
        assert_eq!(p.cols(), 5);
        // Column 4 has the highest degree: it moves to new index 0.
        assert_eq!(p.col_new()[4], 0);
        // Row 1 (degree 2) leads row 0 (degree 1).
        assert_eq!(p.row_new()[1], 0);
        assert_eq!(p.row_new()[0], 1);
    }

    #[test]
    fn square_only_heuristics_degrade_to_identity_on_rectangles() {
        let m = CooMatrix::from_triplets(3, 8, vec![(0, 7, 1.0)]).unwrap();
        assert!(rcm(&m).is_identity());
        assert!(window_cluster(&m).is_identity());
    }

    #[test]
    fn empty_matrix_probes_are_finite() {
        let m = CooMatrix::new(6, 6);
        let probe = ReorderProbe::of(&m);
        assert_eq!(probe.arrival_bandwidth, 0.0);
        assert_eq!(probe.arrival_occupancy, 0.0);
        let (_, gain) = probe.best();
        assert!(gain.is_finite());
        assert!(gain <= 1.0 + f64::EPSILON);
    }

    #[test]
    fn permute_dense_roundtrips_through_unpermute() {
        let m = path_graph(17);
        let p = rcm(&m);
        let x: Vec<f32> = (0..17).map(|i| i as f32 * 0.25).collect();
        let permuted = p.permute_dense(&x);
        let back = p.unpermute_result(&permuted);
        assert_eq!(back, x);
    }

    #[test]
    fn permute_active_sorts_mapped_indices() {
        let m = path_graph(9);
        let p = degree_sort(&m);
        let active: Vec<Idx> = vec![0, 3, 8];
        let mut out = Vec::new();
        p.permute_active(&active, &mut out);
        let mut want: Vec<Idx> = active.iter().map(|&c| p.col_new()[c as usize]).collect();
        want.sort_unstable();
        assert_eq!(out, want);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }
}
