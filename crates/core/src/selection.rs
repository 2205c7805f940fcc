//! Selection of the k most similar non-overlapping patterns.
//!
//! Definition 3 of the paper asks for a set `A` of `k` anchor points such
//! that (1) every anchored pattern lies inside the window and does not
//! overlap the query pattern, (2) the patterns do not overlap each other
//! (pairwise anchor distance ≥ `l`) and (3) the sum of dissimilarities to the
//! query pattern is minimal.
//!
//! A greedy algorithm that repeatedly picks the most similar pattern that
//! does not overlap the already chosen ones fails to minimise the sum
//! (Section 6.1), so the paper proposes a dynamic program over the matrix
//!
//! ```text
//! M[i][j] = 0                                            if i = 0
//!         = ∞                                            if i > j
//!         = min( M[i][j−1],  D[j] + M[i−1][max(j−l,0)] ) otherwise
//! ```
//!
//! where `D[j]` is the dissimilarity of the `j`-th candidate pattern
//! (Equation 5, Algorithm 1, Figure 8).  This module implements both the DP
//! and the greedy heuristic (for ablation), plus an "overlapping top-k"
//! variant that demonstrates the near-duplicate problem motivating the
//! non-overlap constraint.
//!
//! # Evaluating only the finite columns
//!
//! The composed (signature-pruned) imputation path leaves most of `D` at
//! `+∞`, so [`select_anchors_dp`] evaluates the recurrence over the *active*
//! columns only — those whose `D[j]` is neither `+∞` nor NaN — and performs
//! the same float operations as the dense table on every cell it stores:
//!
//! * **A `+∞`/NaN column is a pure copy.**  Its take term `D[j] + M[…]` is
//!   `+∞` or NaN, and `f64::min` returns the other operand for both, so
//!   `M[i][j] = M[i][j−1]` bit for bit — including the `i > j` cells, which
//!   are `∞` on both sides.  A row therefore changes value only at active
//!   columns, and `M[i][j]` equals the row's value at the last active column
//!   `≤ j` (or the row's initial value, `0` for `i = 0` and `∞` otherwise,
//!   when there is none).
//! * **The same operands reach every active cell.**  The skip operand
//!   `M[i][j−1]` is the row's value at the previous active column, and the
//!   take operand `M[i−1][max(j−l, 0)]` is row `i−1`'s value at the last
//!   active column `≤ j − l`.  That column only moves right as `j` does, so
//!   a monotone two-pointer sweep finds it for every active column in
//!   `O(m)` total (a binary search per column costs more than the dense
//!   table when every column is finite).  Each cell is then computed as
//!   `skip.min(D[j] + M[i−1][pred])`, the dense expression verbatim, and the
//!   `i > j ⇒ ∞` rule is kept on the true column index.
//! * **The backtrack makes the same decisions.**  The dense walk compares
//!   `M[i][j]` with `M[i][j−1]` and steps left while they are equal, which
//!   they always are on copy columns; at an active column it compares the
//!   same two stored values the sparse walk compares.  A take jumps to
//!   `j − l`, from where the dense walk steps down to the same
//!   predecessor column.
//!
//! With `m` active columns the cost is `O(k·m)` instead of `O(k·J)`; with
//! every column finite the two are the same work.

/// Which algorithm is used to pick the anchors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// The dynamic program of Section 6 (paper default): minimises the sum of
    /// dissimilarities subject to the non-overlap constraint.
    #[default]
    DynamicProgramming,
    /// Greedy: repeatedly take the most similar pattern that does not overlap
    /// the already selected ones.  May fail to minimise the sum.
    Greedy,
    /// Plain top-k by dissimilarity ignoring the non-overlap constraint.
    /// Only useful to demonstrate the near-duplicate problem.
    OverlappingTopK,
}

/// Result of a pattern-selection run.
#[derive(Clone, Debug, PartialEq)]
pub struct AnchorSelection {
    /// 0-based candidate indices of the selected patterns, in increasing
    /// index order (candidate `j` in the paper is index `j − 1` here).
    pub indices: Vec<usize>,
    /// Sum of the dissimilarities of the selected patterns.
    pub total_dissimilarity: f64,
    /// Whether the requested number of anchors could be selected.
    pub complete: bool,
}

impl AnchorSelection {
    fn empty() -> Self {
        AnchorSelection {
            indices: Vec::new(),
            total_dissimilarity: 0.0,
            complete: false,
        }
    }
}

/// Selects up to `k` non-overlapping candidates minimising the dissimilarity
/// sum using the dynamic program of the paper.
///
/// * `dissimilarities[j]` is `D[j+1]` of the paper: the dissimilarity of the
///   candidate anchored `j` positions after the first valid anchor.
///   Candidates whose dissimilarity is `+∞` (e.g. because the pattern
///   contained missing values) are never selected.
/// * `pattern_length` is `l`; two candidates `i < j` overlap iff `j − i < l`.
///
/// If fewer than `k` non-overlapping finite candidates exist, the selection
/// contains as many as possible and `complete` is `false`.
///
/// The recurrence is evaluated over the *active* columns only — those whose
/// `D` is neither `+∞` nor NaN — which performs exactly the float operations
/// the full `(k+1) × (J+1)` table would on the cells that can differ from
/// their left neighbour (see the module docs), so the selection, its tie
/// order and the bits of `total_dissimilarity` are those of Algorithm 1.
pub fn select_anchors_dp(
    dissimilarities: &[f64],
    pattern_length: usize,
    k: usize,
) -> AnchorSelection {
    assert!(pattern_length > 0, "pattern length must be positive");
    let j_max = dissimilarities.len();
    if k == 0 || j_max == 0 {
        return AnchorSelection::empty();
    }

    // The largest feasible number of anchors given the candidate count: with
    // J candidates and spacing l the maximum is ceil(J / l).
    let feasible_k = k.min(j_max.div_ceil(pattern_length));

    // Active columns, 1-based like the paper's `j`.  Every other column is a
    // pure copy of its left neighbour: `D + M ∈ {+∞, NaN}` there, and
    // `f64::min` returns the other operand for both.
    let cols: Vec<usize> = (1..=j_max)
        .filter(|&j| {
            let d = dissimilarities[j - 1];
            !(d.is_nan() || d == f64::INFINITY)
        })
        .collect();
    let m = cols.len();
    // `pred[a]`: how many active columns lie at or before `cols[a] − l` —
    // the table slot holding `M[i−1][max(cols[a] − l, 0)]`.  Both sides grow
    // with `a`, so one monotone pointer finds them all.
    let mut pred = Vec::with_capacity(m);
    let mut p = 0usize;
    for &c in &cols {
        while p < m && cols[p] + pattern_length <= c {
            p += 1;
        }
        pred.push(p);
    }

    // Row `i` holds `m + 1` slots: slot 0 stands for every column before the
    // first active one (`M[0][·] = 0`, `M[i ≥ 1][·] = ∞` there) and slot
    // `a + 1` is `M[i][cols[a]]`, which every copy column after it repeats.
    let w = m + 1;
    let mut table = vec![0.0_f64; (feasible_k + 1) * w];
    for i in 1..=feasible_k {
        let (done, rest) = table.split_at_mut(i * w);
        let prev = &done[(i - 1) * w..];
        let row = &mut rest[..w];
        let mut skip = f64::INFINITY;
        row[0] = skip;
        for (a, &c) in cols.iter().enumerate() {
            let cell = if i > c {
                f64::INFINITY
            } else {
                skip.min(dissimilarities[c - 1] + prev[pred[a]])
            };
            row[a + 1] = cell;
            skip = cell;
        }
    }

    // Find the largest i ≤ feasible_k with a finite optimum (infinite D values
    // can make even feasible_k unattainable).  `M[i][J]` is the last slot.
    let mut best_i = 0;
    for i in (1..=feasible_k).rev() {
        if table[i * w + m].is_finite() {
            best_i = i;
            break;
        }
    }
    if best_i == 0 {
        return AnchorSelection::empty();
    }

    // Backtrack (lines 15–23 of Algorithm 1).  The dense walk steps over
    // every copy column (`M[i][j] == M[i][j−1]` there), so walking the
    // active slots makes the same take/skip decisions.
    let mut indices = Vec::with_capacity(best_i);
    let mut i = best_i;
    let mut a = m;
    while i > 0 && a > 0 {
        if table[i * w + a] == table[i * w + a - 1] {
            a -= 1;
        } else {
            indices.push(cols[a - 1] - 1);
            i -= 1;
            a = pred[a - 1];
        }
    }
    indices.reverse();

    AnchorSelection {
        total_dissimilarity: table[best_i * w + m],
        complete: best_i == k,
        indices,
    }
}

/// Greedy selection: repeatedly pick the most similar candidate that does not
/// overlap any already selected one.  Kept for the ablation study — the paper
/// notes this does *not* minimise the dissimilarity sum in general.
pub fn select_anchors_greedy(
    dissimilarities: &[f64],
    pattern_length: usize,
    k: usize,
) -> AnchorSelection {
    assert!(pattern_length > 0, "pattern length must be positive");
    let mut order: Vec<usize> = (0..dissimilarities.len())
        .filter(|&j| dissimilarities[j].is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        dissimilarities[a]
            .partial_cmp(&dissimilarities[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut selected: Vec<usize> = Vec::with_capacity(k);
    for j in order {
        if selected.len() == k {
            break;
        }
        if selected.iter().all(|&s| s.abs_diff(j) >= pattern_length) {
            selected.push(j);
        }
    }
    selected.sort_unstable();
    let total = selected.iter().map(|&j| dissimilarities[j]).sum();
    AnchorSelection {
        complete: selected.len() == k,
        total_dissimilarity: total,
        indices: selected,
    }
}

/// Top-k by dissimilarity with no overlap constraint at all.  Demonstrates
/// the near-duplicate problem described in Section 4.1.
pub fn select_anchors_overlapping(dissimilarities: &[f64], k: usize) -> AnchorSelection {
    let mut order: Vec<usize> = (0..dissimilarities.len())
        .filter(|&j| dissimilarities[j].is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        dissimilarities[a]
            .partial_cmp(&dissimilarities[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut selected: Vec<usize> = order.into_iter().take(k).collect();
    selected.sort_unstable();
    let total = selected.iter().map(|&j| dissimilarities[j]).sum();
    AnchorSelection {
        complete: selected.len() == k,
        total_dissimilarity: total,
        indices: selected,
    }
}

/// Dispatches to the strategy chosen in the configuration.
pub fn select_anchors(
    strategy: SelectionStrategy,
    dissimilarities: &[f64],
    pattern_length: usize,
    k: usize,
) -> AnchorSelection {
    match strategy {
        SelectionStrategy::DynamicProgramming => {
            select_anchors_dp(dissimilarities, pattern_length, k)
        }
        SelectionStrategy::Greedy => select_anchors_greedy(dissimilarities, pattern_length, k),
        SelectionStrategy::OverlappingTopK => select_anchors_overlapping(dissimilarities, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense `(k+1) × (J+1)` Algorithm 1, verbatim: the reference the
    /// sparse evaluation must match bit for bit.
    fn select_anchors_dp_dense(
        dissimilarities: &[f64],
        pattern_length: usize,
        k: usize,
    ) -> AnchorSelection {
        assert!(pattern_length > 0, "pattern length must be positive");
        let j_max = dissimilarities.len();
        if k == 0 || j_max == 0 {
            return AnchorSelection::empty();
        }
        let feasible_k = k.min(j_max.div_ceil(pattern_length));
        let cols = j_max + 1;
        let mut m = vec![vec![0.0_f64; cols]; feasible_k + 1];
        for (i, row) in m.iter_mut().enumerate().skip(1) {
            for (j, cell) in row.iter_mut().enumerate() {
                if i > j {
                    *cell = f64::INFINITY;
                }
            }
        }
        for i in 1..=feasible_k {
            for j in 1..=j_max {
                if i > j {
                    continue;
                }
                let skip = m[i][j - 1];
                let pred = j.saturating_sub(pattern_length);
                let take = dissimilarities[j - 1] + m[i - 1][pred];
                m[i][j] = skip.min(take);
            }
        }
        let mut best_i = 0;
        for i in (1..=feasible_k).rev() {
            if m[i][j_max].is_finite() {
                best_i = i;
                break;
            }
        }
        if best_i == 0 {
            return AnchorSelection::empty();
        }
        let mut indices = Vec::with_capacity(best_i);
        let mut i = best_i;
        let mut j = j_max;
        while i > 0 && j > 0 {
            if m[i][j] == m[i][j - 1] {
                j -= 1;
            } else {
                indices.push(j - 1);
                i -= 1;
                j = j.saturating_sub(pattern_length);
            }
        }
        indices.reverse();
        AnchorSelection {
            total_dissimilarity: m[best_i][j_max],
            complete: best_i == k,
            indices,
        }
    }

    /// SplitMix64: a tiny deterministic generator for the property loops.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn assert_same(d: &[f64], l: usize, k: usize) {
        let sparse = select_anchors_dp(d, l, k);
        let dense = select_anchors_dp_dense(d, l, k);
        assert_eq!(
            sparse.indices, dense.indices,
            "indices, l={l} k={k} D={d:?}"
        );
        assert_eq!(
            sparse.total_dissimilarity.to_bits(),
            dense.total_dissimilarity.to_bits(),
            "total, l={l} k={k} D={d:?}"
        );
        assert_eq!(sparse.complete, dense.complete, "complete, l={l} k={k}");
    }

    #[test]
    fn sparse_dp_matches_the_dense_table_bit_for_bit() {
        let mut rng = Mix(0x5EED_0013);
        for case in 0..20_000u32 {
            let len = rng.below(48) as usize;
            let l = 1 + rng.below(9) as usize;
            // Includes k > ceil(J / l) and J < l.
            let k = 1 + rng.below(7) as usize;
            // Per-case mix: mostly-∞ (the pruned regime), mostly finite (the
            // exhaustive regime), and a handful of coarse values for ties.
            let inf_share = rng.below(101);
            let coarse = case % 3 == 0;
            let d: Vec<f64> = (0..len)
                .map(|_| {
                    let roll = rng.below(100);
                    if roll < inf_share {
                        f64::INFINITY
                    } else if roll == 99 {
                        f64::NAN
                    } else if coarse {
                        rng.below(4) as f64 * 0.5
                    } else {
                        rng.below(1 << 20) as f64 / 1024.0 + 0.1
                    }
                })
                .collect();
            assert_same(&d, l, k);
        }
    }

    #[test]
    fn sparse_dp_matches_the_dense_table_on_edge_shapes() {
        let inf = f64::INFINITY;
        for (d, l, k) in [
            (vec![inf; 9], 2, 3),
            (vec![f64::NAN; 5], 1, 2),
            (vec![0.3, inf, 0.3, inf, 0.3], 2, 5),
            (vec![0.7, 0.2], 5, 1),
            (vec![0.7, 0.2], 5, 3),
            (vec![inf, inf, 1.0], 4, 2),
            (vec![1.0; 12], 3, 4),
            (vec![0.0, f64::NAN, 0.0, inf, 0.0, 0.0], 2, 3),
        ] {
            assert_same(&d, l, k);
        }
    }

    #[test]
    fn figure_8_worked_example() {
        // D = [0.5, 0.3, 2.1, 0.7, 4.0], l = 3, k = 2.
        // The paper's DP selects patterns j = 1 (P(t6), δ=0.5) and j = 4
        // (P(t9), δ=0.7) with total dissimilarity 1.2.
        let d = [0.5, 0.3, 2.1, 0.7, 4.0];
        let sel = select_anchors_dp(&d, 3, 2);
        assert!(sel.complete);
        assert_eq!(sel.indices, vec![0, 3]);
        assert!((sel.total_dissimilarity - 1.2).abs() < 1e-12);
    }

    #[test]
    fn greedy_fails_on_figure_8_example() {
        // Greedy first grabs j = 2 (δ=0.3), which overlaps both neighbours of
        // the optimal solution; its best completion is j = 5 (δ=4.0), total 4.3.
        let d = [0.5, 0.3, 2.1, 0.7, 4.0];
        let greedy = select_anchors_greedy(&d, 3, 2);
        assert!(greedy.complete);
        assert_eq!(greedy.indices, vec![1, 4]);
        assert!(greedy.total_dissimilarity > 4.0);
        // The DP is strictly better.
        let dp = select_anchors_dp(&d, 3, 2);
        assert!(dp.total_dissimilarity < greedy.total_dissimilarity);
    }

    #[test]
    fn dp_never_selects_overlapping_candidates() {
        let d = [1.0, 0.1, 0.2, 0.15, 3.0, 0.05, 0.5];
        for k in 1..=4 {
            let sel = select_anchors_dp(&d, 2, k);
            for w in sel.indices.windows(2) {
                assert!(w[1] - w[0] >= 2, "overlap in {:?}", sel.indices);
            }
        }
    }

    #[test]
    fn dp_matches_brute_force_on_small_inputs() {
        // Exhaustive check of optimality over all non-overlapping subsets.
        fn brute_force(d: &[f64], l: usize, k: usize) -> Option<f64> {
            fn rec(d: &[f64], l: usize, k: usize, start: usize) -> Option<f64> {
                if k == 0 {
                    return Some(0.0);
                }
                let mut best: Option<f64> = None;
                for j in start..d.len() {
                    if !d[j].is_finite() {
                        continue;
                    }
                    if let Some(rest) = rec(d, l, k - 1, j + l) {
                        let total = d[j] + rest;
                        best = Some(best.map_or(total, |b: f64| b.min(total)));
                    }
                }
                best
            }
            rec(d, l, k, 0)
        }

        let cases: Vec<(Vec<f64>, usize, usize)> = vec![
            (vec![0.5, 0.3, 2.1, 0.7, 4.0], 3, 2),
            (vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4], 2, 3),
            (vec![5.0, 1.0, 1.0, 5.0, 1.0, 1.0, 5.0], 3, 2),
            (vec![0.2, 0.1, 0.2, 0.1, 0.2, 0.1], 1, 4),
            (vec![3.0, 2.0, 1.0], 2, 2),
            (vec![1.0, f64::INFINITY, 2.0, 3.0, f64::INFINITY, 0.5], 2, 2),
        ];
        for (d, l, k) in cases {
            let dp = select_anchors_dp(&d, l, k);
            let expected = brute_force(&d, l, k);
            match expected {
                Some(total) if dp.complete => {
                    assert!(
                        (dp.total_dissimilarity - total).abs() < 1e-9,
                        "dp {} vs brute {} for {:?} l={} k={}",
                        dp.total_dissimilarity,
                        total,
                        d,
                        l,
                        k
                    );
                }
                Some(_) => panic!("dp incomplete but brute force found a solution: {d:?}"),
                None => assert!(
                    !dp.complete,
                    "brute force found no solution but dp claims one"
                ),
            }
        }
    }

    #[test]
    fn infeasible_k_returns_partial_selection() {
        // Only 3 candidates with l = 2: at most 2 non-overlapping patterns.
        let d = [1.0, 2.0, 3.0];
        let sel = select_anchors_dp(&d, 2, 5);
        assert!(!sel.complete);
        assert_eq!(sel.indices.len(), 2);
        // Greedy behaves the same way.
        let greedy = select_anchors_greedy(&d, 2, 5);
        assert!(!greedy.complete);
        assert_eq!(greedy.indices.len(), 2);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(select_anchors_dp(&[], 3, 2), AnchorSelection::empty());
        assert_eq!(
            select_anchors_dp(&[1.0, 2.0], 3, 0),
            AnchorSelection::empty()
        );
        let all_inf = [f64::INFINITY, f64::INFINITY];
        assert!(select_anchors_dp(&all_inf, 1, 1).indices.is_empty());
        assert!(select_anchors_greedy(&all_inf, 1, 1).indices.is_empty());
        assert!(select_anchors_overlapping(&all_inf, 1).indices.is_empty());
    }

    #[test]
    fn k_equals_one_picks_the_minimum() {
        let d = [0.9, 0.4, 0.6, 0.2, 0.8];
        let sel = select_anchors_dp(&d, 4, 1);
        assert_eq!(sel.indices, vec![3]);
        assert!((sel.total_dissimilarity - 0.2).abs() < 1e-12);
    }

    #[test]
    fn infinite_candidates_are_skipped() {
        let d = [f64::INFINITY, 0.5, f64::INFINITY, 0.7, f64::INFINITY];
        let sel = select_anchors_dp(&d, 2, 2);
        assert!(sel.complete);
        assert_eq!(sel.indices, vec![1, 3]);
        assert!((sel.total_dissimilarity - 1.2).abs() < 1e-12);
    }

    #[test]
    fn overlapping_topk_demonstrates_near_duplicates() {
        // A smooth dissimilarity profile with a single minimum at index 5:
        // without the overlap constraint the top-3 are 4, 5, 6 — adjacent
        // near-duplicates, exactly the problem described in Section 4.1.
        let d: Vec<f64> = (0..11).map(|j| ((j as f64) - 5.0).abs()).collect();
        let overlapping = select_anchors_overlapping(&d, 3);
        assert_eq!(overlapping.indices, vec![4, 5, 6]);
        let dp = select_anchors_dp(&d, 3, 3);
        for w in dp.indices.windows(2) {
            assert!(w[1] - w[0] >= 3);
        }
    }

    #[test]
    fn strategy_dispatch() {
        let d = [0.5, 0.3, 2.1, 0.7, 4.0];
        let dp = select_anchors(SelectionStrategy::DynamicProgramming, &d, 3, 2);
        let greedy = select_anchors(SelectionStrategy::Greedy, &d, 3, 2);
        let overl = select_anchors(SelectionStrategy::OverlappingTopK, &d, 3, 2);
        assert_eq!(dp.indices, vec![0, 3]);
        assert_eq!(greedy.indices, vec![1, 4]);
        // Without the overlap constraint the two smallest dissimilarities win
        // (indices 1 and 0), even though they are adjacent.
        assert_eq!(overl.indices, vec![0, 1]);
    }

    #[test]
    fn ties_are_resolved_deterministically() {
        let d = [1.0, 1.0, 1.0, 1.0];
        let a = select_anchors_dp(&d, 2, 2);
        let b = select_anchors_dp(&d, 2, 2);
        assert_eq!(a, b);
        assert!(a.complete);
        assert!((a.total_dissimilarity - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pattern_length_panics() {
        let _ = select_anchors_dp(&[1.0], 0, 1);
    }
}
