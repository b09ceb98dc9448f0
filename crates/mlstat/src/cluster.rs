//! Relational clustering on a dissimilarity matrix.
//!
//! The paper clusters kernels "via the R Fossil package" from a pairwise
//! dissimilarity matrix (Section III-B). The standard algorithm for
//! relational (dissimilarity-only) clustering is PAM — Partitioning Around
//! Medoids (Kaufman & Rousseeuw) — implemented here with the classic BUILD
//! and SWAP phases, plus average-silhouette scoring for choosing `k`.

use serde::{Deserialize, Serialize};

/// A symmetric pairwise dissimilarity matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dissimilarity {
    n: usize,
    /// Full row-major storage (kept symmetric by the setter).
    data: Vec<f64>,
}

impl Dissimilarity {
    /// An `n × n` all-zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self { n, data: vec![0.0; n * n] }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dissimilarity between items `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Row `i`: item `i`'s dissimilarity to every item, in item order.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Set the dissimilarity between `i` and `j` (kept symmetric).
    pub fn set(&mut self, i: usize, j: usize, d: f64) {
        self.data[i * self.n + j] = d;
        self.data[j * self.n + i] = d;
    }

    /// The principal sub-matrix on `items`: entry `(a, b)` is this
    /// matrix's `(items[a], items[b])`.
    pub fn principal(&self, items: &[usize]) -> Self {
        let mut data = Vec::with_capacity(items.len() * items.len());
        for &i in items {
            let row = self.row(i);
            data.extend(items.iter().map(|&j| row[j]));
        }
        Self { n: items.len(), data }
    }

    /// Validate symmetry, zero diagonal, and non-negativity.
    pub fn validate(&self) -> Result<(), String> {
        for i in 0..self.n {
            if self.get(i, i) != 0.0 {
                return Err(format!("diagonal ({i},{i}) = {} ≠ 0", self.get(i, i)));
            }
            for j in 0..i {
                let d = self.get(i, j);
                if d < 0.0 || !d.is_finite() {
                    return Err(format!("d({i},{j}) = {d} invalid"));
                }
                if (d - self.get(j, i)).abs() > 1e-12 {
                    return Err(format!("asymmetric at ({i},{j})"));
                }
            }
        }
        Ok(())
    }
}

/// Result of a PAM clustering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    /// Medoid item index per cluster.
    pub medoids: Vec<usize>,
    /// Cluster assignment per item (index into `medoids`).
    pub assignment: Vec<usize>,
    /// Total dissimilarity of items to their medoids (the PAM objective).
    pub cost: f64,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// Item indices belonging to cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment.iter().enumerate().filter_map(|(i, &a)| (a == c).then_some(i)).collect()
    }

    /// Sizes of every cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignment {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Where every item stands against a medoid set: the slot of its nearest
/// medoid and its dissimilarity to the nearest and to the second-nearest.
/// This is the assignment and the objective, and it prices every exchange
/// of a non-medoid against a medoid in one pass over the matrix's rows
/// ([`swap_costs`](Self::swap_costs)) without re-scanning the medoids.
#[derive(Debug, Clone, PartialEq)]
pub struct NearestMedoids {
    /// Nearest medoid slot per item; ties go to the lower slot. A medoid
    /// always claims its own slot — otherwise two medoids at dissimilarity
    /// zero could leave one cluster empty.
    slot: Vec<usize>,
    /// Dissimilarity to that medoid (a medoid's own is not read).
    nearest: Vec<f64>,
    /// Smallest dissimilarity to any *other* slot's medoid; infinite when
    /// there is a single medoid.
    second: Vec<f64>,
    is_medoid: Vec<bool>,
    /// Number of medoid slots.
    k: usize,
}

impl NearestMedoids {
    /// Scan every item against `medoids` (distinct item indices).
    pub fn new(d: &Dissimilarity, medoids: &[usize]) -> Self {
        let n = d.len();
        let mut is_medoid = vec![false; n];
        let mut slot = vec![0usize; n];
        for (s, &m) in medoids.iter().enumerate() {
            is_medoid[m] = true;
            slot[m] = s;
        }
        let mut nearest = vec![0.0; n];
        let mut second = vec![f64::INFINITY; n];
        for i in 0..n {
            if is_medoid[i] {
                for (s, &m) in medoids.iter().enumerate() {
                    if s != slot[i] && d.get(i, m) < second[i] {
                        second[i] = d.get(i, m);
                    }
                }
                continue;
            }
            let mut best = f64::INFINITY;
            for (s, &m) in medoids.iter().enumerate() {
                let dist = d.get(i, m);
                if dist < best {
                    second[i] = best;
                    best = dist;
                    slot[i] = s;
                } else if dist < second[i] {
                    second[i] = dist;
                }
            }
            nearest[i] = best;
        }
        Self { slot, nearest, second, is_medoid, k: medoids.len() }
    }

    /// The PAM objective: total dissimilarity of the non-medoid items to
    /// their nearest medoids, summed in item order.
    pub fn cost(&self) -> f64 {
        let mut cost = 0.0;
        for i in 0..self.slot.len() {
            if !self.is_medoid[i] {
                cost += self.nearest[i];
            }
        }
        cost
    }

    /// The objective after replacing the medoid in `slot` by the
    /// non-medoid `item`, for every slot and every such item, as
    /// `costs[slot * n + item]` (`costs` holds `k · n` entries; a medoid's
    /// column is left meaningless). One pass over the matrix's rows: row
    /// `i` adds its term to every entry but those of column `i`. Every
    /// term is the minimum the item would find by scanning the exchanged
    /// medoid set, and each entry's terms are added in row order, so an
    /// entry is [`cost`](Self::cost) of that exchanged set to the last bit.
    pub fn swap_costs(&self, d: &Dissimilarity, costs: &mut [f64]) {
        let n = self.slot.len();
        assert_eq!(costs.len(), self.k * n, "one entry per slot and item");
        costs.fill(0.0);
        for i in 0..n {
            let (row, own) = (d.row(i), self.slot[i]);
            if self.is_medoid[i] {
                // A medoid that stays costs nothing; only its own slot's
                // exchange makes it an ordinary item.
                add_nearer(&mut costs[own * n..(own + 1) * n], row, i, self.second[i]);
                continue;
            }
            for (slot, slot_costs) in costs.chunks_exact_mut(n).enumerate() {
                // The one that arrives, against the nearest of the medoids
                // that stay: the second-nearest when `own` is the one leaving.
                let kept = if slot == own { self.second[i] } else { self.nearest[i] };
                add_nearer(slot_costs, row, i, kept);
            }
        }
    }
}

/// `costs[c] += min(row[c], kept)` for every column `c` but `skip`.
#[inline]
fn add_nearer(costs: &mut [f64], row: &[f64], skip: usize, kept: f64) {
    let nearer = |arriving: f64| if arriving < kept { arriving } else { kept };
    for (cost, &arriving) in costs[..skip].iter_mut().zip(&row[..skip]) {
        *cost += nearer(arriving);
    }
    for (cost, &arriving) in costs[skip + 1..].iter_mut().zip(&row[skip + 1..]) {
        *cost += nearer(arriving);
    }
}

/// PAM (k-medoids): BUILD a greedy initial medoid set, then SWAP until no
/// single medoid↔non-medoid exchange lowers the objective.
///
/// Deterministic: ties break toward lower item indices, so the same matrix
/// always yields the same clustering. Panics if `k` is zero or exceeds the
/// number of items.
pub fn pam(d: &Dissimilarity, k: usize) -> Clustering {
    let n = d.len();
    assert!(k >= 1 && k <= n, "k = {k} must be in 1..={n}");

    // BUILD: first medoid minimizes total dissimilarity; each subsequent
    // medoid maximizes the cost reduction. Column totals and gains are
    // accumulated row by row, each in item order.
    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    let mut totals = vec![0.0; n];
    for i in 0..n {
        for (total, &d_ia) in totals.iter_mut().zip(d.row(i)) {
            *total += d_ia;
        }
    }
    let first = (0..n)
        .min_by(|&a, &b| totals[a].partial_cmp(&totals[b]).unwrap())
        .expect("non-empty matrix");
    medoids.push(first);

    // Current distance of every item to its nearest medoid.
    let mut near = vec![f64::INFINITY; n];
    let mut gains = totals;
    while medoids.len() < k {
        let newest = medoids[medoids.len() - 1];
        for (i, near_i) in near.iter_mut().enumerate() {
            *near_i = near_i.min(d.get(i, newest));
        }
        gains.fill(0.0);
        for (i, &near_i) in near.iter().enumerate() {
            for (gain, &d_ic) in gains.iter_mut().zip(d.row(i)) {
                *gain += (near_i - d_ic).max(0.0);
            }
        }
        let candidate = (0..n)
            .filter(|c| !medoids.contains(c))
            .max_by(|&a, &b| {
                gains[a]
                    .partial_cmp(&gains[b])
                    .unwrap()
                    // Tie-break toward the lower index for determinism.
                    .then(b.cmp(&a))
            })
            .expect("k <= n leaves a candidate");
        medoids.push(candidate);
    }

    // SWAP: steepest-descent single swaps. Every exchange is priced
    // first, in one pass over the rows (`costs[slot * n + item]`), then
    // scanned slot by slot, item by item: under the `+ 1e-12` rule that
    // order decides between exchanges of equal cost.
    let mut near = NearestMedoids::new(d, &medoids);
    let mut cost = near.cost();
    let mut costs = vec![0.0; k * n];
    loop {
        near.swap_costs(d, &mut costs);
        let mut best: Option<(usize, usize, f64)> = None; // (medoid slot, item, new cost)
        for (slot, slot_costs) in costs.chunks_exact(n).enumerate() {
            for (item, &c) in slot_costs.iter().enumerate() {
                if near.is_medoid[item] {
                    continue;
                }
                if c + 1e-12 < best.map_or(cost, |(_, _, bc)| bc) {
                    best = Some((slot, item, c));
                }
            }
        }
        match best {
            Some((slot, item, c)) => {
                medoids[slot] = item;
                cost = c;
                near = NearestMedoids::new(d, &medoids);
            }
            None => break,
        }
    }
    let assignment = near.slot;

    // Canonical order: sort medoids so cluster ids are stable.
    let mut order: Vec<usize> = (0..medoids.len()).collect();
    order.sort_by_key(|&c| medoids[c]);
    let medoids_sorted: Vec<usize> = order.iter().map(|&c| medoids[c]).collect();
    let remap: Vec<usize> = {
        let mut r = vec![0usize; medoids.len()];
        for (new_c, &old_c) in order.iter().enumerate() {
            r[old_c] = new_c;
        }
        r
    };
    let assignment = assignment.into_iter().map(|a| remap[a]).collect();

    Clustering { medoids: medoids_sorted, assignment, cost }
}

/// Mean silhouette width of a clustering: in [-1, 1], higher is better.
/// Items in singleton clusters contribute 0, per the usual convention.
pub fn silhouette(d: &Dissimilarity, clustering: &Clustering) -> f64 {
    let n = d.len();
    if n == 0 || clustering.k() < 2 {
        return 0.0;
    }
    let sizes = clustering.sizes();
    let mut sums = vec![0.0; clustering.k()];
    let mut total = 0.0;
    for i in 0..n {
        let own = clustering.assignment[i];
        if sizes[own] <= 1 {
            continue; // silhouette 0 for singletons
        }
        // Every cluster's total dissimilarity from i (excluding i itself),
        // each added up in item order.
        sums.fill(0.0);
        for (j, &c) in clustering.assignment.iter().enumerate() {
            if j != i {
                sums[c] += d.get(i, j);
            }
        }
        // a(i): mean dissimilarity to own cluster.
        let a = sums[own] / (sizes[own] - 1) as f64;
        // b(i): smallest mean dissimilarity to another cluster.
        let mut b = f64::INFINITY;
        for (c, (&sum, &size)) in sums.iter().zip(&sizes).enumerate() {
            if c == own || size == 0 {
                continue;
            }
            b = b.min(sum / size as f64);
        }
        if b.is_finite() {
            total += (b - a) / a.max(b).max(1e-300);
        }
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight groups far apart: {0,1,2} and {3,4,5}.
    fn two_blobs() -> Dissimilarity {
        let mut d = Dissimilarity::zeros(6);
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let same = (i < 3) == (j < 3);
                d.set(i, j, if same { 0.1 } else { 1.0 });
            }
        }
        d
    }

    #[test]
    fn pam_separates_two_blobs() {
        let d = two_blobs();
        let c = pam(&d, 2);
        assert_eq!(c.k(), 2);
        // All of 0..3 together, all of 3..6 together.
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_eq!(c.assignment[1], c.assignment[2]);
        assert_eq!(c.assignment[3], c.assignment[4]);
        assert_eq!(c.assignment[4], c.assignment[5]);
        assert_ne!(c.assignment[0], c.assignment[3]);
        assert!((c.cost - 4.0 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn assignment_is_nearest_medoid() {
        let d = two_blobs();
        let c = pam(&d, 2);
        for i in 0..d.len() {
            let own = d.get(i, c.medoids[c.assignment[i]]);
            for &m in &c.medoids {
                assert!(own <= d.get(i, m) + 1e-12);
            }
        }
    }

    #[test]
    fn k_equals_n_is_free() {
        let d = two_blobs();
        let c = pam(&d, 6);
        assert_eq!(c.cost, 0.0);
        let mut medoids = c.medoids.clone();
        medoids.dedup();
        assert_eq!(medoids.len(), 6);
    }

    #[test]
    fn k_equals_one_picks_central_item() {
        let mut d = Dissimilarity::zeros(3);
        d.set(0, 1, 1.0);
        d.set(1, 2, 1.0);
        d.set(0, 2, 2.0);
        let c = pam(&d, 1);
        assert_eq!(c.medoids, vec![1], "item 1 is the 1-median");
    }

    #[test]
    fn deterministic() {
        let d = two_blobs();
        assert_eq!(pam(&d, 2), pam(&d, 2));
        assert_eq!(pam(&d, 3), pam(&d, 3));
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn k_zero_panics() {
        let _ = pam(&two_blobs(), 0);
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn k_too_large_panics() {
        let _ = pam(&two_blobs(), 7);
    }

    #[test]
    fn silhouette_prefers_true_structure() {
        let d = two_blobs();
        let good = silhouette(&d, &pam(&d, 2));
        let worse = silhouette(&d, &pam(&d, 3));
        assert!(good > 0.8, "clean blobs: silhouette {good}");
        assert!(good > worse, "k=2 ({good}) must beat k=3 ({worse})");
    }

    #[test]
    fn silhouette_of_single_cluster_is_zero() {
        let d = two_blobs();
        assert_eq!(silhouette(&d, &pam(&d, 1)), 0.0);
    }

    #[test]
    fn members_and_sizes_agree() {
        let d = two_blobs();
        let c = pam(&d, 2);
        let sizes = c.sizes();
        #[allow(clippy::needless_range_loop)] // parallel-array indexing is the clear form here
        for cl in 0..c.k() {
            assert_eq!(c.members(cl).len(), sizes[cl]);
        }
        assert_eq!(sizes.iter().sum::<usize>(), d.len());
    }

    #[test]
    fn validate_accepts_good_rejects_bad() {
        let d = two_blobs();
        assert!(d.validate().is_ok());
        let mut bad = two_blobs();
        bad.data[1] = -0.5; // direct poke to break symmetry/negativity
        assert!(bad.validate().is_err());
    }

    #[test]
    fn principal_sub_matrix_keeps_the_pairs() {
        let mut d = Dissimilarity::zeros(4);
        for i in 0..4 {
            for j in 0..i {
                d.set(i, j, (10 * i + j) as f64);
            }
        }
        let sub = d.principal(&[3, 0, 2]);
        assert_eq!(sub.len(), 3);
        assert!(sub.validate().is_ok());
        assert_eq!(sub.get(0, 1), d.get(3, 0));
        assert_eq!(sub.get(0, 2), d.get(3, 2));
        assert_eq!(sub.get(2, 1), d.get(2, 0));
        assert_eq!(d.principal(&[0, 1, 2, 3]), d);
        assert!(d.principal(&[]).is_empty());
    }

    #[test]
    fn swap_cost_is_the_cost_after_the_swap() {
        // Items 1 and 2 sit at zero dissimilarity from medoid 0, so the
        // leaving medoid's second-nearest and the ties both matter.
        let mut d = two_blobs();
        d.set(0, 1, 0.0);
        d.set(0, 2, 0.0);
        let medoids = [0, 3];
        let near = NearestMedoids::new(&d, &medoids);
        let mut costs = [f64::NAN; 2 * 6];
        near.swap_costs(&d, &mut costs);
        for item in [1, 2, 4, 5] {
            for slot in 0..medoids.len() {
                let mut swapped = medoids;
                swapped[slot] = item;
                assert_eq!(
                    costs[slot * 6 + item],
                    NearestMedoids::new(&d, &swapped).cost(),
                    "slot {slot} ← item {item}"
                );
            }
        }
    }

    #[test]
    fn swap_improves_on_bad_build() {
        // A chain where greedy BUILD can start suboptimally; SWAP must
        // still find a 2-clustering with optimal cost.
        let mut d = Dissimilarity::zeros(4);
        let pts: [f64; 4] = [0.0, 1.0, 10.0, 11.0];
        for i in 0..4 {
            for j in 0..4 {
                d.set(i, j, (pts[i] - pts[j]).abs());
            }
        }
        let c = pam(&d, 2);
        assert!((c.cost - 2.0).abs() < 1e-9, "optimal cost is 1+1, got {}", c.cost);
    }
}
