//! CART classification tree (Breiman et al. 1984, the paper's reference
//! \[36\]).
//!
//! The online stage needs to assign a brand-new kernel to one of the
//! offline-trained clusters using only features observed at the two sample
//! configurations. The paper trains a classification tree on normalized
//! performance-counter and power features (Figure 3 shows an example).
//! This implementation uses binary axis-aligned splits chosen by Gini
//! impurity, with depth and minimum-leaf-size controls.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Training/complexity controls.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_split: usize,
    /// Minimum samples each child must keep.
    pub min_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 6, min_split: 4, min_leaf: 2 }
    }
}

/// A trained classification tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassificationTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
}

/// One node of a [`ClassificationTree`]; children are slots in the
/// tree's node list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// `feature < threshold` goes left, else right.
    Split {
        /// The feature tested.
        feature: usize,
        /// Midway between the two training values it separates.
        threshold: f64,
        /// Slot of the subtree for `x[feature] < threshold`.
        left: usize,
        /// Slot of the subtree for the rest.
        right: usize,
    },
    /// Majority class at the leaf with its training purity.
    Leaf {
        /// The class predicted.
        class: usize,
        /// Share of the leaf's training samples in `class`.
        purity: f64,
        /// Training samples of `class` at the leaf; a leaf that pruning
        /// made counts all of its training samples.
        count: usize,
    },
}

/// Errors from tree training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Empty training set, ragged or non-finite feature rows, or a label
    /// out of range.
    BadInput(String),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for TreeError {}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn majority(counts: &[usize]) -> (usize, usize) {
    counts
        .iter()
        .enumerate()
        // max_by_key is stable toward later elements; invert index for
        // deterministic lowest-class tie-breaks.
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, &n)| (c, n))
        .unwrap_or((0, 0))
}

/// One fit's working set. Each feature's samples are sorted once, and a
/// node's samples sit at the same positions `start..end` of every
/// feature's order, so a split partitions those positions stably instead
/// of sorting each child again.
struct Grower<'a> {
    labels: &'a [usize],
    params: TreeParams,
    /// Training samples.
    n: usize,
    /// Column-major features: `columns[f * n + i]` is sample `i`'s `f`.
    columns: Vec<f64>,
    /// `order[f * n..][start..end]` is a node's samples in ascending order
    /// of feature `f`, equal values by sample index: what a stable sort of
    /// the node's samples, listed in index order, gives.
    order: Vec<usize>,
    /// Per sample: whether the split being applied sends it left.
    goes_left: Vec<bool>,
    /// A partition's right-hand samples, held while the left ones close up.
    spill: Vec<usize>,
    /// The node's class counts, then the scan's left and right counts.
    counts: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl<'a> Grower<'a> {
    /// `rows` are non-empty, rectangular and finite; `labels` in range.
    fn new(rows: &[Vec<f64>], labels: &'a [usize], n_classes: usize, params: TreeParams) -> Self {
        let (n, n_features) = (rows.len(), rows[0].len());
        let mut columns = Vec::with_capacity(n * n_features);
        for f in 0..n_features {
            columns.extend(rows.iter().map(|r| r[f]));
        }
        let mut order = Vec::with_capacity(n * n_features);
        for column in columns.chunks_exact(n) {
            let start = order.len();
            order.extend(0..n);
            order[start..].sort_by(|&a, &b| {
                column[a].partial_cmp(&column[b]).expect("finite features are ordered")
            });
        }
        Self {
            labels,
            params,
            n,
            columns,
            order,
            goes_left: vec![false; n],
            spill: Vec::with_capacity(n),
            counts: vec![0; n_classes],
            left: vec![0; n_classes],
            right: vec![0; n_classes],
        }
    }

    /// Grow the subtree of the samples at `start..end` into `nodes`;
    /// returns the slot of its root.
    fn grow(&mut self, nodes: &mut Vec<Node>, start: usize, end: usize, depth: usize) -> usize {
        let len = end - start;
        self.counts.fill(0);
        // Feature 0's order holds the node's samples as well as any.
        for &i in &self.order[start..end] {
            self.counts[self.labels[i]] += 1;
        }
        let node_gini = gini(&self.counts, len);
        let (class, count) = majority(&self.counts);

        let params = self.params;
        let make_leaf = depth >= params.max_depth || len < params.min_split || node_gini == 0.0;
        if !make_leaf {
            if let Some((feature, threshold)) = self.best_split(start, end, node_gini) {
                let mid = self.partition(start, end, feature, threshold);
                let slot = nodes.len();
                // Reserve the slot so children indices are known after.
                nodes.push(Node::Leaf { class, purity: 0.0, count });
                let left = self.grow(nodes, start, mid, depth + 1);
                let right = self.grow(nodes, mid, end, depth + 1);
                nodes[slot] = Node::Split { feature, threshold, left, right };
                return slot;
            }
        }
        let purity = if len == 0 { 0.0 } else { count as f64 / len as f64 };
        let slot = nodes.len();
        nodes.push(Node::Leaf { class, purity, count });
        slot
    }

    /// Exhaustive best split of the samples at `start..end` by weighted
    /// child Gini, feature by feature, then position by position;
    /// thresholds midway between consecutive distinct feature values.
    fn best_split(&mut self, start: usize, end: usize, parent_gini: f64) -> Option<(usize, f64)> {
        let Self { labels, params, n, columns, order, counts, left, right, .. } = self;
        let len = end - start;
        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        let features = columns.chunks_exact(*n).zip(order.chunks_exact(*n));
        for (feature, (column, order)) in features.enumerate() {
            let order = &order[start..end];
            // Incremental left/right class counts while scanning.
            left.fill(0);
            right.copy_from_slice(counts);
            for split_at in 1..len {
                let moved = order[split_at - 1];
                left[labels[moved]] += 1;
                right[labels[moved]] -= 1;

                let lo = column[moved];
                let hi = column[order[split_at]];
                if lo == hi {
                    continue; // cannot split between equal values
                }
                if split_at < params.min_leaf || len - split_at < params.min_leaf {
                    continue;
                }
                let nl = split_at;
                let nr = len - split_at;
                let score = (nl as f64 * gini(left, nl) + nr as f64 * gini(right, nr)) / len as f64;
                let threshold = 0.5 * (lo + hi);
                let better = match best {
                    None => score + 1e-12 < parent_gini,
                    Some((bs, _, _)) => score + 1e-12 < bs,
                };
                if better {
                    best = Some((score, feature, threshold));
                }
            }
        }
        best.map(|(_, feature, threshold)| (feature, threshold))
    }

    /// Send the samples at `start..end` with `x[feature] < threshold` to
    /// the front of every feature's order, the rest behind them, each side
    /// in the order it had. Returns where the right side starts.
    fn partition(&mut self, start: usize, end: usize, feature: usize, threshold: f64) -> usize {
        let n = self.n;
        let column = &self.columns[feature * n..(feature + 1) * n];
        let mut mid = start;
        for &i in &self.order[feature * n + start..feature * n + end] {
            self.goes_left[i] = column[i] < threshold;
            mid += usize::from(self.goes_left[i]);
        }
        for order in self.order.chunks_exact_mut(n) {
            self.spill.clear();
            let mut kept = start;
            for at in start..end {
                let i = order[at];
                if self.goes_left[i] {
                    order[kept] = i;
                    kept += 1;
                } else {
                    self.spill.push(i);
                }
            }
            order[kept..end].copy_from_slice(&self.spill);
        }
        mid
    }
}

impl ClassificationTree {
    /// Train a tree on feature rows and integer class labels in
    /// `0..n_classes`.
    pub fn fit(
        rows: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
        params: TreeParams,
    ) -> Result<Self, TreeError> {
        if rows.is_empty() || rows.len() != labels.len() {
            return Err(TreeError::BadInput(format!(
                "{} rows vs {} labels",
                rows.len(),
                labels.len()
            )));
        }
        let n_features = rows[0].len();
        if n_features == 0 || rows.iter().any(|r| r.len() != n_features) {
            return Err(TreeError::BadInput("ragged or empty feature rows".into()));
        }
        // Splits sort on the features and cut midway between neighbours:
        // NaN has no place in the order, and an infinity has no midpoint.
        for (r, row) in rows.iter().enumerate() {
            if let Some(f) = row.iter().position(|v| !v.is_finite()) {
                return Err(TreeError::BadInput(format!("row {r} feature {f} is {}", row[f])));
            }
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= n_classes) {
            return Err(TreeError::BadInput(format!("label {bad} >= n_classes {n_classes}")));
        }

        let mut nodes = Vec::new();
        Grower::new(rows, labels, n_classes, params).grow(&mut nodes, 0, rows.len(), 0);
        Ok(Self { nodes, n_features, n_classes })
    }

    /// Predict the class of one feature row: walk from the root, left
    /// where `x[feature] < threshold`, so a NaN feature goes right. The
    /// online stage classifies every new kernel this way, in steps equal
    /// to the depth of the leaf it reaches.
    pub fn predict(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Split { feature, threshold, left, right } => {
                    at = if x[*feature] < *threshold { *left } else { *right };
                }
                Node::Leaf { class, .. } => return *class,
            }
        }
    }

    /// Training accuracy over a labelled set.
    pub fn accuracy(&self, rows: &[Vec<f64>], labels: &[usize]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        let hits = rows.iter().zip(labels).filter(|(r, &l)| self.predict(r) == l).count();
        hits as f64 / rows.len() as f64
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes, root first, each split before its children.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A tree from nodes laid out as [`nodes`](Self::nodes) returns them.
    /// Rejects an empty list, a split whose children do not come after
    /// it within the list, and a feature or class out of range.
    pub fn from_nodes(
        nodes: Vec<Node>,
        n_features: usize,
        n_classes: usize,
    ) -> Result<Self, TreeError> {
        if nodes.is_empty() {
            return Err(TreeError::BadInput("a tree needs a node".into()));
        }
        for (at, node) in nodes.iter().enumerate() {
            let fits = match *node {
                Node::Split { feature, left, right, .. } => {
                    feature < n_features && at < left.min(right) && left.max(right) < nodes.len()
                }
                Node::Leaf { class, .. } => class < n_classes,
            };
            if !fits {
                return Err(TreeError::BadInput(format!("node {at} is {node:?}")));
            }
        }
        Ok(Self { nodes, n_features, n_classes })
    }

    /// Maximum depth of any leaf (root = 0). This bounds the online
    /// classification cost the paper calls "time on the order of the depth
    /// of the tree" (Section IV-C).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// Reduced-error pruning against a validation set.
    ///
    /// Bottom-up, every split whose replacement by a leaf (labelled with
    /// the training majority of the leaves beneath it) does not increase
    /// validation error is collapsed. Returns the number of splits
    /// removed. The classic CART companion to growing (Breiman et al.).
    pub fn prune(&mut self, rows: &[Vec<f64>], labels: &[usize]) -> usize {
        assert_eq!(rows.len(), labels.len(), "rows/labels mismatch");
        let all: Vec<usize> = (0..rows.len()).collect();
        let before = self.split_count();
        self.prune_node(0, rows, labels, &all);
        self.compact();
        before - self.split_count()
    }

    fn split_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Split { .. })).count()
    }

    /// Post-order pruning pass. Returns the training class counts of the
    /// leaves beneath `at` and the subtree's validation error on `idx`.
    fn prune_node(
        &mut self,
        at: usize,
        rows: &[Vec<f64>],
        labels: &[usize],
        idx: &[usize],
    ) -> (Vec<usize>, usize) {
        match self.nodes[at].clone() {
            Node::Leaf { class, count, .. } => {
                let mut counts = vec![0usize; self.n_classes];
                counts[class] += count;
                let err = idx.iter().filter(|&&i| labels[i] != class).count();
                (counts, err)
            }
            Node::Split { feature, threshold, left, right } => {
                let (l_idx, r_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| rows[i][feature] < threshold);
                let (l_counts, l_err) = self.prune_node(left, rows, labels, &l_idx);
                let (r_counts, r_err) = self.prune_node(right, rows, labels, &r_idx);
                let counts: Vec<usize> =
                    l_counts.iter().zip(&r_counts).map(|(a, b)| a + b).collect();
                let subtree_err = l_err + r_err;

                let (class, count) = majority(&counts);
                let leaf_err = idx.iter().filter(|&&i| labels[i] != class).count();
                if leaf_err <= subtree_err {
                    let total: usize = counts.iter().sum();
                    let purity = if total > 0 { count as f64 / total as f64 } else { 0.0 };
                    self.nodes[at] = Node::Leaf { class, purity, count: total };
                    (counts, leaf_err)
                } else {
                    (counts, subtree_err)
                }
            }
        }
    }

    /// Rebuild the node arena, dropping nodes unreachable after pruning.
    fn compact(&mut self) {
        fn copy(old: &[Node], at: usize, out: &mut Vec<Node>) -> usize {
            match &old[at] {
                leaf @ Node::Leaf { .. } => {
                    out.push(leaf.clone());
                    out.len() - 1
                }
                Node::Split { feature, threshold, left, right } => {
                    let slot = out.len();
                    out.push(Node::Leaf { class: 0, purity: 0.0, count: 0 }); // placeholder
                    let l = copy(old, *left, out);
                    let r = copy(old, *right, out);
                    out[slot] =
                        Node::Split { feature: *feature, threshold: *threshold, left: l, right: r };
                    slot
                }
            }
        }
        if self.nodes.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.nodes.len());
        copy(&self.nodes, 0, &mut out);
        self.nodes = out;
    }

    /// Render the tree as indented text (the Figure 3 artifact), with
    /// feature names supplied by the caller.
    pub fn render(&self, feature_names: &[&str]) -> String {
        let mut out = String::new();
        self.render_node(0, 0, feature_names, &mut out);
        out
    }

    fn render_node(&self, at: usize, indent: usize, names: &[&str], out: &mut String) {
        let pad = "  ".repeat(indent);
        match &self.nodes[at] {
            Node::Split { feature, threshold, left, right } => {
                let name = names.get(*feature).copied().unwrap_or("?");
                let _ = writeln!(out, "{pad}if {name} < {threshold:.4}:");
                self.render_node(*left, indent + 1, names, out);
                let _ = writeln!(out, "{pad}else:");
                self.render_node(*right, indent + 1, names, out);
            }
            Node::Leaf { class, purity, count } => {
                let _ =
                    writeln!(out, "{pad}→ cluster {class}  ({count} kernels, purity {purity:.2})");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean two-feature, three-class problem split on axis thresholds.
    fn toy() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let jitter = i as f64 * 0.01;
            rows.push(vec![0.1 + jitter, 0.2]);
            labels.push(0);
            rows.push(vec![0.9 + jitter, 0.2]);
            labels.push(1);
            rows.push(vec![0.5, 0.9 + jitter]);
            labels.push(2);
        }
        (rows, labels)
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let (rows, labels) = toy();
        let t = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        assert_eq!(t.accuracy(&rows, &labels), 1.0);
    }

    #[test]
    fn predictions_are_trained_labels() {
        let (rows, labels) = toy();
        let t = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        for r in &rows {
            assert!(t.predict(r) < 3);
        }
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![1, 1, 1];
        let t = ClassificationTree::fit(&rows, &labels, 2, TreeParams::default()).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[99.0]), 1);
    }

    #[test]
    fn depth_limit_respected() {
        let (rows, labels) = toy();
        let shallow = TreeParams { max_depth: 1, ..TreeParams::default() };
        let t = ClassificationTree::fit(&rows, &labels, 3, shallow).unwrap();
        assert!(t.depth() <= 1);
    }

    #[test]
    fn min_leaf_respected() {
        // 9 samples of class 0, 1 of class 1; min_leaf 3 forbids isolating
        // the singleton.
        let mut rows: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64]).collect();
        rows.push(vec![100.0]);
        let mut labels = vec![0usize; 9];
        labels.push(1);
        let params = TreeParams { min_leaf: 3, ..TreeParams::default() };
        let t = ClassificationTree::fit(&rows, &labels, 2, params).unwrap();
        // min_leaf forbids isolating the singleton: whatever leaf the
        // outlier lands in is majority class 0.
        assert_eq!(t.predict(&[100.0]), 0);
        assert!(t.node_count() <= 3);
    }

    #[test]
    fn identical_features_cannot_split() {
        let rows = vec![vec![1.0, 2.0]; 6];
        let labels = vec![0, 1, 0, 1, 0, 1];
        let t = ClassificationTree::fit(&rows, &labels, 2, TreeParams::default()).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[1.0, 2.0]), 0, "majority/tie-break to class 0");
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(ClassificationTree::fit(&[], &[], 2, TreeParams::default()).is_err());
        assert!(ClassificationTree::fit(&[vec![1.0]], &[0, 1], 2, TreeParams::default()).is_err());
        assert!(ClassificationTree::fit(
            &[vec![1.0], vec![1.0, 2.0]],
            &[0, 1],
            2,
            TreeParams::default()
        )
        .is_err());
        assert!(ClassificationTree::fit(&[vec![1.0]], &[5], 2, TreeParams::default()).is_err());
    }

    #[test]
    fn non_finite_features_are_rejected_not_sorted() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut rows: Vec<Vec<f64>> = (0..5).map(|i| vec![f64::from(i), 1.0]).collect();
            rows[3][1] = bad;
            let err = ClassificationTree::fit(&rows, &[0, 1, 0, 1, 0], 2, TreeParams::default())
                .expect_err("a non-finite feature has no split order");
            assert_eq!(err, TreeError::BadInput(format!("row 3 feature 1 is {bad}")));
        }
    }

    #[test]
    fn a_tree_rebuilt_from_its_nodes_is_the_same_tree() {
        let (rows, labels) = toy();
        let t = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        assert_eq!(ClassificationTree::from_nodes(t.nodes().to_vec(), 2, 3), Ok(t.clone()));

        let leaf = |class| Node::Leaf { class, purity: 1.0, count: 1 };
        let split = |left, right| Node::Split { feature: 0, threshold: 0.5, left, right };
        for (nodes, n_features) in [
            (vec![], 2),
            (vec![leaf(3)], 2),
            (vec![split(1, 2), leaf(0), leaf(1)], 0),
            (vec![split(0, 1), leaf(0)], 2),
            (vec![split(1, 2), leaf(0)], 2),
        ] {
            assert!(
                ClassificationTree::from_nodes(nodes.clone(), n_features, 3).is_err(),
                "{nodes:?}"
            );
        }
    }

    #[test]
    fn render_contains_feature_names() {
        let (rows, labels) = toy();
        let t = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        let txt = t.render(&["ipc", "stall_fraction"]);
        assert!(txt.contains("ipc") || txt.contains("stall_fraction"));
        assert!(txt.contains("cluster"));
    }

    #[test]
    fn deterministic_fit() {
        let (rows, labels) = toy();
        let a = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        let b = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pruning_removes_noise_splits() {
        // Train on data with a single true boundary plus label noise; the
        // tree overfits the noise, and pruning against clean validation
        // data must simplify it without losing validation accuracy.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let x = i as f64 / 10.0;
            rows.push(vec![x]);
            let clean = usize::from(x >= 3.0);
            // Flip ~15% of training labels deterministically.
            let noisy = if (i * 2654435761usize).is_multiple_of(7) { 1 - clean } else { clean };
            labels.push(noisy);
        }
        let mut tree = ClassificationTree::fit(
            &rows,
            &labels,
            2,
            TreeParams { max_depth: 10, min_split: 2, min_leaf: 1 },
        )
        .unwrap();

        // Clean validation set on the same boundary.
        let val_rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 6.7]).collect();
        let val_labels: Vec<usize> = val_rows.iter().map(|r| usize::from(r[0] >= 3.0)).collect();

        let acc_before = tree.accuracy(&val_rows, &val_labels);
        let nodes_before = tree.node_count();
        let removed = tree.prune(&val_rows, &val_labels);
        let acc_after = tree.accuracy(&val_rows, &val_labels);

        assert!(removed > 0, "overfit tree should lose splits");
        assert!(tree.node_count() < nodes_before);
        assert!(acc_after >= acc_before, "{acc_after} < {acc_before}");
        assert!(acc_after > 0.9);
    }

    #[test]
    fn pruning_perfect_tree_is_a_noop_on_training_data() {
        let (rows, labels) = toy();
        let mut tree = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        let nodes = tree.node_count();
        // Validating against the training data itself: the perfectly
        // fitting subtrees always beat their majority leaves.
        tree.prune(&rows, &labels);
        assert_eq!(tree.node_count(), nodes);
        assert_eq!(tree.accuracy(&rows, &labels), 1.0);
    }

    #[test]
    fn pruning_with_empty_validation_collapses_to_root_majority() {
        // No validation evidence: leaf error (0) <= subtree error (0)
        // everywhere, so the tree collapses to a single majority leaf.
        let (rows, labels) = toy();
        let mut tree = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        tree.prune(&[], &[]);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_wrong_arity_panics() {
        let (rows, labels) = toy();
        let t = ClassificationTree::fit(&rows, &labels, 3, TreeParams::default()).unwrap();
        let _ = t.predict(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn nan_features_route_right_at_every_split() {
        // `x < t` is false for NaN, so the walk takes the right child. Four
        // leaves, one class each, tell apart where each probe went.
        let leaf = |class| Node::Leaf { class, purity: 1.0, count: 1 };
        let split = |feature, left, right| Node::Split { feature, threshold: 0.6, left, right };
        let nodes = vec![
            split(0, 1, 4),
            split(1, 2, 3),
            leaf(0),
            leaf(1),
            split(1, 5, 6),
            leaf(2),
            leaf(3),
        ];
        let t = ClassificationTree::from_nodes(nodes, 2, 4).unwrap();
        for (probe, class) in [
            ([f64::NAN, 0.2], 2),
            ([0.5, f64::NAN], 1),
            ([f64::NAN, f64::NAN], 3),
            ([f64::INFINITY, f64::NAN], 3),
        ] {
            assert_eq!(t.predict(&probe), class, "probe {probe:?}");
        }
    }
}
