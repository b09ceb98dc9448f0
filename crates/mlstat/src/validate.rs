//! Cross-validation helpers.
//!
//! The paper verifies its model with leave-one-out cross-validation "for
//! the entire process across individual benchmarks" (Section V-C): for each
//! benchmark, the training set is every kernel from the *other* benchmarks,
//! and the trained pipeline is applied to the held-out benchmark's kernels.
//! [`leave_one_group_out`] produces the index partitions for that protocol.

/// One cross-validation fold: indices to train on and to validate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// A label for the fold (e.g. the held-out benchmark name).
    pub label: String,
    /// Training indices.
    pub train: Vec<usize>,
    /// Validation (held-out) indices.
    pub test: Vec<usize>,
}

/// Leave-one-group-out folds: each distinct group label becomes one fold
/// whose test set is that group's items. Folds are ordered by first
/// appearance of the group, so the output is deterministic.
pub fn leave_one_group_out(groups: &[&str]) -> Vec<Fold> {
    let mut order: Vec<&str> = Vec::new();
    for &g in groups {
        if !order.contains(&g) {
            order.push(g);
        }
    }
    order
        .into_iter()
        .map(|g| Fold {
            label: g.to_string(),
            train: groups
                .iter()
                .enumerate()
                .filter_map(|(i, &gi)| (gi != g).then_some(i))
                .collect(),
            test: groups.iter().enumerate().filter_map(|(i, &gi)| (gi == g).then_some(i)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logo_partitions_by_group() {
        let groups = ["a", "a", "b", "c", "b"];
        let folds = leave_one_group_out(&groups);
        assert_eq!(folds.len(), 3);
        assert_eq!(folds[0].label, "a");
        assert_eq!(folds[0].test, vec![0, 1]);
        assert_eq!(folds[0].train, vec![2, 3, 4]);
        assert_eq!(folds[1].label, "b");
        assert_eq!(folds[1].test, vec![2, 4]);
        assert_eq!(folds[2].label, "c");
        assert_eq!(folds[2].test, vec![3]);
        // Every fold: train ∪ test = all, train ∩ test = ∅.
        for f in &folds {
            let mut all: Vec<usize> = f.train.iter().chain(&f.test).copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4]);
        }
    }
}
