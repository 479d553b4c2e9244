//! Correctness oracles computed apart from the program: a BC2
//! re-scorer and a kNN edge check.

use graphner_core::annotations_from_predictions;
use graphner_graph::{KnnGraph, SparseVec};
use graphner_text::{AnnotationSet, BioTag, Corpus};
use std::collections::{BTreeMap, BTreeSet};

/// True positives, detections and primary gold mentions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bc2Counts {
    pub tp: usize,
    pub detections: usize,
    pub primaries: usize,
}

impl Bc2Counts {
    /// F1 with precision 1 on no detections and recall 1 on no gold, the
    /// BioCreative II conventions.
    pub fn f_score(&self) -> f64 {
        let p = if self.detections == 0 { 1.0 } else { self.tp as f64 / self.detections as f64 };
        let r = if self.primaries == 0 { 1.0 } else { self.tp as f64 / self.primaries as f64 };
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Score detections by the BC2 rule: a detection is a true positive when
/// its span equals a not-yet-matched primary mention of its sentence or
/// one of the alternatives overlapping that primary; FN = primaries −
/// TP and FP = detections − TP follow from the counts.
pub fn bc2_score(detections: &AnnotationSet, gold: &AnnotationSet) -> Bc2Counts {
    let mut ids: BTreeSet<&String> = detections.primary.keys().collect();
    ids.extend(gold.primary.keys());
    let mut total = Bc2Counts::default();
    for id in ids {
        let dets = detections.primary.get(id).map_or(&[][..], Vec::as_slice);
        let prims = gold.primary.get(id).map_or(&[][..], Vec::as_slice);
        let alts = gold.alternatives.get(id).map_or(&[][..], Vec::as_slice);
        let mut matched = vec![false; prims.len()];
        for d in dets {
            let span = d.span();
            let hit = prims.iter().enumerate().position(|(g, p)| {
                let ps = p.span();
                !matched[g]
                    && (ps == span
                        || alts.iter().any(|a| {
                            let s = a.span();
                            s == span && s.0 <= ps.1 && ps.0 <= s.1
                        }))
            });
            if let Some(g) = hit {
                matched[g] = true;
                total.tp += 1;
            }
        }
        total.detections += dets.len();
        total.primaries += prims.len();
    }
    total
}

/// F-score of `predictions` by the program's evaluator, checked against
/// the benchmark's own BC2 re-scorer.
pub fn checked_f_score(
    test: &Corpus,
    predictions: &[Vec<BioTag>],
    gold: &AnnotationSet,
    failures: &mut Failures,
) -> f64 {
    let detections = annotations_from_predictions(test, predictions);
    let program = graphner_eval::evaluate(&detections, gold);
    let ours = bc2_score(&detections, gold);
    let t = program.totals;
    if (ours.tp, ours.detections, ours.primaries) != (t.tp, t.detections, t.gold)
        || ours.f_score().to_bits() != program.f_score().to_bits()
    {
        failures.record(Err(format!(
            "BC2 re-score {ours:?} (F {}) differs from graphner-eval {t:?} (F {})",
            ours.f_score(),
            program.f_score()
        )));
    }
    program.f_score()
}

/// The benchmark's own cosine of two unit vectors: a sorted merge over
/// feature ids accumulating `a·b` in `f32`, feature by feature in
/// ascending id order — the order in which the program's inverted-index
/// scorer adds the same products.
pub fn cosine_f32(a: &SparseVec, b: &SparseVec) -> f32 {
    let (x, y) = (a.entries(), b.entries());
    let (mut i, mut j) = (0, 0);
    let mut s = 0.0f32;
    while i < x.len() && j < y.len() {
        match x[i].0.cmp(&y[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                s += x[i].1 * y[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    s
}

/// For each sampled vertex, check that every kept edge weight equals the
/// recomputed cosine, and that the vertex's K-th kept similarity equals
/// the K-th best positive similarity of a brute-force scan (or, with
/// fewer than K positive neighbours, that every one was kept). Returns
/// the first violation.
pub fn check_knn_sample(
    vectors: &[SparseVec],
    graph: &KnnGraph,
    sample: &[u32],
) -> Result<(), String> {
    let k = graph.k();
    for &v in sample {
        let kept: Vec<(u32, f32)> = graph.neighbors(v).collect();
        for &(u, w) in &kept {
            let c = cosine_f32(&vectors[v as usize], &vectors[u as usize]);
            if c.to_bits() != w.to_bits() {
                return Err(format!("edge {v}->{u} weight {w} but recomputed cosine {c}"));
            }
        }
        let mut all: Vec<f32> = (0..vectors.len())
            .filter(|&u| u != v as usize)
            .map(|u| cosine_f32(&vectors[v as usize], &vectors[u]))
            .filter(|&c| c > 0.0)
            .collect();
        all.sort_by(|a, b| b.total_cmp(a));
        let expect_len = all.len().min(k);
        if kept.len() != expect_len {
            return Err(format!(
                "vertex {v} kept {} edges, brute force finds {expect_len}",
                kept.len()
            ));
        }
        if expect_len > 0 {
            let kth_kept = kept.iter().map(|e| e.1).fold(f32::INFINITY, f32::min);
            if kth_kept.to_bits() != all[expect_len - 1].to_bits() {
                return Err(format!(
                    "vertex {v}: K-th kept similarity {kth_kept}, brute-force K-th {}",
                    all[expect_len - 1]
                ));
            }
        }
    }
    Ok(())
}

/// Per-key equality of two prediction sets, reporting the first
/// differing sentence.
pub fn same_predictions<T: PartialEq>(what: &str, a: &[T], b: &[T]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} sentences", a.len(), b.len()));
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Err(format!("{what}: sentence {i} differs")),
        None => Ok(()),
    }
}

/// A histogram of failure messages, so a run reports each kind once.
#[derive(Default)]
pub struct Failures {
    seen: BTreeMap<String, usize>,
}

impl Failures {
    pub fn record(&mut self, result: Result<(), String>) {
        if let Err(what) = result {
            *self.seen.entry(what).or_insert(0) += 1;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    pub fn report(&self) {
        for (what, n) in &self.seen {
            eprintln!("check failed ({n}x): {what}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::Bc2Annotation;

    fn ann(id: &str, first: usize, last: usize) -> Bc2Annotation {
        Bc2Annotation { sentence_id: id.to_string(), first, last, text: "x".to_string() }
    }

    fn set(primary: &[(&str, usize, usize)], alts: &[(&str, usize, usize)]) -> AnnotationSet {
        let mut s = AnnotationSet::new();
        for &(id, a, b) in primary {
            s.add_primary(ann(id, a, b));
        }
        for &(id, a, b) in alts {
            s.add_alternative(ann(id, a, b));
        }
        s
    }

    #[test]
    fn exact_and_alternative_matches_count_once() {
        // s1: primary 0-4 with alternative 2-4; s2: primary 10-12
        let gold = set(&[("s1", 0, 4), ("s2", 10, 12)], &[("s1", 2, 4)]);
        // the alternative matches, and a second hit on the same primary
        // is a false positive; s2 is missed; s3 is spurious
        let dets = set(&[("s1", 2, 4), ("s1", 0, 4), ("s3", 1, 2)], &[]);
        let c = bc2_score(&dets, &gold);
        assert_eq!(c, Bc2Counts { tp: 1, detections: 3, primaries: 2 });
        assert!((c.f_score() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn an_alternative_not_overlapping_its_primary_does_not_count() {
        let gold = set(&[("s1", 0, 4)], &[("s1", 8, 9)]);
        let dets = set(&[("s1", 8, 9)], &[]);
        assert_eq!(bc2_score(&dets, &gold).tp, 0);
    }

    #[test]
    fn conventions_on_empty_sets() {
        let empty = AnnotationSet::new();
        let c = bc2_score(&empty, &empty);
        assert_eq!(c, Bc2Counts::default());
        assert_eq!(c.f_score(), 1.0);
        let gold = set(&[("s1", 0, 1)], &[]);
        assert_eq!(bc2_score(&empty, &gold).f_score(), 0.0);
    }

    #[test]
    fn agrees_with_the_program_scorer_on_a_mixed_case() {
        let gold = set(&[("a", 0, 3), ("a", 5, 8), ("b", 1, 1)], &[("a", 0, 2), ("a", 6, 8)]);
        let dets = set(&[("a", 0, 2), ("a", 6, 8), ("a", 5, 8), ("b", 0, 1), ("c", 3, 4)], &[]);
        let ours = bc2_score(&dets, &gold);
        let theirs = graphner_eval::evaluate(&dets, &gold).totals;
        assert_eq!(
            (ours.tp, ours.detections, ours.primaries),
            (theirs.tp, theirs.detections, theirs.gold)
        );
    }

    #[test]
    fn knn_check_accepts_a_true_graph_and_rejects_a_bad_weight() {
        let unit = |pairs: Vec<(u32, f32)>| {
            let mut v = SparseVec::from_pairs(pairs);
            v.normalize();
            v
        };
        let vecs = vec![
            unit(vec![(0, 1.0), (1, 0.5)]),
            unit(vec![(0, 1.0), (1, 0.4)]),
            unit(vec![(1, 1.0), (2, 0.3)]),
            unit(vec![(3, 1.0)]),
        ];
        let g = graphner_graph::knn_inverted_index(&vecs, 2);
        assert_eq!(check_knn_sample(&vecs, &g, &[0, 1, 2, 3]), Ok(()));
        let bad = KnnGraph::from_adjacency(vec![vec![(1, 0.5)], vec![], vec![], vec![]], 2);
        assert!(check_knn_sample(&vecs, &bad, &[0]).is_err());
    }
}
