//! Live load/traffic statistics exported through `ba_stats`.

use crate::op::BatchSummary;
use ba_core::Allocation;
use ba_stats::{format_fraction, LoadHistogram, Table};

/// Per-op-kind online observations a shard accumulates while serving.
///
/// Each field answers a different operator question: how deep do inserts
/// land, which probe wins, how loaded are the bins deletes vacate, and
/// how many balls do lookups find. Each is an exact integer
/// [`LoadHistogram`] fed by [`LoadHistogram::record`], so every
/// percentile is exact and shard → engine merges are lossless.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpObservations {
    /// Load of the destination bin *after* each insert — the depth the
    /// ball landed at (1 = was empty).
    pub insert_load: LoadHistogram,
    /// Index of the winning probe within the choice vector per insert
    /// (0 = first choice won). When a scheme offers the same bin at
    /// several positions (with-replacement sampling), the *first*
    /// position offering the chosen bin is recorded — duplicate probes
    /// address one counter, so later duplicates are indistinguishable.
    pub insert_probe: LoadHistogram,
    /// Load of the source bin *before* each successful delete.
    pub delete_load: LoadHistogram,
    /// Live balls found per lookup (0 = miss).
    pub lookup_depth: LoadHistogram,
}

impl OpObservations {
    /// Merges another set of observations into this one.
    pub fn merge(&mut self, other: &OpObservations) {
        self.insert_load.merge(&other.insert_load);
        self.insert_probe.merge(&other.insert_probe);
        self.delete_load.merge(&other.delete_load);
        self.lookup_depth.merge(&other.lookup_depth);
    }
}

/// A point-in-time snapshot of one shard.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard id.
    pub shard: usize,
    /// Bins in the shard table.
    pub bins: u64,
    /// Balls currently placed.
    pub balls: u64,
    /// Current maximum bin load.
    pub max_load: u32,
    /// Full load histogram of the shard table, copied from the
    /// allocation's occupancy counters (O(max load)).
    pub histogram: LoadHistogram,
    /// Lifetime operation counters.
    pub traffic: BatchSummary,
    /// Per-op-kind load/probe observations over the shard's lifetime.
    pub observed: OpObservations,
}

impl ShardStats {
    /// Captures a snapshot from a shard's allocation and counters.
    pub fn capture(
        shard: usize,
        alloc: &Allocation,
        traffic: &BatchSummary,
        observed: &OpObservations,
    ) -> Self {
        Self {
            shard,
            bins: alloc.n(),
            balls: alloc.balls(),
            max_load: alloc.max_load(),
            histogram: alloc.histogram(),
            traffic: *traffic,
            observed: observed.clone(),
        }
    }
}

/// Aggregate statistics for a whole engine.
#[derive(Debug, Clone)]
pub struct EngineStats {
    shards: Vec<ShardStats>,
}

impl EngineStats {
    /// Wraps per-shard snapshots.
    pub fn new(shards: Vec<ShardStats>) -> Self {
        Self { shards }
    }

    /// The per-shard snapshots.
    pub fn shards(&self) -> &[ShardStats] {
        &self.shards
    }

    /// Balls currently placed engine-wide.
    pub fn total_balls(&self) -> u64 {
        self.shards.iter().map(|s| s.balls).sum()
    }

    /// Operations served engine-wide over the engine's lifetime.
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.traffic.total_ops()).sum()
    }

    /// The engine-wide maximum bin load.
    pub fn max_load(&self) -> u32 {
        self.shards.iter().map(|s| s.max_load).max().unwrap_or(0)
    }

    /// Per-shard maximum loads, indexed by shard id.
    pub fn max_loads(&self) -> Vec<u32> {
        self.shards.iter().map(|s| s.max_load).collect()
    }

    /// The engine-wide per-op-kind observations, merged across shards.
    pub fn merged_observations(&self) -> OpObservations {
        let mut merged = OpObservations::default();
        for shard in &self.shards {
            merged.merge(&shard.observed);
        }
        merged
    }

    /// The merged load histogram over every shard's bins.
    pub fn merged_histogram(&self) -> LoadHistogram {
        let mut merged = LoadHistogram::default();
        for shard in &self.shards {
            merged.merge(&shard.histogram);
        }
        merged
    }

    /// Field-by-field comparison against another snapshot, for replay and
    /// cross-version differential runs: returns one human-readable line
    /// per mismatch (shard count, per-shard bins/balls/max load, load
    /// histograms, lifetime traffic, per-op observations). Empty means the
    /// snapshots are bit-identical.
    ///
    /// Output order is deterministic — sorted by shard index, then metric
    /// name — so differential-run diffs in CI are stable across runs and
    /// code motion.
    pub fn divergences(&self, other: &EngineStats) -> Vec<String> {
        if self.shards.len() != other.shards.len() {
            return vec![format!(
                "shard count differs: {} vs {}",
                self.shards.len(),
                other.shards.len()
            )];
        }
        // (shard index, metric name, line); sorted before rendering so
        // the emitted order never depends on field declaration order.
        let mut entries: Vec<(usize, &'static str, String)> = Vec::new();
        for (a, b) in self.shards.iter().zip(&other.shards) {
            let id = a.shard;
            if a.shard != b.shard {
                entries.push((
                    id,
                    "id",
                    format!("shard ids differ: {} vs {}", a.shard, b.shard),
                ));
                continue;
            }
            if a.balls != b.balls {
                entries.push((
                    id,
                    "balls",
                    format!("shard {id}: balls {} vs {}", a.balls, b.balls),
                ));
            }
            if a.bins != b.bins {
                entries.push((
                    id,
                    "bins",
                    format!("shard {id}: bins {} vs {}", a.bins, b.bins),
                ));
            }
            if a.histogram.counts() != b.histogram.counts() {
                entries.push((
                    id,
                    "histogram",
                    format!("shard {id}: load histograms differ"),
                ));
            }
            if a.max_load != b.max_load {
                entries.push((
                    id,
                    "max load",
                    format!("shard {id}: max load {} vs {}", a.max_load, b.max_load),
                ));
            }
            if a.observed != b.observed {
                entries.push((
                    id,
                    "observations",
                    format!("shard {id}: per-op observations differ"),
                ));
            }
            if a.traffic != b.traffic {
                entries.push((
                    id,
                    "traffic",
                    format!("shard {id}: traffic {:?} vs {:?}", a.traffic, b.traffic),
                ));
            }
        }
        entries.sort_by(|x, y| x.0.cmp(&y.0).then_with(|| x.1.cmp(y.1)));
        entries.into_iter().map(|(_, _, line)| line).collect()
    }

    /// Merges another engine's snapshot into this one — the cross-engine
    /// / cross-node aggregation path. Shard snapshots are appended with
    /// their ids intact and re-sorted by shard index (stable), so
    /// splitting one engine's shards across several [`EngineStats`] and
    /// merging reproduces the single-engine snapshot exactly, and every
    /// aggregate ([`EngineStats::total_balls`],
    /// [`EngineStats::merged_observations`], …) sums over all
    /// constituents. Shards from *different* engines sharing an id stay
    /// as separate snapshots (aggregates still sum across them).
    pub fn merge(&mut self, other: &EngineStats) {
        self.shards.extend(other.shards.iter().cloned());
        self.shards.sort_by_key(|s| s.shard);
    }

    /// Whether this snapshot is bit-identical to `other`
    /// (see [`EngineStats::divergences`]).
    pub fn matches(&self, other: &EngineStats) -> bool {
        self.divergences(other).is_empty()
    }

    /// Renders a per-shard table plus aggregate lines, for operator eyes.
    pub fn render(&self) -> String {
        let mut table = Table::new(&[
            "shard", "bins", "balls", "max", "inserts", "deletes", "missed", "lookups", "hitrate",
        ]);
        for s in &self.shards {
            let hit_rate = if s.traffic.lookups == 0 {
                "-".to_string()
            } else {
                format_fraction(s.traffic.hits as f64 / s.traffic.lookups as f64)
            };
            table.row_owned(vec![
                s.shard.to_string(),
                s.bins.to_string(),
                s.balls.to_string(),
                s.max_load.to_string(),
                s.traffic.inserts.to_string(),
                s.traffic.deletes.to_string(),
                s.traffic.missed_deletes.to_string(),
                s.traffic.lookups.to_string(),
                hit_rate,
            ]);
        }
        let merged = self.merged_histogram();
        let observed = self.merged_observations();
        let mut out = format!(
            "{}\ntotal: {} balls in {} bins, {} ops served, max load {}\n",
            table.render(),
            merged.sum(),
            merged.total(),
            self.total_ops(),
            self.max_load(),
        );
        for (label, tracker) in [
            ("insert landing load", &observed.insert_load),
            ("insert winning probe", &observed.insert_probe),
            ("delete vacated load", &observed.delete_load),
            ("lookup depth", &observed.lookup_depth),
        ] {
            // An op kind the run never exercised (e.g. lookups in a
            // lookup-free scenario) renders as `-`, not as a degenerate
            // zero that reads like a measured value.
            if tracker.total() == 0 {
                out.push_str(&format!("{label}: mean - p50 - p99 - max - (0 obs)\n"));
                continue;
            }
            out.push_str(&format!(
                "{label}: mean {} p50 {} p99 {} max {} ({} obs)\n",
                format_fraction(tracker.mean()),
                tracker.percentile(50.0),
                tracker.percentile(99.0),
                tracker.max(),
                tracker.total(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_core::{Allocation, TieBreak};
    use ba_rng::{Rng64, Xoshiro256StarStar};

    fn filled(n: u64, balls: u64, seed: u64) -> Allocation {
        let mut alloc = Allocation::new(n);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..balls {
            let a = rng.gen_range(n);
            let b = rng.gen_range(n);
            alloc.place(&[a, b], TieBreak::Random, &mut rng);
        }
        alloc
    }

    fn stats() -> EngineStats {
        let traffic = BatchSummary {
            inserts: 100,
            deletes: 20,
            missed_deletes: 1,
            lookups: 10,
            hits: 5,
        };
        let mut observed = OpObservations::default();
        for load in [1u32, 1, 2, 3] {
            observed.insert_load.record(load);
        }
        EngineStats::new(vec![
            ShardStats::capture(0, &filled(64, 100, 1), &traffic, &observed),
            ShardStats::capture(1, &filled(64, 50, 2), &traffic, &observed),
        ])
    }

    #[test]
    fn aggregates_sum_over_shards() {
        let s = stats();
        assert_eq!(s.total_balls(), 150);
        assert_eq!(s.total_ops(), 262);
        assert_eq!(s.max_loads().len(), 2);
        assert!(s.max_load() >= 2);
    }

    #[test]
    fn merged_histogram_conserves_mass() {
        let merged = stats().merged_histogram();
        assert_eq!(merged.sum(), 150);
        assert_eq!(merged.total(), 128);
    }

    #[test]
    fn render_mentions_every_shard() {
        let text = stats().render();
        assert!(text.contains("shard"));
        assert!(text.contains("150 balls in 128 bins"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = EngineStats::new(Vec::new());
        assert_eq!(s.total_balls(), 0);
        assert_eq!(s.max_load(), 0);
        assert_eq!(s.merged_histogram().total(), 0);
        assert_eq!(s.merged_observations().insert_load.total(), 0);
    }

    #[test]
    fn merged_observations_sum_shard_counts() {
        let s = stats();
        let merged = s.merged_observations();
        // Two shards, four recorded insert loads each.
        assert_eq!(merged.insert_load.total(), 8);
        assert_eq!(merged.insert_load.percentile(50.0), 1);
        assert_eq!(merged.insert_load.max(), 3);
    }

    #[test]
    fn merge_empty_into_nonempty_is_identity() {
        let mut populated = OpObservations::default();
        for v in [2u32, 5, 5, 9] {
            populated.insert_load.record(v);
        }
        populated.lookup_depth.record(1);
        let reference = populated.clone();
        populated.merge(&OpObservations::default());
        assert_eq!(populated, reference);
        assert_eq!(populated.insert_load.total(), 4);
        assert_eq!(populated.insert_load.percentile(50.0), 5);
        assert_eq!(populated.delete_load.total(), 0);
    }

    #[test]
    fn merge_nonempty_into_empty_copies_everything() {
        let mut populated = OpObservations::default();
        for v in [0u32, 3, 3, 7] {
            populated.insert_load.record(v);
            populated.delete_load.record(v + 1);
        }
        populated.insert_probe.record(1);
        let mut empty = OpObservations::default();
        empty.merge(&populated);
        assert_eq!(empty, populated);
        assert_eq!(empty.insert_load.max(), 7);
        assert_eq!(empty.delete_load.max(), 8);
        assert_eq!(
            empty.insert_load.counts().len(),
            populated.insert_load.counts().len()
        );
    }

    #[test]
    fn merge_differing_counts_lengths_both_directions() {
        // Each side is longer in a different field, so one merge must grow
        // one histogram and leave the other untruncated.
        let mut left = OpObservations::default();
        left.insert_load.record(1);
        left.lookup_depth.record(10);
        left.lookup_depth.record(2);
        let mut right = OpObservations::default();
        right.insert_load.record(10);
        right.insert_load.record(2);
        right.lookup_depth.record(1);

        let mut a = left.clone();
        a.merge(&right);
        let mut b = right.clone();
        b.merge(&left);
        assert_eq!(a, b, "merge must commute on contents");
        for merged in [&a.insert_load, &a.lookup_depth] {
            assert_eq!(merged.total(), 3);
            assert_eq!(merged.max(), 10);
            assert_eq!(merged.counts().len(), 11);
            assert_eq!(merged.percentile(100.0), 10);
            assert_eq!(merged.percentile(0.0), 1);
        }
    }

    #[test]
    fn render_includes_percentile_lines() {
        let text = stats().render();
        assert!(text.contains("insert landing load"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }

    #[test]
    fn empty_observation_sets_render_dashes() {
        // A lookup-free (and delete-free) run: the unexercised op kinds
        // must render `-` placeholders, not degenerate zeros.
        let text = stats().render();
        assert!(
            text.contains("delete vacated load: mean - p50 - p99 - max - (0 obs)"),
            "{text}"
        );
        assert!(
            text.contains("lookup depth: mean - p50 - p99 - max - (0 obs)"),
            "{text}"
        );
        // The exercised kind still renders real numbers.
        assert!(!text.contains("insert landing load: mean -"), "{text}");
    }

    #[test]
    fn identical_snapshots_have_no_divergences() {
        let a = stats();
        let b = stats();
        assert!(a.matches(&b), "{:?}", a.divergences(&b));
        assert!(a.divergences(&b).is_empty());
    }

    #[test]
    fn divergences_name_the_differing_fields() {
        let a = stats();
        let mut b = stats();
        b.shards[1].traffic.lookups += 1;
        b.shards[1].observed.insert_load.record(9);
        let diffs = a.divergences(&b);
        assert!(!a.matches(&b));
        assert!(
            diffs.iter().any(|d| d.starts_with("shard 1: traffic")),
            "{diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("per-op observations")),
            "{diffs:?}"
        );
        assert!(
            diffs.iter().all(|d| !d.starts_with("shard 0")),
            "shard 0 is identical: {diffs:?}"
        );
    }

    #[test]
    fn shard_count_mismatch_short_circuits() {
        let a = stats();
        let b = EngineStats::new(Vec::new());
        let diffs = a.divergences(&b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("shard count"), "{diffs:?}");
    }

    #[test]
    fn divergences_are_sorted_by_shard_then_metric() {
        // Differences planted in every field of both shards must come out
        // grouped by shard index with metric names alphabetical inside
        // each group — the deterministic-ordering contract CI diffs rely
        // on.
        let a = stats();
        let mut b = stats();
        for shard in [1usize, 0] {
            b.shards[shard].balls += 1;
            b.shards[shard].max_load += 1;
            b.shards[shard].traffic.inserts += 1;
            b.shards[shard].observed.insert_load.record(3);
        }
        let diffs = a.divergences(&b);
        let expected_prefixes = [
            "shard 0: balls",
            "shard 0: max load",
            "shard 0: per-op observations",
            "shard 0: traffic",
            "shard 1: balls",
            "shard 1: max load",
            "shard 1: per-op observations",
            "shard 1: traffic",
        ];
        assert_eq!(diffs.len(), expected_prefixes.len(), "{diffs:?}");
        for (line, prefix) in diffs.iter().zip(expected_prefixes) {
            assert!(line.starts_with(prefix), "{line:?} !~ {prefix:?}");
        }
    }

    #[test]
    fn engine_stats_merge_reassembles_a_split_snapshot() {
        // The cross-node aggregation contract: splitting per-shard stats
        // into two EngineStats and merging reproduces the whole, shard
        // order restored by id.
        let whole = stats();
        let mut left = EngineStats::new(vec![whole.shards()[1].clone()]);
        let right = EngineStats::new(vec![whole.shards()[0].clone()]);
        left.merge(&right);
        assert!(left.matches(&whole), "{:?}", left.divergences(&whole));
        assert_eq!(left.total_balls(), whole.total_balls());
        assert_eq!(
            left.merged_observations().insert_load.counts(),
            whole.merged_observations().insert_load.counts()
        );
    }

    #[test]
    fn engine_stats_merge_keeps_duplicate_ids_as_separate_snapshots() {
        // Two engines can both have a shard 0; aggregates must sum over
        // both rather than collapse them.
        let mut a = stats();
        let b = stats();
        let before = a.total_balls();
        a.merge(&b);
        assert_eq!(a.shards().len(), 4);
        assert_eq!(a.total_balls(), 2 * before);
        let ids: Vec<usize> = a.shards().iter().map(|s| s.shard).collect();
        assert_eq!(ids, vec![0, 0, 1, 1], "sorted by shard id");
    }
}
