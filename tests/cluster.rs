//! The cluster tier's cross-layer acceptance tests, against the
//! checked-in golden `.baops` corpus (see `tests/replay.rs` for the
//! corpus anchors).
//!
//! Three contracts, mirroring how PR 3 verified replay:
//!
//! 1. **Node-count invariance** — every golden capture served through a
//!    1-node, 2-node, and 4-node cluster yields bit-identical per-key
//!    placement and merged [`EngineStats`], in both choice modes and
//!    with pipelined partition engines.
//! 2. **Rebalance fidelity** — the same capture served before a live
//!    `add_node`/`remove_node` is bit-identically placed after a
//!    [`RebalanceMode::Transfer`], and a [`RebalanceMode::Drain`]
//!    conserves every ball, keeps keyed balls inside their probe sets,
//!    and logs any bin movement as an explainable divergence.
//! 3. **Routing purity** — `node_for` agrees with the ring's partition
//!    ownership for every key of the capture, so placement can be
//!    replayed without a cluster in hand.

use balanced_allocations::engine::cluster::partition_of;
use balanced_allocations::prelude::*;
use balanced_allocations::workload::replay::{GOLDEN_OPS, GOLDEN_SEED};
use std::path::PathBuf;

fn golden_path(scenario: &Scenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.baops", scenario.name()))
}

fn golden_ops(scenario: &Scenario) -> Vec<Op> {
    ReplayFile::open(golden_path(scenario))
        .expect("golden file decodes")
        .ops()
        .to_vec()
}

fn scenario(name: &str) -> Scenario {
    Scenario::by_name(name).expect("known scenario")
}

/// The test cluster shape: 8 partitions of 2 shards x 128 bins, enough
/// spread for 64-vnode ownership to move real partitions on rebalance.
fn config(mode: ChoiceMode) -> ClusterConfig {
    ClusterConfig::new(
        EngineConfig::new(2, 128, 3)
            .seed(GOLDEN_SEED)
            .mode(mode)
            .sequential(),
    )
    .partitions(8)
}

fn cluster(mode: ChoiceMode, nodes: &[u64]) -> Cluster<AnyScheme> {
    Cluster::by_name("double", config(mode), nodes).expect("known scheme")
}

#[test]
fn golden_corpus_is_node_count_invariant() {
    // Acceptance criterion: the corpus through 1-node and {2, 4}-node
    // clusters yields bit-identical per-key placement and merged stats.
    for scenario in Scenario::all() {
        let ops = golden_ops(&scenario);
        for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
            let mut reference = cluster(mode, &[0]);
            let expected = reference.serve(&ops, 512);
            assert_eq!(expected.total_ops(), GOLDEN_OPS);
            for node_count in [2u64, 4] {
                let tag = format!("{}/{mode:?}/{node_count} nodes", scenario.name());
                let nodes: Vec<u64> = (0..node_count).collect();
                let mut spread = cluster(mode, &nodes);
                let summary = spread.serve(&ops, 512);
                assert_eq!(summary, expected, "{tag}");
                let divergences = reference.stats().divergences(&spread.stats());
                assert!(divergences.is_empty(), "{tag}: {divergences:?}");
                let placement_diff = reference.placement_divergences(&spread);
                assert!(placement_diff.is_empty(), "{tag}: {placement_diff:?}");
            }
        }
    }
}

#[test]
fn pipelined_partition_engines_match_phased_on_golden_corpus() {
    // The cluster reuses each partition engine's IngestMode: a cluster
    // of pipelined engines must serve the corpus bit-identically to a
    // cluster of phased ones.
    let ops = golden_ops(&scenario("zipf"));
    for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
        let mut phased = cluster(mode, &[0, 1]);
        let expected = phased.serve(&ops, 512);
        let pipelined_config = ClusterConfig::new(
            EngineConfig::new(2, 128, 3)
                .seed(GOLDEN_SEED)
                .mode(mode)
                .pipelined(4),
        )
        .partitions(8);
        let mut pipelined =
            Cluster::by_name("double", pipelined_config, &[0, 1]).expect("known scheme");
        let summary = pipelined.serve(&ops, 512);
        assert_eq!(summary, expected, "{mode:?}");
        assert!(phased.stats().matches(&pipelined.stats()), "{mode:?}");
        assert!(
            phased.placement_divergences(&pipelined).is_empty(),
            "{mode:?}"
        );
    }
}

#[test]
fn node_for_is_pure_ring_ownership() {
    let c = cluster(ChoiceMode::Keyed, &[7, 11, 13]);
    for key in 0..4096u64 {
        let partition = partition_of(key, c.partitions());
        assert_eq!(c.partition_for(key), partition);
        assert_eq!(c.node_for(key), c.partition_owner(partition));
        assert!(c.nodes().contains(&c.node_for(key)));
    }
}

#[test]
fn transfer_rebalance_keeps_golden_placement_bit_identical() {
    // Before/after sides of a live rebalance: Transfer moves ownership
    // wholesale, so placement and stats must not move by a bit.
    for scenario in [scenario("uniform"), scenario("churn")] {
        let ops = golden_ops(&scenario);
        let mut c = cluster(ChoiceMode::Keyed, &[0, 1]);
        c.serve(&ops, 512);
        let placements = c.placements();
        let stats = c.stats();
        let owners_before: Vec<u64> = (0..c.partitions()).map(|p| c.partition_owner(p)).collect();

        let report = c.add_node(2, RebalanceMode::Transfer);
        assert!(
            !report.moved.is_empty(),
            "{}: nothing moved",
            scenario.name()
        );
        assert!(report.divergences.is_empty());
        assert_eq!(c.placements(), placements, "{}", scenario.name());
        assert!(c.stats().matches(&stats), "{}", scenario.name());
        // Only partitions claimed by the new node changed owner.
        for (p, &was) in owners_before.iter().enumerate() {
            let now = c.partition_owner(p);
            assert!(now == was || now == 2, "partition {p}: {was} -> {now}");
        }

        // Removing the node hands its partitions back: ownership and
        // placement both return to the before side exactly.
        let report = c.remove_node(2, RebalanceMode::Transfer);
        assert!(report.moved.iter().all(|m| m.from == 2));
        assert_eq!(c.placements(), placements);
        let owners_after: Vec<u64> = (0..c.partitions()).map(|p| c.partition_owner(p)).collect();
        assert_eq!(owners_before, owners_after);
    }
}

#[test]
fn rebalanced_cluster_keeps_serving_like_a_fresh_topology() {
    // Serve half the capture on 2 nodes, transfer-rebalance to 3, serve
    // the rest: placement and stats must equal a fresh 3-node cluster
    // serving the full capture (batch boundaries differ across the two
    // serve calls; placement and stats are boundary-invariant).
    let ops = golden_ops(&scenario("bursty"));
    let (first, second) = ops.split_at(ops.len() / 2);

    let mut live = cluster(ChoiceMode::Keyed, &[0, 1]);
    let mut summary = live.serve(first, 512);
    live.add_node(2, RebalanceMode::Transfer);
    summary.absorb(&live.serve(second, 512));

    let mut fresh = cluster(ChoiceMode::Keyed, &[0, 1, 2]);
    let expected = fresh.serve(&ops, 512);

    assert_eq!(summary, expected);
    assert!(fresh.stats().matches(&live.stats()));
    assert!(fresh.placement_divergences(&live).is_empty());
}

#[test]
fn drain_rebalance_conserves_and_explains_on_golden_corpus() {
    // Drain is the key-level migration path: keyed delete → re-insert
    // replaying each key's f + k·g probe sequence on the destination.
    // Balls are conserved, every ball stays inside its probe set, and
    // any bin movement is logged with probe indices.
    for scenario in [scenario("zipf"), scenario("adversarial")] {
        let ops = golden_ops(&scenario);
        let mut c = cluster(ChoiceMode::Keyed, &[0, 1]);
        c.serve(&ops, 512);
        let balls = c.total_balls();
        let keys: u64 = c
            .placements()
            .values()
            .map(|p| p.bins.len() as u64)
            .sum::<u64>();
        assert_eq!(keys, balls, "placement map out of sync with ball count");

        let report = c.add_node(2, RebalanceMode::Drain);
        assert!(
            report.keys_moved > 0,
            "{}: nothing drained",
            scenario.name()
        );
        assert_eq!(
            c.total_balls(),
            balls,
            "{}: drain lost balls",
            scenario.name()
        );
        for m in &report.moved {
            assert_eq!(m.to, 2);
            let engine = c.engine(m.partition);
            for shard in engine.shards() {
                for key in shard.live_key_ids() {
                    let probes = shard.probes_for(key);
                    for bin in shard.bins_of(key).unwrap() {
                        assert!(
                            probes.contains(bin),
                            "{}: key {key} escaped probe set {probes:?}",
                            scenario.name()
                        );
                    }
                }
            }
        }
        for line in &report.divergences {
            assert!(
                line.contains("probe indices"),
                "{}: unexplained divergence {line}",
                scenario.name()
            );
        }
        // The drain is deterministic: a twin cluster drains to identical
        // placement, so the divergence log is reproducible evidence.
        let mut twin = cluster(ChoiceMode::Keyed, &[0, 1]);
        twin.serve(&ops, 512);
        let twin_report = twin.add_node(2, RebalanceMode::Drain);
        assert!(
            c.placement_divergences(&twin).is_empty(),
            "{}",
            scenario.name()
        );
        assert_eq!(report.divergences, twin_report.divergences);
    }
}

#[test]
fn cluster_stats_match_plain_engine_totals() {
    // The cluster splits the corpus across partition engines; its merged
    // traffic counters must equal a single engine serving the capture
    // (placement differs — partitioning changes shard routing — but op
    // accounting is conserved).
    let ops = golden_ops(&scenario("churn"));
    let mut c = cluster(ChoiceMode::Keyed, &[0, 1]);
    let cluster_summary = c.serve(&ops, 512);
    let mut engine = Engine::by_name(
        "double",
        EngineConfig::new(2, 128, 3).seed(GOLDEN_SEED).keyed(),
    )
    .unwrap();
    let engine_summary = engine.serve(&ops, 512);
    assert_eq!(cluster_summary.inserts, engine_summary.inserts);
    assert_eq!(cluster_summary.lookups, engine_summary.lookups);
    assert_eq!(
        cluster_summary.deletes + cluster_summary.missed_deletes,
        engine_summary.deletes + engine_summary.missed_deletes
    );
    assert_eq!(c.stats().total_balls(), c.total_balls());
}

#[test]
#[should_panic(expected = "EngineConfig::pipelined(3)")]
fn cluster_construction_rejects_bad_pipeline_config() {
    // The fail-fast satellite, surfaced at the cluster tier: a bad
    // engine template dies naming the builder call, before any ops flow.
    let bad = ClusterConfig::new(EngineConfig::new(2, 128, 3).pipelined(3));
    let _ = Cluster::by_name("double", bad, &[0]);
}
