//! The cluster tier: consistent-hash routing over many engines, live
//! rebalance, and cluster-wide mergeable stats.
//!
//! A [`Cluster`] spreads the keyspace over a fixed number of
//! **partitions** — each an independent [`Engine`] with its own seed
//! stream — and assigns partitions to **nodes** through a consistent-hash
//! ring of [`NODE_VNODES`] SplitMix64-mixed virtual nodes per node
//! (Dynamo/Riak-style fixed-partition placement). The split matters:
//!
//! * **Keys route to partitions** by the same SplitMix64 + multiply-shift
//!   reduction as [`route`] ([`partition_of`]). The
//!   partition count never changes over a cluster's lifetime, so the
//!   multiply-shift divisor is safe here — unlike using it across node
//!   counts, which remaps nearly every key when the divisor changes.
//! * **Partitions map to nodes** via the ring ([`HashRing`]): a node
//!   add/remove only reassigns the partitions whose successor vnode
//!   changed — ~1/N of the keyspace — and touches no other partition.
//!
//! Because the unit of state is the partition and never the node, a
//! 1-node and an N-node cluster serving the same op stream are
//! **bit-identical**: same per-key placement, same merged
//! [`EngineStats`]. Node topology decides only *ownership* (which node
//! answers for a partition), which is what [`Cluster::node_for`] reports
//! and what [`Cluster::add_node`]/[`Cluster::remove_node`] rebalance —
//! either by transferring partitions wholesale
//! ([`RebalanceMode::Transfer`], placement-preserving by construction)
//! or by draining them key by key through keyed delete→re-insert
//! ([`RebalanceMode::Drain`]), replaying each key's exact `f + k·g`
//! probe sequence on the destination and logging any bin movement as an
//! explainable divergence.

use crate::engine::{route, ChoiceMode, Engine, EngineConfig, IngestMode};
use crate::metrics::EngineStats;
use crate::op::{BatchSummary, Op};
use ba_hash::{AnyScheme, ChoiceScheme};
use ba_rng::{SeedSequence, SplitMix64};
use std::collections::BTreeMap;
use std::fmt;

/// Virtual nodes per physical node on the consistent-hash ring. More
/// vnodes smooth each node's share of the partition space (the standard
/// consistent-hashing variance reduction); 64 keeps per-node ownership
/// within a few percent of fair at single-digit node counts.
pub const NODE_VNODES: usize = 64;

/// Salt separating key→partition routing from the engine's key→shard
/// [`route`] and from every other SplitMix64 use in the workspace.
const KEY_PARTITION_SALT: u64 = 0xC1A5_7E12_9B4D_66A7;

/// Salt for a partition's fixed position on the ring.
const PARTITION_POINT_SALT: u64 = 0x7AB6_0F3C_D571_E845;

/// Salt for a node's vnode positions on the ring.
const VNODE_SALT: u64 = 0x4D79_C3E1_5A28_B9F3;

/// Seed-tree child index under which per-partition engine seeds are
/// derived, domain-separated from the engine's own shard children.
const PARTITION_SEED_CHILD: u64 = 0xC157;

/// Maps a key to its partition: SplitMix64 finalizer over the
/// partition-routing salt, then a multiply-shift range reduction. A pure
/// function of `(key, partitions)` — usable for replay without a cluster
/// in hand. The partition count is fixed for a cluster's lifetime, so
/// the multiply-shift divisor never changes (node topology changes are
/// absorbed by the ring instead).
#[inline]
pub fn partition_of(key: u64, partitions: usize) -> usize {
    let mixed = SplitMix64::mix(key ^ KEY_PARTITION_SALT);
    ((mixed as u128 * partitions as u128) >> 64) as usize
}

/// A partition's fixed position on the ring — pure in the partition id.
#[inline]
pub fn ring_position(partition: usize) -> u64 {
    SplitMix64::mix(partition as u64 ^ PARTITION_POINT_SALT)
}

/// A consistent-hash ring: each node contributes `vnodes` SplitMix64-
/// derived points, and a lookup position is owned by its successor point
/// (wrapping). Adding or removing a node only changes ownership of the
/// positions whose successor was one of that node's points — ~1/N of the
/// space — which is the whole reason this exists instead of a
/// multiply-shift over the node count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    vnodes: usize,
    /// Sorted `(point, node)` pairs; ties break toward the smaller node
    /// id, deterministically.
    points: Vec<(u64, u64)>,
    /// Member node ids, sorted.
    nodes: Vec<u64>,
}

impl HashRing {
    /// An empty ring whose future members get `vnodes` points each.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn new(vnodes: usize) -> Self {
        assert!(vnodes >= 1, "need at least one virtual node per node");
        Self {
            vnodes,
            points: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// The vnode point for `(node, replica)` — pure, so ring contents are
    /// a function of membership alone.
    fn vnode_point(node: u64, replica: usize) -> u64 {
        SplitMix64::mix(SplitMix64::mix(node ^ VNODE_SALT) ^ replica as u64)
    }

    /// Adds a node's vnodes to the ring. Returns `false` (ring
    /// unchanged) if the node is already a member.
    pub fn add_node(&mut self, node: u64) -> bool {
        if self.nodes.contains(&node) {
            return false;
        }
        self.nodes.push(node);
        self.nodes.sort_unstable();
        for replica in 0..self.vnodes {
            self.points.push((Self::vnode_point(node, replica), node));
        }
        self.points.sort_unstable();
        true
    }

    /// Removes a node and its vnodes. Returns `false` if it was not a
    /// member.
    pub fn remove_node(&mut self, node: u64) -> bool {
        if !self.nodes.contains(&node) {
            return false;
        }
        self.nodes.retain(|&n| n != node);
        self.points.retain(|&(_, n)| n != node);
        true
    }

    /// Member node ids, sorted ascending.
    pub fn nodes(&self) -> &[u64] {
        &self.nodes
    }

    /// Virtual nodes each member contributes.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The node owning `position`: the successor vnode point, wrapping
    /// past the top of the ring.
    ///
    /// # Panics
    ///
    /// Panics if the ring has no members.
    pub fn owner(&self, position: u64) -> u64 {
        assert!(!self.nodes.is_empty(), "ring has no nodes");
        let idx = self.points.partition_point(|&(p, _)| p < position);
        self.points[idx % self.points.len()].1
    }
}

/// Configuration for a [`Cluster`]: the per-partition engine template
/// plus the cluster's routing shape.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Template for every partition's engine. `engine.seed` acts as the
    /// cluster's master seed; partition `p` runs at the derived seed
    /// `SeedSequence::new(seed).child(PARTITION_SEED_CHILD).child(p)`, so
    /// per-partition salts and RNG streams are independent but fully
    /// reproducible — a drained partition's replacement engine derives
    /// the identical salts.
    pub engine: EngineConfig,
    /// Fixed number of partitions. Never changes over the cluster's
    /// lifetime; choose comfortably above the largest node count you
    /// expect so ownership can spread (32 by default).
    pub partitions: usize,
}

impl ClusterConfig {
    /// A config with 32 partitions.
    pub fn new(engine: EngineConfig) -> Self {
        Self {
            engine,
            partitions: 32,
        }
    }

    /// Sets the fixed partition count.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Checks the cluster's structural invariants, including the engine
    /// template's (see [`EngineConfig::validate`]). [`Cluster`]
    /// constructors call this and panic with the error's message, so a
    /// bad pipeline depth in the template fails when the cluster is
    /// built, naming the offending builder call. Rounds-mode templates
    /// are rejected: their key index lives outside the shards, where
    /// [`RebalanceMode::Drain`] cannot see it.
    pub fn validate(&self) -> Result<(), crate::engine::ConfigError> {
        if self.partitions == 0 {
            return Err(crate::engine::ConfigError::ZeroPartitions);
        }
        if self.engine.ingest == IngestMode::Rounds {
            return Err(crate::engine::ConfigError::RoundsPartitions);
        }
        self.engine.validate()
    }

    /// The engine config partition `p` runs: the template with its seed
    /// replaced by the partition's derived seed.
    pub fn partition_config(&self, partition: usize) -> EngineConfig {
        let mut config = self.engine.clone();
        config.seed = SeedSequence::new(self.engine.seed)
            .child(PARTITION_SEED_CHILD)
            .child(partition as u64)
            .derive_u64();
        config
    }
}

/// How [`Cluster::add_node`]/[`Cluster::remove_node`] move the
/// partitions whose ring ownership changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceMode {
    /// Reassign ownership wholesale: the partition's engine moves to the
    /// new owner untouched. Placement and stats are bit-identical before
    /// and after by construction — the model for handing a live
    /// partition's state over a transport.
    Transfer,
    /// Migrate key by key: every live key in an affected partition is
    /// deleted from the source engine and re-inserted into a freshly
    /// built destination engine (same derived partition seed, so the
    /// same shard salts). Under [`ChoiceMode::Keyed`] the re-insert
    /// replays the key's exact `f + k·g` probe sequence; any ball that
    /// lands in a different bin of its probe set (least-loaded decisions
    /// see different loads mid-drain) is logged as an explainable
    /// divergence in the [`RebalanceReport`]. Lifetime traffic counters
    /// of drained partitions restart with the migration — placements
    /// carry over, history does not.
    Drain,
}

/// One partition whose ownership changed during a rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMove {
    /// The partition that changed hands.
    pub partition: usize,
    /// Its owner before the membership change.
    pub from: u64,
    /// Its owner after.
    pub to: u64,
}

/// What a [`Cluster::add_node`]/[`Cluster::remove_node`] call did.
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// The node added or removed.
    pub node: u64,
    /// `true` for an add, `false` for a removal.
    pub added: bool,
    /// How affected partitions moved.
    pub mode: RebalanceMode,
    /// Every partition whose owner changed, ascending by partition id.
    pub moved: Vec<PartitionMove>,
    /// Live keys in the moved partitions (drained individually under
    /// [`RebalanceMode::Drain`]; transferred in place under
    /// [`RebalanceMode::Transfer`]).
    pub keys_moved: u64,
    /// Live balls behind those keys.
    pub balls_moved: u64,
    /// The divergence log: one line per ball whose bin changed across a
    /// drain, each naming the key, the old and new bins, and — in keyed
    /// mode — their probe indices within the key's replayed probe set.
    /// Empty for transfers and for keyed drains whose least-loaded
    /// decisions all resolved identically.
    pub divergences: Vec<String>,
}

impl RebalanceReport {
    /// Renders the report for operator eyes.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} node {}: {} partition(s) moved ({:?}), {} key(s) / {} ball(s), {} divergence(s)\n",
            if self.added { "added" } else { "removed" },
            self.node,
            self.moved.len(),
            self.mode,
            self.keys_moved,
            self.balls_moved,
            self.divergences.len()
        );
        for mv in &self.moved {
            out.push_str(&format!(
                "  partition {:>3}: node {} -> node {}\n",
                mv.partition, mv.from, mv.to
            ));
        }
        for line in &self.divergences {
            out.push_str(&format!("  divergence: {line}\n"));
        }
        out
    }
}

/// Where one key's balls live: its partition, the shard within that
/// partition's engine, and the bins holding its balls, oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The partition owning the key.
    pub partition: usize,
    /// The shard within the partition's engine.
    pub shard: usize,
    /// Bins holding the key's live balls, oldest first.
    pub bins: Vec<u64>,
}

/// N engines behind a consistent-hash ring. See the [module
/// docs](self) for the partition/node split and its bit-identity
/// contract.
pub struct Cluster<S> {
    config: ClusterConfig,
    ring: HashRing,
    /// One engine per partition, indexed by partition id.
    engines: Vec<Engine<S>>,
    /// Builds a partition's scheme — kept so [`RebalanceMode::Drain`]
    /// can construct fresh destination engines.
    factory: Box<dyn Fn(&EngineConfig) -> S>,
    /// Per-partition batch buffers for [`Cluster::serve_replay`]; reused
    /// across flushes so steady-state fan-out allocates nothing.
    filling: Vec<Vec<Op>>,
    /// Warnings rescued from partition engines that were *replaced*
    /// (Drain rebalance swaps in a fresh engine) before a cluster-level
    /// [`Cluster::take_warnings`] drained them. `(partition, warning)`
    /// in emission order.
    pending_warnings: Vec<(usize, String)>,
}

impl<S: fmt::Debug> fmt::Debug for Cluster<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.config)
            .field("ring", &self.ring)
            .field("engines", &self.engines.len())
            .finish_non_exhaustive()
    }
}

impl Cluster<AnyScheme> {
    /// Builds a cluster whose partition engines run the named scheme
    /// (see [`AnyScheme::by_name`]). Returns `None` for an unknown name.
    ///
    /// # Panics
    ///
    /// As [`Cluster::with_scheme_factory`].
    pub fn by_name(name: &str, config: ClusterConfig, nodes: &[u64]) -> Option<Self> {
        // Probe once so an unknown name fails before any engine is built.
        AnyScheme::by_name(name, config.engine.bins_per_shard, config.engine.d)?;
        let name = name.to_string();
        Some(Self::with_scheme_factory(config, nodes, move |cfg| {
            AnyScheme::by_name(&name, cfg.bins_per_shard, cfg.d).expect("probed above")
        }))
    }
}

impl<S: ChoiceScheme + 'static> Cluster<S> {
    /// Builds a cluster over the given member nodes, constructing one
    /// engine per partition via `factory`.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::engine::ConfigError)'s
    /// message if the config fails [`ClusterConfig::validate`] (so a bad
    /// engine template is rejected here, naming the offending builder
    /// call), if `nodes` is empty, or if it repeats a node id.
    pub fn with_scheme_factory(
        config: ClusterConfig,
        nodes: &[u64],
        factory: impl Fn(&EngineConfig) -> S + 'static,
    ) -> Self {
        if let Err(err) = config.validate() {
            panic!("invalid ClusterConfig: {err}");
        }
        assert!(!nodes.is_empty(), "need at least one node");
        let mut ring = HashRing::new(NODE_VNODES);
        for &node in nodes {
            assert!(ring.add_node(node), "duplicate node id {node}");
        }
        let factory: Box<dyn Fn(&EngineConfig) -> S> = Box::new(factory);
        let engines = (0..config.partitions)
            .map(|p| Engine::with_scheme_factory(config.partition_config(p), &factory))
            .collect();
        let filling = (0..config.partitions).map(|_| Vec::new()).collect();
        Self {
            config,
            ring,
            engines,
            factory,
            filling,
            pending_warnings: Vec::new(),
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The ring mapping partitions to nodes.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Member node ids, sorted ascending.
    pub fn nodes(&self) -> &[u64] {
        self.ring.nodes()
    }

    /// The fixed partition count.
    pub fn partitions(&self) -> usize {
        self.config.partitions
    }

    /// The engine serving `partition`.
    pub fn engine(&self, partition: usize) -> &Engine<S> {
        &self.engines[partition]
    }

    /// The partition owning `key` — pure in `(key, partitions)`, see
    /// [`partition_of`].
    pub fn partition_for(&self, key: u64) -> usize {
        partition_of(key, self.config.partitions)
    }

    /// The node currently owning `partition` on the ring.
    pub fn partition_owner(&self, partition: usize) -> u64 {
        self.ring.owner(ring_position(partition))
    }

    /// The node currently answering for `key`: the ring owner of the
    /// key's partition. Pure in `(key, partitions, ring membership)` —
    /// replayable without serving a single op.
    pub fn node_for(&self, key: u64) -> u64 {
        self.partition_owner(self.partition_for(key))
    }

    /// Serves one op slice, fanning it out per partition. Equivalent to
    /// [`Cluster::serve_replay`] over the slice.
    pub fn serve(&mut self, ops: &[Op], batch_size: usize) -> BatchSummary {
        self.serve_replay(ops.iter().copied(), batch_size)
    }

    /// Serves an op *stream*, routing each op to its partition and
    /// flushing a partition's buffer into its engine whenever it fills
    /// to `batch_size` (partial buffers flush at end of stream, in
    /// partition order). Each partition engine ingests its routed
    /// subsequence through its own configured
    /// [`IngestMode`] — phased and pipelined partitions can coexist
    /// behind one cluster.
    ///
    /// Flush boundaries depend only on the op stream and the partition
    /// count — never on node membership — which is what makes a 1-node
    /// and an N-node cluster bit-identical on the same stream.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn serve_replay(
        &mut self,
        ops: impl IntoIterator<Item = Op>,
        batch_size: usize,
    ) -> BatchSummary {
        assert!(batch_size > 0, "batch size must be positive");
        let mut total = BatchSummary::default();
        for op in ops {
            let p = partition_of(op.key(), self.config.partitions);
            self.filling[p].push(op);
            if self.filling[p].len() == batch_size {
                let mut batch = std::mem::take(&mut self.filling[p]);
                total.absorb(&self.engines[p].serve(&batch, batch_size));
                batch.clear();
                self.filling[p] = batch;
            }
        }
        for (engine, buf) in self.engines.iter_mut().zip(self.filling.iter_mut()) {
            if buf.is_empty() {
                continue;
            }
            total.absorb(&engine.serve(buf, batch_size));
            buf.clear();
        }
        total
    }

    /// Cluster-wide stats: every partition's [`EngineStats`] merged in
    /// partition order via [`EngineStats::merge`]. Node-invariant — the
    /// same capture through any node count merges to the same snapshot.
    pub fn stats(&self) -> EngineStats {
        let mut merged = EngineStats::new(Vec::new());
        for engine in &self.engines {
            merged.merge(&engine.stats());
        }
        merged
    }

    /// The merged stats of the partitions `node` currently owns (empty
    /// if it owns none).
    pub fn node_stats(&self, node: u64) -> EngineStats {
        let mut merged = EngineStats::new(Vec::new());
        for (p, engine) in self.engines.iter().enumerate() {
            if self.partition_owner(p) == node {
                merged.merge(&engine.stats());
            }
        }
        merged
    }

    /// Live balls per node, `(node, balls)` ascending by node id — the
    /// load-spread view the `cluster` bench experiment records.
    pub fn per_node_balls(&self) -> Vec<(u64, u64)> {
        let mut loads: BTreeMap<u64, u64> = self.ring.nodes().iter().map(|&n| (n, 0)).collect();
        for (p, engine) in self.engines.iter().enumerate() {
            *loads
                .get_mut(&self.partition_owner(p))
                .expect("owner is a member") += engine.total_balls();
        }
        loads.into_iter().collect()
    }

    /// Total live balls across every partition.
    pub fn total_balls(&self) -> u64 {
        self.engines.iter().map(Engine::total_balls).sum()
    }

    /// The maximum bin load across every partition.
    pub fn max_load(&self) -> u32 {
        self.engines.iter().map(Engine::max_load).max().unwrap_or(0)
    }

    /// Drains the configuration warnings of every partition engine (see
    /// [`Engine::take_warnings`]), each prefixed with its partition id.
    ///
    /// Nothing is ever lost between two cluster-level drains: warnings a
    /// partition engine emitted before being replaced by a `Drain`
    /// rebalance are staged and surface here. Ordering is deterministic
    /// — ascending partition index, then emission order within the
    /// partition (staged warnings predate the current engine's).
    pub fn take_warnings(&mut self) -> Vec<String> {
        let mut staged = std::mem::take(&mut self.pending_warnings);
        for (p, engine) in self.engines.iter_mut().enumerate() {
            for warning in engine.take_warnings() {
                staged.push((p, warning));
            }
        }
        // Stable sort: within a partition, staged (older) warnings keep
        // their place ahead of the live engine's.
        staged.sort_by_key(|(p, _)| *p);
        staged
            .into_iter()
            .map(|(p, warning)| format!("partition {p}: {warning}"))
            .collect()
    }

    /// Every live key's [`Placement`], keyed by key — the differential
    /// unit `tests/cluster.rs` compares across cluster topologies.
    /// Deterministic: partitions ascend, shards ascend, keys ascend.
    pub fn placements(&self) -> BTreeMap<u64, Placement> {
        let mut map = BTreeMap::new();
        for (p, engine) in self.engines.iter().enumerate() {
            for shard in engine.shards() {
                for key in shard.live_key_ids() {
                    let bins = shard.bins_of(key).expect("live key has bins").to_vec();
                    let clash = map.insert(
                        key,
                        Placement {
                            partition: p,
                            shard: shard.id(),
                            bins,
                        },
                    );
                    debug_assert!(clash.is_none(), "key {key} live in two partitions");
                }
            }
        }
        map
    }

    /// Diffs two clusters' placements, returning one explainable line
    /// per differing key (empty means bit-identical placement). Lines
    /// are deterministic — ascending by key — and annotate keyed-mode
    /// differences with probe indices within the key's probe set, so a
    /// divergence is always attributable: same probe set, different
    /// least-loaded resolution.
    pub fn placement_divergences(&self, other: &Cluster<S>) -> Vec<String> {
        let ours = self.placements();
        let theirs = other.placements();
        let mut lines = Vec::new();
        // Reused across every annotated mismatch in the diff.
        let mut probes = Vec::new();
        for (key, placement) in &ours {
            match theirs.get(key) {
                None => lines.push(format!(
                    "key {key}: live only on left (partition {}, bins {:?})",
                    placement.partition, placement.bins
                )),
                Some(them) if them == placement => {}
                Some(them) => {
                    if placement.partition != them.partition || placement.shard != them.shard {
                        lines.push(format!(
                            "key {key}: routed to partition {}/shard {} vs {}/{} — \
                             differing partition counts or engine configs",
                            placement.partition, placement.shard, them.partition, them.shard
                        ));
                    } else {
                        lines.push(format!(
                            "key {key} (partition {} shard {}): bins {:?} vs {:?}{}",
                            placement.partition,
                            placement.shard,
                            placement.bins,
                            them.bins,
                            self.probe_annotation(*key, placement, them, &mut probes)
                        ));
                    }
                }
            }
        }
        for (key, them) in &theirs {
            if !ours.contains_key(key) {
                lines.push(format!(
                    "key {key}: live only on right (partition {}, bins {:?})",
                    them.partition, them.bins
                ));
            }
        }
        lines
    }

    /// The keyed-mode annotation for a bin mismatch: each side's bins as
    /// probe indices within the key's (shared) probe set. `probes` is a
    /// caller-owned scratch buffer, reused across a diff's mismatches.
    fn probe_annotation(
        &self,
        key: u64,
        ours: &Placement,
        theirs: &Placement,
        probes: &mut Vec<u64>,
    ) -> String {
        if self.config.engine.mode != ChoiceMode::Keyed {
            return " (stream mode: bins are draw-order dependent)".to_string();
        }
        self.engines[ours.partition]
            .shard(ours.shard)
            .probes_into(key, probes);
        let probes = &*probes;
        let indices = |bins: &[u64]| -> Vec<Option<usize>> {
            bins.iter()
                .map(|bin| probes.iter().position(|p| p == bin))
                .collect()
        };
        format!(
            " (probe indices {:?} vs {:?} within probe set {probes:?})",
            indices(&ours.bins),
            indices(&theirs.bins)
        )
    }

    /// Adds `node` to the ring and rebalances the partitions whose
    /// ownership it claimed. Returns the report of what moved.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already a member.
    pub fn add_node(&mut self, node: u64, mode: RebalanceMode) -> RebalanceReport {
        let before = self.owners();
        assert!(self.ring.add_node(node), "node {node} already in the ring");
        self.rebalance(node, true, mode, &before)
    }

    /// Removes `node` from the ring and rebalances the partitions it
    /// owned onto the survivors. Returns the report of what moved.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a member, or if it is the last one.
    pub fn remove_node(&mut self, node: u64, mode: RebalanceMode) -> RebalanceReport {
        assert!(
            self.ring.nodes().len() > 1,
            "cannot remove the last node ({node})"
        );
        let before = self.owners();
        assert!(self.ring.remove_node(node), "node {node} not in the ring");
        self.rebalance(node, false, mode, &before)
    }

    /// Current owner of every partition, indexed by partition id.
    fn owners(&self) -> Vec<u64> {
        (0..self.config.partitions)
            .map(|p| self.partition_owner(p))
            .collect()
    }

    /// Shared tail of add/remove: diff ownership against `before` and
    /// move what changed.
    fn rebalance(
        &mut self,
        node: u64,
        added: bool,
        mode: RebalanceMode,
        before: &[u64],
    ) -> RebalanceReport {
        let mut report = RebalanceReport {
            node,
            added,
            mode,
            moved: Vec::new(),
            keys_moved: 0,
            balls_moved: 0,
            divergences: Vec::new(),
        };
        for (partition, &from) in before.iter().enumerate() {
            let to = self.partition_owner(partition);
            if to == from {
                continue;
            }
            report.moved.push(PartitionMove {
                partition,
                from,
                to,
            });
            match mode {
                RebalanceMode::Transfer => {
                    // Ownership moves, state does not: count what changed
                    // hands, touch nothing.
                    let engine = &self.engines[partition];
                    report.keys_moved += engine
                        .shards()
                        .iter()
                        .map(|s| s.live_keys() as u64)
                        .sum::<u64>();
                    report.balls_moved += engine.total_balls();
                }
                RebalanceMode::Drain => self.drain_partition(partition, &mut report),
            }
        }
        report
    }

    /// Key-level migration of one partition: enumerate live keys (sorted
    /// — deterministic), delete each from the source, re-insert into a
    /// freshly built engine at the same derived partition seed, log any
    /// ball whose bin changed, then install the destination engine.
    fn drain_partition(&mut self, partition: usize, report: &mut RebalanceReport) {
        let mut destination =
            Engine::with_scheme_factory(self.config.partition_config(partition), &self.factory);
        let keyed = self.config.engine.mode == ChoiceMode::Keyed;
        // (key, old bins) pairs, ascending by key across all shards.
        let mut moves: Vec<(u64, Vec<u64>)> = self.engines[partition]
            .shards()
            .iter()
            .flat_map(|shard| {
                shard
                    .live_key_ids()
                    .into_iter()
                    .map(|key| (key, shard.bins_of(key).expect("live key has bins").to_vec()))
                    .collect::<Vec<_>>()
            })
            .collect();
        moves.sort_unstable_by_key(|(key, _)| *key);
        let source = &mut self.engines[partition];
        // One probe buffer for the whole drain: the annotation path
        // derives every moved key's probes without reallocating.
        let mut probes = Vec::new();
        for (key, old_bins) in moves {
            let balls = old_bins.len();
            // Keyed delete from the source (drains its accounting), then
            // re-insert into the destination: in keyed mode the insert
            // replays the key's exact f + k·g probe sequence.
            source.apply_batch(&vec![Op::Delete(key); balls]);
            destination.apply_batch(&vec![Op::Insert(key); balls]);
            let shard_id = route(key, destination.config().shards);
            let new_bins = destination
                .shard(shard_id)
                .bins_of(key)
                .expect("just inserted")
                .to_vec();
            report.keys_moved += 1;
            report.balls_moved += balls as u64;
            if new_bins != old_bins {
                let annotation = if keyed {
                    destination.shard(shard_id).probes_into(key, &mut probes);
                    let probes = &probes;
                    let indices = |bins: &[u64]| -> Vec<Option<usize>> {
                        bins.iter()
                            .map(|bin| probes.iter().position(|p| p == bin))
                            .collect()
                    };
                    format!(
                        " (probe indices {:?} -> {:?} within replayed probe set {probes:?})",
                        indices(&old_bins),
                        indices(&new_bins)
                    )
                } else {
                    " (stream mode: re-inserts draw fresh bins)".to_string()
                };
                report.divergences.push(format!(
                    "partition {partition} key {key}: bins {old_bins:?} -> {new_bins:?}{annotation}"
                ));
            }
        }
        debug_assert_eq!(self.engines[partition].total_balls(), 0, "drain left balls");
        // The outgoing engine may hold warnings no cluster-level drain
        // has collected yet; stage them so the swap loses nothing.
        let outgoing = self.engines[partition].take_warnings();
        self.pending_warnings
            .extend(outgoing.into_iter().map(|w| (partition, w)));
        self.engines[partition] = destination;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_hash::DoubleHashing;

    fn config(partitions: usize) -> ClusterConfig {
        ClusterConfig::new(EngineConfig::new(2, 128, 3).seed(2014).keyed()).partitions(partitions)
    }

    fn cluster(partitions: usize, nodes: &[u64]) -> Cluster<AnyScheme> {
        Cluster::by_name("double", config(partitions), nodes).unwrap()
    }

    fn insert_stream(count: u64) -> Vec<Op> {
        (0..count)
            .map(|k| Op::Insert(k.wrapping_mul(0x9E37) ^ 7))
            .collect()
    }

    #[test]
    fn ring_owner_is_successor_and_wraps() {
        let mut ring = HashRing::new(8);
        ring.add_node(1);
        ring.add_node(2);
        // Every position resolves to a member; u64::MAX wraps to the
        // ring's first point.
        for pos in [0u64, 1 << 32, u64::MAX] {
            assert!(ring.nodes().contains(&ring.owner(pos)));
        }
    }

    #[test]
    fn ring_add_remove_roundtrips_ownership() {
        let mut ring = HashRing::new(NODE_VNODES);
        for node in [10u64, 20, 30] {
            ring.add_node(node);
        }
        let before: Vec<u64> = (0..64).map(|p| ring.owner(ring_position(p))).collect();
        ring.add_node(40);
        let during: Vec<u64> = (0..64).map(|p| ring.owner(ring_position(p))).collect();
        // Adding a node only reroutes positions it claimed.
        for (b, d) in before.iter().zip(&during) {
            assert!(d == b || *d == 40, "{b} -> {d}");
        }
        assert!(
            during.contains(&40),
            "new node claimed nothing at 64 vnodes"
        );
        ring.remove_node(40);
        let after: Vec<u64> = (0..64).map(|p| ring.owner(ring_position(p))).collect();
        assert_eq!(before, after, "remove must restore prior ownership exactly");
    }

    #[test]
    fn duplicate_and_unknown_members_are_reported() {
        let mut ring = HashRing::new(4);
        assert!(ring.add_node(5));
        assert!(!ring.add_node(5));
        assert!(ring.remove_node(5));
        assert!(!ring.remove_node(5));
    }

    #[test]
    fn partition_of_covers_and_is_stable() {
        let mut seen = [false; 16];
        for key in 0..4096u64 {
            let p = partition_of(key, 16);
            assert!(p < 16);
            assert_eq!(p, partition_of(key, 16));
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s), "4096 keys missed a partition");
    }

    #[test]
    fn node_count_never_changes_placement_or_stats() {
        let ops = insert_stream(4096);
        let mut single = cluster(8, &[0]);
        let mut spread = cluster(8, &[0, 1, 2, 3]);
        let a = single.serve(&ops, 256);
        let b = spread.serve(&ops, 256);
        assert_eq!(a, b);
        assert!(single.stats().matches(&spread.stats()));
        assert!(single.placement_divergences(&spread).is_empty());
        assert_eq!(single.total_balls(), spread.total_balls());
    }

    #[test]
    fn serve_replay_matches_serve_and_flushes_partials() {
        let ops = insert_stream(1000); // not a batch multiple
        let mut a = cluster(4, &[0, 1]);
        let mut b = cluster(4, &[0, 1]);
        let via_slice = a.serve(&ops, 128);
        let via_stream = b.serve_replay(ops.iter().copied(), 128);
        assert_eq!(via_slice, via_stream);
        assert_eq!(via_slice.inserts, 1000);
        assert!(a.placement_divergences(&b).is_empty());
    }

    #[test]
    fn node_stats_partition_the_cluster_stats() {
        let ops = insert_stream(2048);
        let mut c = cluster(8, &[0, 1, 2]);
        c.serve(&ops, 256);
        let total: u64 = c
            .nodes()
            .to_vec()
            .into_iter()
            .map(|n| c.node_stats(n).total_balls())
            .sum();
        assert_eq!(total, c.total_balls());
        let spread = c.per_node_balls();
        assert_eq!(spread.len(), 3);
        assert_eq!(spread.iter().map(|&(_, b)| b).sum::<u64>(), 2048);
    }

    #[test]
    fn transfer_rebalance_preserves_placement_bit_for_bit() {
        let ops = insert_stream(2048);
        let mut c = cluster(8, &[0, 1]);
        c.serve(&ops, 256);
        let placements = c.placements();
        let stats = c.stats();
        let report = c.add_node(2, RebalanceMode::Transfer);
        assert!(!report.moved.is_empty(), "64 vnodes claimed no partition");
        assert!(report.moved.iter().all(|m| m.to == 2));
        assert!(report.divergences.is_empty());
        assert_eq!(c.placements(), placements);
        assert!(c.stats().matches(&stats));
        // node_for now reports the new owner for moved partitions.
        for m in &report.moved {
            assert_eq!(c.partition_owner(m.partition), 2);
        }
        let report = c.remove_node(2, RebalanceMode::Transfer);
        assert!(report.moved.iter().all(|m| m.from == 2));
        assert_eq!(c.placements(), placements);
    }

    #[test]
    fn drain_rebalance_conserves_balls_and_logs_probe_divergences() {
        let ops = insert_stream(4096);
        let mut c = cluster(8, &[0, 1]);
        c.serve(&ops, 256);
        let balls = c.total_balls();
        let report = c.add_node(9, RebalanceMode::Drain);
        assert!(report.keys_moved > 0, "nothing drained");
        assert_eq!(c.total_balls(), balls, "drain lost or duplicated balls");
        // Keyed mode: every re-inserted ball sits within its probe set.
        let mut probes = Vec::new();
        for m in &report.moved {
            let engine = c.engine(m.partition);
            for shard in engine.shards() {
                for key in shard.live_key_ids() {
                    shard.probes_into(key, &mut probes);
                    for bin in shard.bins_of(key).unwrap() {
                        assert!(probes.contains(bin), "ball escaped its probe set");
                    }
                }
            }
        }
        // Divergences, if any, are explainable: probe-indexed lines.
        for line in &report.divergences {
            assert!(line.contains("probe"), "unexplained divergence: {line}");
        }
        // Deterministic: an identical cluster drains identically.
        let mut twin = cluster(8, &[0, 1]);
        twin.serve(&ops, 256);
        twin.add_node(9, RebalanceMode::Drain);
        assert!(c.placement_divergences(&twin).is_empty());
        assert_eq!(c.total_balls(), twin.total_balls());
    }

    #[test]
    fn take_warnings_loses_nothing_across_interleaved_serves_and_drains() {
        // Pipelined partitions warn on every engine-level serve whose
        // batch_size sits below the shard count; the cluster must
        // surface all of them even when a Drain rebalance swaps fresh
        // engines in between two cluster-level drains.
        let engine = EngineConfig::new(2, 128, 3).seed(2014).keyed().pipelined(4);
        let cfg = ClusterConfig::new(engine).partitions(4);
        let mut c = Cluster::by_name("double", cfg, &[0, 1]).unwrap();
        let ops = insert_stream(8);
        c.serve(&ops, 1); // batch_size 1 < 2 shards: one warning per flush
        let first = c.take_warnings();
        assert_eq!(first.len(), ops.len(), "{first:?}");
        assert!(first.iter().all(|w| w.contains("batch_size 1 < 2 shards")));
        // Interleave: warn again, swap engines via Drain, warn once more
        // — all before the next cluster-level drain.
        c.serve(&ops, 1);
        let report = c.add_node(7, RebalanceMode::Drain);
        assert!(!report.moved.is_empty(), "64 vnodes claimed no partition");
        c.serve(&ops, 1);
        let second = c.take_warnings();
        assert_eq!(
            second.len(),
            2 * ops.len(),
            "engine swap dropped warnings: {second:?}"
        );
        // Deterministic ordering: ascending partition index.
        let partitions: Vec<usize> = second
            .iter()
            .map(|w| {
                w.strip_prefix("partition ")
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|p| p.parse().ok())
                    .unwrap_or_else(|| panic!("unprefixed warning: {w}"))
            })
            .collect();
        let mut sorted = partitions.clone();
        sorted.sort_unstable();
        assert_eq!(partitions, sorted, "warnings must ascend by partition");
        assert!(c.take_warnings().is_empty(), "drain must be exhaustive");
    }

    #[test]
    #[should_panic(expected = "EngineConfig::pipelined(3)")]
    fn cluster_rejects_invalid_engine_template_at_construction() {
        let bad = ClusterConfig::new(EngineConfig::new(2, 64, 3).pipelined(3));
        let _ = Cluster::by_name("double", bad, &[0]);
    }

    #[test]
    fn validate_rejects_rounds_partition_engines() {
        // Rounds engines keep their key index outside the shards, so a
        // Drain rebalance would move no keys and drop the partition's
        // balls; the template is refused instead.
        let cfg = ClusterConfig::new(EngineConfig::new(2, 64, 3).seed(5).rounds());
        assert_eq!(
            cfg.validate(),
            Err(crate::engine::ConfigError::RoundsPartitions)
        );
        let msg = crate::engine::ConfigError::RoundsPartitions.to_string();
        assert!(
            msg.contains("ClusterConfig::new(EngineConfig::rounds())"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid ClusterConfig")]
    fn cluster_rejects_rounds_partition_engines_at_construction() {
        let cfg = ClusterConfig::new(EngineConfig::new(2, 64, 3).seed(5).rounds());
        let _ = Cluster::by_name("double", cfg, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn cluster_rejects_zero_partitions() {
        let _ = cluster(0, &[0]);
    }

    #[test]
    #[should_panic(expected = "cannot remove the last node")]
    fn last_node_cannot_be_removed() {
        cluster(4, &[0]).remove_node(0, RebalanceMode::Transfer);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_ids_rejected() {
        let _ = cluster(4, &[0, 0]);
    }

    #[test]
    fn factory_clusters_work_without_by_name() {
        let cfg = ClusterConfig::new(EngineConfig::new(1, 64, 2).seed(5)).partitions(4);
        let mut c =
            Cluster::with_scheme_factory(cfg, &[3], |e| DoubleHashing::new(e.bins_per_shard, e.d));
        let summary = c.serve(&insert_stream(256), 64);
        assert_eq!(summary.inserts, 256);
        assert_eq!(c.node_for(1), 3);
    }
}
