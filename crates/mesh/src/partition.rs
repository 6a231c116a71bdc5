//! Element batching and domain sharding for the streaming pipeline.
//!
//! The paper's Load-Element task transfers element data "in batches from
//! off-chip memory to the BRAMs and URAMs within the Programmable Logic"
//! (§III-A, step 1). A batch must fit in on-chip memory; this module
//! partitions the element list into batches and reports the on-chip
//! footprint and DDR traffic of each, which the platform model uses to
//! size buffers and estimate transfer time.
//!
//! On top of the flat batch list, [`ShardPlan`] decomposes the mesh into
//! element **shards** — the unit a multi-unit accelerator (or the host's
//! shard-parallel execution backend) assigns to one memory channel /
//! worker. Shards are ranges over an explicit element assignment chosen
//! by a [`PartitionStrategy`]:
//!
//! * [`PartitionStrategy::Contiguous`] — balanced contiguous ascending
//!   element ranges (the historical layout). Cheap to build, but the
//!   halo it produces is an artifact of element *numbering*, not mesh
//!   topology.
//! * [`PartitionStrategy::Partitioned`] — greedy KL-style recursive
//!   bisection over the element adjacency graph (elements are adjacent
//!   when they share a node), seeded by
//!   the RCM node ordering of [`crate::reorder`]. Each bisection sorts
//!   the sub-problem along the RCM front, cuts at the balance point, and
//!   then greedily swaps boundary element pairs while the edge cut
//!   improves. The result is compared against the contiguous split and
//!   the layout with the smaller halo wins, so a partitioned plan is
//!   never worse than the contiguous one it replaces.
//!
//! Each shard carries the halo metadata the executor needs:
//!
//! * **owned nodes** — nodes whose residual accumulation this shard is
//!   responsible for. Ownership goes to the lowest-indexed shard touching
//!   the node, so the owned sets are disjoint and cover every mesh node.
//! * **shared (halo) nodes** — nodes the shard's elements touch but some
//!   other shard owns; contributions to them must be forwarded to the
//!   owner during the cross-shard reduction.
//! * **frontier flags** ([`ShardPlan::frontier`]) — per mesh node,
//!   whether two or more shards touch it. Only frontier nodes need the
//!   deterministic cross-shard merge; everything else can be scattered
//!   directly by its single toucher.
//! * **neighbor lists** ([`Shard::neighbors`]) — the shards sharing at
//!   least one frontier node with this one, the peers a multi-device
//!   executor exchanges halo buffers with. The relation is symmetric
//!   and every sends-to target is contained in it, so a device posting
//!   one buffer per neighbor and draining one per neighbor terminates.
//! * **streaming batches** — the shard's element list re-batched for the
//!   Load-Element pipeline, with the same DDR-traffic accounting as
//!   [`partition_elements`].
//!
//! # Determinism under permuted element orders
//!
//! The solver's sharded executor — its only parallel assembly path — is
//! bitwise identical to the serial element loop for *any* shard
//! assignment, not just contiguous ranges (the argument is stated in
//! full in `fem_solver::engine`). What it
//! needs from a plan: every shard stores its elements **sorted ascending
//! by global element id**, the `frontier` flags mark exactly the nodes
//! touched by more than one shard, and every frontier node has exactly
//! one owner — for any shard count and either [`PartitionStrategy`].
//!
//! The same argument keeps a decentralized halo *exchange* bitwise: it
//! never constrains **where** a frontier contribution travels, only the
//! (node, element) order in which the owner applies what arrives. A
//! multi-device executor may route contributions through per-neighbor
//! mailboxes instead of a central reduction — as long as every owner
//! sorts its drained records by (node, element) before applying, the
//! accumulation order (and therefore every bit) is identical.

use crate::hex::HexMesh;
use crate::reorder::rcm_permutation;
use crate::MeshError;

/// A run of elements streamed as one unit (ascending element ids; a
/// contiguous id range under [`PartitionStrategy::Contiguous`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementBatch {
    /// First (lowest) element id in the batch.
    pub first_element: usize,
    /// Number of elements.
    pub num_elements: usize,
    /// Number of *unique* nodes touched by the batch (gather footprint).
    pub unique_nodes: usize,
    /// Bytes read from DDR for the batch (unique node payloads).
    pub bytes_in: usize,
    /// Bytes written back to DDR (per-node residual contributions).
    pub bytes_out: usize,
}

impl ElementBatch {
    /// Total DDR traffic of the batch.
    pub fn total_bytes(&self) -> usize {
        self.bytes_in + self.bytes_out
    }
}

/// Splits the mesh's elements into batches of at most `batch_elements`.
///
/// # Errors
///
/// [`MeshError::InvalidParameter`] if `batch_elements == 0`.
///
/// # Example
///
/// ```
/// use fem_mesh::{generator::BoxMeshBuilder, partition::partition_elements};
/// let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
/// let batches = partition_elements(&mesh, 16).unwrap();
/// assert_eq!(batches.len(), 4);
/// let total: usize = batches.iter().map(|b| b.num_elements).sum();
/// assert_eq!(total, mesh.num_elements());
/// ```
pub fn partition_elements(
    mesh: &HexMesh,
    batch_elements: usize,
) -> Result<Vec<ElementBatch>, MeshError> {
    if batch_elements == 0 {
        return Err(MeshError::InvalidParameter(
            "batch size must be positive".into(),
        ));
    }
    let ids: Vec<u32> = (0..mesh.num_elements() as u32).collect();
    Ok(batch_element_run(mesh, &ids, batch_elements))
}

/// Bytes written back to DDR per unique node: the 5 conserved-field
/// residual contributions.
fn bytes_out_per_node() -> usize {
    5 * std::mem::size_of::<f64>()
}

/// Batches the element list `elems` (ascending ids) into runs of at most
/// `batch_elements` elements, with the same traffic accounting as
/// [`partition_elements`] (`batch_elements` must be > 0).
fn batch_element_run(mesh: &HexMesh, elems: &[u32], batch_elements: usize) -> Vec<ElementBatch> {
    debug_assert!(batch_elements > 0, "batch size must be positive");
    let bytes_per_node = HexMesh::bytes_per_node();
    let mut batches = Vec::with_capacity(elems.len().div_ceil(batch_elements));
    let mut scratch: Vec<u32> = Vec::with_capacity(batch_elements.min(elems.len().max(1)) * 8);
    for run in elems.chunks(batch_elements) {
        scratch.clear();
        for &e in run {
            scratch.extend_from_slice(mesh.element_nodes(e as usize));
        }
        scratch.sort_unstable();
        scratch.dedup();
        let unique = scratch.len();
        batches.push(ElementBatch {
            first_element: run[0] as usize,
            num_elements: run.len(),
            unique_nodes: unique,
            bytes_in: unique * bytes_per_node,
            bytes_out: unique * bytes_out_per_node(),
        });
    }
    batches
}

/// Whole-mesh streaming summary for one RK stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingFootprint {
    /// Total bytes read from DDR per stage.
    pub bytes_in: usize,
    /// Total bytes written to DDR per stage.
    pub bytes_out: usize,
    /// Peak unique-node footprint of any batch (on-chip buffer sizing).
    pub peak_batch_nodes: usize,
}

/// Computes the aggregate streaming footprint for a given batch size.
///
/// # Errors
///
/// Propagates [`MeshError`] from [`partition_elements`].
pub fn streaming_footprint(
    mesh: &HexMesh,
    batch_elements: usize,
) -> Result<StreamingFootprint, MeshError> {
    let batches = partition_elements(mesh, batch_elements)?;
    Ok(StreamingFootprint {
        bytes_in: batches.iter().map(|b| b.bytes_in).sum(),
        bytes_out: batches.iter().map(|b| b.bytes_out).sum(),
        peak_batch_nodes: batches.iter().map(|b| b.unique_nodes).max().unwrap_or(0),
    })
}

/// How a [`ShardPlan`] assigns elements to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Balanced contiguous ascending element ranges.
    #[default]
    Contiguous,
    /// Halo-minimizing greedy KL-style recursive bisection over the
    /// element adjacency, seeded by the RCM ordering; falls back to the
    /// contiguous split when that happens to have the smaller halo.
    Partitioned,
}

impl std::fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionStrategy::Contiguous => write!(f, "contiguous"),
            PartitionStrategy::Partitioned => write!(f, "partitioned"),
        }
    }
}

/// One domain-decomposition shard: an ascending run of elements plus the
/// node-ownership and streaming metadata the shard-parallel executor
/// consumes (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    /// Element ids, sorted ascending (a contiguous range under
    /// [`PartitionStrategy::Contiguous`]).
    elements: Vec<u32>,
    owned_nodes: Vec<u32>,
    shared_nodes: Vec<u32>,
    neighbors: Vec<u32>,
    unique_nodes: usize,
    batches: Vec<ElementBatch>,
}

impl Shard {
    /// Shard index within its [`ShardPlan`].
    pub fn index(&self) -> usize {
        self.index
    }

    /// Lowest element id of the shard (0 for an empty shard).
    pub fn first_element(&self) -> usize {
        self.elements.first().copied().unwrap_or(0) as usize
    }

    /// Number of elements in the shard.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// The shard's element ids, sorted ascending.
    pub fn elements(&self) -> &[u32] {
        &self.elements
    }

    /// Nodes this shard owns (sorted ascending; disjoint across shards,
    /// and the union over all shards covers every mesh node).
    pub fn owned_nodes(&self) -> &[u32] {
        &self.owned_nodes
    }

    /// Halo nodes: touched by this shard's elements but owned by another
    /// shard (sorted ascending).
    pub fn shared_nodes(&self) -> &[u32] {
        &self.shared_nodes
    }

    /// Neighboring shard indices (sorted ascending, never containing the
    /// shard itself): shards sharing at least one frontier node with this
    /// one. The relation is symmetric by construction, which is what lets
    /// a neighbor-to-neighbor halo exchange terminate: a device expecting
    /// one message per neighbor is expected by each of those neighbors in
    /// turn. The set of shards a device *sends* to (neighbors owning one
    /// of its shared nodes) is a subset of this list, so posting one —
    /// possibly empty — buffer per neighbor covers every send.
    pub fn neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Unique nodes the shard's elements touch (gather footprint,
    /// computed from connectivity). Can be smaller than owned + shared
    /// on degenerate meshes: nodes referenced by no element fall back to
    /// shard 0's *owned* set without being touched by it.
    pub fn unique_nodes(&self) -> usize {
        self.unique_nodes
    }

    /// The shard's element list re-batched for the streaming pipeline.
    pub fn batches(&self) -> &[ElementBatch] {
        &self.batches
    }

    /// Bytes read from DDR per RK stage for this shard (sum over its
    /// streaming batches — shared nodes between batches are re-read).
    pub fn bytes_in(&self) -> usize {
        self.batches.iter().map(|b| b.bytes_in).sum()
    }

    /// Bytes written back to DDR per RK stage for this shard.
    pub fn bytes_out(&self) -> usize {
        self.batches.iter().map(|b| b.bytes_out).sum()
    }

    /// Total DDR traffic of the shard per RK stage.
    pub fn total_bytes(&self) -> usize {
        self.bytes_in() + self.bytes_out()
    }
}

/// A domain decomposition of a mesh into element shards with
/// lowest-toucher node ownership (see the module docs for the
/// determinism argument this layout supports).
///
/// # Example
///
/// ```
/// use fem_mesh::{generator::BoxMeshBuilder, partition::ShardPlan};
/// let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
/// let plan = ShardPlan::new(&mesh, 4).unwrap();
/// assert_eq!(plan.num_shards(), 4);
/// let owned: usize = plan.shards().iter().map(|s| s.owned_nodes().len()).sum();
/// assert_eq!(owned, mesh.num_nodes());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    strategy: PartitionStrategy,
    num_elements: usize,
    num_nodes: usize,
    shards: Vec<Shard>,
    /// Owning shard of every node.
    owner: Vec<u32>,
    /// Per node, whether ≥ 2 shards touch it.
    frontier: Vec<bool>,
}

impl ShardPlan {
    /// Decomposes `mesh` into `shards` balanced contiguous element
    /// shards, streaming each shard as a single batch. `shards` is
    /// clamped to the element count, so every shard is non-empty —
    /// callers that label results by shard count should read the
    /// effective [`ShardPlan::num_shards`] back rather than echo the
    /// requested value.
    ///
    /// # Errors
    ///
    /// [`MeshError::InvalidParameter`] if `shards == 0`.
    pub fn new(mesh: &HexMesh, shards: usize) -> Result<ShardPlan, MeshError> {
        Self::with_batch(mesh, shards, usize::MAX)
    }

    /// Like [`ShardPlan::new`], but re-batches each shard's element list
    /// into streaming batches of at most `batch_elements` elements.
    ///
    /// # Errors
    ///
    /// [`MeshError::InvalidParameter`] if `shards == 0` or
    /// `batch_elements == 0`.
    pub fn with_batch(
        mesh: &HexMesh,
        shards: usize,
        batch_elements: usize,
    ) -> Result<ShardPlan, MeshError> {
        Self::with_strategy(mesh, shards, batch_elements, PartitionStrategy::Contiguous)
    }

    /// The general constructor: decomposes `mesh` into (up to) `shards`
    /// shards under `strategy`, re-batching each shard's element list
    /// into runs of at most `batch_elements`.
    ///
    /// # Errors
    ///
    /// [`MeshError::InvalidParameter`] if `shards == 0` or
    /// `batch_elements == 0`.
    pub fn with_strategy(
        mesh: &HexMesh,
        shards: usize,
        batch_elements: usize,
        strategy: PartitionStrategy,
    ) -> Result<ShardPlan, MeshError> {
        if shards == 0 {
            return Err(MeshError::InvalidParameter(
                "shard count must be positive".into(),
            ));
        }
        if batch_elements == 0 {
            return Err(MeshError::InvalidParameter(
                "batch size must be positive".into(),
            ));
        }
        let ne = mesh.num_elements();
        let nshards = shards.min(ne).max(1);
        let parts = match strategy {
            PartitionStrategy::Contiguous => contiguous_parts(ne, nshards),
            PartitionStrategy::Partitioned => {
                let candidate = graph_partition(mesh, nshards);
                let baseline = contiguous_parts(ne, nshards);
                // The refined bisection should beat the numbering-derived
                // split, but greedy refinement carries no guarantee — keep
                // whichever layout has the smaller (unique halo,
                // reduction volume), so Partitioned is never worse.
                if halo_metrics(mesh, &candidate) <= halo_metrics(mesh, &baseline) {
                    candidate
                } else {
                    baseline
                }
            }
        };
        Ok(Self::from_parts(mesh, parts, batch_elements, strategy))
    }

    /// Builds the plan metadata (ownership, frontier flags, halo lists,
    /// batches) for an element assignment. Each part must be sorted
    /// ascending; together they must cover every element exactly once.
    fn from_parts(
        mesh: &HexMesh,
        parts: Vec<Vec<u32>>,
        batch_elements: usize,
        strategy: PartitionStrategy,
    ) -> ShardPlan {
        let ne = mesh.num_elements();
        let nn = mesh.num_nodes();
        let nshards = parts.len();

        // Lowest-toucher ownership plus per-node touching-shard counts
        // (shards are visited in index order, so the first claim is the
        // lowest-indexed toucher). Nodes no element references fall to
        // shard 0 so the owned sets always cover every node.
        const UNOWNED: u32 = u32::MAX;
        let mut owner = vec![UNOWNED; nn];
        let mut touch = vec![0u32; nn];
        let mut stamp = vec![u32::MAX; nn];
        for (s, part) in parts.iter().enumerate() {
            for &e in part {
                for &n in mesh.element_nodes(e as usize) {
                    let ni = n as usize;
                    if owner[ni] == UNOWNED {
                        owner[ni] = s as u32;
                    }
                    if stamp[ni] != s as u32 {
                        stamp[ni] = s as u32;
                        touch[ni] += 1;
                    }
                }
            }
        }
        for slot in &mut owner {
            if *slot == UNOWNED {
                *slot = 0;
            }
        }
        let frontier: Vec<bool> = touch.iter().map(|&t| t >= 2).collect();

        // Neighbor lists: shards a, b are neighbors iff some frontier
        // node is touched by both. Collect the distinct touching shards
        // of every frontier node (stamp-deduplicated, like the touch
        // counts above), then make every toucher pair mutual — the
        // symmetry the exchange protocol's termination leans on.
        stamp.fill(u32::MAX);
        let mut touchers: Vec<Vec<u32>> = vec![Vec::new(); nn];
        for (s, part) in parts.iter().enumerate() {
            for &e in part {
                for &n in mesh.element_nodes(e as usize) {
                    let ni = n as usize;
                    if frontier[ni] && stamp[ni] != s as u32 {
                        stamp[ni] = s as u32;
                        touchers[ni].push(s as u32);
                    }
                }
            }
        }
        let mut neighbor_sets: Vec<Vec<u32>> = vec![Vec::new(); nshards];
        for list in &touchers {
            for &a in list {
                for &b in list {
                    if a != b {
                        neighbor_sets[a as usize].push(b);
                    }
                }
            }
        }
        for set in &mut neighbor_sets {
            set.sort_unstable();
            set.dedup();
        }

        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nshards];
        for (n, &s) in owner.iter().enumerate() {
            owned[s as usize].push(n as u32);
        }

        let mut plan_shards = Vec::with_capacity(nshards);
        let mut touched: Vec<u32> = Vec::new();
        for (s, part) in parts.into_iter().enumerate() {
            debug_assert!(part.windows(2).all(|w| w[0] < w[1]), "part not ascending");
            touched.clear();
            for &e in &part {
                touched.extend_from_slice(mesh.element_nodes(e as usize));
            }
            touched.sort_unstable();
            touched.dedup();
            let shared_nodes: Vec<u32> = touched
                .iter()
                .copied()
                .filter(|&n| owner[n as usize] != s as u32)
                .collect();
            let batches = batch_element_run(mesh, &part, batch_elements.min(part.len().max(1)));
            plan_shards.push(Shard {
                index: s,
                owned_nodes: std::mem::take(&mut owned[s]),
                shared_nodes,
                neighbors: std::mem::take(&mut neighbor_sets[s]),
                unique_nodes: touched.len(),
                batches,
                elements: part,
            });
        }
        ShardPlan {
            strategy,
            num_elements: ne,
            num_nodes: nn,
            shards: plan_shards,
            owner,
            frontier,
        }
    }

    /// The strategy the plan was built with.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Number of shards (≥ 1, ≤ element count).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Elements of the mesh the plan was built for.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Nodes of the mesh the plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The shards, in shard-index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The owning shard of every node (`owners()[n]` is the index of the
    /// shard whose `owned_nodes` contain `n`).
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// Per mesh node, whether two or more shards touch it. Only frontier
    /// nodes need the deterministic cross-shard merge; an interior node's
    /// single toucher can scatter directly (see the module docs).
    pub fn frontier(&self) -> &[bool] {
        &self.frontier
    }

    /// Streamed-DDR-bytes load imbalance: the largest per-shard DDR
    /// traffic over the mean (1.0 = perfectly balanced). This weights
    /// shards by what the dataflow emulation actually schedules — bytes
    /// moved, not raw element counts (see
    /// [`ShardPlan::element_imbalance`] for the count-based metric).
    pub fn load_imbalance(&self) -> f64 {
        let bytes: Vec<usize> = self.shards.iter().map(Shard::total_bytes).collect();
        let max = bytes.iter().copied().max().unwrap_or(0);
        let mean = bytes.iter().sum::<usize>() as f64 / self.shards.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max as f64 / mean
        }
    }

    /// Element-count load imbalance: largest shard element count over the
    /// mean (1.0 = perfectly balanced).
    pub fn element_imbalance(&self) -> f64 {
        let max = self
            .shards
            .iter()
            .map(Shard::num_elements)
            .max()
            .unwrap_or(0);
        let mean = self.num_elements as f64 / self.shards.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max as f64 / mean
        }
    }

    /// Cross-shard reduction volume: shared-node records summed over all
    /// shards (a node shared by *k* non-owner shards contributes *k*
    /// entries — this is a traffic count, **not** a node count; see
    /// [`ShardPlan::unique_halo_nodes`] for the deduplicated quantity).
    pub fn halo_entries(&self) -> usize {
        self.shards.iter().map(|s| s.shared_nodes.len()).sum()
    }

    /// Number of distinct halo (frontier) nodes — nodes touched by two or
    /// more shards. Bounded by the mesh node count, unlike
    /// [`ShardPlan::halo_entries`].
    pub fn unique_halo_nodes(&self) -> usize {
        self.frontier.iter().filter(|&&f| f).count()
    }

    /// Unique halo nodes over total mesh nodes — always within
    /// `0.0 ..= 1.0`.
    pub fn halo_fraction(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.unique_halo_nodes() as f64 / self.num_nodes as f64
        }
    }

    /// Aggregate DDR bytes read per RK stage over all shards.
    pub fn total_bytes_in(&self) -> usize {
        self.shards.iter().map(Shard::bytes_in).sum()
    }

    /// Aggregate DDR bytes written per RK stage over all shards.
    pub fn total_bytes_out(&self) -> usize {
        self.shards.iter().map(Shard::bytes_out).sum()
    }

    /// Approximate resident bytes of the plan: per-shard element/node id
    /// lists and batch metadata plus the plan-wide owner/frontier maps.
    pub fn memory_bytes(&self) -> usize {
        let per_shard: usize = self
            .shards
            .iter()
            .map(|s| {
                (s.elements.len() + s.owned_nodes.len() + s.shared_nodes.len() + s.neighbors.len())
                    * std::mem::size_of::<u32>()
                    + s.batches.len() * std::mem::size_of::<ElementBatch>()
            })
            .sum();
        per_shard
            + self.owner.len() * std::mem::size_of::<u32>()
            + self.frontier.len() * std::mem::size_of::<bool>()
    }
}

/// Balanced contiguous ascending element ranges: the first `rem` parts
/// get one extra element, so no part is empty and |max − min| ≤ 1.
fn contiguous_parts(ne: usize, nshards: usize) -> Vec<Vec<u32>> {
    let base = ne / nshards;
    let rem = ne % nshards;
    let mut parts = Vec::with_capacity(nshards);
    let mut first = 0u32;
    for s in 0..nshards {
        let count = (base + usize::from(s < rem)) as u32;
        parts.push((first..first + count).collect());
        first += count;
    }
    debug_assert_eq!(first as usize, ne);
    parts
}

/// Halo quality of an element assignment, cheap enough to compare
/// candidate layouts before committing: (unique frontier nodes,
/// cross-shard reduction entries), lexicographically comparable.
fn halo_metrics(mesh: &HexMesh, parts: &[Vec<u32>]) -> (usize, usize) {
    let nn = mesh.num_nodes();
    let mut touch = vec![0u32; nn];
    let mut stamp = vec![u32::MAX; nn];
    for (s, part) in parts.iter().enumerate() {
        for &e in part {
            for &n in mesh.element_nodes(e as usize) {
                let ni = n as usize;
                if stamp[ni] != s as u32 {
                    stamp[ni] = s as u32;
                    touch[ni] += 1;
                }
            }
        }
    }
    let frontier = touch.iter().filter(|&&t| t >= 2).count();
    let entries: usize = touch.iter().map(|&t| (t as usize).saturating_sub(1)).sum();
    (frontier, entries)
}

/// Element adjacency graph: two elements are adjacent when they share a
/// node. Lists are sorted ascending.
fn element_adjacency(mesh: &HexMesh) -> Vec<Vec<u32>> {
    let ne = mesh.num_elements();
    let mut node_elems: Vec<Vec<u32>> = vec![Vec::new(); mesh.num_nodes()];
    for e in 0..ne {
        for &n in mesh.element_nodes(e) {
            node_elems[n as usize].push(e as u32);
        }
    }
    let mut adj = Vec::with_capacity(ne);
    let mut nbrs: Vec<u32> = Vec::new();
    for e in 0..ne {
        nbrs.clear();
        for &n in mesh.element_nodes(e) {
            nbrs.extend_from_slice(&node_elems[n as usize]);
        }
        nbrs.sort_unstable();
        nbrs.dedup();
        if let Ok(i) = nbrs.binary_search(&(e as u32)) {
            nbrs.remove(i);
        }
        adj.push(nbrs.clone());
    }
    adj
}

/// Per-element seed keys for the bisection ordering: the minimum RCM
/// rank over the element's nodes. Sorting elements by this key walks
/// them along the RCM front, so the initial cut of every bisection is
/// already a locality-respecting split.
fn rcm_element_keys(mesh: &HexMesh) -> Vec<u32> {
    let perm = rcm_permutation(mesh);
    (0..mesh.num_elements())
        .map(|e| {
            mesh.element_nodes(e)
                .iter()
                .map(|&n| perm[n as usize])
                .min()
                .unwrap_or(0)
        })
        .collect()
}

/// Greedy KL-style recursive bisection of the element graph into
/// `nshards` balanced parts (each sorted ascending).
fn graph_partition(mesh: &HexMesh, nshards: usize) -> Vec<Vec<u32>> {
    let ne = mesh.num_elements();
    let adj = element_adjacency(mesh);
    let keys = rcm_element_keys(mesh);
    let mut parts = Vec::with_capacity(nshards);
    bisect(
        (0..ne as u32).collect(),
        nshards,
        &adj,
        &keys,
        ne,
        &mut parts,
    );
    parts
}

/// Recursively bisects `elems` into `nparts` parts: RCM-ordered initial
/// cut at the proportional balance point, then greedy pair-swap
/// refinement of the edge cut.
fn bisect(
    mut elems: Vec<u32>,
    nparts: usize,
    adj: &[Vec<u32>],
    keys: &[u32],
    ne: usize,
    out: &mut Vec<Vec<u32>>,
) {
    if nparts <= 1 {
        elems.sort_unstable();
        out.push(elems);
        return;
    }
    let left_parts = nparts / 2;
    let right_parts = nparts - left_parts;
    elems.sort_unstable_by_key(|&e| (keys[e as usize], e));
    let n = elems.len();
    // Proportional cut, clamped so each side keeps ≥ 1 element per part.
    let cut = (n * left_parts / nparts).clamp(left_parts, n - right_parts);
    let mut right = elems.split_off(cut);
    let mut left = elems;
    refine_cut(&mut left, &mut right, adj, ne);
    bisect(left, left_parts, adj, keys, ne, out);
    bisect(right, right_parts, adj, keys, ne, out);
}

/// Greedy KL-style refinement: repeatedly swaps the best element pair
/// across the cut while the edge cut strictly improves. Swaps (rather
/// than moves) keep both sides' sizes exact, so the refinement never
/// degrades the balance the proportional cut established.
fn refine_cut(a: &mut [u32], b: &mut [u32], adj: &[Vec<u32>], ne: usize) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    const OUT: u8 = 0;
    const SIDE_A: u8 = 1;
    const SIDE_B: u8 = 2;
    let mut side = vec![OUT; ne];
    for &e in a.iter() {
        side[e as usize] = SIDE_A;
    }
    for &e in b.iter() {
        side[e as usize] = SIDE_B;
    }
    // gain[e] = (neighbors across the cut) − (neighbors on e's side),
    // restricted to this sub-problem: the cut reduction if `e` crossed
    // over alone.
    let gain_of = |e: u32, side: &[u8]| -> i64 {
        let s = side[e as usize];
        let mut g = 0i64;
        for &w in &adj[e as usize] {
            let t = side[w as usize];
            if t == OUT {
                continue;
            }
            if t == s {
                g -= 1;
            } else {
                g += 1;
            }
        }
        g
    };
    let mut gain = vec![0i64; ne];
    for &e in a.iter().chain(b.iter()) {
        gain[e as usize] = gain_of(e, &side);
    }
    // Each positive-gain swap strictly reduces the cut, so the loop
    // terminates; the cap is a safety net, not the expected exit.
    let max_swaps = a.len().min(b.len()).max(1) * 4;
    for _ in 0..max_swaps {
        let pick = |side_elems: &[u32], gain: &[i64]| -> usize {
            let mut best = 0;
            for (i, &e) in side_elems.iter().enumerate() {
                let (g, bg) = (gain[e as usize], gain[side_elems[best] as usize]);
                if g > bg || (g == bg && e < side_elems[best]) {
                    best = i;
                }
            }
            best
        };
        let ia = pick(a, &gain);
        let ib = pick(b, &gain);
        let (ea, eb) = (a[ia], b[ib]);
        // If the pair is adjacent, their shared edge stays cut after the
        // swap even though both individual gains claimed it.
        let linked = adj[ea as usize].binary_search(&eb).is_ok();
        let total = gain[ea as usize] + gain[eb as usize] - if linked { 2 } else { 0 };
        if total <= 0 {
            break;
        }
        a[ia] = eb;
        b[ib] = ea;
        side[ea as usize] = SIDE_B;
        side[eb as usize] = SIDE_A;
        for &e in [ea, eb].iter() {
            gain[e as usize] = gain_of(e, &side);
            for &w in &adj[e as usize] {
                if side[w as usize] != OUT {
                    gain[w as usize] = gain_of(w, &side);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoxMeshBuilder;
    use proptest::prelude::*;

    #[test]
    fn zero_batch_size_rejected() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        assert!(partition_elements(&mesh, 0).is_err());
    }

    #[test]
    fn batches_cover_all_elements_without_overlap() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let batches = partition_elements(&mesh, 10).unwrap();
        let mut next = 0;
        for b in &batches {
            assert_eq!(b.first_element, next);
            next += b.num_elements;
        }
        assert_eq!(next, mesh.num_elements());
    }

    #[test]
    fn unique_nodes_bounded_by_gather_size() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let npe = mesh.nodes_per_element();
        for b in partition_elements(&mesh, 7).unwrap() {
            assert!(b.unique_nodes <= b.num_elements * npe);
            assert!(b.unique_nodes >= npe); // at least one element's nodes
            assert_eq!(b.bytes_in, b.unique_nodes * HexMesh::bytes_per_node());
        }
    }

    #[test]
    fn footprint_peak_shrinks_with_batch_size() {
        let mesh = BoxMeshBuilder::tgv_box(5).build().unwrap();
        let small = streaming_footprint(&mesh, 4).unwrap();
        let large = streaming_footprint(&mesh, 64).unwrap();
        assert!(small.peak_batch_nodes <= large.peak_batch_nodes);
        // Shared nodes between batches are re-read: smaller batches cannot
        // reduce the total input traffic.
        assert!(small.bytes_in >= large.bytes_in);
    }

    #[test]
    fn zero_shards_rejected() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        assert!(ShardPlan::new(&mesh, 0).is_err());
        assert!(ShardPlan::with_batch(&mesh, 2, 0).is_err());
        assert!(
            ShardPlan::with_strategy(&mesh, 0, usize::MAX, PartitionStrategy::Partitioned).is_err()
        );
    }

    #[test]
    fn shard_count_clamps_to_element_count() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap(); // 27 elements
        let plan = ShardPlan::new(&mesh, 1000).unwrap();
        assert_eq!(plan.num_shards(), 27);
        assert!(plan.shards().iter().all(|s| s.num_elements() == 1));
        assert!((plan.element_imbalance() - 1.0).abs() < 1e-12);
        // Single-element shards all stream the same byte count, so the
        // traffic-weighted imbalance is exact too.
        assert!((plan.load_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_shard_owns_everything() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Partitioned,
        ] {
            let plan = ShardPlan::with_strategy(&mesh, 1, usize::MAX, strategy).unwrap();
            assert_eq!(plan.num_shards(), 1);
            let s = &plan.shards()[0];
            assert_eq!(s.owned_nodes().len(), mesh.num_nodes());
            assert!(s.shared_nodes().is_empty());
            assert_eq!(plan.halo_entries(), 0);
            assert_eq!(plan.unique_halo_nodes(), 0);
            assert_eq!(plan.halo_fraction(), 0.0);
            assert!(plan.frontier().iter().all(|&f| !f));
            assert_eq!(s.batches().len(), 1);
            assert_eq!(s.bytes_in(), mesh.num_nodes() * HexMesh::bytes_per_node());
        }
    }

    #[test]
    fn shard_batching_respects_batch_size() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap(); // 64 elements
        let plan = ShardPlan::with_batch(&mesh, 4, 5).unwrap();
        for s in plan.shards() {
            assert_eq!(s.num_elements(), 16);
            assert_eq!(s.batches().len(), 4); // ceil(16 / 5)
            let covered: usize = s.batches().iter().map(|b| b.num_elements).sum();
            assert_eq!(covered, s.num_elements());
            assert_eq!(s.batches()[0].first_element, s.first_element());
        }
    }

    #[test]
    fn contiguous_shards_are_ascending_ranges() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let plan = ShardPlan::new(&mesh, 5).unwrap();
        let mut next = 0u32;
        for s in plan.shards() {
            assert_eq!(s.elements()[0], next);
            assert!(s.elements().windows(2).all(|w| w[1] == w[0] + 1));
            next += s.num_elements() as u32;
        }
        assert_eq!(next as usize, mesh.num_elements());
    }

    #[test]
    fn partitioned_halo_never_worse_than_contiguous() {
        // The tentpole guarantee the `repro sharding` CI gate leans on:
        // at every swept shard count, on periodic and walled boxes alike.
        for periodic in [true, false] {
            let mut b = BoxMeshBuilder::new();
            b.elements(6, 6, 6).periodic(periodic, periodic, periodic);
            let mesh = b.build().unwrap();
            for shards in [2usize, 4, 8, 16] {
                let c = ShardPlan::with_strategy(
                    &mesh,
                    shards,
                    usize::MAX,
                    PartitionStrategy::Contiguous,
                )
                .unwrap();
                let p = ShardPlan::with_strategy(
                    &mesh,
                    shards,
                    usize::MAX,
                    PartitionStrategy::Partitioned,
                )
                .unwrap();
                assert_eq!(p.num_shards(), c.num_shards());
                assert!(
                    p.unique_halo_nodes() <= c.unique_halo_nodes(),
                    "periodic={periodic} shards={shards}: partitioned {} > contiguous {}",
                    p.unique_halo_nodes(),
                    c.unique_halo_nodes()
                );
                assert!(p.halo_fraction() <= c.halo_fraction());
            }
        }
    }

    #[test]
    fn partitioned_cuts_walled_box_halo_below_contiguous() {
        // Element numbering runs x-fastest, so contiguous shards of this
        // elongated walled box are thin z-slabs cut across the large
        // 16×4 cross-section; the graph partitioner should instead cut
        // across the small 4×4 cross-section and land strictly below.
        let mut b = BoxMeshBuilder::new();
        b.elements(16, 4, 4).periodic(false, false, false);
        let mesh = b.build().unwrap();
        let c =
            ShardPlan::with_strategy(&mesh, 4, usize::MAX, PartitionStrategy::Contiguous).unwrap();
        let p =
            ShardPlan::with_strategy(&mesh, 4, usize::MAX, PartitionStrategy::Partitioned).unwrap();
        assert!(
            p.unique_halo_nodes() < c.unique_halo_nodes(),
            "partitioned {} not below contiguous {}",
            p.unique_halo_nodes(),
            c.unique_halo_nodes()
        );
    }

    #[test]
    fn halo_fraction_bounded_with_many_sharing_shards() {
        // Regression for the halo_fraction metric: a periodic 3³ box cut
        // into 27 single-element shards shares every node between 8
        // shards, so the per-sharing-shard entry count (`halo_entries`,
        // the old "fraction" numerator) far exceeds the node count while
        // the deduplicated fraction stays ≤ 1.
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let plan = ShardPlan::new(&mesh, 27).unwrap();
        let max_sharers = plan
            .shards()
            .iter()
            .flat_map(|s| s.shared_nodes().iter())
            .fold(vec![0u32; mesh.num_nodes()], |mut acc, &n| {
                acc[n as usize] += 1;
                acc
            })
            .into_iter()
            .max()
            .unwrap();
        assert!(max_sharers >= 3, "test mesh too weak: {max_sharers}");
        assert!(
            plan.halo_entries() > mesh.num_nodes(),
            "old metric must overflow"
        );
        assert!(plan.unique_halo_nodes() <= mesh.num_nodes());
        assert!((0.0..=1.0).contains(&plan.halo_fraction()));
    }

    proptest! {
        /// Shard partitions cover every element exactly once, owned-node
        /// sets are disjoint and complete, halo nodes are owned elsewhere,
        /// frontier flags match multi-shard touch, and the per-shard
        /// traffic accounting matches its batches — under BOTH partition
        /// strategies.
        #[test]
        fn prop_shard_plan_invariants(
            nx in 2usize..6,
            ny in 2usize..6,
            nz in 2usize..6,
            periodic in proptest::bool::ANY,
            shards in 1usize..12,
            batch in 1usize..30,
            partitioned in proptest::bool::ANY,
        ) {
            let mut b = BoxMeshBuilder::new();
            b.elements(nx, ny, nz).periodic(periodic, periodic, periodic);
            let mesh = match b.build() {
                Ok(m) => m,
                // Periodic axes need ≥ 3 elements; skip infeasible combos.
                Err(_) => return Ok(()),
            };
            let strategy = if partitioned {
                PartitionStrategy::Partitioned
            } else {
                PartitionStrategy::Contiguous
            };
            let plan = ShardPlan::with_strategy(&mesh, shards, batch, strategy).unwrap();
            prop_assert_eq!(plan.strategy(), strategy);

            // Coverage of every element exactly once, ascending per shard.
            let mut seen_e = vec![false; mesh.num_elements()];
            for s in plan.shards() {
                prop_assert!(s.num_elements() > 0);
                prop_assert!(s.elements().windows(2).all(|w| w[0] < w[1]));
                for &e in s.elements() {
                    prop_assert!(!seen_e[e as usize], "element {} assigned twice", e);
                    seen_e[e as usize] = true;
                }
            }
            prop_assert!(seen_e.iter().all(|&v| v), "elements dropped");

            // Owned sets: disjoint, complete, and consistent with owners().
            let mut seen = vec![false; mesh.num_nodes()];
            for s in plan.shards() {
                for &n in s.owned_nodes() {
                    prop_assert!(!seen[n as usize], "node {} owned twice", n);
                    seen[n as usize] = true;
                    prop_assert_eq!(plan.owners()[n as usize] as usize, s.index());
                }
            }
            prop_assert!(seen.iter().all(|&v| v), "owned sets incomplete");

            // Frontier flags match the number of distinct touching shards,
            // and shared nodes are exactly the touched-but-not-owned ones.
            let mut touch = vec![0u32; mesh.num_nodes()];
            let mut stamp = vec![u32::MAX; mesh.num_nodes()];
            for s in plan.shards() {
                for &e in s.elements() {
                    for &n in mesh.element_nodes(e as usize) {
                        if stamp[n as usize] != s.index() as u32 {
                            stamp[n as usize] = s.index() as u32;
                            touch[n as usize] += 1;
                        }
                    }
                }
            }
            for (n, &t) in touch.iter().enumerate() {
                prop_assert_eq!(plan.frontier()[n], t >= 2);
            }
            prop_assert_eq!(
                plan.unique_halo_nodes(),
                touch.iter().filter(|&&t| t >= 2).count()
            );
            prop_assert!((0.0..=1.0).contains(&plan.halo_fraction()));

            for s in plan.shards() {
                for &n in s.shared_nodes() {
                    let o = plan.owners()[n as usize] as usize;
                    prop_assert!(o != s.index());
                    prop_assert!(plan.frontier()[n as usize]);
                }
                // Traffic matches the shard's batches.
                let bin: usize = s.batches().iter().map(|b| b.bytes_in).sum();
                prop_assert_eq!(s.bytes_in(), bin);
                let total: usize = s.batches().iter().map(|b| b.num_elements).sum();
                prop_assert_eq!(total, s.num_elements());
            }
            prop_assert!(plan.load_imbalance() >= 1.0 - 1e-12);
            prop_assert!(plan.element_imbalance() >= 1.0 - 1e-12);
        }

        /// Neighbor lists are symmetric, self-free, and cover exactly the
        /// frontier: every pair of shards touching a common frontier node
        /// lists each other, and every listed pair shares at least one
        /// frontier node — under BOTH partition strategies.
        #[test]
        fn prop_neighbor_lists_symmetric_and_cover_the_frontier(
            nx in 2usize..6,
            ny in 2usize..6,
            nz in 2usize..6,
            periodic in proptest::bool::ANY,
            shards in 1usize..12,
            partitioned in proptest::bool::ANY,
        ) {
            let mut b = BoxMeshBuilder::new();
            b.elements(nx, ny, nz).periodic(periodic, periodic, periodic);
            let mesh = match b.build() {
                Ok(m) => m,
                Err(_) => return Ok(()),
            };
            let strategy = if partitioned {
                PartitionStrategy::Partitioned
            } else {
                PartitionStrategy::Contiguous
            };
            let plan = ShardPlan::with_strategy(&mesh, shards, usize::MAX, strategy).unwrap();
            let ns = plan.num_shards();

            // Model: distinct touching shards of every frontier node.
            let mut touchers: Vec<Vec<u32>> = vec![Vec::new(); mesh.num_nodes()];
            for s in plan.shards() {
                for &e in s.elements() {
                    for &n in mesh.element_nodes(e as usize) {
                        if plan.frontier()[n as usize] {
                            let list = &mut touchers[n as usize];
                            if !list.contains(&(s.index() as u32)) {
                                list.push(s.index() as u32);
                            }
                        }
                    }
                }
            }
            let mut expect: Vec<Vec<u32>> = vec![Vec::new(); ns];
            for list in &touchers {
                for &a in list {
                    for &b in list {
                        if a != b && !expect[a as usize].contains(&b) {
                            expect[a as usize].push(b);
                        }
                    }
                }
            }
            for e in &mut expect {
                e.sort_unstable();
            }

            for s in plan.shards() {
                // Sorted, self-free, in range.
                prop_assert!(s.neighbors().windows(2).all(|w| w[0] < w[1]));
                for &t in s.neighbors() {
                    prop_assert!((t as usize) < ns);
                    prop_assert!(t as usize != s.index());
                    // Symmetry.
                    prop_assert!(
                        plan.shards()[t as usize].neighbors().contains(&(s.index() as u32)),
                        "shard {} lists {} but not vice versa", s.index(), t
                    );
                }
                // Exactly the frontier-sharing pairs — no more, no less.
                prop_assert_eq!(s.neighbors(), expect[s.index()].as_slice());
                // Sends-to targets (owners of this shard's shared nodes)
                // are a subset of the neighbor list.
                for &n in s.shared_nodes() {
                    let o = plan.owners()[n as usize];
                    prop_assert!(s.neighbors().contains(&o));
                }
            }
            // A single-shard plan has no frontier and no neighbors.
            if ns == 1 {
                prop_assert!(plan.shards()[0].neighbors().is_empty());
            }
        }

        /// The partitioned strategy is never worse than contiguous on the
        /// (unique halo, reduction entries) metric it optimizes.
        #[test]
        fn prop_partitioned_not_worse(
            n in 3usize..6,
            shards in 2usize..10,
            periodic in proptest::bool::ANY,
        ) {
            let mut b = BoxMeshBuilder::new();
            b.elements(n, n, n).periodic(periodic, periodic, periodic);
            let mesh = b.build().unwrap();
            let c = ShardPlan::with_strategy(
                &mesh, shards, usize::MAX, PartitionStrategy::Contiguous).unwrap();
            let p = ShardPlan::with_strategy(
                &mesh, shards, usize::MAX, PartitionStrategy::Partitioned).unwrap();
            prop_assert!(p.unique_halo_nodes() <= c.unique_halo_nodes());
        }

        #[test]
        fn prop_batch_invariants(n in 3usize..6, batch in 1usize..40) {
            let mesh = BoxMeshBuilder::tgv_box(n).build().unwrap();
            let batches = partition_elements(&mesh, batch).unwrap();
            let total: usize = batches.iter().map(|b| b.num_elements).sum();
            prop_assert_eq!(total, mesh.num_elements());
            for b in &batches {
                prop_assert!(b.num_elements <= batch);
                prop_assert!(b.total_bytes() == b.bytes_in + b.bytes_out);
            }
        }
    }
}
