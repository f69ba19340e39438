#ifndef PSPC_SRC_DYNAMIC_DYNAMIC_SPC_INDEX_H_
#define PSPC_SRC_DYNAMIC_DYNAMIC_SPC_INDEX_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/build_options.h"
#include "src/digraph/digraph.h"
#include "src/dynamic/chunked_overlay.h"
#include "src/dynamic/dynamic_graph.h"
#include "src/dynamic/edge_update.h"
#include "src/dynamic/repair_core.h"
#include "src/graph/graph.h"
#include "src/label/spc_index.h"
#include "src/obs/flight_recorder.h"
#include "src/dynamic/stats_export.h"
#include "src/order/vertex_order.h"

/// Incremental maintenance of the ESPC 2-hop index under edge churn,
/// for both edge directions.
///
/// `DynamicIndex<GraphT>` wraps an immutable `SpcIndex` with one
/// persistent chunked label overlay (`chunked_overlay.h`) per distinct
/// label side and repairs labels in place of the full rebuild the
/// static pipeline would need. `DynamicSpcIndex` (`GraphT = Graph`)
/// keeps one label list per vertex; `DynamicDspcIndex` (`GraphT =
/// DiGraph`, paper §II-A) splits each label into an out side and an in
/// side. Everything below is written once over the out and in sides;
/// undirected, the in side *is* the out side, exactly as `SpcIndex`
/// aliases its in CSR, and the live graph (`DynamicGraph<GraphT>`,
/// dynamic_graph.h) keeps one delta map for both edge orientations.
/// The repair kernels run over one view template, `RepairView<GraphT,
/// kForward>` of repair_core.h, which fixes the side a hub writes and
/// the way a BFS expands; undirected, its forward and backward views
/// coincide. Repair by update kind:
///
///  * **Insertion** `u -> v` (undirected: `{u, v}`) — every changed
///    pair `(h, y)` gains a new shortest trough path `h .. u -> v .. y`
///    whose `h .. u` prefix is itself trough-shortest and therefore
///    recorded in the in-label of `u`. It suffices to run one *resumed
///    pruned BFS* per such hub, seeded at `v` with the hub's recorded
///    distance + 1 and trough count (the incremental scheme of dynamic
///    hub labeling, adapted to counts). The backward pass mirrors it:
///    hubs in the out-label of `v` resume from `u`. Undirected, both
///    passes share one seed list, so each hub runs once; directed, the
///    two run lists interleave in ascending rank order (a forward run's
///    pruning certificates read both label sides of higher-ranked hubs).
///
///  * **Deletion** — affected hubs are detected by a pruned partial
///    BFS from each endpoint over the pre-deletion graph: the BFS only
///    expands vertices with `d(x, u) + 1 == d(x, v)` (the edge lies on
///    one of their shortest paths to the far endpoint, answered by
///    2-hop queries), and classifies each as a *full sender* (every
///    shortest path to the far endpoint dies with the edge, so
///    distances from it can grow and its pruned restricted BFS is
///    re-run from scratch), a *subtractive sender* (a shared hub of
///    both endpoint labels that keeps alternative routes: provably
///    only its trough *counts* can drop, so a depth-capped BFS from
///    the far endpoint subtracts the through-edge path counts from the
///    existing entries directly — the workhorse that keeps deletions
///    cheap, since shared hubs are the high-ranked ones whose full
///    re-runs would each sweep most of the graph), or a mere
///    *receiver* (only entries stored at it change). Saturated counts
///    cannot be subtracted, so those hubs escalate to a full re-run.
///    Unlike the undirected cut, a vertex on a directed cycle through
///    the edge can sit on both sides; it then owes one repair per
///    direction, which touch disjoint label sides.
///
///  * **Batches** — `ApplyBatch` is atomic: the batch planner
///    (`batch_planner.h`; directed, `u -> v` and `v -> u` are distinct
///    edges) validates the whole batch against the pre-batch graph up
///    front (a bad update rejects the batch with nothing applied),
///    coalesces canceling pairs and redundant inserts to no-ops, and
///    reduces the rest to its net effect. Insertions coalesce: seeds
///    are gathered across all net-new edges and each (hub, direction)
///    runs one *multi-source* resumed BFS instead of one per (edge,
///    endpoint-entry). Directed net deletions replay the single-edge
///    path. Undirected deletion repair coalesces across the net-deleted
///    edges (batch_repair.cc): affected regions are detected per edge
///    against the still-exact pre-batch index, all edges are removed at
///    once, and each affected hub repairs **once** — a hub shared by
///    several regions escalates to a single full re-run over the union
///    of the opposite regions instead of one run per edge. Hubs repair
///    one at a time in ascending rank order (the construction-order
///    dependency: a re-run prunes against higher-ranked hubs' labels,
///    which must already be repaired).
///
/// Between rebuilds the maintained labels satisfy: every pair with a
/// positive trough count at the true shortest distance has a correct
/// entry, and any extra (stale) entry records a distance strictly
/// longer than the true one — such entries can never reach the minimum
/// in the query merge, so queries stay exact while the index slowly
/// accretes garbage. Deletions are the one place this invariant needs
/// active defense: a grown pair distance can *meet* a stale entry's
/// recorded distance, so any hub whose distance to the opposite region
/// grew re-runs whenever an opposite label still holds an entry for it
/// (see `repair::RepairEdgeDeletionPair`). The staleness policy
/// watches the overlay size (each distinct label side counted once)
/// and folds everything into a fresh rebuild through the static
/// pipeline of the edge direction (builder_facade, re-ordering
/// included, undirected; `BuildDirectedPspcIndex` under
/// `DirectedDegreeOrder`, directed) past a threshold.
///
/// Scope: unweighted graphs over a fixed vertex universe `[0, n)`;
/// saturated counts remain saturating (as everywhere in the library).
///
/// Threading: the index itself is externally single-threaded (one
/// thread of control for reads and writes). Every hub repair runs on
/// the calling thread; only a deletion's stale-entry erasure sweep and
/// the staleness rebuild use OpenMP teams internally. Concurrent
/// serving goes through `src/serve/`: a writer thread applies updates
/// here and publishes immutable `IndexSnapshot` generations (captured
/// via `Generation()`, `SharedBaseIndex()` and `CaptureOverlays()`),
/// which readers query without ever touching this object. Capture is
/// O(delta since the previous capture) per label side: it freezes the
/// chunked overlays by structural sharing instead of deep-copying
/// them.
namespace pspc {

// DynamicOptions and DynamicStats (and the repair scratch/view/kernel
// machinery) live in repair_core.h.

template <class GraphT>
class DynamicIndex {
 public:
  static constexpr bool kDirected = std::is_same_v<GraphT, DiGraph>;
  /// Distinct label sides: out and in when directed, one otherwise.
  static constexpr size_t kLabelSides = kDirected ? 2 : 1;

  /// Wraps a prebuilt index of the same edge direction. `graph` must
  /// be the exact graph `index` was built from.
  DynamicIndex(GraphT graph, SpcIndex index, DynamicOptions options = {});

  /// Builds the initial index for `graph` through the static pipeline
  /// of its edge direction (see the class comment).
  DynamicIndex(GraphT graph, const BuildOptions& build_options,
               DynamicOptions options = {});

  // Self-referential (graph/label views point into owned members).
  DynamicIndex(const DynamicIndex&) = delete;
  DynamicIndex& operator=(const DynamicIndex&) = delete;

  /// Distance and exact shortest-path count s -> t on the *current*
  /// graph.
  SpcResult Query(VertexId s, VertexId t) const;

  /// Single-edge updates; label repair runs before returning. Errors
  /// (self-loop, out-of-range, duplicate insert, missing delete) leave
  /// the index untouched. Directed, `u -> v` and `v -> u` are distinct
  /// edges.
  Status InsertEdge(VertexId u, VertexId v);
  Status DeleteEdge(VertexId u, VertexId v);
  Status Apply(const EdgeUpdate& update) {
    return update.kind == EdgeUpdateKind::kInsert
               ? InsertEdge(update.u, update.v)
               : DeleteEdge(update.u, update.v);
  }

  /// Applies the batch *atomically* with coalesced repair. The whole
  /// batch is validated against the pre-batch graph up front — on any
  /// error (out-of-range endpoint, self-loop, delete of a missing
  /// edge) nothing is applied and the index is untouched. Canceling
  /// pairs (`i u v` then `d u v`), redundant inserts (duplicates, or
  /// an edge the graph already has) and delete+reinsert round trips
  /// coalesce to no-ops; the net updates repair as the class comment
  /// describes. Publishes one generation bump for the whole batch.
  Status ApplyBatch(const EdgeUpdateBatch& batch);

  /// Overlay entries (each distinct label side once) relative to base
  /// entries — what the staleness policy compares against
  /// `rebuild_threshold`.
  double StalenessRatio() const;

  /// Forces the full rebuild the staleness policy would trigger.
  void Rebuild();

  /// Folds the overlay into a fresh base without re-construction: a
  /// linear pass materializes base (+) overlay into a new `SpcIndex`
  /// (same vertex order, no BFS) and rebases the overlay to empty. On
  /// the way it drops the stale entries of repaired vertices: `(v, h,
  /// d)` goes when `d` exceeds the index's own (exact) distance from
  /// `v` to `vertex(h)`. Such an entry never reaches the minimum of a
  /// query merge (`d + d' > sd(v,h) + sd(h,t) >= sd(v,t)`), so every
  /// answer is bit-identical before and after. Bumps the generation
  /// like `Rebuild()`; snapshots captured earlier keep the old base.
  /// Writer thread only. Returns the number of entries pruned.
  uint64_t Fold() requires(!kDirected);

  bool Directed() const { return kDirected; }
  VertexId NumVertices() const { return graph_.NumVertices(); }
  EdgeId NumEdges() const { return graph_.NumEdges(); }

  /// True iff `u -> v` (undirected: `{u, v}`) is an edge of the
  /// current graph.
  bool HasEdge(VertexId u, VertexId v) const { return graph_.HasEdge(u, v); }

  /// Current labels of `v` (base or overlay), rank-sorted.
  std::span<const LabelEntry> OutLabels(VertexId v) const {
    return OutOverlay().Labels(v);
  }
  std::span<const LabelEntry> InLabels(VertexId v) const {
    return InOverlay().Labels(v);
  }
  std::span<const LabelEntry> Labels(VertexId v) const requires(!kDirected) {
    return OutLabels(v);
  }

  /// CSR snapshot of the current graph.
  GraphT MaterializeGraph() const { return graph_.Materialize(); }

  /// Monotone label-state version: bumped by every applied update
  /// (once per coalesced batch) and every rebuild.
  /// `IndexSnapshot::Capture` tags snapshots with it so the serving
  /// layer can tell whether anything changed since the last published
  /// generation.
  uint64_t Generation() const { return generation_; }

  /// Shared ownership of the current immutable base. Snapshots hold
  /// this so a later Rebuild cannot free the label arrays out from
  /// under a reader still querying them.
  std::shared_ptr<const SpcIndex> SharedBaseIndex() const { return base_; }

  /// Freezes each distinct label side's overlay into a structurally
  /// shared view (out first) and advances its capture boundary
  /// (`ChunkedOverlay::Capture`). Writer thread only —
  /// `IndexSnapshot::Capture` is the one intended caller.
  std::array<OverlayView, kLabelSides> CaptureOverlays();

  /// The live chunked overlays (diagnostics: overlaid/copied counts).
  /// Undirected, all three are the one overlay.
  const ChunkedOverlay& OutOverlay() const { return overlays_.front(); }
  const ChunkedOverlay& InOverlay() const { return overlays_.back(); }
  const ChunkedOverlay& Overlay() const requires(!kDirected) {
    return overlays_.front();
  }

  const SpcIndex& BaseIndex() const { return *base_; }
  const VertexOrder& Order() const { return order_; }
  const DynamicStats& Stats() const { return stats_; }
  const DynamicOptions& Options() const { return options_; }

 private:
  using ForwardView = RepairView<GraphT, true>;
  // Undirected, the backward view is the forward one, type included, so
  // each kernel is instantiated once.
  using BackwardView = RepairView<GraphT, !kDirected>;

  /// Compressed per-(edge, side) region of a coalesced deletion batch.
  /// `flags` parallels `touched` (values as in AffectedSide): the batch
  /// classifier needs *every* membership — a hub that is merely a
  /// receiver for two different edges can still see entangled distance
  /// growth no single-edge certificate covers, so multi-region
  /// membership of any class escalates to a full re-run. `full_pre`
  /// parallels `full_ranks` with the pre-deletion distance from the
  /// side's endpoint to each full sender — all the distance-change
  /// filter ever reads, so nothing n-sized outlives planning.
  struct SparseSide {
    std::vector<VertexId> touched;
    std::vector<int8_t> flags;
    std::vector<Rank> full_ranks;
    std::vector<Rank> subtract_ranks;
    std::vector<uint32_t> full_pre;
  };

  /// One repair obligation of a coalesced deletion batch: a hub that
  /// re-runs fully or subtracts, writing into the union of the listed
  /// (edge, side) regions.
  struct DeletionTask {
    Rank rank = 0;
    bool subtract = false;
    VertexId start = 0;       // subtract: far endpoint the BFS seeds from
    uint32_t seed_dist = 0;   // subtract: entry dist + 1 across the edge
    Count seed_count = 0;     // subtract: through-edge trough count
    uint32_t depth_cap = 0;   // subtract: farthest entry dist to fix
    // (edge index, side index) write regions; opposite the hub's side.
    std::vector<std::pair<uint32_t, uint8_t>> regions;
  };
  struct DeletedEdgePlan;

  void RebaseOverlays();
  size_t OverlaidEntries() const;
  void MaybeRebuild() {
    if (StalenessRatio() > options_.rebuild_threshold) Rebuild();
  }
  /// Mirrors `stats_` deltas into the registry and refreshes the
  /// overlay/generation gauges; tail of every public mutation.
  void PublishMetrics();
  /// The erasure sweep's team size: `num_threads` (<= 0: all cores),
  /// capped by the OpenMP environment.
  int SweepThreads() const {
    return options_.num_threads > 0
               ? std::min(options_.num_threads, MaxThreads())
               : MaxThreads();
  }

  /// The kernel views over the live graph, overlays and order. The
  /// forward view covers hubs' out-reach (expansion over out-edges,
  /// entries written to in-labels), the backward view the mirror
  /// image; undirected, both are the same view.
  ForwardView Forward();
  BackwardView Backward();

  // ------------------------------------------------------- insertion
  /// Coalesced insertion repair across `edges` (already applied to the
  /// graph): one multi-source resumed BFS per (hub, direction), in
  /// ascending rank order.
  void RepairInsertions(
      std::span<const std::pair<VertexId, VertexId>> edges);

  // -------------------------------------------------------- deletion
  void RepairDeletion(VertexId u, VertexId v);
  // Coalesced batch deletion, undirected only (batch_repair.cc
  // defines it for `Graph`): per-hub task planning, then one task run
  // per hub in ascending rank order.
  void RepairDeletionsBatch(
      const std::vector<std::pair<VertexId, VertexId>>& edges);
  // One task over the union of its regions: a full re-run, or the
  // planned subtraction (escalating to a full re-run when the counts
  // do not allow it).
  void RunDeletionTask(const DeletionTask& task,
                       const std::vector<DeletedEdgePlan>& plans);

  GraphT base_graph_;
  std::shared_ptr<const SpcIndex> base_;
  VertexOrder order_;
  DynamicGraph<GraphT> graph_;
  // One overlay per distinct label side: front() out, back() in.
  std::array<ChunkedOverlay, kLabelSides> overlays_;
  DynamicOptions options_;
  DynamicStats stats_;
  obs::DynamicStatsExporter obs_;
  obs::FlightRecorder* recorder_;
  uint64_t generation_ = 0;

  RepairScratch scratch_;  // every hub repair
  // Coalesced batch deletion only (undirected; empty when directed).
  std::vector<uint8_t> subtract_side_;  // by rank; 1 = a-side, 2 = b-side
  std::vector<uint32_t> bucket_max_;    // by rank; max target entry dist
};

using DynamicSpcIndex = DynamicIndex<Graph>;
using DynamicDspcIndex = DynamicIndex<DiGraph>;

}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_DYNAMIC_SPC_INDEX_H_
