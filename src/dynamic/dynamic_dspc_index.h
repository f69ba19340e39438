#ifndef PSPC_SRC_DYNAMIC_DYNAMIC_DSPC_INDEX_H_
#define PSPC_SRC_DYNAMIC_DYNAMIC_DSPC_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/pspc_builder.h"
#include "src/digraph/digraph.h"
#include "src/dynamic/chunked_overlay.h"
#include "src/dynamic/dynamic_digraph.h"
#include "src/dynamic/edge_update.h"
#include "src/dynamic/repair_core.h"
#include "src/obs/flight_recorder.h"
#include "src/dynamic/stats_export.h"
#include "src/label/spc_index.h"
#include "src/order/vertex_order.h"

/// Incremental maintenance of the directed 2-hop SPC index (paper
/// §II-A) under edge churn — the directed instantiation of the
/// direction-generic repair kernels in repair_core.h.
///
/// `DynamicDspcIndex` wraps an immutable directed `SpcIndex` over a
/// `DiGraph` with two persistent chunked label overlays (one per label
/// side) and repairs both sides in place:
///
///  * **Insertion** `u -> v` — every changed out-reach pair `(h, y)`
///    gains a new shortest trough path `h .. u -> v .. y`, whose
///    `h .. u` prefix is itself trough-shortest and therefore recorded
///    in `Lin(u)`; one *forward* resumed pruned BFS per such hub,
///    seeded at `v`, repairs the in-labels it covers. The mirrored
///    backward pass seeds at `u` from `Lout(v)` and repairs
///    out-labels. Hubs repair in ascending rank order, the two
///    directions interleaved (a forward run's pruning certificates
///    read both label sides of higher-ranked hubs).
///
///  * **Deletion** `u -> v` — the source side (vertices whose
///    shortest paths *to* `v` cross the edge, detected by a pruned
///    reverse BFS from `u` against the still-exact index) and the
///    target side (mirror image, forward from `v`) are detected
///    per-direction; sender hubs re-run or count-subtract exactly as
///    in the undirected scheme, with stale-entry erasure over the
///    opposite region. Unlike the undirected cut, a vertex on a
///    directed cycle through the edge can sit on *both* sides — it
///    then owes one repair per direction, which touch disjoint label
///    sides.
///
///  * **Batches** — `ApplyBatch` is atomic: `PlanBatch` (directed
///    mode: `u -> v` and `v -> u` are distinct edges) validates
///    against the pre-batch graph up front and reduces to the net
///    effect; net deletions replay the sharp single-edge classifier,
///    net insertions coalesce into one multi-source resumed BFS per
///    (hub, direction) across all new edges. One generation bump per
///    batch.
///
/// The maintained-label invariant and the staleness policy carry over
/// from `DynamicSpcIndex` verbatim (stale entries record strictly
/// longer distances, so queries stay exact while both overlays slowly
/// accrete; a rebuild through the directed builder folds them away).
///
/// Threading: externally single-threaded, like the undirected index.
/// Concurrent serving goes through `src/serve/`: `IndexSnapshot`
/// captures both overlays (O(delta since the previous capture) each)
/// plus the shared base, and readers query the frozen views.
namespace pspc {

/// Directed kernel view (see repair_core.h for the contract). The
/// forward view covers hubs' out-reach: expansion over out-edges,
/// entries written to in-labels, certificates from the hub's
/// out-labels; `kForward = false` mirrors everything.
template <bool kForward>
struct DirectedRepairView {
  const DynamicDiGraph* graph = nullptr;
  ChunkedOverlay* write_side = nullptr;  // forward: the in-overlay
  ChunkedOverlay* hub_side = nullptr;    // forward: the out-overlay
  const VertexOrder* order = nullptr;

  std::span<const LabelEntry> Labels(VertexId v) const {
    return write_side->Labels(v);
  }
  std::span<const LabelEntry> HubLabels(VertexId v) const {
    return hub_side->Labels(v);
  }
  std::vector<LabelEntry>& Mutable(VertexId v) const {
    return write_side->Mutable(v);
  }
  ChunkedOverlay* WriteOverlay() const { return write_side; }
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    if constexpr (kForward) {
      graph->ForEachOutNeighbor(v, fn);
    } else {
      graph->ForEachInNeighbor(v, fn);
    }
  }
  template <typename Fn>
  void ForEachReverseNeighbor(VertexId v, Fn&& fn) const {
    if constexpr (kForward) {
      graph->ForEachInNeighbor(v, fn);
    } else {
      graph->ForEachOutNeighbor(v, fn);
    }
  }
  Rank RankOf(VertexId v) const { return order->RankOf(v); }
  VertexId VertexAt(Rank r) const { return order->VertexAt(r); }
  const std::vector<Rank>& VertexToRank() const {
    return order->VertexToRank();
  }
  VertexId NumVertices() const { return graph->NumVertices(); }
  /// View-oriented query: `s` on the hub side. For the forward view
  /// this is the real directed query `s -> t` (Lout(s) x Lin(t)); the
  /// backward view answers `t -> s` through the same merge. Like the
  /// undirected repair view, it runs the reference merge.
  SpcResult Query(VertexId s, VertexId t) const {
    if (s == t) return {0, 1};
    return MergeLabelCounts(HubLabels(s), Labels(t));
  }
};

class DynamicDspcIndex {
 public:
  /// Wraps a prebuilt directed index (`index.Directed()`). `graph` must
  /// be the exact graph `index` was built from.
  DynamicDspcIndex(DiGraph graph, SpcIndex index,
                   DynamicOptions options = {});

  /// Builds the initial index for `graph` through the directed
  /// builder under `DirectedDegreeOrder`.
  DynamicDspcIndex(DiGraph graph, const BuildOptions& build_options,
                   DynamicOptions options = {});

  // Self-referential (graph/overlay views point into owned members).
  DynamicDspcIndex(const DynamicDspcIndex&) = delete;
  DynamicDspcIndex& operator=(const DynamicDspcIndex&) = delete;

  /// Distance and exact count of shortest directed paths s -> t on the
  /// *current* graph.
  SpcResult Query(VertexId s, VertexId t) const;

  /// Single-edge updates; label repair runs before returning. Errors
  /// (self-loop, out-of-range, duplicate insert, missing delete) leave
  /// the index untouched. `u -> v` and `v -> u` are distinct edges.
  Status InsertEdge(VertexId u, VertexId v);
  Status DeleteEdge(VertexId u, VertexId v);
  Status Apply(const EdgeUpdate& update);

  /// Applies the batch *atomically* with coalesced insertion repair
  /// (see the class comment). On any validation error nothing is
  /// applied. Publishes one generation bump for the whole batch.
  Status ApplyBatch(const EdgeUpdateBatch& batch);

  /// Overlay entries (both sides) relative to base entries — what the
  /// staleness policy compares against `rebuild_threshold`.
  double StalenessRatio() const;

  /// Forces the full rebuild the staleness policy would trigger.
  void Rebuild();

  VertexId NumVertices() const { return graph_.NumVertices(); }
  EdgeId NumEdges() const { return graph_.NumEdges(); }

  /// True iff `u -> v` is an edge of the current graph.
  bool HasEdge(VertexId u, VertexId v) const { return graph_.HasEdge(u, v); }

  /// Current labels of `v` (base or overlay), rank-sorted.
  std::span<const LabelEntry> OutLabels(VertexId v) const {
    return out_overlay_.Labels(v);
  }
  std::span<const LabelEntry> InLabels(VertexId v) const {
    return in_overlay_.Labels(v);
  }

  /// Dual-CSR snapshot of the current graph.
  DiGraph MaterializeGraph() const { return graph_.Materialize(); }

  /// Monotone label-state version: bumped by every applied update
  /// (once per coalesced batch) and every rebuild.
  uint64_t Generation() const { return generation_; }

  /// Shared ownership of the current immutable base. Snapshots hold
  /// this so a later Rebuild cannot free the label arrays out from
  /// under an epoch still reading them.
  std::shared_ptr<const SpcIndex> SharedBaseIndex() const { return base_; }

  /// Freezes one overlay side into a structurally shared view and
  /// advances its capture boundary. Writer thread only —
  /// `IndexSnapshot::Capture` is the one intended caller.
  OverlayView CaptureOutOverlay() { return out_overlay_.Capture(); }
  OverlayView CaptureInOverlay() { return in_overlay_.Capture(); }

  /// The live chunked overlays (diagnostics: overlaid/copied counts).
  const ChunkedOverlay& OutOverlay() const { return out_overlay_; }
  const ChunkedOverlay& InOverlay() const { return in_overlay_; }

  const SpcIndex& BaseIndex() const { return *base_; }
  const VertexOrder& Order() const { return order_; }
  const DynamicStats& Stats() const { return stats_; }
  const DynamicOptions& Options() const { return options_; }

 private:
  using ForwardView = DirectedRepairView<true>;
  using BackwardView = DirectedRepairView<false>;

  ForwardView Forward() {
    return {&graph_, &in_overlay_, &out_overlay_, &order_};
  }
  BackwardView Backward() {
    return {&graph_, &out_overlay_, &in_overlay_, &order_};
  }

  void MaybeRebuild();
  /// Mirrors `stats_` deltas into the registry and refreshes the
  /// overlay/generation gauges; tail of every public mutation.
  void PublishMetrics();
  int SweepThreads() const;

  /// Coalesced insertion repair across `edges` (already applied to the
  /// graph): one multi-source resumed BFS per (hub, direction), the
  /// two directions interleaved in ascending rank order.
  void RepairInsertions(
      std::span<const std::pair<VertexId, VertexId>> edges);
  void RepairDeletion(VertexId u, VertexId v);

  DiGraph base_graph_;
  std::shared_ptr<const SpcIndex> base_;
  VertexOrder order_;
  DynamicDiGraph graph_;
  ChunkedOverlay out_overlay_;
  ChunkedOverlay in_overlay_;
  DynamicOptions options_;
  DynamicStats stats_;
  obs::DynamicStatsExporter obs_;
  obs::FlightRecorder* recorder_;
  uint64_t generation_ = 0;

  RepairScratch scratch_;
};

}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_DYNAMIC_DSPC_INDEX_H_
