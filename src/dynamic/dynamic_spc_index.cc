#include "src/dynamic/dynamic_spc_index.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/core/builder_facade.h"
#include "src/core/pspc_builder.h"
#include "src/dynamic/batch_planner.h"
#include "src/dynamic/repair_core.h"
#include "src/label/label_merge.h"

namespace pspc {
namespace {

// The static pipeline each edge direction builds and rebuilds through.
SpcIndex BuildStatic(const Graph& graph, const BuildOptions& options) {
  return BuildIndex(graph, options).index;
}

SpcIndex BuildStatic(const DiGraph& graph, const BuildOptions& options) {
  return BuildDirectedPspcIndex(graph, DirectedDegreeOrder(graph), options)
      .index;
}

// One overlay per distinct label side of `base`: out, then in.
template <size_t kSides>
std::array<ChunkedOverlay, kSides> OverlaysOver(const SpcIndex& base) {
  if constexpr (kSides == 2) {
    return {ChunkedOverlay(base.LabelMap()),
            ChunkedOverlay(base.InLabelMap())};
  } else {
    return {ChunkedOverlay(base.LabelMap())};
  }
}

}  // namespace

std::string DynamicStats::ToString() const {
  std::ostringstream oss;
  oss << "updates: " << insertions_applied << " insert / "
      << deletions_applied << " delete (" << batches_applied << " batches, "
      << updates_coalesced << " coalesced)\n"
      << "repair:  " << resumed_bfs_runs << " resumed BFS, "
      << affected_hubs << " hubs fully re-run, " << subtract_repairs
      << " hubs count-subtracted\n"
      << "labels:  " << entries_inserted << " inserted, " << entries_renewed
      << " renewed, " << entries_erased << " erased\n"
      << "rebuilds: " << rebuilds << "\n"
      << "time: repair " << repair_seconds << "s, rebuild "
      << rebuild_seconds << "s";
  return oss.str();
}

template <class GraphT>
DynamicIndex<GraphT>::DynamicIndex(GraphT graph, SpcIndex index,
                                   DynamicOptions options)
    : base_graph_(std::move(graph)),
      base_(std::make_shared<const SpcIndex>(std::move(index))),
      order_(base_->Order()),
      graph_(&base_graph_),
      overlays_(OverlaysOver<kLabelSides>(*base_)),
      options_(options),
      obs_(options.metrics),
      recorder_(options.flight_recorder != nullptr
                    ? options.flight_recorder
                    : &obs::FlightRecorder::Global()) {
  PSPC_CHECK_MSG(base_->Directed() == kDirected,
                 (kDirected ? "DynamicDspcIndex needs a directed index"
                            : "DynamicSpcIndex needs an undirected index"));
  PSPC_CHECK_MSG(base_->NumVertices() == base_graph_.NumVertices(),
                 "index (" << base_->NumVertices() << " vertices) does not "
                 "match graph (" << base_graph_.NumVertices() << ")");
  const VertexId n = base_graph_.NumVertices();
  scratch_.Init(n);
  if constexpr (!kDirected) {
    subtract_side_.assign(n, 0);
    bucket_max_.assign(n, 0);
  }
}

template <class GraphT>
DynamicIndex<GraphT>::DynamicIndex(GraphT graph,
                                   const BuildOptions& build_options,
                                   DynamicOptions options)
    : DynamicIndex(graph, BuildStatic(graph, build_options), options) {}

template <class GraphT>
typename DynamicIndex<GraphT>::ForwardView DynamicIndex<GraphT>::Forward() {
  return {&graph_, &overlays_.back(), &overlays_.front(), &order_};
}

template <class GraphT>
typename DynamicIndex<GraphT>::BackwardView DynamicIndex<GraphT>::Backward() {
  return {&graph_, &overlays_.front(), &overlays_.back(), &order_};
}

template <class GraphT>
SpcResult DynamicIndex<GraphT>::Query(VertexId s, VertexId t) const {
  PSPC_CHECK_MSG(s < NumVertices() && t < NumVertices(),
                 "query (" << s << "," << t << ") out of range");
  if (s == t) return {0, 1};
  return MergeLabelCountsBranchFree(OutLabels(s), InLabels(t));
}

template <class GraphT>
std::array<OverlayView, DynamicIndex<GraphT>::kLabelSides>
DynamicIndex<GraphT>::CaptureOverlays() {
  std::array<OverlayView, kLabelSides> views;
  for (size_t side = 0; side < kLabelSides; ++side) {
    views[side] = overlays_[side].Capture();
  }
  return views;
}

template <class GraphT>
void DynamicIndex<GraphT>::RebaseOverlays() {
  overlays_.front().Rebase(base_->LabelMap());
  if constexpr (kDirected) overlays_.back().Rebase(base_->InLabelMap());
}

template <class GraphT>
size_t DynamicIndex<GraphT>::OverlaidEntries() const {
  size_t total = 0;
  for (const ChunkedOverlay& overlay : overlays_) {
    total += overlay.OverlaidEntries();
  }
  return total;
}

template <class GraphT>
double DynamicIndex<GraphT>::StalenessRatio() const {
  return static_cast<double>(OverlaidEntries()) /
         static_cast<double>(std::max<size_t>(1, base_->TotalEntries()));
}

template <class GraphT>
void DynamicIndex<GraphT>::PublishMetrics() {
  size_t overlaid_vertices = 0;
  for (const ChunkedOverlay& overlay : overlays_) {
    overlaid_vertices += overlay.OverlaidVertices();
  }
  obs_.ExportDelta(stats_);
  obs_.SetGauges(generation_, OverlaidEntries(), overlaid_vertices,
                 base_->TotalEntries());
}

template <class GraphT>
void DynamicIndex<GraphT>::Rebuild() {
  WallTimer timer;
  obs_.rebuild_in_progress()->Set(1);
  recorder_->Record(obs::FlightEventKind::kRebuildStart, generation_,
                    OverlaidEntries());
  GraphT current = graph_.Materialize();
  SpcIndex rebuilt = BuildStatic(current, options_.rebuild_options);
  base_graph_ = std::move(current);
  // A fresh shared base: snapshots captured from the old generation
  // keep the retired label arrays alive through their shared_ptr.
  base_ = std::make_shared<const SpcIndex>(std::move(rebuilt));
  order_ = base_->Order();
  graph_.Rebase(&base_graph_);
  RebaseOverlays();
  ++generation_;
  ++stats_.rebuilds;
  const double elapsed = timer.ElapsedSeconds();
  stats_.rebuild_seconds += elapsed;
  obs_.rebuild_us()->Record(elapsed * 1e6);
  obs_.rebuild_in_progress()->Set(0);
  recorder_->Record(obs::FlightEventKind::kRebuildEnd, generation_,
                    static_cast<uint64_t>(elapsed * 1e6),
                    base_->TotalEntries());
  PublishMetrics();
}

template <class GraphT>
uint64_t DynamicIndex<GraphT>::Fold() requires(!kDirected) {
  const VertexId n = NumVertices();
  std::vector<std::vector<LabelEntry>> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const LabelEntry> span = OutLabels(v);
    labels[v].assign(span.begin(), span.end());
  }
  // Stale entries can only sit at repaired vertices; each is decided
  // against the still-live (exact) index before the rebase.
  uint64_t pruned = 0;
  OutOverlay().ForEachOverlaid([&](VertexId v, const LabelChunk&) {
    std::vector<LabelEntry>& lv = labels[v];
    const auto stale_from =
        std::remove_if(lv.begin(), lv.end(), [&](const LabelEntry& e) {
          const VertexId hub = order_.VertexAt(e.hub_rank);
          return static_cast<uint32_t>(e.dist) > Query(v, hub).distance;
        });
    pruned += static_cast<uint64_t>(lv.end() - stale_from);
    lv.erase(stale_from, lv.end());
  });
  base_ = std::make_shared<const SpcIndex>(
      SpcIndex(order_, std::move(labels)));
  RebaseOverlays();
  ++generation_;
  PublishMetrics();
  return pruned;
}

template <class GraphT>
Status DynamicIndex<GraphT>::InsertEdge(VertexId u, VertexId v) {
  PSPC_RETURN_IF_ERROR(graph_.AddEdge(u, v));
  const double repair_before = stats_.repair_seconds;
  {
    ScopedTimer timer(&stats_.repair_seconds);
    obs::ScopedLatencyTimer latency(obs_.repair_us());
    const std::pair<VertexId, VertexId> edge{u, v};
    RepairInsertions({&edge, 1});
  }
  stats_.last_plan_us = 0.0;
  stats_.last_repair_us = (stats_.repair_seconds - repair_before) * 1e6;
  ++stats_.insertions_applied;
  ++generation_;
  MaybeRebuild();
  PublishMetrics();
  return Status::OK();
}

template <class GraphT>
Status DynamicIndex<GraphT>::DeleteEdge(VertexId u, VertexId v) {
  PSPC_RETURN_IF_ERROR(graph_.ValidateEndpoints(u, v));
  if (!graph_.HasEdge(u, v)) {
    return Status::NotFound("edge (" + std::to_string(u) +
                            (kDirected ? " -> " : ", ") + std::to_string(v) +
                            ") does not exist");
  }
  const double repair_before = stats_.repair_seconds;
  {
    ScopedTimer timer(&stats_.repair_seconds);
    obs::ScopedLatencyTimer latency(obs_.repair_us());
    RepairDeletion(u, v);
  }
  stats_.last_plan_us = 0.0;
  stats_.last_repair_us = (stats_.repair_seconds - repair_before) * 1e6;
  ++stats_.deletions_applied;
  ++generation_;
  MaybeRebuild();
  PublishMetrics();
  return Status::OK();
}

template <class GraphT>
Status DynamicIndex<GraphT>::ApplyBatch(const EdgeUpdateBatch& batch) {
  PSPC_RETURN_IF_ERROR(batch.Validate(NumVertices()));
  WallTimer plan_timer;
  auto planned = PlanBatch(
      batch,
      [this](VertexId u, VertexId v) { return graph_.HasEdge(u, v); },
      kDirected);
  PSPC_RETURN_IF_ERROR(planned.status());
  const double plan_us = plan_timer.ElapsedSeconds() * 1e6;
  obs_.plan_us()->Record(plan_us);
  stats_.last_plan_us = plan_us;
  stats_.last_repair_us = 0.0;
  const BatchPlan& plan = planned.value();
  ++stats_.batches_applied;
  stats_.updates_coalesced += plan.coalesced_updates;
  if (plan.Empty()) {
    PublishMetrics();
    return Status::OK();
  }
  const double repair_before = stats_.repair_seconds;
  {
    ScopedTimer timer(&stats_.repair_seconds);
    obs::ScopedLatencyTimer latency(obs_.repair_us());
    // Deletions first: their detection needs the pre-batch exact
    // index, and insertion seeds need labels exact for the deleted
    // graph. Each phase leaves the index exact for its own graph, so
    // the phases compose. A single net deletion has no cross-edge
    // entanglement, so it keeps the sharper single-update classifier
    // (which also removes the edge itself); directed net deletions all
    // replay it.
    if constexpr (kDirected) {
      for (const auto& [u, v] : plan.net_deletions) RepairDeletion(u, v);
    } else if (plan.net_deletions.size() == 1) {
      RepairDeletion(plan.net_deletions[0].first,
                     plan.net_deletions[0].second);
    } else if (!plan.net_deletions.empty()) {
      RepairDeletionsBatch(plan.net_deletions);
    }
    if (!plan.net_insertions.empty()) {
      for (const auto& [u, v] : plan.net_insertions) {
        PSPC_CHECK(graph_.AddEdge(u, v).ok());
      }
      RepairInsertions(plan.net_insertions);
    }
  }
  stats_.last_repair_us = (stats_.repair_seconds - repair_before) * 1e6;
  stats_.insertions_applied += plan.net_insertions.size();
  stats_.deletions_applied += plan.net_deletions.size();
  ++generation_;  // one published generation per batch
  MaybeRebuild();
  PublishMetrics();
  return Status::OK();
}

// ------------------------------------------------------------- insertion

template <class GraphT>
void DynamicIndex<GraphT>::RepairInsertions(
    std::span<const std::pair<VertexId, VertexId>> edges) {
  const ForwardView fwd = Forward();
  const BackwardView bwd = Backward();

  // Forward seeds: hubs reaching `u` (recorded in its in-label) may
  // start new trough paths h .. u -> v .., repaired by a forward BFS
  // from v. Backward seeds mirror them from the out-label of v, seeded
  // at u. Undirected, both land in the one list, so each hub runs one
  // multi-source BFS over the seeds from both endpoints. Every seed
  // snapshots the pre-repair labels across every new edge (see
  // GatherInsertSeeds).
  std::vector<std::pair<Rank, InsertSeed>> fwd_seeds, bwd_only;
  std::vector<std::pair<Rank, InsertSeed>>& bwd_seeds =
      kDirected ? bwd_only : fwd_seeds;
  for (const auto& [u, v] : edges) {
    repair::GatherInsertSeeds(fwd, u, v, &fwd_seeds);
    repair::GatherInsertSeeds(bwd, v, u, &bwd_seeds);
  }
  repair::SortInsertSeeds(&fwd_seeds);
  repair::SortInsertSeeds(&bwd_only);

  // Interleave the two directions in ascending global rank order: a
  // run for hub h prunes against entries of higher-ranked hubs on
  // *both* label sides, so every higher-ranked hub must have repaired
  // both its directions first. Same-rank forward/backward runs touch
  // disjoint label sides and may go in either order.
  std::vector<InsertSeed> group;
  const auto run_next_hub = [&](const auto& view, const auto& seeds,
                                size_t& i) {
    const Rank rank = seeds[i].first;
    group.clear();
    for (; i < seeds.size() && seeds[i].first == rank; ++i) {
      group.push_back(seeds[i].second);
    }
    repair::ResumedInsertBfs(view, rank, {group.data(), group.size()},
                             scratch_, &stats_);
  };
  size_t fi = 0, bi = 0;
  while (fi < fwd_seeds.size() || bi < bwd_only.size()) {
    const Rank fr = fi < fwd_seeds.size() ? fwd_seeds[fi].first : kInvalidRank;
    const Rank br = bi < bwd_only.size() ? bwd_only[bi].first : kInvalidRank;
    if (fr <= br) {
      run_next_hub(fwd, fwd_seeds, fi);
    } else {
      run_next_hub(bwd, bwd_only, bi);
    }
  }
}

// -------------------------------------------------------------- deletion

template <class GraphT>
void DynamicIndex<GraphT>::RepairDeletion(VertexId u, VertexId v) {
  repair::RepairContext ctx;
  ctx.scratch = &scratch_;
  ctx.stats = &stats_;
  ctx.sweep_threads = SweepThreads();
  repair::RepairEdgeDeletionPair(Forward(), Backward(), u, v, ctx, [&] {
    PSPC_CHECK(graph_.RemoveEdge(u, v).ok());
  });
}

template class DynamicIndex<Graph>;
template class DynamicIndex<DiGraph>;

}  // namespace pspc
