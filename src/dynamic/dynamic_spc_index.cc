#include "src/dynamic/dynamic_spc_index.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/repair_core.h"
#include "src/label/label_merge.h"

namespace pspc {

std::string DynamicStats::ToString() const {
  std::ostringstream oss;
  oss << "updates: " << insertions_applied << " insert / "
      << deletions_applied << " delete (" << batches_applied << " batches, "
      << updates_coalesced << " coalesced)\n"
      << "repair:  " << resumed_bfs_runs << " resumed BFS, "
      << affected_hubs << " hubs fully re-run, " << subtract_repairs
      << " hubs count-subtracted\n"
      << "waves:   " << parallel_waves << " parallel, " << parallel_hub_runs
      << " hub runs committed, " << deferred_hub_runs << " deferred\n"
      << "labels:  " << entries_inserted << " inserted, " << entries_renewed
      << " renewed, " << entries_erased << " erased\n"
      << "rebuilds: " << rebuilds << "\n"
      << "time: repair " << repair_seconds << "s, rebuild "
      << rebuild_seconds << "s";
  return oss.str();
}

DynamicSpcIndex::DynamicSpcIndex(Graph graph, SpcIndex index,
                                 DynamicOptions options)
    : base_graph_(std::move(graph)),
      base_(std::make_shared<const SpcIndex>(std::move(index))),
      order_(base_->Order()),
      graph_(&base_graph_),
      overlay_(base_->LabelMap()),
      options_(options),
      obs_(options.metrics),
      recorder_(options.flight_recorder != nullptr
                    ? options.flight_recorder
                    : &obs::FlightRecorder::Global()) {
  PSPC_CHECK_MSG(!base_->Directed(),
                 "DynamicSpcIndex needs an undirected index");
  PSPC_CHECK_MSG(base_->NumVertices() == base_graph_.NumVertices(),
                 "index (" << base_->NumVertices() << " vertices) does not "
                 "match graph (" << base_graph_.NumVertices() << ")");
  InitScratch();
}

DynamicSpcIndex::DynamicSpcIndex(Graph graph,
                                 const BuildOptions& build_options,
                                 DynamicOptions options)
    : DynamicSpcIndex(graph, BuildIndex(graph, build_options).index,
                      options) {}

void DynamicSpcIndex::InitScratch() {
  const VertexId n = base_graph_.NumVertices();
  scratch_.Init(n);
  scratch_pool_.clear();
  subtract_side_.assign(n, 0);
  bucket_max_.assign(n, 0);
}

int DynamicSpcIndex::ResolvedThreads() const {
  return options_.num_threads > 0 ? options_.num_threads : MaxThreads();
}

SpcResult DynamicSpcIndex::Query(VertexId s, VertexId t) const {
  PSPC_CHECK_MSG(s < NumVertices() && t < NumVertices(),
                 "query (" << s << "," << t << ") out of range");
  if (s == t) return {0, 1};
  return MergeLabelCountsBranchFree(Labels(s), Labels(t));
}

double DynamicSpcIndex::StalenessRatio() const {
  return static_cast<double>(overlay_.OverlaidEntries()) /
         static_cast<double>(std::max<size_t>(1, base_->TotalEntries()));
}

void DynamicSpcIndex::MaybeRebuild() {
  if (StalenessRatio() > options_.rebuild_threshold) Rebuild();
}

void DynamicSpcIndex::PublishMetrics() {
  obs_.ExportDelta(stats_);
  obs_.SetGauges(generation_, overlay_.OverlaidEntries(),
                 overlay_.OverlaidVertices(), base_->TotalEntries());
}

void DynamicSpcIndex::Rebuild() {
  WallTimer timer;
  obs_.rebuild_in_progress()->Set(1);
  recorder_->Record(obs::FlightEventKind::kRebuildStart, generation_,
                    overlay_.OverlaidEntries());
  Graph current = graph_.Materialize();
  BuildResult result = BuildIndex(current, options_.rebuild_options);
  base_graph_ = std::move(current);
  // A fresh shared base: snapshots captured from the old generation
  // keep the retired CSR alive through their shared_ptr.
  base_ = std::make_shared<const SpcIndex>(std::move(result.index));
  order_ = base_->Order();
  graph_.Rebase(&base_graph_);
  overlay_.Rebase(base_->LabelMap());
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

uint64_t DynamicSpcIndex::Fold() {
  const VertexId n = NumVertices();
  std::vector<std::vector<LabelEntry>> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const LabelEntry> span = Labels(v);
    labels[v].assign(span.begin(), span.end());
  }
  // Stale entries can only sit at repaired vertices; each is decided
  // against the still-live (exact) index before the rebase.
  uint64_t pruned = 0;
  overlay_.ForEachOverlaid([&](VertexId v, const LabelChunk&) {
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
  overlay_.Rebase(base_->LabelMap());
  ++generation_;
  PublishMetrics();
  return pruned;
}

Status DynamicSpcIndex::InsertEdge(VertexId u, VertexId v) {
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

Status DynamicSpcIndex::DeleteEdge(VertexId u, VertexId v) {
  PSPC_RETURN_IF_ERROR(graph_.ValidateEndpoints(u, v));
  if (!graph_.HasEdge(u, v)) {
    return Status::NotFound("edge (" + std::to_string(u) + ", " +
                            std::to_string(v) + ") does not exist");
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

Status DynamicSpcIndex::Apply(const EdgeUpdate& update) {
  return update.kind == EdgeUpdateKind::kInsert
             ? InsertEdge(update.u, update.v)
             : DeleteEdge(update.u, update.v);
}

// ------------------------------------------------------------- insertion

void DynamicSpcIndex::RepairInsertions(
    std::span<const std::pair<VertexId, VertexId>> edges) {
  // Seeds snapshot the *pre-repair* endpoint labels across every new
  // edge (see GatherInsertSeeds); the symmetric view seeds from both
  // endpoints of each edge.
  const SymmetricRepairView view = RepView();
  std::vector<std::pair<Rank, InsertSeed>> seeds;
  for (const auto& [a, b] : edges) {
    repair::GatherInsertSeeds(view, a, b, &seeds);
    repair::GatherInsertSeeds(view, b, a, &seeds);
  }
  repair::SortInsertSeeds(&seeds);
  repair::RunInsertRepairs(view, seeds, scratch_, &stats_);
}

// -------------------------------------------------------------- deletion

void DynamicSpcIndex::RepairDeletion(VertexId a, VertexId b) {
  repair::RepairContext ctx;
  ctx.scratch = &scratch_;
  ctx.stats = &stats_;
  ctx.sweep_threads = std::min(ResolvedThreads(), MaxThreads());
  const SymmetricRepairView view = RepView();
  repair::RepairEdgeDeletionPair(view, view, a, b, ctx, [&] {
    PSPC_CHECK(graph_.RemoveEdge(a, b).ok());
  });
}

}  // namespace pspc
