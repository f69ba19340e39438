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
  if (options_.auto_rebuild && StalenessRatio() > options_.rebuild_threshold) {
    Rebuild();
  }
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

std::vector<uint32_t> DynamicSpcIndex::BfsDistances(VertexId source) {
  return repair::ViewBfsDistances(RepView(), source);
}

void DynamicSpcIndex::DetectAffectedSide(
    VertexId from, VertexId to, const std::vector<uint8_t>& hub_of_a,
    const std::vector<uint8_t>& hub_of_b, AffectedSide* side) {
  repair::DetectAffectedSide(RepView(), from, to, hub_of_a, hub_of_b, side);
}

void DynamicSpcIndex::ValidateDeletionSeeds(
    const std::vector<Rank>& full_ranks,
    const std::vector<Rank>& subtract_ranks,
    std::span<const LabelEntry> near_labels, VertexId near, VertexId far,
    const std::vector<uint8_t>& hub_of_a,
    const std::vector<uint8_t>& hub_of_b, std::vector<uint8_t>* seed_ok,
    std::vector<uint32_t>* seed_dist, std::vector<Count>* seed_count,
    std::vector<VertexId>* seed_far) {
  repair::ValidateDeletionSeeds(RepView(), full_ranks, subtract_ranks,
                                near_labels, near, far, hub_of_a, hub_of_b,
                                seed_ok, seed_dist, seed_count, seed_far);
}

void DynamicSpcIndex::MarkDistanceChanges(
    const std::vector<Rank>& sender_ranks,
    std::span<const uint32_t> sender_pre,
    const std::vector<Rank>& opposite_full_ranks,
    std::span<const uint32_t> opposite_pre,
    std::vector<uint8_t>* needs_full) {
  repair::MarkDistanceChanges(RepView(), sender_ranks, sender_pre,
                              opposite_full_ranks, opposite_pre, needs_full);
}

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

bool DynamicSpcIndex::SubtractiveDeleteRepair(
    Rank hub_rank, VertexId start, uint32_t seed_dist, Count seed_count,
    uint32_t depth_cap, RegionView region, RepairScratch& s,
    LabelWriteSink& sink, DynamicStats* stats) {
  return repair::SubtractiveDeleteRepair(RepView(), hub_rank, start,
                                         seed_dist, seed_count, depth_cap,
                                         region, s, sink, stats);
}

bool DynamicSpcIndex::RepairHubAfterDeletion(
    Rank hub_rank, RegionView region, RepairScratch& s, LabelWriteSink& sink,
    DynamicStats* stats, const int32_t* claim_owner, int32_t claim_self) {
  return repair::RepairHubAfterDeletion(
      RepView(), hub_rank, region, s, sink, stats,
      std::min(ResolvedThreads(), MaxThreads()), claim_owner, claim_self);
}

}  // namespace pspc
