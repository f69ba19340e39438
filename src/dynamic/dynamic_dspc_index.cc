#include "src/dynamic/dynamic_dspc_index.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/dynamic/batch_planner.h"
#include "src/label/label_merge.h"

namespace pspc {

DynamicDspcIndex::DynamicDspcIndex(DiGraph graph, SpcIndex index,
                                   DynamicOptions options)
    : base_graph_(std::move(graph)),
      base_(std::make_shared<const SpcIndex>(std::move(index))),
      order_(base_->Order()),
      graph_(&base_graph_),
      out_overlay_(base_->LabelMap()),
      in_overlay_(base_->InLabelMap()),
      options_(options),
      obs_(options.metrics),
      recorder_(options.flight_recorder != nullptr
                    ? options.flight_recorder
                    : &obs::FlightRecorder::Global()) {
  PSPC_CHECK_MSG(base_->Directed(), "DynamicDspcIndex needs a directed index");
  PSPC_CHECK_MSG(base_->NumVertices() == base_graph_.NumVertices(),
                 "index (" << base_->NumVertices() << " vertices) does not "
                 "match graph (" << base_graph_.NumVertices() << ")");
  scratch_.Init(base_graph_.NumVertices());
}

DynamicDspcIndex::DynamicDspcIndex(DiGraph graph,
                                   const BuildOptions& build_options,
                                   DynamicOptions options)
    : DynamicDspcIndex(
          graph,
          BuildDirectedPspcIndex(graph, DirectedDegreeOrder(graph),
                                 build_options)
              .index,
          options) {}

int DynamicDspcIndex::SweepThreads() const {
  const int resolved =
      options_.num_threads > 0 ? options_.num_threads : MaxThreads();
  return std::min(resolved, MaxThreads());
}

SpcResult DynamicDspcIndex::Query(VertexId s, VertexId t) const {
  PSPC_CHECK_MSG(s < NumVertices() && t < NumVertices(),
                 "query (" << s << "," << t << ") out of range");
  if (s == t) return {0, 1};
  return MergeLabelCountsBranchFree(OutLabels(s), InLabels(t));
}

double DynamicDspcIndex::StalenessRatio() const {
  return static_cast<double>(out_overlay_.OverlaidEntries() +
                             in_overlay_.OverlaidEntries()) /
         static_cast<double>(std::max<size_t>(1, base_->TotalEntries()));
}

void DynamicDspcIndex::MaybeRebuild() {
  if (StalenessRatio() > options_.rebuild_threshold) Rebuild();
}

void DynamicDspcIndex::PublishMetrics() {
  obs_.ExportDelta(stats_);
  obs_.SetGauges(generation_,
                 out_overlay_.OverlaidEntries() + in_overlay_.OverlaidEntries(),
                 out_overlay_.OverlaidVertices() +
                     in_overlay_.OverlaidVertices(),
                 base_->TotalEntries());
}

void DynamicDspcIndex::Rebuild() {
  WallTimer timer;
  obs_.rebuild_in_progress()->Set(1);
  recorder_->Record(obs::FlightEventKind::kRebuildStart, generation_,
                    out_overlay_.OverlaidEntries() +
                        in_overlay_.OverlaidEntries());
  DiGraph current = graph_.Materialize();
  BuildResult result = BuildDirectedPspcIndex(
      current, DirectedDegreeOrder(current), options_.rebuild_options);
  base_graph_ = std::move(current);
  // A fresh shared base: snapshots captured from the old generation
  // keep the retired label arrays alive through their shared_ptr.
  base_ = std::make_shared<const SpcIndex>(std::move(result.index));
  order_ = base_->Order();
  graph_.Rebase(&base_graph_);
  out_overlay_.Rebase(base_->LabelMap());
  in_overlay_.Rebase(base_->InLabelMap());
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

Status DynamicDspcIndex::InsertEdge(VertexId u, VertexId v) {
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

Status DynamicDspcIndex::DeleteEdge(VertexId u, VertexId v) {
  PSPC_RETURN_IF_ERROR(graph_.ValidateEndpoints(u, v));
  if (!graph_.HasEdge(u, v)) {
    return Status::NotFound("edge (" + std::to_string(u) + " -> " +
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

Status DynamicDspcIndex::Apply(const EdgeUpdate& update) {
  return update.kind == EdgeUpdateKind::kInsert
             ? InsertEdge(update.u, update.v)
             : DeleteEdge(update.u, update.v);
}

Status DynamicDspcIndex::ApplyBatch(const EdgeUpdateBatch& batch) {
  PSPC_RETURN_IF_ERROR(batch.Validate(NumVertices()));
  WallTimer plan_timer;
  auto planned = PlanBatch(
      batch,
      [this](VertexId u, VertexId v) { return graph_.HasEdge(u, v); },
      /*directed=*/true);
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
  if (plan.NetSize() == 1) {
    // One net update: the single-update path.
    const Status status =
        plan.net_deletions.empty()
            ? InsertEdge(plan.net_insertions[0].first,
                         plan.net_insertions[0].second)
            : DeleteEdge(plan.net_deletions[0].first,
                         plan.net_deletions[0].second);
    // The delegated path stamps its own last_* fields with plan cost
    // zero; this batch did plan.
    stats_.last_plan_us = plan_us;
    return status;
  }

  const double repair_before = stats_.repair_seconds;
  {
    ScopedTimer timer(&stats_.repair_seconds);
    obs::ScopedLatencyTimer latency(obs_.repair_us());
    // Deletions first: their detection needs the pre-batch exact
    // index, and insertion seeds need labels exact for the deleted
    // graph. Each single-edge deletion repair leaves the index exact
    // for its own graph, so the replay composes; insertions then
    // coalesce into one multi-source run per (hub, direction).
    for (const auto& [u, v] : plan.net_deletions) {
      RepairDeletion(u, v);
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

void DynamicDspcIndex::RepairInsertions(
    std::span<const std::pair<VertexId, VertexId>> edges) {
  const ForwardView fwd = Forward();
  const BackwardView bwd = Backward();

  // Forward seeds: hubs reaching `u` (recorded in Lin(u)) may start
  // new trough paths h .. u -> v .., repaired by a forward BFS from v.
  // Backward seeds mirror them from Lout(v), seeded at u. Both seed
  // sets snapshot the pre-repair labels across every new edge.
  std::vector<std::pair<Rank, InsertSeed>> fwd_seeds, bwd_seeds;
  for (const auto& [u, v] : edges) {
    repair::GatherInsertSeeds(fwd, u, v, &fwd_seeds);
    repair::GatherInsertSeeds(bwd, v, u, &bwd_seeds);
  }
  repair::SortInsertSeeds(&fwd_seeds);
  repair::SortInsertSeeds(&bwd_seeds);

  // Interleave the two directions in ascending global rank order: a
  // run for hub h prunes against entries of higher-ranked hubs on
  // *both* label sides, so every higher-ranked hub must have repaired
  // both its directions first. Same-rank forward/backward runs touch
  // disjoint label sides and may go in either order.
  std::vector<InsertSeed> group;
  size_t fi = 0, bi = 0;
  while (fi < fwd_seeds.size() || bi < bwd_seeds.size()) {
    const Rank fr = fi < fwd_seeds.size() ? fwd_seeds[fi].first : kInvalidRank;
    const Rank br = bi < bwd_seeds.size() ? bwd_seeds[bi].first : kInvalidRank;
    if (fr <= br) {
      group.clear();
      for (; fi < fwd_seeds.size() && fwd_seeds[fi].first == fr; ++fi) {
        group.push_back(fwd_seeds[fi].second);
      }
      repair::ResumedInsertBfs(fwd, fr, {group.data(), group.size()},
                               scratch_, &stats_);
    } else {
      group.clear();
      for (; bi < bwd_seeds.size() && bwd_seeds[bi].first == br; ++bi) {
        group.push_back(bwd_seeds[bi].second);
      }
      repair::ResumedInsertBfs(bwd, br, {group.data(), group.size()},
                               scratch_, &stats_);
    }
  }
}

void DynamicDspcIndex::RepairDeletion(VertexId u, VertexId v) {
  repair::RepairContext ctx;
  ctx.scratch = &scratch_;
  ctx.stats = &stats_;
  ctx.sweep_threads = SweepThreads();
  repair::RepairEdgeDeletionPair(Forward(), Backward(), u, v, ctx, [&] {
    PSPC_CHECK(graph_.RemoveEdge(u, v).ok());
  });
}

}  // namespace pspc
