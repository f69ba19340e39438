#include "src/dynamic/compaction.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace pspc {

OverlayCompactor::OverlayCompactor(DynamicSpcIndex* index,
                                   CompactionOptions options)
    : index_(index), options_(options) {}

bool OverlayCompactor::FoldIfStale() {
  if (index_->StalenessRatio() <= options_.fold_staleness_ratio) return false;
  Fold();
  return true;
}

void OverlayCompactor::Fold() {
  DynamicSpcIndex& idx = *index_;
  const VertexId n = idx.NumVertices();
  stats_.last_fold_entries_folded = idx.overlay_.OverlaidEntries();

  // Materialize base (+) overlay. No BFS, no re-ordering — the fold is
  // a linear pass, unlike Rebuild().
  std::vector<std::vector<LabelEntry>> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const LabelEntry> span = idx.overlay_.Labels(v);
    labels[v].assign(span.begin(), span.end());
  }

  uint64_t pruned = 0;
  if (options_.prune_stale_entries) {
    // Stale-entry sweep over repaired vertices, decided against the
    // still-live (exact) index: entry (v, h, d) is stale iff d exceeds
    // the true distance sd(v, vertex(h)). Such an entry can never
    // reach the minimum of any merge (d + d' > sd(v,h) + sd(h,t) >=
    // sd(v,t)), so dropping it leaves every query bit-identical.
    idx.overlay_.ForEachOverlaid([&](VertexId v, const LabelChunk&) {
      std::vector<LabelEntry>& lv = labels[v];
      const auto stale_from =
          std::remove_if(lv.begin(), lv.end(), [&](const LabelEntry& e) {
            const VertexId hub = idx.order_.VertexAt(e.hub_rank);
            return static_cast<uint32_t>(e.dist) > idx.Query(v, hub).distance;
          });
      pruned += static_cast<uint64_t>(lv.end() - stale_from);
      lv.erase(stale_from, lv.end());
    });
  }

  // Publish through the standard rebase path: snapshots captured
  // before the fold keep the old base + pages alive; the generation
  // bump tells the serving layer the label state changed.
  idx.base_ = std::make_shared<const SpcIndex>(
      SpcIndex(idx.order_, std::move(labels)));
  idx.overlay_.Rebase(idx.base_->LabelMap());
  ++idx.generation_;
  idx.PublishMetrics();

  ++stats_.folds;
  stats_.entries_pruned += pruned;
}

}  // namespace pspc
