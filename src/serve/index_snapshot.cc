#include "src/serve/index_snapshot.h"

#include "src/common/logging.h"
#include "src/dynamic/dynamic_dspc_index.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/label/label_merge.h"

namespace pspc {

std::unique_ptr<const IndexSnapshot> IndexSnapshot::Capture(
    DynamicSpcIndex& index) {
  auto snapshot = std::unique_ptr<IndexSnapshot>(new IndexSnapshot());
  snapshot->base_ = index.SharedBaseIndex();
  snapshot->overlay_ = index.CaptureOverlay();
  snapshot->generation_ = index.Generation();
  snapshot->num_vertices_ = index.NumVertices();
  snapshot->num_edges_ = index.NumEdges();
  return snapshot;
}

std::unique_ptr<const IndexSnapshot> IndexSnapshot::Capture(
    DynamicDspcIndex& index) {
  auto snapshot = std::unique_ptr<IndexSnapshot>(new IndexSnapshot());
  snapshot->directed_base_ = index.SharedBaseIndex();
  snapshot->overlay_ = index.CaptureInOverlay();
  snapshot->out_overlay_ = index.CaptureOutOverlay();
  snapshot->generation_ = index.Generation();
  snapshot->num_vertices_ = index.NumVertices();
  snapshot->num_edges_ = index.NumEdges();
  return snapshot;
}

SpcResult IndexSnapshot::Query(VertexId s, VertexId t) const {
  size_t merged_bytes = 0;
  return QueryMeasured(s, t, &merged_bytes);
}

SpcResult IndexSnapshot::QueryMeasured(VertexId s, VertexId t,
                                       size_t* merged_bytes) const {
  PSPC_CHECK_MSG(s < num_vertices_ && t < num_vertices_,
                 "query (" << s << "," << t << ") out of range");
  if (s == t) {
    *merged_bytes = 0;
    return {0, 1};
  }
  const std::span<const LabelEntry> ls =
      IsDirected() ? OutLabels(s) : Labels(s);
  const std::span<const LabelEntry> lt = IsDirected() ? InLabels(t) : Labels(t);
  *merged_bytes = ls.size_bytes() + lt.size_bytes();
  return MergeLabelCountsBranchFree(ls, lt);
}

}  // namespace pspc
