#include "src/serve/index_snapshot.h"

#include "src/common/logging.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/label/label_merge.h"

namespace pspc {

template <class GraphT>
std::unique_ptr<const IndexSnapshot> IndexSnapshot::Capture(
    DynamicIndex<GraphT>& index) {
  auto snapshot = std::unique_ptr<IndexSnapshot>(new IndexSnapshot());
  snapshot->base_owner_ = index.SharedBaseIndex();
  const auto views = index.CaptureOverlays();
  snapshot->out_ = {index.BaseIndex().LabelMap(), views.front()};
  snapshot->in_ = {index.BaseIndex().InLabelMap(), views.back()};
  for (const OverlayView& view : views) {
    snapshot->overlaid_vertices_ += view.OverlaidVertices();
    snapshot->copied_vertices_ += view.CopiedVertices();
  }
  snapshot->generation_ = index.Generation();
  snapshot->num_vertices_ = index.NumVertices();
  snapshot->num_edges_ = index.NumEdges();
  return snapshot;
}

template std::unique_ptr<const IndexSnapshot> IndexSnapshot::Capture(
    DynamicSpcIndex& index);
template std::unique_ptr<const IndexSnapshot> IndexSnapshot::Capture(
    DynamicDspcIndex& index);

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
  const std::span<const LabelEntry> ls = out_.Labels(s);
  const std::span<const LabelEntry> lt = in_.Labels(t);
  *merged_bytes = ls.size_bytes() + lt.size_bytes();
  return MergeLabelCountsBranchFree(ls, lt);
}

}  // namespace pspc
