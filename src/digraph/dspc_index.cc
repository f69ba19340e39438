#include "src/digraph/dspc_index.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/label/label_merge.h"

namespace pspc {
namespace {

void Flatten(std::vector<std::vector<LabelEntry>> labels,
             std::vector<uint64_t>* offsets,
             std::vector<LabelEntry>* entries) {
  offsets->assign(labels.size() + 1, 0);
  size_t total = 0;
  for (size_t v = 0; v < labels.size(); ++v) {
    total += labels[v].size();
    (*offsets)[v + 1] = total;
  }
  entries->reserve(total);
  for (auto& vec : labels) {
    std::sort(vec.begin(), vec.end(), ByHubRank);
    entries->insert(entries->end(), vec.begin(), vec.end());
  }
}

}  // namespace

DiSpcIndex::DiSpcIndex(VertexOrder order,
                       std::vector<std::vector<LabelEntry>> out,
                       std::vector<std::vector<LabelEntry>> in)
    : order_(std::move(order)) {
  PSPC_CHECK(out.size() == order_.Size());
  PSPC_CHECK(in.size() == order_.Size());
  Flatten(std::move(out), &out_offsets_, &out_entries_);
  Flatten(std::move(in), &in_offsets_, &in_entries_);
}

SpcResult DiSpcIndex::Query(VertexId s, VertexId t) const {
  PSPC_CHECK_MSG(s < NumVertices() && t < NumVertices(),
                 "query (" << s << "," << t << ") out of range");
  if (s == t) return {0, 1};
  return MergeLabelCountsBranchFree(OutLabels(s), InLabels(t));
}

}  // namespace pspc
