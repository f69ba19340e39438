#include "src/dynamic/dynamic_graph.h"

#include <string>

#include "src/graph/graph_builder.h"

namespace pspc {
namespace {

bool SortedContains(const std::vector<VertexId>& vec, VertexId v) {
  return std::binary_search(vec.begin(), vec.end(), v);
}

void SortedInsert(std::vector<VertexId>* vec, VertexId v) {
  vec->insert(std::upper_bound(vec->begin(), vec->end(), v), v);
}

void SortedErase(std::vector<VertexId>* vec, VertexId v) {
  const auto it = std::lower_bound(vec->begin(), vec->end(), v);
  if (it != vec->end() && *it == v) vec->erase(it);
}

std::string EdgeText(VertexId u, VertexId v, bool directed) {
  return "edge (" + std::to_string(u) + (directed ? " -> " : ", ") +
         std::to_string(v) + ")";
}

}  // namespace

template <class GraphT>
Status DynamicGraph<GraphT>::ValidateEndpoints(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) {
    return Status::InvalidArgument(
        EdgeText(u, v, kDirected) + " outside vertex universe [0, " +
        std::to_string(NumVertices()) +
        "); the dynamic index does not grow the vertex set");
  }
  if (u == v) {
    return Status::InvalidArgument("self-loop on vertex " + std::to_string(u));
  }
  return Status::OK();
}

template <class GraphT>
bool DynamicGraph<GraphT>::HasEdge(VertexId u, VertexId v) const {
  const auto it = deltas_.front().find(u);
  if (it == deltas_.front().end()) return base_->HasEdge(u, v);
  if (SortedContains(it->second.added, v)) return true;
  if (SortedContains(it->second.removed, v)) return false;
  return base_->HasEdge(u, v);
}

template <class GraphT>
Status DynamicGraph<GraphT>::AddEdge(VertexId u, VertexId v) {
  PSPC_RETURN_IF_ERROR(ValidateEndpoints(u, v));
  if (HasEdge(u, v)) {
    return Status::InvalidArgument(EdgeText(u, v, kDirected) +
                                   " already exists");
  }
  ApplyAdd(&deltas_.front(), u, v);
  ApplyAdd(&deltas_.back(), v, u);
  ++num_edges_;
  return Status::OK();
}

template <class GraphT>
Status DynamicGraph<GraphT>::RemoveEdge(VertexId u, VertexId v) {
  PSPC_RETURN_IF_ERROR(ValidateEndpoints(u, v));
  if (!HasEdge(u, v)) {
    return Status::NotFound(EdgeText(u, v, kDirected) + " does not exist");
  }
  ApplyRemove(&deltas_.front(), u, v);
  ApplyRemove(&deltas_.back(), v, u);
  --num_edges_;
  return Status::OK();
}

template <class GraphT>
void DynamicGraph<GraphT>::ApplyAdd(DeltaMap* delta, VertexId key,
                                    VertexId value) {
  VertexDelta& d = (*delta)[key];
  if (SortedContains(d.removed, value)) {
    SortedErase(&d.removed, value);  // un-remove a base edge
  } else {
    SortedInsert(&d.added, value);
  }
}

template <class GraphT>
void DynamicGraph<GraphT>::ApplyRemove(DeltaMap* delta, VertexId key,
                                       VertexId value) {
  VertexDelta& d = (*delta)[key];
  if (SortedContains(d.added, value)) {
    SortedErase(&d.added, value);  // cancel a delta insertion
  } else {
    SortedInsert(&d.removed, value);
  }
}

template <class GraphT>
GraphT DynamicGraph<GraphT>::Materialize() const {
  std::conditional_t<kDirected, DiGraphBuilder, GraphBuilder> builder(
      NumVertices());
  for (VertexId u = 0; u < NumVertices(); ++u) {
    ForEachOutNeighbor(u, [&](VertexId w) {
      if (kDirected || u < w) builder.AddEdge(u, w);
    });
  }
  return builder.Build();
}

template class DynamicGraph<Graph>;
template class DynamicGraph<DiGraph>;

}  // namespace pspc
