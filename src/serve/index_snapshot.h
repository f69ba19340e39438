#ifndef PSPC_SRC_SERVE_INDEX_SNAPSHOT_H_
#define PSPC_SRC_SERVE_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>

#include "src/common/types.h"
#include "src/dynamic/chunked_overlay.h"
#include "src/label/label_entry.h"

/// An immutable, queryable freeze of a dynamic-index generation, of
/// either edge direction (`DynamicIndex<GraphT>`).
///
/// Capture shares the base index (a `shared_ptr`, so a later staleness
/// rebuild cannot free it while a snapshot still reads it) and freezes
/// each distinct label side's persistent chunked overlay into an
/// `OverlayView` — out and in for a directed index; an undirected
/// capture reads its one view through both sides. A view freeze is one
/// `shared_ptr` copy of the page directory, under which every vertex
/// untouched since the previous capture aliases the prior snapshot's
/// label chunk. Capture cost is therefore O(vertices repaired since
/// the last capture), not O(overlay) — the map-copy design this
/// replaced deep-copied every overlaid vertex on every publish. After
/// construction a snapshot is never written again (the writer unshares
/// chunks before mutating them), so any number of reader threads may
/// query it without synchronization; answers are exact for the graph
/// as of the captured generation. A snapshot owns everything it reads
/// through these `shared_ptr`s, so a ref to it stays valid after the
/// index and its serving engine are gone. Destroying a snapshot
/// releases its page and chunk references, which is how retired
/// generations give their memory back (see `SnapshotManager::Reclaim`).
namespace pspc {

template <class GraphT>
class DynamicIndex;

class IndexSnapshot {
 public:
  /// Freezes the current labels of `index` and advances the capture
  /// boundary of each of its overlays. Must be called from the thread
  /// that owns the index's write path (the same thread of control that
  /// applies updates). Defined for `DynamicSpcIndex` and
  /// `DynamicDspcIndex`.
  template <class GraphT>
  static std::unique_ptr<const IndexSnapshot> Capture(
      DynamicIndex<GraphT>& index);

  /// Distance and exact shortest-path count on the captured graph
  /// generation — the same merge as every other label container.
  /// Directed snapshots answer the directed query s -> t.
  SpcResult Query(VertexId s, VertexId t) const;

  /// `Query` plus the raw label bytes the merge read (both sides) —
  /// what the `serve.label_bytes.*` metrics record per request.
  SpcResult QueryMeasured(VertexId s, VertexId t, size_t* merged_bytes) const;

  /// Out/in labels of `v` as of the capture, rank-sorted. An
  /// undirected capture has one label set, read through both sides.
  std::span<const LabelEntry> OutLabels(VertexId v) const {
    return out_.Labels(v);
  }
  std::span<const LabelEntry> InLabels(VertexId v) const {
    return in_.Labels(v);
  }

  /// Generation counter of the captured index state.
  uint64_t Generation() const { return generation_; }

  VertexId NumVertices() const { return num_vertices_; }
  EdgeId NumEdges() const { return num_edges_; }

  /// Vertices held out-of-line as of the capture (summed over the
  /// distinct label sides).
  size_t OverlaidVertices() const { return overlaid_vertices_; }

  /// Vertices whose label chunk was (re)copied since the previous
  /// capture — the publish-cost delta this snapshot actually paid
  /// (summed over the distinct label sides). Everything else aliases
  /// the prior snapshot's chunks.
  size_t CopiedVertices() const { return copied_vertices_; }

 private:
  /// One label side: the base table with the frozen overlay on top.
  struct Side {
    BaseLabelMap base;
    OverlayView overlay;
    std::span<const LabelEntry> Labels(VertexId v) const {
      const LabelChunk* chunk = overlay.Chunk(v);
      return chunk != nullptr ? ChunkSpan(*chunk) : base.Labels(v);
    }
  };

  IndexSnapshot() = default;

  // Owns the captured base index both sides' tables point into.
  std::shared_ptr<const void> base_owner_;
  Side out_;
  Side in_;
  uint64_t generation_ = 0;
  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  size_t overlaid_vertices_ = 0;
  size_t copied_vertices_ = 0;
};

}  // namespace pspc

#endif  // PSPC_SRC_SERVE_INDEX_SNAPSHOT_H_
