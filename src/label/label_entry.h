#ifndef PSPC_SRC_LABEL_LABEL_ENTRY_H_
#define PSPC_SRC_LABEL_LABEL_ENTRY_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/common/types.h"

/// One hub-label entry (paper §II-A): for a vertex `v`, the entry
/// `(w, sd(v,w), theta)` records the distance to hub `w` and the number
/// of *trough* shortest paths from `v` to `w` (paths on which `w` is the
/// strictly highest-ranked vertex). Hubs are stored by **rank**, not by
/// vertex id, so rank comparisons during pruning are plain integer
/// compares and label intersections can merge in rank order.
namespace pspc {

struct LabelEntry {
  Rank hub_rank = kInvalidRank;
  Distance dist = kInfDistance;
  Count count = 0;

  friend bool operator==(const LabelEntry&, const LabelEntry&) = default;
};

/// Orders entries by hub rank (unique per vertex), the layout of the
/// finalized index.
inline bool ByHubRank(const LabelEntry& a, const LabelEntry& b) {
  return a.hub_rank < b.hub_rank;
}

/// Per-vertex entry lists, one list per vertex: the builders' form of a
/// label side before it is flattened into an index.
using LabelLists = std::vector<std::vector<LabelEntry>>;

/// Index of the entry with `hub_rank` in a rank-sorted list, or
/// `list.size()` if absent.
inline size_t FindHubEntry(std::span<const LabelEntry> list, Rank hub_rank) {
  const auto it = std::lower_bound(list.begin(), list.end(),
                                   LabelEntry{hub_rank, 0, 0}, ByHubRank);
  if (it != list.end() && it->hub_rank == hub_rank) {
    return static_cast<size_t>(it - list.begin());
  }
  return list.size();
}

/// Non-owning view of an immutable, CSR-flattened base label table —
/// per-vertex entry spans behind `offsets` / `entries`. `SpcIndex`
/// exposes one per label side (`LabelMap()` / `InLabelMap()`, the same
/// table when undirected), which is what lets the dynamic layer's
/// `ChunkedOverlay` sit on top of any of them without knowing which
/// side or graph kind it belongs to.
struct BaseLabelMap {
  const uint64_t* offsets = nullptr;
  const LabelEntry* entries = nullptr;
  VertexId num_vertices = 0;

  std::span<const LabelEntry> Labels(VertexId v) const {
    return {entries + offsets[v], entries + offsets[v + 1]};
  }
};

/// One vertex's rank-sorted label list as a shareable unit — the
/// building block of the persistent chunked overlay (see
/// `src/dynamic/chunked_overlay.h`). A chunk is mutable only while its
/// single writer privately owns it; once a snapshot capture aliases it
/// the writer clones before the next write, so every chunk a reader
/// can reach is frozen. `shared_ptr` ownership is what makes snapshot
/// publication O(delta): unchanged vertices alias the previous
/// generation's chunk instead of being re-copied.
struct LabelChunk {
  std::vector<LabelEntry> entries;
};

using LabelChunkPtr = std::shared_ptr<LabelChunk>;

/// A fresh chunk holding a copy of `entries` (typically a base-index
/// CSR span being pulled out-of-line on first repair touch).
inline LabelChunkPtr MakeLabelChunk(std::span<const LabelEntry> entries) {
  auto chunk = std::make_shared<LabelChunk>();
  chunk->entries.assign(entries.begin(), entries.end());
  return chunk;
}

/// Read-only view of a chunk's entries, the same shape every other
/// label container exposes.
inline std::span<const LabelEntry> ChunkSpan(const LabelChunk& chunk) {
  return {chunk.entries.data(), chunk.entries.size()};
}

}  // namespace pspc

#endif  // PSPC_SRC_LABEL_LABEL_ENTRY_H_
