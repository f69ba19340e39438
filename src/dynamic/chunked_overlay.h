#ifndef PSPC_SRC_DYNAMIC_CHUNKED_OVERLAY_H_
#define PSPC_SRC_DYNAMIC_CHUNKED_OVERLAY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/label/label_entry.h"

/// Persistent (copy-on-write, structurally shared) per-vertex label
/// overlay on top of an immutable base label table (`BaseLabelMap`:
/// one label side of an `SpcIndex`) — the writer-side label store of
/// `DynamicIndex` (one overlay per distinct label side: one undirected,
/// out and in directed) and, through `OverlayView`, the label store of
/// every published `IndexSnapshot`.
///
/// Label repair rewrites whole per-vertex entry lists, so the overlay
/// holds a private rank-sorted `LabelChunk` for exactly the vertices a
/// repair has touched; every other vertex keeps reading the base
/// index's CSR span. That much is unchanged from the original
/// `unordered_map<VertexId, vector<LabelEntry>>` design. What changed
/// is snapshot capture: the map design deep-copied the whole overlay
/// per publish — O(overlay), growing without bound under insert-heavy
/// streams until a rebuild — while this layout makes capture O(delta
/// since the previous capture):
///
///  * chunks are held by `shared_ptr` and grouped into fixed-size
///    **pages** (`kOverlayPageSize` consecutive vertex ids per page),
///    themselves held by `shared_ptr` in a root page directory;
///  * a capture freezes the root by aliasing it (one `shared_ptr`
///    copy) and advances the overlay's write generation;
///  * the writer clones lazily on first touch after a capture —
///    root, page, and chunk each carry the generation they were last
///    privately owned at, so a write re-copies only the O(1) spine
///    (root + page) plus the touched vertex's chunk, and every later
///    write in the same generation mutates in place;
///  * everything untouched since the previous capture stays aliased by
///    every snapshot that can still reach it, and a chunk's memory is
///    released exactly when the last snapshot holding its page
///    retires (see `SnapshotManager::Reclaim`).
///
/// The per-capture "copied vertices" count (`OverlayView::
/// CopiedVertices`) is therefore exactly the number of vertices
/// repairs touched in the capture interval — the publish-cost metric
/// `bench_serving` reports and CI bounds.
///
/// Threading: the overlay itself is single-writer (the thread of
/// control that owns the `DynamicIndex`). Readers never touch it — they
/// read `OverlayView`s, whose reachable pages and chunks are frozen by
/// the generation discipline above and published via the seq_cst
/// snapshot pointer swap in `SnapshotManager` (which supplies the
/// happens-before edge).
namespace pspc {

inline constexpr uint32_t kOverlayPageBits = 8;
inline constexpr size_t kOverlayPageSize = size_t{1} << kOverlayPageBits;

/// One page of per-vertex chunk slots; a null slot reads the base.
struct OverlayPage {
  std::array<LabelChunkPtr, kOverlayPageSize> slots{};
};

using OverlayPagePtr = std::shared_ptr<OverlayPage>;
/// Root directory: one entry per page, null = whole page reads base.
using OverlayDirectory = std::vector<OverlayPagePtr>;

/// Immutable freeze of a `ChunkedOverlay` as of one capture. Copying a
/// view is one `shared_ptr` copy; the view (and any snapshot holding
/// it) keeps every reachable page and chunk alive, and releases those
/// references — the chunk-reclaim half of snapshot retirement — when
/// it is destroyed.
class OverlayView {
 public:
  OverlayView() = default;

  /// The frozen chunk of `v`, or nullptr when `v` reads the base.
  const LabelChunk* Chunk(VertexId v) const {
    if (pages_ == nullptr) return nullptr;
    const size_t p = v >> kOverlayPageBits;
    const OverlayPagePtr& page = (*pages_)[p];
    if (page == nullptr) return nullptr;
    return page->slots[v & (kOverlayPageSize - 1)].get();
  }

  /// Vertices held out-of-line as of the capture.
  size_t OverlaidVertices() const { return overlaid_; }

  /// Vertices whose chunk had to be (re)copied since the *previous*
  /// capture — the publish-cost delta. Everything else aliases the
  /// prior capture's chunks. (The retired map design copied
  /// `OverlaidVertices()` of them, every time.)
  size_t CopiedVertices() const { return copied_; }

 private:
  friend class ChunkedOverlay;

  std::shared_ptr<const OverlayDirectory> pages_;
  size_t overlaid_ = 0;
  size_t copied_ = 0;
};

class ChunkedOverlay {
 public:
  /// `base` views an index that must outlive the overlay (the owning
  /// index rebases on rebuild). The overlay is direction-agnostic: the
  /// base map may be either label side (out/in) of an undirected or a
  /// directed `SpcIndex`.
  explicit ChunkedOverlay(BaseLabelMap base) { Rebase(base); }

  /// Swaps in a freshly built base and drops every overlaid vertex.
  /// Captures taken before the rebase keep the old pages (and the old
  /// base, via the snapshot's shared base pointer) alive on their own.
  void Rebase(BaseLabelMap base) {
    base_ = base;
    const auto n = static_cast<size_t>(base.num_vertices);
    const size_t num_pages = (n + kOverlayPageSize - 1) >> kOverlayPageBits;
    ++write_gen_;
    root_ = std::make_shared<OverlayDirectory>(num_pages);
    root_gen_ = write_gen_;
    page_gen_.assign(num_pages, 0);
    chunk_gen_.assign(n, 0);
    page_occupied_.assign(num_pages, 0);
    occupied_pages_.clear();
    overlaid_vertices_ = 0;
    copied_since_capture_ = 0;
  }

  /// Current labels of `v`: the overlaid chunk when present, the base
  /// span otherwise. Invalidated by Mutable(v) for the same vertex.
  std::span<const LabelEntry> Labels(VertexId v) const {
    const LabelChunk* chunk = ChunkAt(v);
    return chunk != nullptr ? ChunkSpan(*chunk) : base_.Labels(v);
  }

  /// Mutable per-vertex list, copied from the base on first touch and
  /// unshared from captured views on first touch per capture interval
  /// (in between, writes land in place — the chunk is provably
  /// private). Must stay sorted by hub rank (callers insert via rank
  /// position).
  std::vector<LabelEntry>& Mutable(VertexId v) {
    if (root_gen_ != write_gen_) {
      // First write since the last capture: unshare the root spine.
      root_ = std::make_shared<OverlayDirectory>(*root_);
      root_gen_ = write_gen_;
    }
    const size_t p = v >> kOverlayPageBits;
    OverlayPagePtr& page = (*root_)[p];
    if (page == nullptr) {
      page = std::make_shared<OverlayPage>();
      page_gen_[p] = write_gen_;
    } else if (page_gen_[p] != write_gen_) {
      page = std::make_shared<OverlayPage>(*page);
      page_gen_[p] = write_gen_;
    }
    LabelChunkPtr& slot = page->slots[v & (kOverlayPageSize - 1)];
    if (slot == nullptr) {
      slot = MakeLabelChunk(base_.Labels(v));
      chunk_gen_[v] = write_gen_;
      ++overlaid_vertices_;
      ++copied_since_capture_;
      if (page_occupied_[p]++ == 0) {
        occupied_pages_.push_back(static_cast<uint32_t>(p));
      }
    } else if (chunk_gen_[v] != write_gen_) {
      slot = std::make_shared<LabelChunk>(*slot);
      chunk_gen_[v] = write_gen_;
      ++copied_since_capture_;
    }
    return slot->entries;
  }

  bool Overlaid(VertexId v) const { return ChunkAt(v) != nullptr; }

  /// Visits every overlaid vertex (`fn(VertexId, const LabelChunk&)`)
  /// in occupied-page order. Cost is proportional to the overlay
  /// footprint, like `OverlaidEntries`. The chunks are the writer's
  /// current ones — do not call `Mutable` while iterating.
  template <typename Fn>
  void ForEachOverlaid(Fn&& fn) const {
    for (const uint32_t p : occupied_pages_) {
      const OverlayPagePtr& page = (*root_)[p];
      if (page == nullptr) continue;
      for (size_t s = 0; s < kOverlayPageSize; ++s) {
        const LabelChunkPtr& chunk = page->slots[s];
        if (chunk != nullptr) {
          fn(static_cast<VertexId>((size_t{p} << kOverlayPageBits) | s), *chunk);
        }
      }
    }
  }

  /// Freezes the current state into a view and advances the capture
  /// boundary: the next write to any vertex re-copies its chunk (and
  /// spine) instead of mutating what the view now aliases. Writer
  /// thread only.
  OverlayView Capture() {
    OverlayView view;
    view.pages_ = root_;
    view.overlaid_ = overlaid_vertices_;
    view.copied_ = copied_since_capture_;
    copied_since_capture_ = 0;
    ++write_gen_;
    return view;
  }

  size_t OverlaidVertices() const { return overlaid_vertices_; }

  /// Vertices touched since the last capture — what the next capture
  /// will report as its publish cost.
  size_t CopiedSinceCapture() const { return copied_since_capture_; }

  /// Total entries held out-of-line — the staleness signal. Scans
  /// only pages that hold at least one chunk (the occupied-pages
  /// list), so the cost is proportional to the overlay's footprint —
  /// at worst kOverlayPageSize slots per overlaid vertex, independent
  /// of graph size — like the map walk this replaced.
  size_t OverlaidEntries() const {
    size_t total = 0;
    for (const uint32_t p : occupied_pages_) {
      for (const LabelChunkPtr& chunk : (*root_)[p]->slots) {
        if (chunk != nullptr) total += chunk->entries.size();
      }
    }
    return total;
  }

 private:
  const LabelChunk* ChunkAt(VertexId v) const {
    const OverlayPagePtr& page = (*root_)[v >> kOverlayPageBits];
    if (page == nullptr) return nullptr;
    return page->slots[v & (kOverlayPageSize - 1)].get();
  }

  BaseLabelMap base_;
  std::shared_ptr<OverlayDirectory> root_;
  uint64_t write_gen_ = 0;   // current capture interval
  uint64_t root_gen_ = 0;    // interval the root was last unshared at
  std::vector<uint64_t> page_gen_;   // ditto, per page
  std::vector<uint64_t> chunk_gen_;  // ditto, per vertex chunk
  std::vector<uint32_t> page_occupied_;   // chunks held, per page
  std::vector<uint32_t> occupied_pages_;  // pages with any chunk
  size_t overlaid_vertices_ = 0;
  size_t copied_since_capture_ = 0;
};

}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_CHUNKED_OVERLAY_H_
