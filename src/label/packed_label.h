#ifndef PSPC_SRC_LABEL_PACKED_LABEL_H_
#define PSPC_SRC_LABEL_PACKED_LABEL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/label/label_entry.h"

/// Compressed per-vertex label blocks: an at-rest encoding of the
/// label table, measured by perfbench (`label.merge_packed_ns`,
/// `label.bytes_per_query_packed`) and `bench_serving`'s `query_path.packed_*`.
///
/// A raw `LabelEntry` costs 16 bytes (4 rank + 2 dist + padding + 8
/// count), of which the common case needs three or four. A packed
/// block stores the same list in ~4-6 bytes/entry:
///
///   block := u32 num_entries
///            u32 block_bytes                  (whole block, header incl.)
///            skip[ceil(n/8)] of { u32 first_rank, u32 payload_offset }
///            payload: one group per 8 entries
///   group := u8 descriptor
///              bits 0-1: rank-delta lane  (0,1,2 -> 1,2,4 bytes)
///              bit  2:   dist lane        (0,1   -> 1,2 bytes)
///              bits 3-4: count lane       (0..3  -> 1,2,4,8 bytes)
///            (k-1) rank deltas   (rank[i] - rank[i-1]; ranks are
///                                 strictly increasing, the first rank
///                                 of the group lives in the skip slot)
///            k dists, k counts   (little-endian, lane-wide)
///
/// Lanes are sized to the widest value in the group, so a rank gap
/// wider than a byte promotes only its own group to the 2- or 4-byte
/// delta lane, and the 8-byte count lane is the escape hatch that
/// keeps saturated counts (`kSaturatedCount`) exact — encode/decode
/// round-trips every legal label bit-for-bit. The per-group skip
/// header keeps `FindHubEntry`-style point lookups sublinear (binary
/// search the skip slots, decode one group).
///
/// Queries do not read this form: a merge over packed blocks measured
/// 1.35-1.65x slower than over raw entries while reading ~4x fewer
/// bytes, so `MergeLabelSources` (label_merge_simd.h) decodes a block
/// before merging it.
namespace pspc {

inline constexpr uint32_t kPackedGroupSize = 8;

/// One decoded group in SoA form.
struct PackedGroup {
  uint32_t n = 0;
  uint32_t ranks[kPackedGroupSize];
  uint16_t dists[kPackedGroupSize];
  Count counts[kPackedGroupSize];
};

/// Encodes `entries` (rank-sorted) as one packed block appended to
/// `out`. Returns the encoded size in bytes.
size_t AppendPackedBlock(std::span<const LabelEntry> entries,
                         std::vector<uint8_t>* out);

/// Non-owning view of one packed block. Default-constructed views are
/// invalid (`data() == nullptr`) and read as empty.
class PackedBlockView {
 public:
  PackedBlockView() = default;
  explicit PackedBlockView(const uint8_t* data) : data_(data) {}

  const uint8_t* data() const { return data_; }
  bool valid() const { return data_ != nullptr; }

  uint32_t NumEntries() const { return data_ == nullptr ? 0 : LoadU32(0); }

  /// Whole-block footprint in bytes (header + skip table + payload).
  size_t SizeBytes() const { return data_ == nullptr ? 0 : LoadU32(4); }

  uint32_t NumGroups() const {
    return (NumEntries() + kPackedGroupSize - 1) / kPackedGroupSize;
  }

  /// Hub rank of group `g`'s first entry, straight from the skip slot
  /// — no payload decode.
  uint32_t GroupFirstRank(uint32_t g) const { return LoadU32(8 + 8 * g); }

  /// Decodes group `g` into SoA form.
  void DecodeGroup(uint32_t g, PackedGroup* out) const;

  /// `(dist, count)` of `hub_rank`, or `found == false`. Binary search
  /// over the skip table plus one group decode — sublinear in the
  /// label size, mirroring `FindHubEntry`.
  bool FindHub(Rank hub_rank, Distance* dist, Count* count) const;

  /// Appends the decoded entries (rank-sorted) to `out`.
  void DecodeAll(std::vector<LabelEntry>* out) const;

 private:
  uint32_t LoadU32(size_t at) const {
    uint32_t v;
    std::memcpy(&v, data_ + at, sizeof(v));
    return v;
  }

  const uint8_t* data_ = nullptr;
};

/// Immutable packed copy of a whole label table (a `BaseLabelMap`).
/// One contiguous byte arena plus per-vertex offsets; `Block(v)` is
/// O(1).
class PackedLabelMap {
 public:
  PackedLabelMap() = default;

  /// Packs every label list of `base`. Round-trip exact.
  static PackedLabelMap Encode(const BaseLabelMap& base);

  VertexId NumVertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  PackedBlockView Block(VertexId v) const {
    return PackedBlockView(bytes_.data() + offsets_[v]);
  }

  /// Arena + offsets footprint — the packed counterpart of
  /// `SpcIndex::SizeBytes`.
  size_t SizeBytes() const {
    return bytes_.size() + offsets_.size() * sizeof(uint64_t);
  }

  size_t TotalEntries() const { return total_entries_; }

 private:
  std::vector<uint64_t> offsets_;  // n + 1
  std::vector<uint8_t> bytes_;
  size_t total_entries_ = 0;
};

}  // namespace pspc

#endif  // PSPC_SRC_LABEL_PACKED_LABEL_H_
