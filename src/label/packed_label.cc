#include "src/label/packed_label.h"

#include <algorithm>
#include <cassert>

namespace pspc {
namespace {

// Lane width codes. Widths are chosen per group to fit the widest
// value, so decode never truncates.
inline uint32_t RankLaneCode(uint32_t max_delta) {
  if (max_delta <= 0xFF) return 0;
  if (max_delta <= 0xFFFF) return 1;
  return 2;
}
inline uint32_t RankLaneBytes(uint32_t code) { return code == 2 ? 4 : (code + 1); }

inline uint32_t DistLaneCode(uint32_t max_dist) { return max_dist <= 0xFF ? 0 : 1; }
inline uint32_t DistLaneBytes(uint32_t code) { return code + 1; }

inline uint32_t CountLaneCode(Count max_count) {
  if (max_count <= 0xFF) return 0;
  if (max_count <= 0xFFFF) return 1;
  if (max_count <= 0xFFFF'FFFFULL) return 2;
  // The 8-byte escape lane: path counts near or at `kSaturatedCount`
  // stay exact.
  return 3;
}
inline uint32_t CountLaneBytes(uint32_t code) { return 1u << code; }

inline void PutBytes(uint64_t v, uint32_t width, std::vector<uint8_t>* out) {
  for (uint32_t b = 0; b < width; ++b) {
    out->push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

inline uint64_t GetBytes(const uint8_t* p, uint32_t width) {
  uint64_t v = 0;
  for (uint32_t b = 0; b < width; ++b) {
    v |= static_cast<uint64_t>(p[b]) << (8 * b);
  }
  return v;
}

inline void StoreU32At(std::vector<uint8_t>* out, size_t at, uint32_t v) {
  std::memcpy(out->data() + at, &v, sizeof(v));
}

}  // namespace

size_t AppendPackedBlock(std::span<const LabelEntry> entries,
                         std::vector<uint8_t>* out) {
  const size_t start = out->size();
  const uint32_t n = static_cast<uint32_t>(entries.size());
  const uint32_t num_groups = (n + kPackedGroupSize - 1) / kPackedGroupSize;

  PutBytes(n, 4, out);
  PutBytes(0, 4, out);  // block_bytes, patched below
  const size_t skip_at = out->size();
  out->resize(out->size() + 8ull * num_groups);  // skip table, patched below

  const size_t payload_at = out->size();
  for (uint32_t g = 0; g < num_groups; ++g) {
    const uint32_t lo = g * kPackedGroupSize;
    const uint32_t k = std::min<uint32_t>(kPackedGroupSize, n - lo);

    uint32_t max_delta = 0;
    uint32_t max_dist = entries[lo].dist;
    Count max_count = entries[lo].count;
    for (uint32_t i = 1; i < k; ++i) {
      const LabelEntry& e = entries[lo + i];
      assert(e.hub_rank > entries[lo + i - 1].hub_rank);
      max_delta = std::max(max_delta, e.hub_rank - entries[lo + i - 1].hub_rank);
      max_dist = std::max<uint32_t>(max_dist, e.dist);
      max_count = std::max(max_count, e.count);
    }

    const uint32_t rank_code = RankLaneCode(max_delta);
    const uint32_t dist_code = DistLaneCode(max_dist);
    const uint32_t count_code = CountLaneCode(max_count);

    StoreU32At(out, skip_at + 8ull * g, entries[lo].hub_rank);
    StoreU32At(out, skip_at + 8ull * g + 4,
               static_cast<uint32_t>(out->size() - payload_at));

    out->push_back(
        static_cast<uint8_t>(rank_code | (dist_code << 2) | (count_code << 3)));
    const uint32_t rank_bytes = RankLaneBytes(rank_code);
    const uint32_t dist_bytes = DistLaneBytes(dist_code);
    const uint32_t count_bytes = CountLaneBytes(count_code);
    for (uint32_t i = 1; i < k; ++i) {
      PutBytes(entries[lo + i].hub_rank - entries[lo + i - 1].hub_rank,
               rank_bytes, out);
    }
    for (uint32_t i = 0; i < k; ++i) PutBytes(entries[lo + i].dist, dist_bytes, out);
    for (uint32_t i = 0; i < k; ++i) PutBytes(entries[lo + i].count, count_bytes, out);
  }

  StoreU32At(out, start + 4, static_cast<uint32_t>(out->size() - start));
  return out->size() - start;
}

void PackedBlockView::DecodeGroup(uint32_t g, PackedGroup* out) const {
  const uint32_t n = NumEntries();
  const uint32_t lo = g * kPackedGroupSize;
  const uint32_t k = std::min<uint32_t>(kPackedGroupSize, n - lo);
  out->n = k;

  const size_t payload_at = 8 + 8ull * NumGroups();
  const uint8_t* p = data_ + payload_at + LoadU32(8 + 8 * g + 4);

  const uint8_t desc = *p++;
  const uint32_t rank_bytes = RankLaneBytes(desc & 0x3);
  const uint32_t dist_bytes = DistLaneBytes((desc >> 2) & 0x1);
  const uint32_t count_bytes = CountLaneBytes((desc >> 3) & 0x3);

  uint32_t rank = GroupFirstRank(g);
  out->ranks[0] = rank;
  for (uint32_t i = 1; i < k; ++i) {
    rank += static_cast<uint32_t>(GetBytes(p, rank_bytes));
    out->ranks[i] = rank;
    p += rank_bytes;
  }
  for (uint32_t i = 0; i < k; ++i) {
    out->dists[i] = static_cast<uint16_t>(GetBytes(p, dist_bytes));
    p += dist_bytes;
  }
  for (uint32_t i = 0; i < k; ++i) {
    out->counts[i] = GetBytes(p, count_bytes);
    p += count_bytes;
  }
}

bool PackedBlockView::FindHub(Rank hub_rank, Distance* dist, Count* count) const {
  const uint32_t num_groups = NumGroups();
  if (num_groups == 0) return false;
  // Last group whose first rank is <= hub_rank; earlier groups cannot
  // contain it, later groups start past it.
  uint32_t lo = 0, hi = num_groups;
  while (hi - lo > 1) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (GroupFirstRank(mid) <= hub_rank) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (GroupFirstRank(lo) > hub_rank) return false;
  PackedGroup grp;
  DecodeGroup(lo, &grp);
  for (uint32_t i = 0; i < grp.n; ++i) {
    if (grp.ranks[i] == hub_rank) {
      *dist = grp.dists[i];
      *count = grp.counts[i];
      return true;
    }
  }
  return false;
}

void PackedBlockView::DecodeAll(std::vector<LabelEntry>* out) const {
  const uint32_t num_groups = NumGroups();
  PackedGroup grp;
  for (uint32_t g = 0; g < num_groups; ++g) {
    DecodeGroup(g, &grp);
    for (uint32_t i = 0; i < grp.n; ++i) {
      out->push_back(LabelEntry{grp.ranks[i], grp.dists[i], grp.counts[i]});
    }
  }
}

PackedLabelMap PackedLabelMap::Encode(const BaseLabelMap& base) {
  PackedLabelMap map;
  map.offsets_.reserve(static_cast<size_t>(base.num_vertices) + 1);
  map.offsets_.push_back(0);
  for (VertexId v = 0; v < base.num_vertices; ++v) {
    const std::span<const LabelEntry> entries = base.Labels(v);
    AppendPackedBlock(entries, &map.bytes_);
    map.offsets_.push_back(map.bytes_.size());
    map.total_entries_ += entries.size();
  }
  return map;
}

}  // namespace pspc
