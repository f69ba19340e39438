#include "src/label/spc_index.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/label/label_merge.h"

namespace pspc {
namespace {

constexpr uint64_t kIndexMagic = 0x5053'5043'4944'5801ull;  // "PSPCIDX" v1

// On-disk entry footprint: hub_rank (4) + dist (2) + count (8), written
// field-by-field (no struct padding).
constexpr uint64_t kEntryBytes = sizeof(Rank) + sizeof(Distance) +
                                 sizeof(Count);

// Entries Save and Load move per stream call (~0.9 MB of file): a
// per-entry call costs more than the bytes it moves.
constexpr uint64_t kChunkEntries = 65536;

// One entry's kEntryBytes file bytes: the fields in declaration order,
// each in host byte order, with no padding.
void PackEntry(const LabelEntry& e, char* out) {
  std::memcpy(out, &e.hub_rank, sizeof(e.hub_rank));
  std::memcpy(out + sizeof(Rank), &e.dist, sizeof(e.dist));
  std::memcpy(out + sizeof(Rank) + sizeof(Distance), &e.count,
              sizeof(e.count));
}

LabelEntry UnpackEntry(const char* in) {
  LabelEntry e;
  std::memcpy(&e.hub_rank, in, sizeof(e.hub_rank));
  std::memcpy(&e.dist, in + sizeof(Rank), sizeof(e.dist));
  std::memcpy(&e.count, in + sizeof(Rank) + sizeof(Distance),
              sizeof(e.count));
  return e;
}

/// Puts `slot` in rank order by merging its rank-sorted runs (split
/// where a hub rank falls) pairwise, bottom up, until one is left.
void MergeRuns(std::span<LabelEntry> slot) {
  std::vector<size_t> bounds{0};
  for (size_t i = 1; i < slot.size(); ++i) {
    if (slot[i].hub_rank < slot[i - 1].hub_rank) bounds.push_back(i);
  }
  bounds.push_back(slot.size());
  while (bounds.size() > 2) {
    size_t kept = 1;
    for (size_t i = 2; i < bounds.size(); i += 2) {
      std::inplace_merge(slot.begin() + bounds[i - 2],
                         slot.begin() + bounds[i - 1],
                         slot.begin() + bounds[i], ByHubRank);
      bounds[kept++] = bounds[i];
    }
    if (bounds.size() % 2 == 0) bounds[kept++] = bounds.back();
    bounds.resize(kept);
  }
}

}  // namespace

SpcIndex::Side SpcIndex::Flatten(std::span<LabelLists> parts,
                                 int num_threads) {
  const size_t n = parts.front().size();
  Side side;
  side.offsets.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    uint64_t size = 0;
    for (const LabelLists& part : parts) size += part[v].size();
    side.offsets[v + 1] = side.offsets[v] + size;
  }
  side.entries.resize(side.offsets[n]);
  ParallelForDynamic(n, num_threads, /*chunk=*/64, [&](size_t v) {
    LabelEntry* const slot = side.entries.data() + side.offsets[v];
    LabelEntry* end = slot;
    for (LabelLists& part : parts) {
      end = std::copy(part[v].begin(), part[v].end(), end);
      std::vector<LabelEntry>().swap(part[v]);
    }
    MergeRuns({slot, end});
  });
  return side;
}

SpcIndex::SpcIndex(VertexOrder order, LabelLists labels)
    : SpcIndex(std::move(order), {&labels, 1}, {}, /*num_threads=*/1) {}

SpcIndex::SpcIndex(VertexOrder order, LabelLists out, LabelLists in)
    : SpcIndex(std::move(order), {&out, 1}, {&in, 1}, /*num_threads=*/1) {}

SpcIndex::SpcIndex(VertexOrder order, std::span<LabelLists> out_parts,
                   std::span<LabelLists> in_parts, int num_threads)
    : order_(std::move(order)) {
  PSPC_CHECK(!out_parts.empty());
  for (const auto parts : {out_parts, in_parts}) {
    for (const LabelLists& part : parts) {
      PSPC_CHECK(part.size() == order_.Size());
    }
  }
  out_ = Flatten(out_parts, num_threads);
  if (!in_parts.empty()) in_ = Flatten(in_parts, num_threads);
}

SpcResult SpcIndex::Query(VertexId s, VertexId t) const {
  PSPC_CHECK_MSG(s < NumVertices() && t < NumVertices(),
                 "query (" << s << "," << t << ") out of range");
  if (s == t) return {0, 1};
  return MergeLabelCountsBranchFree(Labels(s), InLabels(t));
}

double SpcIndex::AverageLabelSize() const {
  const VertexId n = NumVertices();
  if (n == 0) return 0.0;
  return static_cast<double>(TotalEntries()) / n;
}

size_t SpcIndex::SizeBytes() const {
  return TotalEntries() * sizeof(LabelEntry) +
         (out_.offsets.size() + in_.offsets.size()) * sizeof(uint64_t);
}

Status SpcIndex::Save(const std::string& path) const {
  if (Directed()) {
    return Status::InvalidArgument("a directed index has no on-disk format");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  auto put = [&out](const void* p, size_t bytes) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(bytes));
  };
  const uint64_t n = NumVertices();
  const uint64_t total = out_.entries.size();
  put(&kIndexMagic, sizeof(kIndexMagic));
  put(&n, sizeof(n));
  put(&total, sizeof(total));
  put(order_.OrderToVertex().data(), n * sizeof(VertexId));
  put(out_.offsets.data(), out_.offsets.size() * sizeof(uint64_t));
  std::vector<char> chunk(std::min(total, kChunkEntries) * kEntryBytes);
  for (uint64_t first = 0; first < total; first += kChunkEntries) {
    const uint64_t size = std::min(total - first, kChunkEntries);
    for (uint64_t i = 0; i < size; ++i) {
      PackEntry(out_.entries[first + i], chunk.data() + i * kEntryBytes);
    }
    put(chunk.data(), size * kEntryBytes);
  }
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<SpcIndex> SpcIndex::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path);
  // Every size read from the file is validated against the physical
  // file length *before* any allocation, so a corrupt header cannot
  // drive a multi-gigabyte resize or a crash — only Status::Corruption.
  const auto file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  auto get = [&in](void* p, size_t bytes) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(bytes));
    return static_cast<bool>(in);
  };
  uint64_t magic = 0, n = 0, total = 0;
  if (!get(&magic, sizeof(magic)) || magic != kIndexMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  if (!get(&n, sizeof(n)) || !get(&total, sizeof(total))) {
    return Status::Corruption("truncated header in " + path);
  }
  if (n >= kInvalidVertex) {
    return Status::Corruption("implausible vertex count in " + path);
  }
  // Division, not multiplication: `total * kEntryBytes` could wrap for
  // a crafted 2^63-ish entry count and sail past the size check.
  const uint64_t header_bytes = 3 * sizeof(uint64_t);
  const uint64_t fixed_bytes =
      n * sizeof(VertexId) + (n + 1) * sizeof(uint64_t);
  if (file_size < header_bytes || fixed_bytes > file_size - header_bytes ||
      total > (file_size - header_bytes - fixed_bytes) / kEntryBytes) {
    return Status::Corruption("file too short for declared sizes in " + path);
  }
  std::vector<VertexId> order_vec(n);
  if (!get(order_vec.data(), n * sizeof(VertexId))) {
    return Status::Corruption("truncated order in " + path);
  }
  // Validate the permutation here: VertexOrder's constructor treats a
  // malformed order as a programmer error and aborts, which a corrupt
  // file must never be able to trigger.
  {
    std::vector<bool> seen(n, false);
    for (const VertexId v : order_vec) {
      if (v >= n || seen[v]) {
        return Status::Corruption("order is not a permutation in " + path);
      }
      seen[v] = true;
    }
  }
  SpcIndex index;
  index.order_ = VertexOrder(std::move(order_vec));
  std::vector<uint64_t>& offsets = index.out_.offsets;
  std::vector<LabelEntry>& entries = index.out_.entries;
  offsets.resize(n + 1);
  if (!get(offsets.data(), offsets.size() * sizeof(uint64_t))) {
    return Status::Corruption("truncated offsets in " + path);
  }
  if (offsets.front() != 0 || offsets.back() != total) {
    return Status::Corruption("inconsistent offsets in " + path);
  }
  for (size_t v = 0; v + 1 < offsets.size(); ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::Corruption("non-monotonic offsets in " + path);
    }
  }
  entries.resize(total);
  std::vector<char> chunk(std::min(total, kChunkEntries) * kEntryBytes);
  for (uint64_t first = 0; first < total; first += kChunkEntries) {
    const uint64_t size = std::min(total - first, kChunkEntries);
    if (!get(chunk.data(), size * kEntryBytes)) {
      return Status::Corruption("truncated entries in " + path);
    }
    for (uint64_t i = 0; i < size; ++i) {
      entries[first + i] = UnpackEntry(chunk.data() + i * kEntryBytes);
    }
  }
  // Per-vertex lists must be strictly rank-sorted with in-range hubs —
  // the invariant Query's sorted merge relies on.
  for (uint64_t v = 0; v < n; ++v) {
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (entries[i].hub_rank >= n ||
          (i > offsets[v] && entries[i - 1].hub_rank >= entries[i].hub_rank)) {
        return Status::Corruption("unsorted or out-of-range labels in " +
                                  path);
      }
    }
  }
  return index;
}

}  // namespace pspc
