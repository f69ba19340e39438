#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/builder_facade.h"
#include "src/core/pspc_builder.h"
#include "src/digraph/digraph.h"
#include "src/graph/generators.h"
#include "src/label/label_entry.h"
#include "src/label/spc_index.h"

namespace pspc {
namespace {

// On-disk layout (see SpcIndex::Save): magic(8) n(8) total(8),
// order n*4, offsets (n+1)*8, entries total*(4+2+8).
constexpr size_t kHeaderBytes = 24;
constexpr size_t kEntryBytes = 14;
// Entries SpcIndex moves per stream call; the multi-chunk cases below
// cut files at its boundaries.
constexpr size_t kChunkEntries = 65536;

SpcIndex BuildSmallIndex() {
  BuildOptions options;
  options.num_landmarks = 4;
  return BuildIndex(GenerateErdosRenyi(24, 50, 7), options).index;
}

std::string SavedIndexPath() {
  static const std::string* path = [] {
    auto* p = new std::string(::testing::TempDir() + "/io_test.idx");
    EXPECT_TRUE(BuildSmallIndex().Save(*p).ok());
    return p;
  }();
  return *path;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// An index of 83,579 entries: more than one chunk, ending in a partial
// one.
SpcIndex BuildMultiChunkIndex() {
  return BuildIndex(GenerateBarabasiAlbert(1000, 5, 0xCAFE), BuildOptions{})
      .index;
}

void PutLittleEndian(std::vector<char>& out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

// The v1 file of `index`, encoded field by field and little-endian from
// the public accessors alone, so Save is pinned independently of Load.
std::vector<char> ReferenceEncoding(const SpcIndex& index) {
  std::vector<char> out;
  const VertexId n = index.NumVertices();
  PutLittleEndian(out, 0x5053'5043'4944'5801ull, 8);  // "PSPCIDX" v1
  PutLittleEndian(out, n, 8);
  PutLittleEndian(out, index.TotalEntries(), 8);
  for (const VertexId v : index.Order().OrderToVertex()) {
    PutLittleEndian(out, v, 4);
  }
  uint64_t offset = 0;
  PutLittleEndian(out, offset, 8);
  for (VertexId v = 0; v < n; ++v) {
    offset += index.Labels(v).size();
    PutLittleEndian(out, offset, 8);
  }
  for (VertexId v = 0; v < n; ++v) {
    for (const LabelEntry& e : index.Labels(v)) {
      PutLittleEndian(out, e.hub_rank, 4);
      PutLittleEndian(out, e.dist, 2);
      PutLittleEndian(out, e.count, 8);
    }
  }
  return out;
}

TEST(SpcIndexIoTest, RoundTrip) {
  const SpcIndex index = BuildSmallIndex();
  const auto loaded = SpcIndex::Load(SavedIndexPath());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), index);
}

TEST(SpcIndexIoTest, SaveWritesTheReferenceBytes) {
  EXPECT_EQ(ReadAll(SavedIndexPath()), ReferenceEncoding(BuildSmallIndex()));
  const SpcIndex index = BuildMultiChunkIndex();
  const std::string path = ::testing::TempDir() + "/golden_multi.idx";
  ASSERT_TRUE(index.Save(path).ok());
  EXPECT_EQ(ReadAll(path), ReferenceEncoding(index));
}

TEST(SpcIndexIoTest, MultiChunkRoundTrip) {
  const SpcIndex index = BuildMultiChunkIndex();
  ASSERT_GT(index.TotalEntries(), kChunkEntries);
  ASSERT_NE(index.TotalEntries() % kChunkEntries, 0u);
  const std::string path = ::testing::TempDir() + "/multi_chunk.idx";
  ASSERT_TRUE(index.Save(path).ok());
  const auto loaded = SpcIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), index);
}

// Cuts at the first chunk boundary of the entry block, one byte either
// side of it, and one byte short of the end.
TEST(SpcIndexIoTest, ChunkBoundaryTruncationsAreCorruption) {
  const SpcIndex index = BuildMultiChunkIndex();
  const std::string path = ::testing::TempDir() + "/chunk_cut.idx";
  ASSERT_TRUE(index.Save(path).ok());
  const auto bytes = ReadAll(path);
  const size_t n = index.NumVertices();
  const size_t boundary = kHeaderBytes + n * sizeof(VertexId) +
                          (n + 1) * sizeof(uint64_t) +
                          kChunkEntries * kEntryBytes;
  ASSERT_LT(boundary + 1, bytes.size());
  for (const size_t cut :
       {boundary - 1, boundary, boundary + 1, bytes.size() - 1}) {
    WriteAll(path, {bytes.begin(), bytes.begin() + static_cast<long>(cut)});
    EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption)
        << "cut at " << cut;
  }
}

TEST(SpcIndexIoTest, MissingFileIsIOError) {
  EXPECT_EQ(SpcIndex::Load("/nonexistent/index.bin").status().code(),
            Status::Code::kIOError);
}

TEST(SpcIndexIoTest, BadMagicIsCorruption) {
  auto bytes = ReadAll(SavedIndexPath());
  bytes[0] ^= 0x5A;
  const std::string path = ::testing::TempDir() + "/bad_magic.idx";
  WriteAll(path, bytes);
  EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption);
}

// Truncations at every structurally interesting boundary: mid-header,
// mid-order, mid-offsets, mid-entries, and one byte short. All must be
// a clean Corruption, never a crash.
TEST(SpcIndexIoTest, TruncationsAreCorruption) {
  const auto bytes = ReadAll(SavedIndexPath());
  ASSERT_GT(bytes.size(), kHeaderBytes);
  const size_t cuts[] = {4,  12,         20,
                         kHeaderBytes + 5,  bytes.size() / 2,
                         bytes.size() - 1};
  for (const size_t cut : cuts) {
    const std::string path = ::testing::TempDir() + "/truncated.idx";
    WriteAll(path, {bytes.begin(), bytes.begin() + static_cast<long>(cut)});
    EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption)
        << "cut at " << cut;
  }
}

// A corrupt header must not drive a huge allocation (the declared
// sizes are validated against the physical file length first).
TEST(SpcIndexIoTest, ImplausibleSizesAreCorruption) {
  auto bytes = ReadAll(SavedIndexPath());
  auto patch_u64 = [&bytes](size_t offset, uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes[offset + static_cast<size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  };
  const std::string path = ::testing::TempDir() + "/huge_n.idx";

  patch_u64(8, uint64_t{1} << 60);  // vertex count
  WriteAll(path, bytes);
  EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption);

  bytes = ReadAll(SavedIndexPath());
  patch_u64(16, uint64_t{1} << 60);  // entry count
  WriteAll(path, bytes);
  EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption);

  // 2^63 * 14 bytes/entry wraps uint64; the size check must use
  // division so the overflow cannot smuggle a huge resize through.
  bytes = ReadAll(SavedIndexPath());
  patch_u64(16, uint64_t{1} << 63);
  WriteAll(path, bytes);
  EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption);
}

// A corrupt order region (duplicate vertex) must not abort the
// process via VertexOrder's internal invariant checks.
TEST(SpcIndexIoTest, NonPermutationOrderIsCorruption) {
  auto bytes = ReadAll(SavedIndexPath());
  // order[0] = order[1]: guaranteed duplicate.
  for (int i = 0; i < 4; ++i) {
    bytes[kHeaderBytes + static_cast<size_t>(i)] =
        bytes[kHeaderBytes + 4 + static_cast<size_t>(i)];
  }
  const std::string path = ::testing::TempDir() + "/dup_order.idx";
  WriteAll(path, bytes);
  EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption);
}

TEST(SpcIndexIoTest, NonMonotonicOffsetsAreCorruption) {
  auto bytes = ReadAll(SavedIndexPath());
  const SpcIndex index = BuildSmallIndex();
  const size_t n = index.NumVertices();
  const size_t offsets_base = kHeaderBytes + n * sizeof(VertexId);
  // offsets[1] = huge: breaks monotonicity against offsets[2] while
  // keeping front()/back() intact.
  bytes[offsets_base + 8 + 7] = static_cast<char>(0x70);
  const std::string path = ::testing::TempDir() + "/bad_offsets.idx";
  WriteAll(path, bytes);
  EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption);
}

TEST(SpcIndexIoTest, UnsortedLabelsAreCorruption) {
  auto bytes = ReadAll(SavedIndexPath());
  const SpcIndex index = BuildSmallIndex();
  const size_t n = index.NumVertices();
  const size_t entries_base =
      kHeaderBytes + n * sizeof(VertexId) + (n + 1) * sizeof(uint64_t);
  // First entry's hub rank -> out of range (rank >= n).
  bytes[entries_base + 3] = static_cast<char>(0x7F);
  const std::string path = ::testing::TempDir() + "/bad_entries.idx";
  WriteAll(path, bytes);
  EXPECT_EQ(SpcIndex::Load(path).status().code(), Status::Code::kCorruption);
}

TEST(SpcIndexIoTest, DirectedSaveIsInvalidArgumentAndWritesNothing) {
  // The v1 format holds one label side; writing only Lout would load
  // back as a wrong undirected index.
  const DiGraph g = MakeDiGraph(3, {{0, 1}, {1, 2}});
  const SpcIndex directed =
      BuildDirectedPspcIndex(g, DirectedDegreeOrder(g), BuildOptions{})
          .index;
  const std::string path = ::testing::TempDir() + "/directed.idx";
  std::remove(path.c_str());
  EXPECT_EQ(directed.Save(path).code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(std::ifstream(path).good());
}

}  // namespace
}  // namespace pspc
