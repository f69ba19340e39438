#include "src/graph/datasets.h"

#include <cstdlib>

#include "src/graph/generators.h"

namespace pspc {
namespace {

VertexId Shrunk(VertexId base, VertexId divisor) {
  const VertexId v = base / (divisor == 0 ? 1 : divisor);
  return v < 64 ? 64 : v;
}

int ShrunkScale(int base_scale, VertexId divisor) {
  int s = base_scale;
  while (divisor > 1 && s > 8) {
    divisor /= 2;
    --s;
  }
  return s;
}

// --- One builder per paper dataset (seeds fixed; listed in AllDatasets()). ---

Graph BuildFb(VertexId d) {  // Facebook: social, davg ~ 25.6
  return GenerateBarabasiAlbert(Shrunk(8192, d), 13, /*seed=*/0xFB01);
}

Graph BuildGw(VertexId d) {  // Gowalla: geo-social small world, davg ~ 9.7
  return GenerateWattsStrogatz(Shrunk(8192, d), 5, 0.12, /*seed=*/0x6A01);
}

Graph BuildWi(VertexId d) {  // WikiConflict: skewed interactions, davg ~ 34
  return GenerateRmat(ShrunkScale(13, d), EdgeId{17} * (VertexId{1} << ShrunkScale(13, d)),
                      0.57, 0.19, 0.19, /*seed=*/0x3101);
}

Graph BuildGo(VertexId d) {  // Google web graph, davg ~ 9.9
  return GenerateRmat(ShrunkScale(14, d), EdgeId{5} * (VertexId{1} << ShrunkScale(14, d)),
                      0.57, 0.19, 0.19, /*seed=*/0x6001);
}

Graph BuildDb(VertexId d) {  // DBLP co-authorship, davg ~ 8.1
  return GenerateClusteredBa(Shrunk(16384, d), 4, 0.35, /*seed=*/0xDB01);
}

Graph BuildBe(VertexId d) {  // Berkstan web, davg ~ 19.4
  return GenerateRmat(ShrunkScale(13, d), EdgeId{10} * (VertexId{1} << ShrunkScale(13, d)),
                      0.59, 0.19, 0.19, /*seed=*/0xBE01);
}

Graph BuildYt(VertexId d) {  // Youtube social, davg ~ 5.8
  return GenerateBarabasiAlbert(Shrunk(24576, d), 3, /*seed=*/0x5701);
}

Graph BuildPe(VertexId d) {  // Petster social, davg ~ 50.3
  return GenerateBarabasiAlbert(Shrunk(8192, d), 25, /*seed=*/0x9E01);
}

Graph BuildFl(VertexId d) {  // Flickr social, davg ~ 19.8
  return GenerateRmat(ShrunkScale(14, d), EdgeId{10} * (VertexId{1} << ShrunkScale(14, d)),
                      0.55, 0.2, 0.2, /*seed=*/0xF101);
}

Graph BuildIn(VertexId d) {  // Indochina web (largest), davg ~ 40.7
  return GenerateRmat(ShrunkScale(15, d), EdgeId{20} * (VertexId{1} << ShrunkScale(15, d)),
                      0.6, 0.18, 0.18, /*seed=*/0x1D01);
}

Graph BuildRd(VertexId d) {  // Road-network analogue (paper §III-G)
  const VertexId side = Shrunk(96, d);
  return GenerateRoadGrid(side, side, 0.92, 0.06, /*seed=*/0xAD01);
}

}  // namespace

const std::vector<DatasetSpec>& AllDatasets() {
  static const std::vector<DatasetSpec>* kDatasets =
      new std::vector<DatasetSpec>{
          {"FB", "Facebook social -> Barabasi-Albert", &BuildFb, true},
          {"GW", "Gowalla geo-social -> Watts-Strogatz", &BuildGw, true},
          {"WI", "WikiConflict interactions -> R-MAT", &BuildWi, true},
          {"GO", "Google web -> R-MAT", &BuildGo, true},
          {"DB", "DBLP co-authorship -> clustered BA", &BuildDb, false},
          {"BE", "Berkstan web -> R-MAT", &BuildBe, false},
          {"YT", "Youtube social -> sparse BA", &BuildYt, false},
          {"PE", "Petster social -> dense BA", &BuildPe, false},
          {"FL", "Flickr social -> R-MAT", &BuildFl, false},
          {"IN", "Indochina web -> large R-MAT", &BuildIn, false},
          {"RD", "road network -> perturbed grid", &BuildRd, false},
      };
  return *kDatasets;
}

Result<DatasetSpec> DatasetByCode(const std::string& code) {
  std::string known;
  for (const auto& spec : AllDatasets()) {
    if (spec.code == code) return spec;
    known += known.empty() ? spec.code : ", " + spec.code;
  }
  return Status::NotFound("unknown dataset code '" + code + "' (known: " +
                          known + ")");
}

VertexId BenchScaleDivisor() {
  const char* env = std::getenv("PSPC_BENCH_SCALE_DIVISOR");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? static_cast<VertexId>(v) : 1;
}

}  // namespace pspc
