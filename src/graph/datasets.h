#ifndef PSPC_SRC_GRAPH_DATASETS_H_
#define PSPC_SRC_GRAPH_DATASETS_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/graph/graph.h"

/// Benchmark dataset registry.
///
/// The paper's Table III lists 10 public graphs (FB, GW, WI, GO, DB,
/// BE, YT, PE, FL, IN). Those files are not available offline, so each
/// is mapped to a seeded synthetic generator of the same family and
/// average degree at laptop scale (each `AllDatasets()` entry's
/// `description` names the graph it substitutes and the family). `RD`
/// adds the road network family that motivates the paper's
/// tree-decomposition order.
namespace pspc {

struct DatasetSpec {
  /// Short code used in the paper's tables ("FB", "GW", ...).
  std::string code;
  /// Paper dataset it substitutes and the generator family used.
  std::string description;
  /// Builds the graph; `scale_divisor >= 1` shrinks the vertex count for
  /// quick runs (used by `PSPC_BENCH_SCALE_DIVISOR`).
  Graph (*build)(VertexId scale_divisor);
  /// True for the four datasets the paper uses in thread sweeps
  /// (FB, GO, GW, WI — Figs. 8-12).
  bool in_sweep_set;
};

/// All registered datasets in the paper's Table III order (+ RD last).
const std::vector<DatasetSpec>& AllDatasets();

/// Finds a dataset by code ("FB"); NotFound, naming the known codes,
/// if there is none.
Result<DatasetSpec> DatasetByCode(const std::string& code);

/// Reads `PSPC_BENCH_SCALE_DIVISOR` from the environment (default 1).
/// Benchmarks divide dataset sizes by this, enabling fast smoke runs.
VertexId BenchScaleDivisor();

}  // namespace pspc

#endif  // PSPC_SRC_GRAPH_DATASETS_H_
