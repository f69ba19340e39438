// Validates a MetricsRegistry::ToJson snapshot against the compiled-in
// metric catalog (src/obs/metric_names.h). CI runs this over the file
// `spc_cli serve --metrics-json` wrote, so a metric renamed (or
// dropped) on only one side of the instrumentation/catalog pair breaks
// the build instead of silently breaking dashboards.
//
//   metrics_schema_check <snapshot.json> [--require serve,dynamic]
//   metrics_schema_check --prom <scrape.txt>
//
// JSON mode checks, all fatal:
//   * the file parses as one JSON object with the three metric
//     sections (counters/gauges/histograms) and a schema_version
//     matching kMetricsSchemaVersion;
//   * every metric name in the snapshot is in the catalog, and in the
//     catalog section matching where the snapshot placed it;
//   * with --require, every name in the named required groups
//     (kRequiredServeMetrics / kRequiredDynamicMetrics) is present.
//
// --prom validates a Prometheus text-format scrape (what the obs
// server's /metrics endpoint returns, or --metrics-prom wrote):
// name charset, HELP/TYPE pairing, histogram _bucket/_sum/_count
// completeness with cumulative buckets — see tools/prom_validate.h.
// CI runs it against a live scrape so the text exporter cannot drift
// from what Prometheus actually ingests.
//
// The scanner below is not a general JSON parser — it only walks the
// machine-generated snapshot shape: object keys by brace depth, with
// strings and escapes skipped correctly. That keeps the tool free of
// a JSON library.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metric_names.h"
#include "tools/prom_validate.h"

namespace {

struct Section {
  std::string name;              // "counters", "gauges", "histograms"
  std::set<std::string> keys;    // metric names found in the snapshot
};

// Extracts the keys of the top-level object `section` inside `json`:
// the strings immediately followed by ':' at depth 1 of that object.
// Returns false when the section is missing or unbalanced.
bool ExtractSectionKeys(const std::string& json, const std::string& section,
                        std::set<std::string>* keys) {
  const std::string needle = "\"" + section + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  size_t i = at + needle.size();
  while (i < json.size() && (json[i] == ' ' || json[i] == '\n')) ++i;
  if (i >= json.size() || json[i] != '{') return false;

  int depth = 0;
  std::string pending;  // last string literal seen at depth 1
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      std::string literal;
      for (++i; i < json.size() && json[i] != '"'; ++i) {
        if (json[i] == '\\' && i + 1 < json.size()) {
          literal.push_back(json[i + 1]);  // verbatim is fine for names
          ++i;
        } else {
          literal.push_back(json[i]);
        }
      }
      if (i >= json.size()) return false;  // unterminated string
      if (depth == 1) pending = std::move(literal);
      continue;
    }
    if (c == ':' && depth == 1 && !pending.empty()) {
      keys->insert(pending);
      pending.clear();
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) return true;  // section object closed
    }
  }
  return false;  // ran off the end
}

bool ExtractSchemaVersion(const std::string& json, long* version) {
  const char needle[] = "\"schema_version\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  return std::sscanf(json.c_str() + at + std::strlen(needle), "%ld",
                     version) == 1;
}

template <size_t N>
bool InCatalog(const std::string_view (&catalog)[N], std::string_view name) {
  for (const auto known : catalog) {
    if (name == known) return true;
  }
  return false;
}

int Fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "metrics_schema_check: %s: %s\n", what,
               detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string prom_path;
  std::vector<std::string> require;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prom" && i + 1 < argc) {
      prom_path = argv[++i];
    } else if (arg == "--require" && i + 1 < argc) {
      std::stringstream groups(argv[++i]);
      std::string group;
      while (std::getline(groups, group, ',')) {
        if (group != "serve" && group != "dynamic") {
          return Fail("unknown --require group", group);
        }
        require.push_back(group);
      }
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: metrics_schema_check <snapshot.json> "
                   "[--require serve,dynamic] | --prom <scrape.txt>\n");
      return 2;
    }
  }
  if (path.empty() == prom_path.empty()) {  // exactly one mode
    std::fprintf(stderr,
                 "usage: metrics_schema_check <snapshot.json> "
                 "[--require serve,dynamic] | --prom <scrape.txt>\n");
    return 2;
  }

  if (!prom_path.empty()) {
    std::ifstream in(prom_path, std::ios::binary);
    if (!in) return Fail("cannot open", prom_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const pspc::obs::PromValidationResult result =
        pspc::obs::ValidatePrometheusText(text, /*require_catalog=*/true);
    if (!result.ok) return Fail("invalid Prometheus text", result.error);
    std::printf("metrics_schema_check: OK (%zu Prometheus families)\n",
                result.families);
    return 0;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail("cannot open", path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  long version = -1;
  if (!ExtractSchemaVersion(json, &version)) {
    return Fail("missing schema_version", path);
  }
  if (version != pspc::obs::kMetricsSchemaVersion) {
    return Fail("schema_version mismatch",
                "snapshot has " + std::to_string(version) + ", tool expects " +
                    std::to_string(pspc::obs::kMetricsSchemaVersion));
  }

  Section sections[] = {{"counters", {}}, {"gauges", {}}, {"histograms", {}}};
  for (Section& s : sections) {
    if (!ExtractSectionKeys(json, s.name, &s.keys)) {
      return Fail("missing or malformed section", s.name);
    }
  }

  // Every snapshot name must be in the catalog — and in the matching
  // catalog section (a counter exported as a gauge is also drift).
  size_t total = 0;
  for (const Section& s : sections) {
    for (const std::string& name : s.keys) {
      if (!pspc::obs::IsKnownMetricName(name)) {
        return Fail("unknown metric name", name + " (in " + s.name + ")");
      }
      const bool placed_right =
          (s.name == "counters" &&
           InCatalog(pspc::obs::kCounterNames, name)) ||
          (s.name == "gauges" && InCatalog(pspc::obs::kGaugeNames, name)) ||
          (s.name == "histograms" &&
           InCatalog(pspc::obs::kHistogramNames, name));
      if (!placed_right) {
        return Fail("metric in wrong section", name + " (in " + s.name + ")");
      }
      ++total;
    }
  }

  std::set<std::string> all;
  for (const Section& s : sections) all.insert(s.keys.begin(), s.keys.end());
  for (const std::string& group : require) {
    const std::span<const std::string_view> names =
        group == "serve" ? std::span<const std::string_view>(
                               pspc::obs::kRequiredServeMetrics)
                         : std::span<const std::string_view>(
                               pspc::obs::kRequiredDynamicMetrics);
    for (const std::string_view name : names) {
      if (all.find(std::string(name)) == all.end()) {
        return Fail(("missing required " + group + " metric").c_str(),
                    std::string(name));
      }
    }
  }

  std::string required;
  for (const std::string& group : require) {
    required += required.empty() ? ", required: " : ",";
    required += group;
  }
  std::printf("metrics_schema_check: OK (%zu metrics, schema v%ld%s)\n",
              total, version, required.c_str());
  return 0;
}
