#ifndef PSPC_TOOLS_PROM_VALIDATE_H_
#define PSPC_TOOLS_PROM_VALIDATE_H_

#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"

/// Prometheus text-exposition validation, shared by
/// `tools/metrics_schema_check --prom` and the ops-plane tests. The
/// catalog check maps names through the exporter's own
/// `PrometheusMetricName` (src/obs/metrics.h), so the two cannot
/// disagree about it.
///
/// Checks, in exposition order:
///   - metric-family names match `[a-zA-Z_:][a-zA-Z0-9_:]*`
///   - every family declares `# HELP` then `# TYPE` (paired, in that
///     order, one of counter|gauge|histogram), exactly once
///   - samples belong to the declared family (histograms: `_bucket`
///     with an `le` label, `_sum`, `_count`; others: the bare name)
///   - histogram completeness: at least one bucket, an `le="+Inf"`
///     bucket, cumulative bucket counts non-decreasing, `+Inf`
///     cumulative equal to `_count`, `_sum`/`_count` present
///   - sample values parse as numbers
///   - optionally (`require_catalog`) every family maps back to a name
///     in src/obs/metric_names.h with the matching metric type
namespace pspc {
namespace obs {

struct PromValidationResult {
  bool ok = true;
  std::string error;    // first violation, with line number
  size_t families = 0;  // metric families successfully validated
};

namespace prom_internal {

inline bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

inline bool ParseNumber(std::string_view token, double* out) {
  if (token.empty()) return false;
  if (token == "+Inf" || token == "-Inf" || token == "NaN") {
    return false;  // our exporter never emits non-finite sample values
  }
  const std::string s(token);
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

}  // namespace prom_internal

inline PromValidationResult ValidatePrometheusText(std::string_view text,
                                                   bool require_catalog) {
  using prom_internal::ParseNumber;
  using prom_internal::ValidMetricName;

  PromValidationResult result;
  auto fail = [&result](size_t line_no, const std::string& what) {
    result.ok = false;
    result.error = "line ";
    result.error += std::to_string(line_no);
    result.error += ": ";
    result.error += what;
    return result;
  };

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Family {
    std::string name;
    Kind kind = Kind::kCounter;
    bool has_type = false;
    size_t samples = 0;
    // histogram state
    size_t buckets = 0;
    double last_cumulative = 0.0;
    bool saw_inf = false;
    double inf_cumulative = 0.0;
    bool saw_sum = false;
    bool saw_count = false;
    double count_value = 0.0;
    size_t declared_line = 0;
  };

  std::vector<std::string> seen_families;
  Family family;
  bool open = false;

  auto finalize = [&](size_t line_no) -> bool {
    if (!open) return true;
    if (!family.has_type) {
      fail(family.declared_line,
           "family '" + family.name + "' has HELP but no TYPE");
      return false;
    }
    if (family.samples == 0) {
      fail(family.declared_line,
           "family '" + family.name + "' declares no samples");
      return false;
    }
    if (family.kind == Kind::kHistogram) {
      if (family.buckets == 0) {
        fail(line_no, "histogram '" + family.name + "' has no _bucket");
        return false;
      }
      if (!family.saw_inf) {
        fail(line_no,
             "histogram '" + family.name + "' missing le=\"+Inf\" bucket");
        return false;
      }
      if (!family.saw_sum || !family.saw_count) {
        fail(line_no, "histogram '" + family.name + "' missing _sum/_count");
        return false;
      }
      if (family.inf_cumulative != family.count_value) {
        fail(line_no, "histogram '" + family.name +
                          "' +Inf bucket disagrees with _count");
        return false;
      }
    }
    ++result.families;
    open = false;
    return true;
  };

  size_t pos = 0, line_no = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, (eol == std::string_view::npos ? text.size() : eol) - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line.substr(0, 7) == "# HELP ") {
      if (!finalize(line_no)) return result;
      std::string_view rest = line.substr(7);
      const size_t sp = rest.find(' ');
      const std::string_view name = rest.substr(0, sp);
      if (!ValidMetricName(name)) {
        return fail(line_no, "bad metric name '" + std::string(name) + "'");
      }
      if (sp == std::string_view::npos || rest.substr(sp + 1).empty()) {
        return fail(line_no,
                    "HELP for '" + std::string(name) + "' has no text");
      }
      for (const std::string& prior : seen_families) {
        if (prior == name) {
          return fail(line_no,
                      "duplicate family '" + std::string(name) + "'");
        }
      }
      family = Family{};
      family.name = std::string(name);
      family.declared_line = line_no;
      seen_families.push_back(family.name);
      open = true;
      continue;
    }

    if (line.substr(0, 7) == "# TYPE ") {
      std::string_view rest = line.substr(7);
      const size_t sp = rest.find(' ');
      const std::string_view name = rest.substr(0, sp);
      if (!open || name != family.name) {
        return fail(line_no, "TYPE for '" + std::string(name) +
                                 "' not immediately preceded by its HELP");
      }
      if (family.has_type) {
        return fail(line_no,
                    "duplicate TYPE for '" + std::string(name) + "'");
      }
      if (family.samples != 0) {
        return fail(line_no, "TYPE for '" + std::string(name) +
                                 "' appears after its samples");
      }
      const std::string_view type =
          sp == std::string_view::npos ? std::string_view() : rest.substr(sp + 1);
      if (type == "counter") {
        family.kind = Kind::kCounter;
      } else if (type == "gauge") {
        family.kind = Kind::kGauge;
      } else if (type == "histogram") {
        family.kind = Kind::kHistogram;
      } else {
        return fail(line_no, "unknown TYPE '" + std::string(type) + "'");
      }
      family.has_type = true;
      if (require_catalog) {
        bool known = false;
        auto match = [&](std::span<const std::string_view> names) {
          for (const std::string_view dotted : names) {
            if (PrometheusMetricName(dotted) == family.name) return true;
          }
          return false;
        };
        switch (family.kind) {
          case Kind::kCounter: known = match(kCounterNames); break;
          case Kind::kGauge: known = match(kGaugeNames); break;
          case Kind::kHistogram: known = match(kHistogramNames); break;
        }
        if (!known) {
          return fail(line_no, "family '" + family.name +
                                   "' is not in the metric catalog (or has "
                                   "the wrong type)");
        }
      }
      continue;
    }

    if (line[0] == '#') continue;  // other comments: tolerated

    // Sample line: name[{labels}] value
    if (!open || !family.has_type) {
      return fail(line_no, "sample before a HELP/TYPE declaration");
    }
    const size_t brace = line.find('{');
    const size_t name_end =
        brace == std::string_view::npos ? line.find(' ') : brace;
    const std::string_view sample_name = line.substr(0, name_end);
    if (!ValidMetricName(sample_name)) {
      return fail(line_no,
                  "bad sample name '" + std::string(sample_name) + "'");
    }
    std::string_view labels;
    std::string_view value_part;
    if (brace != std::string_view::npos) {
      const size_t close = line.find('}', brace);
      if (close == std::string_view::npos) {
        return fail(line_no, "unterminated label set");
      }
      labels = line.substr(brace + 1, close - brace - 1);
      value_part = line.substr(close + 1);
      while (!value_part.empty() && value_part[0] == ' ') {
        value_part.remove_prefix(1);
      }
    } else {
      if (name_end == std::string_view::npos) {
        return fail(line_no, "sample has no value");
      }
      value_part = line.substr(name_end + 1);
    }
    double value = 0.0;
    if (!ParseNumber(value_part, &value)) {
      return fail(line_no,
                  "bad sample value '" + std::string(value_part) + "'");
    }

    if (family.kind == Kind::kHistogram) {
      const std::string& base = family.name;
      if (sample_name == base + "_bucket") {
        const std::string_view le_prefix = "le=\"";
        if (labels.substr(0, le_prefix.size()) != le_prefix ||
            labels.back() != '"') {
          return fail(line_no, "_bucket sample without an le label");
        }
        const std::string_view le =
            labels.substr(le_prefix.size(),
                          labels.size() - le_prefix.size() - 1);
        double bound = 0.0;
        if (le == "+Inf") {
          family.saw_inf = true;
          family.inf_cumulative = value;
        } else if (!ParseNumber(le, &bound)) {
          return fail(line_no, "bad le bound '" + std::string(le) + "'");
        } else if (family.saw_inf) {
          return fail(line_no, "finite bucket after le=\"+Inf\"");
        }
        if (value < family.last_cumulative) {
          return fail(line_no, "histogram '" + base +
                                   "' cumulative bucket counts decrease");
        }
        family.last_cumulative = value;
        ++family.buckets;
      } else if (sample_name == base + "_sum") {
        family.saw_sum = true;
      } else if (sample_name == base + "_count") {
        family.saw_count = true;
        family.count_value = value;
      } else {
        return fail(line_no, "sample '" + std::string(sample_name) +
                                 "' does not belong to histogram '" + base +
                                 "'");
      }
    } else {
      if (sample_name != family.name) {
        return fail(line_no, "sample '" + std::string(sample_name) +
                                 "' does not belong to family '" +
                                 family.name + "'");
      }
      if (family.kind == Kind::kCounter && value < 0) {
        return fail(line_no, "counter '" + family.name + "' is negative");
      }
    }
    ++family.samples;
  }

  if (!finalize(line_no)) return result;
  if (result.ok && result.families == 0) {
    result.ok = false;
    result.error = "no metric families found";
  }
  return result;
}

}  // namespace obs
}  // namespace pspc

#endif  // PSPC_TOOLS_PROM_VALIDATE_H_
