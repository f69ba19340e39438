#include "src/core/build_options.h"

namespace pspc {

std::string ToString(Algorithm a) {
  switch (a) {
    case Algorithm::kHpSpc:
      return "HP-SPC";
    case Algorithm::kPspc:
      return "PSPC";
  }
  return "?";
}

std::string ToString(OrderingScheme s) {
  switch (s) {
    case OrderingScheme::kDegree:
      return "degree";
    case OrderingScheme::kSignificantPath:
      return "significant-path";
    case OrderingScheme::kRoadNetwork:
      return "road-network";
    case OrderingScheme::kHybrid:
      return "hybrid";
    case OrderingScheme::kIdentity:
      return "identity";
  }
  return "?";
}

std::string ToString(ScheduleKind k) {
  switch (k) {
    case ScheduleKind::kStatic:
      return "static";
    case ScheduleKind::kDynamic:
      return "dynamic";
    case ScheduleKind::kCostAware:
      return "cost-aware";
  }
  return "?";
}

}  // namespace pspc
