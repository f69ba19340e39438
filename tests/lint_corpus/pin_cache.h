#pragma once
#include <vector>

#include "src/serve/snapshot_api.h"

class PinCache {
 public:
  void Remember(int hits);

 private:
  SnapshotRef held_;                  // pin stored beyond acquiring scope
  std::vector<SnapshotRef> history_;  // pins held in bulk, never released
  int hits_ = 0;
};

class PinHolder {
 public:
  void Reset();

 private:
  SnapshotRef ref_;  // a member pin, even one that Reset() releases
};
