#pragma once
#include "src/common/mutex.h"
#include "src/common/status.h"

class Status;

class Worklist {
 public:
  Status Push(int v);
  int Pop();

 private:
  spc::Mutex mu_{spc::LockRank::kRequestQueue};
  int depth_ = 0;
};
