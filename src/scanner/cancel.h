// Cooperative cancellation for scan execution. A CancelToken is a
// lock-free flag that long-running loops (the ZMap probe loop, the
// per-lane scheduled loops) poll at batch granularity; tripping it makes
// every observer wind down at its next check without tearing shared
// state. Tokens chain: a per-attempt token with a process-wide kill
// token as parent lets the supervisor abort one cell attempt (retry)
// or the whole run (simulated process death) through a single check.
//
// Determinism note: cancellation only ever *truncates* work. Any result
// produced under a tripped token is discarded by the caller (see
// ScanResult::aborted), so a cancelled run never contributes bytes that
// could differ from an uninterrupted run.
#pragma once

#include <atomic>

namespace originscan::scan {

class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

 private:
  std::atomic<bool> cancelled_{false};
  const CancelToken* parent_ = nullptr;
};

}  // namespace originscan::scan
