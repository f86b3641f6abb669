// Fork-join claim pool: the one host-thread pool behind both parallel levels of the
// simulator — a Simulator's shard lanes within an epoch, and a Federation's cells
// within a federation epoch.
//
// Run(n, fn) executes fn(0) .. fn(n-1), each exactly once, and returns when all
// have finished. Items are claimed off a shared atomic counter by the calling
// thread (worker 0) plus `threads - 1` persistent helpers parked on a condvar
// between runs, so which thread runs which item is unobservable to anything that
// keeps per-item state per item. The mutex handoff at the start and end of each run
// orders everything the caller wrote before Run ahead of every fn call, and every
// fn call ahead of Run's return.

#ifndef SRC_UTIL_CLAIM_POOL_H_
#define SRC_UTIL_CLAIM_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace presto {

class ClaimPool {
 public:
  // `threads` counts the caller; values below 2 spawn no helpers (Run is a loop).
  explicit ClaimPool(int threads);
  ~ClaimPool();

  ClaimPool(const ClaimPool&) = delete;
  ClaimPool& operator=(const ClaimPool&) = delete;

  template <typename Fn>
  void Run(int n, Fn&& fn) {
    if (helpers_.empty()) {
      for (int i = 0; i < n; ++i) {
        fn(i);
      }
      return;
    }
    // Type-erased without allocating: `fn` outlives the run, which joins every
    // call before returning.
    RunShared(n, &fn, [](void* ctx, int i) {
      (*static_cast<std::remove_reference_t<Fn>*>(ctx))(i);
    });
  }

 private:
  void RunShared(int n, void* ctx, void (*call)(void*, int));
  void HelperLoop();
  void Claim();

  std::mutex m_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t gen_ = 0;
  bool quit_ = false;
  int done_ = 0;
  int n_ = 0;
  void* ctx_ = nullptr;
  void (*call_)(void*, int) = nullptr;
  std::atomic<int> next_{0};
  std::vector<std::thread> helpers_;  // last: they use every member above
};

}  // namespace presto

#endif  // SRC_UTIL_CLAIM_POOL_H_
