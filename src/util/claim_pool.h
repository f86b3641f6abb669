// Fork-join claim pool: the one host-thread pool behind both parallel levels of the
// simulator — a Simulator's shard lanes within an epoch, and a Federation's cells
// within a federation epoch.
//
// Run(n, fn) executes fn(0) .. fn(n-1), each exactly once, and returns when all
// have finished. Items are claimed off a shared atomic counter by the calling
// thread (worker 0) plus `threads - 1` persistent helpers, so which thread runs
// which item is unobservable to anything that keeps per-item state per item. The
// generation bump that starts a run (release) orders everything the caller wrote
// before Run ahead of every fn call; the done count that ends it (acquire) orders
// every fn call ahead of Run's return.
//
// Between runs a helper first polls for the next generation for up to kSpinWindow
// (yielding the CPU between polls), and only then parks on a condvar; the caller
// polls for the helpers' completion the same way before it parks. Lane epochs are
// a few milliseconds of simulated time and barriers come back to back, so most
// runs start and end inside the window and cost no futex wake-up on either side.

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
  // The poll window before a helper (or the waiting caller) parks, in microseconds.
  // It must cover the serial barrier work between two runs (mail drain, control
  // lane, next-event scan). On a 4-core host it made 2 and 4 lane threads at least
  // as fast as one on a 4-proxy x 256-sensor cell stepping 2 ms epochs, where a
  // condvar wake-up per run had made them ~30% slower.
  static constexpr int kSpinWindow = 50;

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

  // Parks on the generation counter and the done count: a bump or a completion
  // made under m_ (start) or seen with caller_parked_ set (done) wakes a sleeper.
  std::mutex m_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::atomic<uint64_t> gen_{0};
  std::atomic<bool> quit_{false};
  std::atomic<int> done_{0};
  std::atomic<bool> caller_parked_{false};
  int n_ = 0;
  void* ctx_ = nullptr;
  void (*call_)(void*, int) = nullptr;
  std::atomic<int> next_{0};
  const int num_helpers_;
  std::vector<std::thread> helpers_;  // last: they use every member above
};

}  // namespace presto

#endif  // SRC_UTIL_CLAIM_POOL_H_
