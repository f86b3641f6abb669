#include "src/util/claim_pool.h"

#include <chrono>

namespace presto {
namespace {

// Polls `ready` for up to ClaimPool::kSpinWindow, yielding between polls so a
// poller never starves the thread it waits for when both share one CPU.
template <typename Ready>
bool PollFor(Ready ready) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(ClaimPool::kSpinWindow);
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= until) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

ClaimPool::ClaimPool(int threads) : num_helpers_(threads > 1 ? threads - 1 : 0) {
  for (int t = 0; t < num_helpers_; ++t) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

ClaimPool::~ClaimPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    quit_.store(true);
  }
  start_cv_.notify_all();
  for (std::thread& helper : helpers_) {
    helper.join();
  }
}

void ClaimPool::RunShared(int n, void* ctx, void (*call)(void*, int)) {
  // Every helper finished the previous run before it returned, so the run fields
  // are free to rewrite; the generation bump publishes them.
  n_ = n;
  ctx_ = ctx;
  call_ = call;
  done_.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
  {
    // Under m_: a helper about to park re-checks the generation under m_ too.
    std::lock_guard<std::mutex> lock(m_);
    gen_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  Claim();  // the calling thread is worker 0
  auto all_done = [this] { return done_.load() == num_helpers_; };
  if (!PollFor(all_done)) {
    std::unique_lock<std::mutex> lock(m_);
    // Set before the done count is re-read (both sequentially consistent): the
    // last helper either sees the flag and wakes us, or we see its count.
    caller_parked_.store(true);
    done_cv_.wait(lock, all_done);
    caller_parked_.store(false);
  }
}

void ClaimPool::HelperLoop() {
  uint64_t seen_gen = 0;
  auto started = [&] { return quit_.load() || gen_.load() != seen_gen; };
  while (true) {
    if (!PollFor(started)) {
      std::unique_lock<std::mutex> lock(m_);
      start_cv_.wait(lock, started);
    }
    if (quit_.load()) {
      return;
    }
    seen_gen = gen_.load();
    Claim();
    if (done_.fetch_add(1) + 1 == num_helpers_ && caller_parked_.load()) {
      // Taking m_ orders this wake-up after the caller's wait began.
      { std::lock_guard<std::mutex> lock(m_); }
      done_cv_.notify_one();
    }
  }
}

void ClaimPool::Claim() {
  // n_, ctx_ and call_ are stable for the whole run: written before the
  // generation bump every helper synchronizes on.
  int i;
  while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < n_) {
    call_(ctx_, i);
  }
}

}  // namespace presto
