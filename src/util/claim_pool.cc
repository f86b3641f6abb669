#include "src/util/claim_pool.h"

namespace presto {

ClaimPool::ClaimPool(int threads) {
  for (int t = 1; t < threads; ++t) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

ClaimPool::~ClaimPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    quit_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& helper : helpers_) {
    helper.join();
  }
}

void ClaimPool::RunShared(int n, void* ctx, void (*call)(void*, int)) {
  {
    std::lock_guard<std::mutex> lock(m_);
    n_ = n;
    ctx_ = ctx;
    call_ = call;
    done_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++gen_;
  }
  start_cv_.notify_all();
  Claim();  // the calling thread is worker 0
  std::unique_lock<std::mutex> lock(m_);
  done_cv_.wait(lock, [&] { return done_ == static_cast<int>(helpers_.size()); });
}

void ClaimPool::HelperLoop() {
  uint64_t seen_gen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(m_);
      start_cv_.wait(lock, [&] { return quit_ || gen_ != seen_gen; });
      if (quit_) {
        return;
      }
      seen_gen = gen_;
    }
    Claim();
    {
      std::lock_guard<std::mutex> lock(m_);
      ++done_;
    }
    done_cv_.notify_one();
  }
}

void ClaimPool::Claim() {
  // n_, ctx_ and call_ are stable for the whole run: written under m_ before
  // the generation bump every helper synchronizes on.
  int i;
  while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < n_) {
    call_(ctx_, i);
  }
}

}  // namespace presto
