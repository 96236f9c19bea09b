// A slow-tier provider for tests: wraps any provider, advertises async()
// (so the kernel suspends on its cold blocks instead of filling inline)
// and holds every fetch until the test opens its gate. A test can then
// park a session mid-fetch, keep a fill waiting while something else
// happens, or assert that a block stays cold until it lets the fetch go.

#ifndef DBTOUCH_TESTS_GATED_PROVIDER_H_
#define DBTOUCH_TESTS_GATED_PROVIDER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cache/block_provider.h"
#include "common/result.h"

namespace dbtouch::cache {

class GatedProvider final : public BlockProvider {
 public:
  explicit GatedProvider(std::shared_ptr<BlockProvider> inner)
      : inner_(std::move(inner)) {}

  const BlockGeometry& geometry() const override { return inner_->geometry(); }
  const storage::Dictionary* dictionary() const override {
    return inner_->dictionary();
  }
  bool async() const override { return true; }

  Result<std::vector<std::byte>> Fetch(std::int64_t block) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++fetches_started_;
      started_cv_.notify_all();
      // Safety valve: a wedged test run releases itself instead of
      // hanging the suite.
      gate_cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return open_; });
    }
    return inner_->Fetch(block);
  }

  /// Lets every held and later fetch through.
  void OpenGate() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }

  /// Blocks until at least `n` fetches have entered the gate.
  void AwaitFetchStarted(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait_for(lock, std::chrono::seconds(10),
                         [&] { return fetches_started_ >= n; });
  }

  /// Fetches that have entered the gate so far.
  int fetches_started() {
    const std::lock_guard<std::mutex> lock(mu_);
    return fetches_started_;
  }

 private:
  std::shared_ptr<BlockProvider> inner_;
  std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable started_cv_;
  bool open_ = false;
  int fetches_started_ = 0;
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_TESTS_GATED_PROVIDER_H_
