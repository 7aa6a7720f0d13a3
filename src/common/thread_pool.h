// Fixed-size worker pool. DistributedCoordinator runs its shard schedulers
// side by side on one (paper §4.4), and the simulator runs its per-host tick
// phases on another. Candidate scoring inside one scheduler is serial:
// per-pod work is tens of microseconds, less than a fork-join here costs
// (DESIGN.md §8).
#ifndef OPTUM_SRC_COMMON_THREAD_POOL_H_
#define OPTUM_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace optum {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  // Runs fn(i) for i in [0, n), partitioned across the pool, and waits for
  // completion. Safe to call with n == 0. The calling thread participates.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace optum

#endif  // OPTUM_SRC_COMMON_THREAD_POOL_H_
