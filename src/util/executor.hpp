// Process-lifetime work-stealing executor.
//
// The paper's whole design keeps the step-2 compute array saturated: the
// PSC operator overlaps window loading with scoring and drains results
// through cascaded FIFOs so no PE idles (section 3). The host engines
// used to do the opposite -- spawn a throwaway ThreadPool per call and
// carve work into static blocks. This executor is the software analogue
// of the operator's economics: workers live for the life of the process
// (Executor::shared()) or of a service that owns one, each worker has its
// own deque (LIFO for the owner, FIFO steals of half a victim's queue for
// idle workers), and a submission batch is scoped by a TaskGroup whose
// wait() helps run queued tasks instead of blocking.
//
//   util::Executor::TaskGroup group(util::Executor::shared(), workers);
//   for (auto& chunk : chunks) group.run([&] { ... });
//   group.wait();  // rethrows the first task exception, if any
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace psc::util {

/// Number of workers to use by default: hardware concurrency, at least 1.
std::size_t default_thread_count();

/// Block-decomposes [begin,end) into `parts` contiguous [lo,hi) chunks;
/// exposed so callers can do per-chunk setup (e.g. per-thread RNG) before
/// submitting the chunks to an executor.
std::vector<std::pair<std::size_t, std::size_t>> blocks(std::size_t begin,
                                                        std::size_t end,
                                                        std::size_t parts);

/// Greedy cut of a per-item cost vector into at most `parts` contiguous
/// [lo,hi) ranges of approximately equal total cost, covering every item
/// in order. All-zero costs degrade to blocks() so empty work still
/// spreads across workers.
std::vector<std::pair<std::size_t, std::size_t>> chunks_by_cost(
    const std::vector<std::uint64_t>& cost, std::size_t parts);

class Executor {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency). Workers live
  /// until destruction; every TaskGroup submitting to this executor must
  /// have completed (waited or destroyed) before the executor dies.
  explicit Executor(std::size_t threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-lifetime executor, sized to hardware concurrency.
  /// Everything that does not own a pool (the host step-2/step-3 engines,
  /// the parallel index builder, the dual-FPGA driver) runs here, so a
  /// batch pays scheduling, never thread spawn/join.
  static Executor& shared();

  std::size_t size() const { return workers_.size(); }

  /// One submission batch: run() tasks, then wait() for exactly those.
  ///
  /// `max_parallel` > 0 caps how many of the group's tasks occupy workers
  /// at once (the executor is usually wider than the parallelism a caller
  /// asked for); excess tasks queue FIFO inside the group and are
  /// re-dispatched as running ones finish -- which is what turns a
  /// fine-grained chunk list into dynamic load balancing.
  ///
  /// wait() may be called from inside another group's task (it helps run
  /// queued work while waiting), but never from inside this group's own
  /// tasks. After wait() returns the group is reusable for a new batch.
  /// The first exception thrown by a task is rethrown from wait();
  /// not-yet-started tasks of the group are abandoned on failure.
  class TaskGroup {
   public:
    explicit TaskGroup(Executor& executor, std::size_t max_parallel = 0);
    ~TaskGroup();  ///< waits; exceptions are swallowed (call wait() first)

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void run(std::function<void()> task);
    void wait();

    /// True once a task has thrown (until wait() rethrows it). Long
    /// chunk loops can poll this to stop early.
    bool failed() const { return failed_.load(std::memory_order_relaxed); }

   private:
    friend class Executor;
    void task_done(std::exception_ptr error);

    Executor& executor_;
    const std::size_t limit_;
    std::atomic<std::size_t> pending_{0};
    std::atomic<bool> failed_{false};
    std::mutex mutex_;
    std::condition_variable done_cv_;
    std::deque<std::function<void()>> backlog_;
    std::size_t active_ = 0;
    std::exception_ptr first_error_;
  };

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };
  /// One worker's deque. Heap-allocated so the vector of queues never
  /// moves a mutex.
  struct Queue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void submit(Task task);
  /// Runs one queued task if any is available (own deque first, then a
  /// steal). Safe to call from any thread; this is how wait() helps.
  bool try_run_one();
  void run_task(Task& task);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> ready_{0};     ///< tasks sitting in deques
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> sleepers_{0};
  std::mutex sleep_mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;  // guarded by sleep_mutex_
};

}  // namespace psc::util
