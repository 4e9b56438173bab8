#include "util/executor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace psc::util {

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<std::pair<std::size_t, std::size_t>> blocks(std::size_t begin,
                                                        std::size_t end,
                                                        std::size_t parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (end <= begin || parts == 0) return out;
  const std::size_t total = end - begin;
  const std::size_t used = std::min(parts, total);
  out.reserve(used);
  const std::size_t base = total / used;
  const std::size_t extra = total % used;
  std::size_t lo = begin;
  for (std::size_t i = 0; i < used; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    out.emplace_back(lo, lo + len);
    lo += len;
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> chunks_by_cost(
    const std::vector<std::uint64_t>& cost, std::size_t parts) {
  const std::size_t count = cost.size();
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (count == 0) return chunks;
  if (parts == 0) parts = 1;
  std::uint64_t total = 0;
  for (const std::uint64_t c : cost) total += c;
  if (total == 0) return blocks(0, count, parts);
  const std::uint64_t target = (total + parts - 1) / parts;
  chunks.reserve(parts);
  std::size_t begin = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    acc += cost[i];
    if (acc >= target && chunks.size() + 1 < parts) {
      chunks.emplace_back(begin, i + 1);
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < count) chunks.emplace_back(begin, count);
  return chunks;
}

namespace {

// Which executor (if any) owns the current thread, and the index of its
// deque. Lets submit() land on the submitting worker's own deque and
// lets try_run_one() prefer LIFO pops over steals.
thread_local Executor* tl_executor = nullptr;
thread_local std::size_t tl_worker = 0;

}  // namespace

Executor::Executor(std::size_t threads) {
  std::size_t count = threads == 0 ? default_thread_count() : threads;
  if (count == 0) count = 1;
  queues_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

Executor& Executor::shared() {
  static Executor instance;
  return instance;
}

void Executor::submit(Task task) {
  const std::size_t count = queues_.size();
  const std::size_t target =
      tl_executor == this
          ? tl_worker
          : next_queue_.fetch_add(1, std::memory_order_relaxed) % count;
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  ready_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // Lock-then-notify pairs with the sleeper's predicate check under
    // sleep_mutex_, so a worker between its failed scan and its wait()
    // cannot miss this task.
    { std::lock_guard<std::mutex> lock(sleep_mutex_); }
    cv_task_.notify_one();
  }
}

void Executor::run_task(Task& task) {
  if (task.group == nullptr) {
    task.fn();
    return;
  }
  try {
    task.fn();
    task.group->task_done(nullptr);
  } catch (...) {
    task.group->task_done(std::current_exception());
  }
}

bool Executor::try_run_one() {
  const std::size_t count = queues_.size();
  const bool is_worker = tl_executor == this;
  const std::size_t self =
      is_worker ? tl_worker
                : next_queue_.fetch_add(1, std::memory_order_relaxed) % count;
  Task task;
  bool have = false;

  if (is_worker) {
    Queue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      ready_.fetch_sub(1, std::memory_order_seq_cst);
      have = true;
    }
  }

  if (!have) {
    // Steal from the oldest end of a victim's deque: workers take half
    // the queue, foreign helper threads (a TaskGroup::wait() caller)
    // take one. Loot is moved out under the victim's lock only, then
    // re-queued under our own -- never two deque locks at once.
    std::vector<Task> loot;
    for (std::size_t i = 0; i < count && loot.empty(); ++i) {
      const std::size_t victim = (self + i + (is_worker ? 1 : 0)) % count;
      if (is_worker && victim == self) continue;
      Queue& queue = *queues_[victim];
      std::lock_guard<std::mutex> lock(queue.mutex);
      if (queue.tasks.empty()) continue;
      const std::size_t take = is_worker ? (queue.tasks.size() + 1) / 2 : 1;
      loot.reserve(take);
      for (std::size_t j = 0; j < take; ++j) {
        loot.push_back(std::move(queue.tasks.front()));
        queue.tasks.pop_front();
      }
      ready_.fetch_sub(take, std::memory_order_seq_cst);
    }
    if (loot.empty()) return false;
    task = std::move(loot.front());
    if (loot.size() > 1) {
      Queue& own = *queues_[self];
      {
        std::lock_guard<std::mutex> lock(own.mutex);
        for (std::size_t j = 1; j < loot.size(); ++j) {
          own.tasks.push_back(std::move(loot[j]));
        }
      }
      ready_.fetch_add(loot.size() - 1, std::memory_order_seq_cst);
      if (sleepers_.load(std::memory_order_seq_cst) > 0) {
        { std::lock_guard<std::mutex> lock(sleep_mutex_); }
        cv_task_.notify_one();
      }
    }
  }

  run_task(task);
  return true;
}

void Executor::worker_loop(std::size_t self) {
  tl_executor = this;
  tl_worker = self;
  for (;;) {
    if (try_run_one()) continue;
    // Nothing found: advertise the nap *before* re-checking ready_, the
    // mirror image of submit()'s push-then-check-sleepers (both
    // seq_cst), so at least one side always sees the other.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    bool stopping = false;
    {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      cv_task_.wait(lock, [this] {
        return stop_ || ready_.load(std::memory_order_seq_cst) > 0;
      });
      stopping = stop_ && ready_.load(std::memory_order_seq_cst) == 0;
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (stopping) return;
  }
}

Executor::TaskGroup::TaskGroup(Executor& executor, std::size_t max_parallel)
    : executor_(executor), limit_(max_parallel) {}

Executor::TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // A task failed and nobody called wait(); the error dies with the
    // group. Callers who care rethrow by waiting explicitly.
  }
}

void Executor::TaskGroup::run(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  bool dispatch = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (limit_ == 0 || active_ < limit_) {
      ++active_;
      dispatch = true;
    } else {
      backlog_.push_back(std::move(task));
    }
  }
  if (dispatch) executor_.submit(Task{std::move(task), this});
}

void Executor::TaskGroup::task_done(std::exception_ptr error) {
  std::function<void()> next;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error) {
      failed_.store(true, std::memory_order_relaxed);
      if (!first_error_) first_error_ = error;
      if (!backlog_.empty()) {
        // Abandon tasks that never started; they count as resolved so
        // wait() can return and rethrow.
        pending_.fetch_sub(backlog_.size(), std::memory_order_acq_rel);
        backlog_.clear();
      }
    }
    if (!backlog_.empty()) {
      next = std::move(backlog_.front());
      backlog_.pop_front();
    } else {
      --active_;
    }
    // Last decrement happens with mutex_ held and wait() re-acquires
    // mutex_ after seeing zero, so the group cannot be destroyed while
    // this notify is still touching it.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_cv_.notify_all();
    }
  }
  // If a backlog task was promoted, pending_ still counts it, so the
  // group is guaranteed alive for this submit.
  if (next) executor_.submit(Task{std::move(next), this});
}

void Executor::TaskGroup::wait() {
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (executor_.try_run_one()) continue;
    // Nothing runnable here (the remaining tasks are in flight on
    // workers): nap briefly, with the timeout covering the unlikely
    // window where the last task_done slipped between our load and
    // this wait.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait_for(lock, std::chrono::microseconds(200), [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(first_error_, nullptr);
    failed_.store(false, std::memory_order_relaxed);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace psc::util
