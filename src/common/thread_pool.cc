#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd {

ThreadPool::ThreadPool(size_t num_threads, std::string name)
    : name_(std::move(name)) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  worker_slots_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    auto slot = std::make_unique<WorkerSlot>();
    if (!name_.empty()) {
      auto& registry = obs::MetricsRegistry::Global();
      const std::string prefix =
          StrFormat("thread_pool.%s.w%zu.", name_.c_str(), i);
      slot->registry_tasks = registry.GetCounter(prefix + "tasks");
      slot->registry_busy_ns = registry.GetCounter(prefix + "busy_ns");
    }
    worker_slots_.push_back(std::move(slot));
  }
  if (!name_.empty()) {
    registry_queue_depth_ = obs::MetricsRegistry::Global().GetGauge(
        StrFormat("thread_pool.%s.queue_depth", name_.c_str()));
  }
  scheduler_ = std::make_unique<sched::Scheduler>(this, num_threads, name_);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  WaitIdle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    const size_t depth = queue_.size();
    // Published under mu_ so concurrent Submits can't lose a higher
    // high-water value or publish depths out of order (Submit is the only
    // writer of queue_hwm_, so a load+store suffices while serialized).
    if (depth > queue_hwm_.load(std::memory_order_relaxed)) {
      queue_hwm_.store(depth, std::memory_order_relaxed);
    }
    if (registry_queue_depth_ != nullptr) {
      registry_queue_depth_->Set(static_cast<int64_t>(depth));
    }
  }
  queue_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::RunTimed(const std::function<void()>& task,
                          WorkerSlot* slot) {
  // Busy-ns accounting costs two clock reads per task; tasks here are
  // chunky ParallelFor drains, so that is noise. Only worker tasks are
  // credited — caller threads draining the queue count tasks only.
  if (slot == nullptr) {
    TRACE_SPAN("thread_pool.task");
    task();
    caller_tasks_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TRACE_SPAN("thread_pool.task");
  const auto t0 = std::chrono::steady_clock::now();
  task();
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  slot->tasks.fetch_add(1, std::memory_order_relaxed);
  slot->busy_ns.fetch_add(ns, std::memory_order_relaxed);
  if (slot->registry_tasks != nullptr) {
    slot->registry_tasks->Add(1);
    slot->registry_busy_ns->Add(ns);
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  if (!name_.empty()) {
    obs::Tracer::SetCurrentThreadName(
        StrFormat("%s-worker-%zu", name_.c_str(), worker_index));
  }
  scheduler_->BindWorkerThread(worker_index);
  WorkerSlot* slot = worker_slots_[worker_index].get();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    RunTimed(task, slot);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

bool ThreadPool::RunOneQueuedTask() {
  std::function<void()> task;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.empty()) {
      // Nothing to steal right now; nap until a task arrives or our loop's
      // last straggler finishes (the finisher notifies queue_cv_).
      queue_cv_.wait_for(lock, std::chrono::milliseconds(1));
      return false;
    }
    task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
  }
  RunTimed(task, nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
  return true;
}

size_t ThreadPool::ChunkSize(size_t n, size_t num_threads) {
  // ~4 chunks per worker balances load without flooding the queue.
  const size_t chunks = std::max<size_t>(1, num_threads * 4);
  return std::max<size_t>(1, (n + chunks - 1) / chunks);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelFor(n, fn, ParallelForOptions{});
}

ParallelForStrategy ThreadPool::DefaultStrategy() {
  static const ParallelForStrategy strategy = [] {
    if (const char* env = std::getenv("CORADD_SCHED")) {
      if (std::string(env) == "fixed") return ParallelForStrategy::kFixedChunk;
    }
    return ParallelForStrategy::kWorkStealing;
  }();
  return strategy;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const ParallelForOptions& options) {
  if (n == 0) return;
  TRACE_SPAN("thread_pool.parallel_for",
             {{"n", static_cast<int64_t>(n)}});
  ParallelForStrategy strategy = options.strategy;
  if (strategy == ParallelForStrategy::kDefault) strategy = DefaultStrategy();
  // The scheduler packs ranges into 32-bit bounds; loops beyond 4G
  // iterations (nothing in the pipeline comes near) take the legacy path.
  if (strategy == ParallelForStrategy::kFixedChunk ||
      n > static_cast<size_t>(UINT32_MAX)) {
    ParallelForFixedChunk(n, fn);
    return;
  }
  scheduler_->ParallelFor(n, fn);
}

void ThreadPool::ParallelForFixedChunk(size_t n,
                                       const std::function<void(size_t)>& fn) {
  const size_t chunk = ChunkSize(n, num_threads());

  // Claim/progress state outlives this frame via shared_ptr: a helper task
  // that is popped after the loop completed only touches the (exhausted)
  // cursor and returns without dereferencing `fn`.
  struct ForState {
    std::atomic<size_t> cursor{0};
    std::atomic<size_t> done{0};
  };
  auto state = std::make_shared<ForState>();
  const std::function<void(size_t)>* fn_ptr = &fn;

  auto drain = [this, state, chunk, n, fn_ptr] {
    for (;;) {
      const size_t begin = state->cursor.fetch_add(chunk);
      if (begin >= n) return;
      const size_t end = std::min(n, begin + chunk);
      for (size_t i = begin; i < end; ++i) (*fn_ptr)(i);
      if (state->done.fetch_add(end - begin) + (end - begin) == n) {
        // Last chunk: wake any caller napping in RunOneQueuedTask.
        queue_cv_.notify_all();
      }
    }
  };

  const size_t num_helpers = std::min(num_threads(), (n + chunk - 1) / chunk);
  for (size_t t = 0; t < num_helpers; ++t) Submit(drain);

  // The caller claims chunks itself, then keeps the pool moving (other
  // loops' helper tasks included) until every one of its iterations is done.
  drain();
  while (state->done.load() < n) RunOneQueuedTask();
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(worker_slots_.size());
  for (const auto& slot : worker_slots_) {
    out.push_back(
        WorkerStats{slot->tasks.load(std::memory_order_relaxed),
                    slot->busy_ns.load(std::memory_order_relaxed)});
  }
  return out;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(
      [] {
        if (const char* env = std::getenv("CORADD_THREADS")) {
          const long v = std::strtol(env, nullptr, 10);
          if (v > 0) return static_cast<size_t>(v);
        }
        return static_cast<size_t>(0);  // one per hardware thread
      }(),
      "shared");
  return pool;
}

}  // namespace coradd
