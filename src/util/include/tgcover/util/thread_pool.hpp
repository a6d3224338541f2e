#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tgc::util {

/// A fixed-size fork-join pool for data-parallel index loops.
///
/// This is deliberately *not* a task graph: the only operation is
/// `parallel_for` over an index range, which is all the DCC scheduler needs
/// (Section V-B's per-node VPT verdicts are pure functions of the pre-round
/// snapshot, so a flat fan-out is both sufficient and deterministic). Workers
/// pull fixed-size chunks from an atomic cursor — no work stealing, no
/// per-item locking.
///
/// The calling thread participates as worker 0, so `ThreadPool(1)` spawns no
/// threads at all and `parallel_for` degenerates to today's serial loop.
///
/// When an obs::ExecutionProfiler session is open (profile_begin / the CLI's
/// `--obs profile`), the pool records per-worker chunk execution, dequeue-idle
/// waits, and the caller's fork-region + barrier-stall intervals into the
/// profiler's single-writer lane rings; off, each hot path pays one relaxed
/// load. Spawned workers register their pool index as their profiler lane.
class ThreadPool {
 public:
  /// `num_threads` 0 selects the hardware concurrency; 1 runs inline on the
  /// caller with zero synchronization.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers including the calling thread (≥ 1).
  unsigned num_workers() const {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Resolves the `num_threads` convention used across configs: 0 → hardware
  /// concurrency (at least 1), anything else unchanged.
  static unsigned resolve_num_threads(unsigned num_threads);

  /// Invokes `body(index, worker)` for every index in [begin, end), spread
  /// over the workers; `worker` < num_workers() identifies the executing
  /// lane (stable within one call — use it to index per-thread scratch).
  /// Blocks until the whole range is done. The first exception thrown by
  /// `body` is captured and rethrown on the caller after the range drains.
  /// Calls are not reentrant: `body` must not call back into the same pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, unsigned)>& body);

  /// Same contract, but with an explicit chunk size instead of the automatic
  /// ~8-chunks-per-worker split. `chunk` = 1 is the right call for run-sized
  /// jobs (each index is seconds of work, e.g. one fleet campaign run):
  /// auto-chunking would batch several runs onto one worker and leave the
  /// rest idle at the tail.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end, std::size_t chunk,
      const std::function<void(std::size_t, unsigned)>& body);

 private:
  struct Job;

  void worker_loop(unsigned worker);
  static void run_job(Job& job, unsigned worker);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  Job* job_ = nullptr;          // guarded by mutex_
  std::uint64_t generation_ = 0;  // bumps once per parallel_for
  unsigned busy_ = 0;
  bool shutdown_ = false;
};

}  // namespace tgc::util
