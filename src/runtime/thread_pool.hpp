// Work-stealing thread pool and deterministic data-parallel helpers — the
// execution runtime under the scenario sweep, the parallel multi-RHS
// sensitivity columns, the shooting-PSS monodromy sweep, and the
// Monte-Carlo sample batches.
//
// Design rules (see docs/architecture.md "The parallel runtime"):
//   * ThreadPool(jobs) provides `jobs` concurrent execution slots: jobs-1
//     worker threads plus the calling thread, which always participates in
//     parallelFor. ThreadPool(1) spawns no threads and runs everything
//     inline, so `--jobs 1` is exactly the serial code path.
//   * parallelFor is a work-stealing scheduler at chunk granularity: the
//     [begin, end) chunks — boundaries a pure function of (n, chunk), never
//     of timing — are block-partitioned across per-slot deques up front.
//     A slot drains its own deque from the front (adjacent chunks run in
//     order on one slot, with warm per-slot scratch — placement the old
//     shared-cursor scheduler left to timing) and, when dry, steals from
//     the BACK of the other deques, so ragged chunk mixes stay balanced
//     to within one chunk-length. The body receives a `slot` in
//     [0, jobCount()): at most one chunk runs per slot at a time, so
//     per-slot scratch (LU solve buffers, injection vectors) needs no
//     locking — a stolen chunk simply runs with the thief's scratch.
//   * Stealing moves chunks between slots, never changes what a chunk
//     computes: each chunk's arithmetic reads only its own [begin, end)
//     range, so outputs are bit-identical for every jobs count and every
//     steal schedule.
//   * Failure propagation is deterministic: every chunk's exception is
//     captured (on whichever slot ran it, owner or thief), and after the
//     loop joins, the exception of the *lowest* failed chunk is rethrown —
//     independent of thread count and timing.
//   * Nesting on the SAME pool is safe but serial: a parallelFor issued
//     from one of the pool's own workers runs its chunks on the calling
//     slot (inner drivers would queue behind busy workers). A different
//     pool's parallelFor fans out normally — its workers drain their own
//     queue independently, so no deadlock is possible.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.hpp"

namespace psmn {

class TelemetryRegistry;  // util/telemetry.hpp

class ThreadPool {
 public:
  /// `jobs` = number of concurrent execution slots (0 -> hardwareJobs()).
  explicit ThreadPool(size_t jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Concurrent execution slots: worker threads + the calling thread.
  size_t jobCount() const { return workers_.size() + 1; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t hardwareJobs();

  /// Attaches a metrics registry: every parallelFor driver binds its
  /// execution slot to the registry (TelemetryScope) for the duration of
  /// the loop, so probes fired from worker threads land in slot-local
  /// storage. The registry should have at least jobCount() slots (extra
  /// drivers clamp to the last slot). A driver that is already bound —
  /// nested inline parallelFor on a worker, or a caller that bound its own
  /// scope — keeps its existing binding. Pass nullptr to detach. The
  /// registry must outlive every loop run on this pool.
  void attachTelemetry(TelemetryRegistry* registry) { telemetry_ = registry; }
  TelemetryRegistry* telemetry() const { return telemetry_; }

  /// Runs body(begin, end, slot) over [0, n) in chunks of `chunk`, blocking
  /// until every chunk finished. Chunk boundaries are a pure function of
  /// (n, chunk), never of timing; idle slots steal queued chunks from busy
  /// ones. Rethrows the lowest failed chunk's exception after completion.
  void parallelFor(size_t n, size_t chunk,
                   const std::function<void(size_t, size_t, size_t)>& body);

 private:
  /// Enqueues one of parallelFor's per-slot chunk loops on the work queue.
  /// A task that throws terminates the process, so every task posted here
  /// catches its chunks' exceptions itself.
  void post(std::function<void()> task);
  void workerLoop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  TelemetryRegistry* telemetry_ = nullptr;
};

/// Number of per-slot scratch instances a column-block fan-out over n
/// independent columns needs: the pool's slot count, or 1 (serial) when
/// there is no pool or nothing to split. Size scratch with this; the
/// dispatch below derives the same count from the same (pool, n).
inline size_t columnBlockSlots(const ThreadPool* pool, size_t n) {
  return (pool != nullptr && n > 1) ? pool->jobCount() : 1;
}

/// Fans body(j0, j1, slot) over [0, n) in one contiguous block per slot —
/// the canonical dispatch for per-column-independent batched solves (the
/// multi-RHS sensitivity columns, the monodromy sweep, the LPTV
/// Y_k/V_k recursions). Serial (no pool, or n <= 1) runs inline as a
/// single block, which is bit-identical to any partition because every
/// column's arithmetic involves only that column.
inline void forEachColumnBlock(
    ThreadPool* pool, size_t n,
    const std::function<void(size_t, size_t, size_t)>& body) {
  const size_t slots = columnBlockSlots(pool, n);
  if (slots > 1) {
    pool->parallelFor(n, (n + slots - 1) / slots, body);
  } else if (n > 0) {
    body(0, n, 0);
  }
}

}  // namespace psmn
