// Deterministic parallelism for the study engine.
//
// ThreadPool is the fork-join façade over util::PipelineRuntime (DESIGN.md
// §12): `for_each_index(n, fn)` runs fn over [0, n) on the runtime's
// work-stealing workers. Worker w's *seed* slab is still the contiguous
// chunk [w·n/T, (w+1)·n/T) — a steal-free run executes exactly the old
// static partition — but the slab is split into steal-granularity blocks,
// and idle workers steal straggling blocks from loaded peers, so
// heavy-degree slabs no longer serialize the loop.
//
// The determinism contract is unchanged: callers that need bit-identical
// results across thread counts write into per-index slots and reduce
// serially in index order; stealing reorders only execution, which such
// callers cannot observe. The same seed produces the same output for
// every DOSN_THREADS / DOSN_STEAL_GRAIN value.
//
// `parallel_for_each` is the convenience entry point: with a null pool or
// a single-thread pool it degenerates to a plain serial loop on the
// calling thread (zero synchronization), which is also the reference
// execution order for determinism tests.
#pragma once

#include <cstddef>
#include <functional>

#include "util/pipeline_runtime.hpp"

namespace dosn::util {

class ThreadPool {
 public:
  /// Spawns `threads - 1` helper threads (the calling thread participates
  /// in every loop as worker 0). `threads == 0` means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0)
      : runtime_(RuntimeOptions{.threads = threads}) {}

  /// Full runtime configuration (steal granularity, stage-queue capacity).
  explicit ThreadPool(RuntimeOptions options) : runtime_(options) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return runtime_.thread_count(); }

  /// The underlying work-stealing runtime, for callers that share one
  /// warm worker set across pipeline stages (e.g. chunked generation
  /// followed by cohort evaluation — no teardown/re-fork between phases).
  PipelineRuntime& runtime() { return runtime_; }

  /// Runs fn(i) for every i in [0, n); indices within one steal block run
  /// in ascending order. Blocks until every index completed. The first
  /// exception thrown by fn is rethrown on the calling thread (after all
  /// in-flight blocks finished; the throwing block's remaining indices
  /// are skipped). Nested calls from inside fn run serially inline.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  PipelineRuntime runtime_;
};

/// fn(i) for every i in [0, n): serial on the calling thread when `pool`
/// is null or single-threaded, fanned out over the pool otherwise.
void parallel_for_each(ThreadPool* pool, std::size_t n,
                       const std::function<void(std::size_t)>& fn);

}  // namespace dosn::util
