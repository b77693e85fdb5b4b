// WorkerPool unit tests: worker-count resolution (PR 8 satellite — must
// survive hardware_concurrency() == 0), task execution, batch completion,
// shutdown drain, and the stats counters.  The Concurrent* suite name puts
// the threaded cases in the TSan CI lane.

#include "concurrency/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace stash {
namespace {

using concurrency::resolve_worker_count;
using concurrency::WorkerPool;

WorkerPool::Config pool_config(std::size_t threads, std::size_t capacity) {
  WorkerPool::Config config;
  config.threads = threads;
  config.queue_capacity = capacity;
  return config;
}

TEST(WorkerCountTest, ExplicitConfigurationWinsVerbatim) {
  EXPECT_EQ(resolve_worker_count(1, 8u), 1u);
  EXPECT_EQ(resolve_worker_count(3, 8u), 3u);
  EXPECT_EQ(resolve_worker_count(16, 2u), 16u);  // override beats the hint
  EXPECT_EQ(resolve_worker_count(5, 0u), 5u);    // even with no hint at all
}

TEST(WorkerCountTest, ZeroConfigFallsBackToHardwareHint) {
  EXPECT_EQ(resolve_worker_count(0, 4u), 4u);
  EXPECT_EQ(resolve_worker_count(0, 1u), 1u);
}

TEST(WorkerCountTest, UncomputableHardwareHintClampsToOne) {
  // The standard allows hardware_concurrency() to return 0 ("not
  // computable"); a zero-thread pool would deadlock every submit.
  EXPECT_EQ(resolve_worker_count(0, 0u), 1u);
}

TEST(WorkerCountTest, DefaultHintOverloadIsPositive) {
  EXPECT_GE(resolve_worker_count(0), 1u);
  EXPECT_EQ(resolve_worker_count(7), 7u);
}

TEST(ConcurrentWorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool pool(pool_config(4, 8));
  EXPECT_EQ(pool.worker_count(), 4u);

  constexpr int kTasks = 2000;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  while (ran.load(std::memory_order_relaxed) < kTasks)
    std::this_thread::yield();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(pool.total_stats().executed, static_cast<std::uint64_t>(kTasks));
}

TEST(ConcurrentWorkerPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 500;
  {
    WorkerPool pool(pool_config(2, 16));
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor must not return until every submitted task has run.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ConcurrentWorkerPoolTest, SingleWorkerPoolStillCompletes) {
  WorkerPool pool(pool_config(1, 4));
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  while (ran.load(std::memory_order_relaxed) < 64) std::this_thread::yield();
  const auto stats = pool.total_stats();
  EXPECT_EQ(stats.executed, 64u);
  EXPECT_EQ(stats.stolen, 0u);  // nobody to steal from
}

TEST(ConcurrentWorkerPoolTest, IdleWorkersParkAndWake) {
  WorkerPool pool(pool_config(2, 8));
  // Give the workers time to run out of spin budget and park.
  for (int tries = 0; tries < 200; ++tries) {
    if (pool.total_stats().parks >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pool.total_stats().parks, 2u) << "idle workers never parked";

  // A submit after the park must wake someone and run.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true, std::memory_order_relaxed); });
  for (int tries = 0; tries < 2000 && !ran.load(); ++tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ran.load()) << "task submitted to a parked pool never ran";
}

TEST(ConcurrentWorkerPoolTest, BlockedWorkerGetsRobbed) {
  // One worker wedges on a gate; the other must steal its backlog.
  // (Captured atomics declared before the pool so they outlive its join.)
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  WorkerPool pool(pool_config(2, 64));
  pool.submit([&release] {
    while (!release.load(std::memory_order_relaxed))
      std::this_thread::yield();
  });
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  // All kTasks must finish even though one worker is wedged.
  for (int tries = 0; tries < 5000 && ran.load() < kTasks; ++tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ran.load(), kTasks);
  release.store(true, std::memory_order_relaxed);
}

TEST(ConcurrentWorkerPoolTest, QueueDepthStaysWithinBounds) {
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  WorkerPool pool(pool_config(2, 4));
  // Wedge both workers, then fill the rings to exercise backpressure.
  for (int i = 0; i < 2; ++i) {
    pool.submit([&release] {
      while (!release.load(std::memory_order_relaxed))
        std::this_thread::yield();
    });
  }
  std::thread submitter([&pool, &ran] {
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  for (int tries = 0; tries < 100; ++tries) {
    EXPECT_LE(pool.queue_depth(), pool.worker_count() * 4u);
    for (std::size_t w = 0; w < pool.worker_count(); ++w)
      EXPECT_LE(pool.worker_queue_depth(w), 4u);
    std::this_thread::yield();
  }
  release.store(true, std::memory_order_relaxed);
  submitter.join();
  while (ran.load(std::memory_order_relaxed) < 64) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 64);
}

// ---------------------------------------------------------------------------
// PR 9 robustness: shed path, bounded backpressure, quarantine, watchdog,
// abandon shutdown, and teardown with a parked submitter.
// ---------------------------------------------------------------------------

TEST(ConcurrentWorkerPoolTest, TrySubmitShedsWhenEveryRingIsFull) {
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  std::atomic<int> ran{0};
  WorkerPool pool(pool_config(2, 4));
  // Wedge both workers so nothing drains while we fill the rings; wait
  // until both wedges are actually running, or the fill below races the
  // workers still draining their own rings.
  for (int i = 0; i < 2; ++i) {
    pool.submit([&release, &started] {
      started.fetch_add(1, std::memory_order_relaxed);
      while (!release.load(std::memory_order_relaxed))
        std::this_thread::yield();
    });
  }
  while (started.load(std::memory_order_relaxed) < 2)
    std::this_thread::yield();
  // Fill every ring via the shed path until it refuses.
  int pushed = 0;
  for (;;) {
    WorkerPool::Task task = [&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    if (!pool.try_submit(task)) {
      // Refusal contract: the task comes back untouched — running it
      // ourselves is the caller's inline-shed fallback.
      ASSERT_TRUE(static_cast<bool>(task));
      task();
      break;
    }
    ++pushed;
    ASSERT_LE(pushed, 2 * 4) << "rings accepted more than their capacity";
  }
  EXPECT_EQ(ran.load(), 1);  // only the inline-run shed task so far
  EXPECT_GE(pool.total_stats().submit_shed, 1u);

  release.store(true, std::memory_order_relaxed);
  while (ran.load(std::memory_order_relaxed) < pushed + 1)
    std::this_thread::yield();
  EXPECT_EQ(ran.load(), pushed + 1);
}

TEST(ConcurrentWorkerPoolTest, SubmitParksUnderBackpressureThenResumes) {
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  std::atomic<int> ran{0};
  WorkerPool pool(pool_config(1, 2));
  pool.submit([&release, &started] {
    started.fetch_add(1, std::memory_order_relaxed);
    while (!release.load(std::memory_order_relaxed))
      std::this_thread::yield();
  });
  while (started.load(std::memory_order_relaxed) < 1)
    std::this_thread::yield();
  // Fill the only ring, then push one more from a second thread: that
  // submitter must exhaust its bounded spin and PARK (counted), not
  // yield-spin forever.
  int queued = 0;
  for (;;) {
    WorkerPool::Task task = [&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    if (!pool.try_submit(task)) break;
    ++queued;
  }
  std::thread submitter([&pool, &ran] {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  });
  // The wedge holds the ring full, so the submitter has nowhere to go
  // until we release; give it time to run out of spin budget and park.
  for (int tries = 0; tries < 2000; ++tries) {
    if (pool.total_stats().submit_blocked >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pool.total_stats().submit_blocked, 1u)
      << "blocked submitter never parked";

  release.store(true, std::memory_order_relaxed);
  submitter.join();
  while (ran.load(std::memory_order_relaxed) < queued + 1)
    std::this_thread::yield();
  EXPECT_EQ(ran.load(), queued + 1);
}

TEST(ConcurrentWorkerPoolTest, ThrowingTasksAreQuarantined) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(pool_config(2, 8));
    for (int i = 0; i < 8; ++i) {
      pool.submit([] { throw std::runtime_error("injected"); });
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // A task counts as executed only after it returned or its throw was
    // counted, so wait for all 16: the 8 that bump `ran` can finish while
    // the other worker is still unwinding a throwing task.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pool.total_stats().executed < 16u) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "tasks never finished executing";
      std::this_thread::yield();
    }
    const auto stats = pool.total_stats();
    EXPECT_EQ(stats.task_exceptions, 8u);
    EXPECT_EQ(stats.executed, 16u);  // throwing tasks still count as executed
  }
  EXPECT_EQ(ran.load(), 8);  // the pool survived every throw and shut down
}

TEST(ConcurrentWorkerPoolTest, WatchdogCountsFrozenHeartbeatWithBacklog) {
  std::atomic<bool> release{false};
  WorkerPool::Config config = pool_config(2, 8);
  config.watchdog_interval_ns = 2'000'000;  // 2ms ticks
  config.now_ns = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  WorkerPool pool(config);
  // Wedge both workers (frozen heartbeats), then queue a backlog so the
  // stall condition — no progress across a full interval with work
  // waiting — actually holds.
  std::atomic<int> started{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&release, &started] {
      started.fetch_add(1, std::memory_order_relaxed);
      while (!release.load(std::memory_order_relaxed))
        std::this_thread::yield();
    });
  }
  while (started.load(std::memory_order_relaxed) < 2)
    std::this_thread::yield();
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    WorkerPool::Task task = [&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    ASSERT_TRUE(pool.try_submit(task));
  }
  for (int tries = 0; tries < 5000; ++tries) {
    if (pool.total_stats().watchdog_stalls >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pool.total_stats().watchdog_stalls, 1u)
      << "watchdog never noticed two wedged workers with backlog";
  release.store(true, std::memory_order_relaxed);
  while (ran.load(std::memory_order_relaxed) < 4) std::this_thread::yield();
}

TEST(ConcurrentWorkerPoolTest, AbandonShutdownDestroysQueuedTasksUnrun) {
  // Instance-counted payloads: abandon-mode teardown must destroy queued
  // tasks without running them — and without leaking them.
  auto live = std::make_shared<std::atomic<int>>(0);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  {
    WorkerPool::Config config = pool_config(2, 8);
    config.drain_on_shutdown = false;
    WorkerPool pool(config);
    std::atomic<int> started{0};
    for (int i = 0; i < 2; ++i) {
      pool.submit([&release, &started] {
        started.fetch_add(1, std::memory_order_relaxed);
        while (!release.load(std::memory_order_relaxed))
          std::this_thread::yield();
      });
    }
    while (started.load(std::memory_order_relaxed) < 2)
      std::this_thread::yield();
    int queued = 0;
    for (int i = 0; i < 8; ++i) {
      WorkerPool::Task task = [&ran, keep = live] {
        ran.fetch_add(1, std::memory_order_relaxed);
      };
      if (pool.try_submit(task)) ++queued;
    }
    ASSERT_GT(queued, 0);
    // Destroy while the workers are still wedged: the destructor sets
    // stop_, the wedge tasks return, and the workers must exit WITHOUT
    // draining their rings.  Release from another thread so the join in
    // the destructor can complete.
    std::thread releaser([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.store(true, std::memory_order_relaxed);
    });
    releaser.detach();
  }
  EXPECT_EQ(ran.load(), 0) << "abandon shutdown ran queued tasks";
  EXPECT_EQ(live.use_count(), 1)
      << "abandoned task payloads were leaked, not destroyed";
}

TEST(ConcurrentWorkerPoolTest, DestroyPoolWhileSubmitterParkedOnBackpressure) {
  // Satellite 2: tearing the pool down while a submitter is parked on the
  // space gate must neither hang nor drop the parked submitter's task.
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  int queued = 0;
  std::thread submitter;
  {
    WorkerPool pool(pool_config(1, 2));
    std::atomic<int> started{0};
    pool.submit([&release, &started] {
      started.fetch_add(1, std::memory_order_relaxed);
      while (!release.load(std::memory_order_relaxed))
        std::this_thread::yield();
    });
    while (started.load(std::memory_order_relaxed) < 1)
      std::this_thread::yield();
    for (;;) {
      WorkerPool::Task task = [&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      };
      if (!pool.try_submit(task)) break;
      ++queued;
    }
    submitter = std::thread([&pool, &ran] {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
    // Let the submitter reach the parked state (or at least the spin).
    for (int tries = 0; tries < 500; ++tries) {
      if (pool.total_stats().submit_blocked >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::thread releaser([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.store(true, std::memory_order_relaxed);
    });
    releaser.detach();
    // Destructor: wakes the parked submitter (who inline-runs its task),
    // waits out inflight submits, then joins the workers.
  }
  submitter.join();
  // Drain mode: every queued task ran, plus the parked submitter's one.
  EXPECT_EQ(ran.load(), queued + 1);
}

}  // namespace
}  // namespace stash
