// Unit tests for runtime/work_stealing_pool.h:
// completeness (every index exactly once), no deadlock on degenerate
// workloads (no items, one item, more workers than items or cores), the
// 1-worker pool as an in-order loop on the caller, pool reuse,
// re-entrancy (Runs nested in submitted tasks and in other Runs,
// concurrent Runs from many threads), scheduling-independent results,
// and BatchRunner equivalence across pool sizes.

#include "runtime/work_stealing_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/batch_runner.h"
#include "synth/workload.h"

namespace frt {
namespace {

TEST(WorkStealingPoolTest, ExecutesEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    WorkStealingPool pool(threads);
    for (const size_t n : {2u, 7u, 64u, 500u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.Run(n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << ", threads " << threads;
      }
    }
  }
}

TEST(WorkStealingPoolTest, OneWorkerPoolRunsIndicesInOrderOnCaller) {
  // A 1-worker pool spawns no threads: Run is a plain loop in index order
  // on the calling thread.
  WorkStealingPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool on_caller = true;
  pool.Run(8, [&](size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(on_caller);
}

TEST(WorkStealingPoolTest, EmptyWorkloadDoesNotDeadlock) {
  WorkStealingPool pool(4);
  pool.Run(0, [](size_t) { FAIL() << "no task should run"; });
}

TEST(WorkStealingPoolTest, SingleItemRunsOnCaller) {
  // One index queues no helper: the caller claims it itself.
  WorkStealingPool pool(8);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  std::atomic<int> hits{0};
  pool.Run(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    seen = std::this_thread::get_id();
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(seen, caller);
}

TEST(WorkStealingPoolTest, FewerTasksThanWorkers) {
  WorkStealingPool pool(8);
  const size_t n = 3;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.Run(n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkStealingPoolTest, OversubscribedPoolCompletes) {
  // More workers than this host has cores: the run must neither deadlock
  // nor skip an index.
  WorkStealingPool pool(16);
  const size_t n = 10000;
  std::atomic<size_t> sum{0};
  pool.Run(n, [&](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(WorkStealingPoolTest, PoolIsReusableAcrossRuns) {
  WorkStealingPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + static_cast<size_t>(round % 7);
    std::atomic<size_t> sum{0};
    pool.Run(n, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(WorkStealingPoolTest, MergedOutputIdenticalUnderAnyThreadCount) {
  // Per-index result slots: the merged output vector must be a pure
  // function of the task definitions, never of the worker count.
  const size_t n = 257;
  auto run = [&](unsigned threads) {
    WorkStealingPool pool(threads);
    std::vector<uint64_t> slots(n, 0);
    pool.Run(n, [&](size_t i) { slots[i] = i * i + 17; });
    return slots;
  };
  const std::vector<uint64_t> base = run(1);
  for (const unsigned threads : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    EXPECT_EQ(base, run(threads)) << "threads " << threads;
  }
}

TEST(WorkStealingPoolTest, SkewedTasksAreRebalanced) {
  // One task blocks until every other task is done: whichever thread
  // claims it stalls, and the run can only complete if the other threads
  // keep claiming the remaining indices. Deadlocks (and times out) if one
  // straggler holds the rest back; checked via completion, not timing, so
  // it is load-independent.
  WorkStealingPool pool(4);
  const size_t n = 64;
  const size_t blocker = 0;  // the first index claimed
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<size_t> done{0};
  pool.Run(n, [&](size_t i) {
    if (i == blocker) {
      while (done.load(std::memory_order_acquire) < n - 1) {
        std::this_thread::yield();
      }
    }
    hits[i].fetch_add(1);
    done.fetch_add(1, std::memory_order_acq_rel);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

/// The slots a serial loop writes: the reference every pooled run must
/// reproduce exactly.
std::vector<uint64_t> SerialSlots(size_t n, uint64_t salt) {
  std::vector<uint64_t> slots(n);
  for (size_t i = 0; i < n; ++i) slots[i] = i * i + salt;
  return slots;
}

TEST(WorkStealingPoolTest, RunNestsInsideSubmittedTasksAndRuns) {
  // The service's shape: window jobs are submitted tasks that fan their
  // shards out with Run, and a shard may fan out again (the audit). Every
  // job's slots must equal a serial loop, on pools smaller and larger
  // than the job count, without deadlock.
  for (const unsigned threads : {1u, 2u, 4u}) {
    WorkStealingPool pool(threads);
    const size_t jobs = 8;
    const size_t n = 16;
    std::vector<std::vector<uint64_t>> slots(jobs,
                                             std::vector<uint64_t>(n, 0));
    std::vector<std::vector<uint64_t>> inner(jobs,
                                             std::vector<uint64_t>(n, 0));
    for (size_t j = 0; j < jobs; ++j) {
      pool.Submit([&, j] {
        pool.Run(n, [&, j](size_t i) {
          slots[j][i] = i * i + j;
          std::atomic<uint64_t> sum{0};
          pool.Run(4, [&](size_t k) { sum.fetch_add(k + i); });
          inner[j][i] = sum.load();
        });
      });
    }
    pool.WaitIdle();
    for (size_t j = 0; j < jobs; ++j) {
      EXPECT_EQ(slots[j], SerialSlots(n, j)) << "threads " << threads;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(inner[j][i], 6 + 4 * i) << "threads " << threads;
      }
    }
  }
}

TEST(WorkStealingPoolTest, ConcurrentRunsOnTwoWorkerPool) {
  // Several threads Run on one 2-worker pool at once: each call owns its
  // index state, so the runs never mix indices or functions.
  WorkStealingPool pool(2);
  const size_t callers = 6;
  const size_t n = 200;
  std::vector<int> mismatched_rounds(callers, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<uint64_t> expected = SerialSlots(n, c);
      for (int round = 0; round < 20; ++round) {
        std::vector<uint64_t> out(n, 0);
        pool.Run(n, [&](size_t i) { out[i] = i * i + c; });
        if (out != expected) ++mismatched_rounds[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < callers; ++c) {
    EXPECT_EQ(mismatched_rounds[c], 0) << "caller " << c;
  }
}

Dataset SmallFleet(int taxis, uint64_t seed) {
  WorkloadConfig workload_config;
  workload_config.num_taxis = taxis;
  workload_config.target_points = 60;
  RoadGenConfig road_config;
  road_config.cols = 12;
  road_config.rows = 12;
  auto workload = GenerateTaxiWorkload(workload_config, road_config, seed);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return workload->dataset;
}

TEST(WorkStealingPoolTest, BatchRunnerOutputIdenticalAcrossPoolSizes) {
  // The pool moves work between threads, never between RNG streams, so a
  // batch is bit-identical on a pool of any size and without one, audit
  // included.
  const Dataset input = SmallFleet(24, 7);
  auto run = [&](WorkStealingPool* pool, WindowAuditReport* audit) {
    BatchRunnerConfig config;
    config.pipeline.m = 5;
    config.shards = 6;
    config.pool = pool;
    config.audit.enabled = true;
    BatchRunner runner(config);
    Rng rng(404);
    auto out = runner.Anonymize(input, rng);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    *audit = runner.report().audit;
    return *std::move(out);
  };
  WindowAuditReport serial_audit;
  const Dataset serial = run(nullptr, &serial_audit);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    WorkStealingPool pool(threads);
    WindowAuditReport audit;
    const Dataset pooled = run(&pool, &audit);
    ASSERT_EQ(pooled.size(), serial.size()) << "threads " << threads;
    for (size_t i = 0; i < pooled.size(); ++i) {
      EXPECT_EQ(pooled[i].points(), serial[i].points())
          << "threads " << threads << ", trajectory " << i;
    }
    EXPECT_EQ(audit.mean_displacement, serial_audit.mean_displacement);
    EXPECT_EQ(audit.max_displacement, serial_audit.max_displacement);
  }
}

TEST(WorkStealingPoolTest, BatchRunnerReportsShardSkew) {
  const Dataset input = SmallFleet(24, 9);
  BatchRunnerConfig config;
  config.pipeline.m = 5;
  config.shards = 4;
  BatchRunner runner(config);
  Rng rng(5);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const BatchReport& report = runner.report();
  ASSERT_EQ(report.shard_wall_seconds.size(), 4u);
  EXPECT_LE(report.shard_wall_min, report.shard_wall_mean);
  EXPECT_LE(report.shard_wall_mean, report.shard_wall_max);
  double sum = 0.0;
  for (const double s : report.shard_wall_seconds) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(report.shard_wall_mean, sum / 4.0, 1e-12);
}

}  // namespace
}  // namespace frt
