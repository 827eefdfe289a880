#include "mnc/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mnc/util/fail_point.h"

namespace mnc {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      touched[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForRunsChunksConcurrently) {
  // Every chunk checks in, then waits (bounded) until all four have. A pool
  // that ran its chunks one after another would leave each early chunk
  // waiting alone until the bound expires. No timing threshold: this holds
  // even when every thread shares one CPU. bench/par_scaling takes its
  // speedup floor from the concurrency this pool delivers, so a pool that
  // serialized its chunks would otherwise lower its own floor unnoticed.
  constexpr int kChunks = 4;
  ThreadPool pool(kChunks);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int saw_all = 0;
  pool.ParallelFor(kChunks, [&](int64_t, int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return arrived == kChunks; })) {
      ++saw_all;
    }
  });
  EXPECT_EQ(saw_all, kChunks);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum.fetch_add(i + 1);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPoolTest, SumReduction) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(10000, [&](int64_t begin, int64_t end) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(100, [&](int64_t begin, int64_t end) {
      count.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GT(pool.num_threads(), 0);
}

TEST(ThreadPoolTest, ParallelForRethrowsChunkExceptionToWaiter) {
  // A throwing chunk must surface in the waiting thread, not
  // std::terminate a worker.
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](int64_t begin, int64_t) {
                         if (begin == 0) {
                           throw std::runtime_error("chunk zero failed");
                         }
                       }),
      std::runtime_error);
  // The pool is still usable afterwards.
  std::atomic<int> count{0};
  pool.ParallelFor(50, [&](int64_t begin, int64_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, AllChunksRunEvenWhenOneThrows) {
  // The first failure is captured, but remaining chunks still execute:
  // no partial, silently-skipped work.
  ThreadPool pool(4);
  std::atomic<int> touched{0};
  const Status s = pool.TryParallelFor(1000, [&](int64_t begin, int64_t end) {
    touched.fetch_add(static_cast<int>(end - begin));
    if (begin == 0) throw std::runtime_error("boom");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(touched.load(), 1000);
}

TEST(ThreadPoolTest, TryParallelForConvertsToStatus) {
  ThreadPool pool(2);
  const Status s = pool.TryParallelFor(10, [&](int64_t, int64_t) {
    throw std::runtime_error("worker task exploded");
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("worker task exploded"), std::string::npos);
}

TEST(ThreadPoolTest, TryParallelForOkOnSuccess) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.TryParallelFor(10, [](int64_t, int64_t) {}).ok());
}

TEST(ThreadPoolTest, TaskFailPointSurfacesAsStatus) {
  ThreadPool pool(2);
  ScopedFailPoint fp("threadpool.task");
  const Status s = pool.TryParallelFor(100, [](int64_t, int64_t) {});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("threadpool.task"), std::string::npos);
}

TEST(ThreadPoolTest, SubmitExceptionCapturedNotTerminating) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.Submit([&] {
    ran.store(true);
    throw std::runtime_error("detached task failed");
  });
  for (int i = 0; i < 1000 && !ran.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(ran.load());
  // Give the worker a moment to store the captured exception.
  Status s = Status::Ok();
  for (int i = 0; i < 1000 && s.ok(); ++i) {
    s = pool.TakeFirstTaskError();
    if (s.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("detached task failed"), std::string::npos);
  // The error was consumed; a second take reports OK.
  EXPECT_TRUE(pool.TakeFirstTaskError().ok());
}

TEST(ThreadPoolTest, ShutdownWithPendingTasksDrainsThemAll) {
  // Destroying the pool while tasks are still queued must run every task,
  // not drop or deadlock on them.
  std::atomic<int> completed{0};
  const int kTasks = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&completed] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        completed.fetch_add(1);
      });
    }
    // Destructor runs here with most tasks still pending.
  }
  EXPECT_EQ(completed.load(), kTasks);
}

}  // namespace
}  // namespace mnc
