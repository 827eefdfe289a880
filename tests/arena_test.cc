// Tests for the scratch arena / pool (mnc/util/arena.h): growth and
// zero-fill semantics of the scatter buffers, the clean-buffer invariant the
// SpGEMM row kernels rely on, and lease recycling (including the
// exception-in-flight discard path).

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "mnc/kernels/kernels.h"
#include "mnc/util/arena.h"

namespace mnc {
namespace {

TEST(ScratchArenaTest, EnsureScatterColsGrowsAndZeroFills) {
  ScratchArena arena;
  arena.EnsureScatterCols(16);
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(0.0, arena.scatter_acc()[i]) << i;
    EXPECT_EQ(0, arena.scatter_seen()[i]) << i;
  }
  EXPECT_TRUE(arena.scatter_list().empty());

  // Growth zero-fills the new region; shrinking requests are no-ops and the
  // existing (clean) prefix is preserved.
  arena.EnsureScatterCols(64);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(0.0, arena.scatter_acc()[i]) << i;
    EXPECT_EQ(0, arena.scatter_seen()[i]) << i;
  }
  arena.EnsureScatterCols(8);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(0.0, arena.scatter_acc()[i]) << i;
  }
}

TEST(ScratchArenaTest, SpGemmRowKernelsRestoreCleanBuffers) {
  ScratchArena arena;
  arena.EnsureScatterCols(32);
  double* acc = arena.scatter_acc();
  char* seen = arena.scatter_seen();
  std::vector<int64_t>& occupied = arena.scatter_list();

  const int64_t b_idx[] = {1, 5, 7, 30};
  const double b_val[] = {2.0, -1.0, 0.5, 4.0};
  kernels::SpGemmScatterRow(b_idx, b_val, 4, 3.0, acc, seen, occupied);
  const int64_t b2_idx[] = {0, 5, 31};
  const double b2_val[] = {1.0, 1.0, 1.0};
  kernels::SpGemmScatterRow(b2_idx, b2_val, 3, -1.0, acc, seen, occupied);
  ASSERT_EQ(6u, occupied.size());

  std::vector<int64_t> out_idx(occupied.size());
  std::vector<double> out_val(occupied.size());
  const int64_t written = kernels::SpGemmGatherRow(
      occupied, 32, acc, seen, out_idx.data(), out_val.data());

  // 6 distinct columns touched, all with non-zero accumulated values.
  EXPECT_EQ(6, written);
  out_idx.resize(static_cast<size_t>(written));
  EXPECT_EQ((std::vector<int64_t>{0, 1, 5, 7, 30, 31}), out_idx);
  EXPECT_EQ(-1.0, out_val[0]);   // 1.0 * -1.0
  EXPECT_EQ(6.0, out_val[1]);    // 2.0 * 3.0
  EXPECT_EQ(-4.0, out_val[2]);   // -1.0 * 3.0 + 1.0 * -1.0

  // The gather must leave the arena clean for the next row: this is the
  // invariant that lets leases skip re-zeroing.
  EXPECT_TRUE(occupied.empty());
  for (int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(0.0, acc[i]) << i;
    EXPECT_EQ(0, seen[i]) << i;
  }
}

TEST(ScratchArenaTest, SymbolicRowKernelsRestoreCleanBuffers) {
  ScratchArena arena;
  arena.EnsureScatterCols(16);
  char* seen = arena.scatter_seen();
  std::vector<int64_t>& occupied = arena.scatter_list();

  const int64_t b_idx[] = {2, 9, 2, 15};
  kernels::SpGemmSymbolicRow(b_idx, 4, seen, occupied);
  EXPECT_EQ(3u, occupied.size());  // duplicate column 2 counted once
  const int64_t count = kernels::SpGemmResetSymbolicRow(occupied, seen);
  EXPECT_EQ(3, count);
  EXPECT_TRUE(occupied.empty());
  for (int64_t i = 0; i < 16; ++i) EXPECT_EQ(0, seen[i]) << i;
}

TEST(ScratchArenaTest, StageBuffersResizeOnDemand) {
  ScratchArena arena;
  std::vector<double>& d = arena.StageDoubles(10);
  EXPECT_EQ(10u, d.size());
  std::vector<char>& c = arena.StageBytes(3);
  EXPECT_EQ(3u, c.size());
  // Re-staging at a different size returns the same storage, resized.
  std::vector<double>& d2 = arena.StageDoubles(4);
  EXPECT_EQ(&d, &d2);
  EXPECT_EQ(4u, d2.size());
}

TEST(ScratchPoolTest, LeaseRecyclesArenaOnNormalReturn) {
  ScratchPool pool;
  ScratchArena* first = nullptr;
  {
    ScratchPool::Lease lease = pool.Acquire();
    first = &*lease;
    lease->EnsureScatterCols(128);
  }
  // The recycled arena comes back with its grown buffers intact.
  ScratchPool::Lease again = pool.Acquire();
  EXPECT_EQ(first, &*again);
  for (int64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(0.0, again->scatter_acc()[i]) << i;
  }
}

TEST(ScratchPoolTest, LeaseDiscardsArenaWhenExceptionInFlight) {
  ScratchPool pool;
  try {
    ScratchPool::Lease lease = pool.Acquire();
    // Dirty the buffers mid-operation, then unwind: the lease must NOT
    // return a dirty arena to the pool.
    lease->EnsureScatterCols(8);
    lease->scatter_acc()[3] = 42.0;
    lease->scatter_seen()[3] = 1;
    lease->scatter_list().push_back(3);
    throw std::runtime_error("simulated failure mid-scatter");
  } catch (const std::runtime_error&) {
  }
  // If the dirty arena had been recycled, this Acquire would hand it back
  // with the poisoned values still present (EnsureScatterCols does not
  // re-zero at unchanged width, by design).
  ScratchPool::Lease fresh = pool.Acquire();
  fresh->EnsureScatterCols(8);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(0.0, fresh->scatter_acc()[i]) << i;
    EXPECT_EQ(0, fresh->scatter_seen()[i]) << i;
  }
  EXPECT_TRUE(fresh->scatter_list().empty());
}

TEST(ScratchPoolTest, DistinctConcurrentLeasesGetDistinctArenas) {
  ScratchPool pool;
  ScratchPool::Lease a = pool.Acquire();
  ScratchPool::Lease b = pool.Acquire();
  EXPECT_NE(&*a, &*b);
}

TEST(ScratchPoolTest, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ScratchPool::Global(), &ScratchPool::Global());
}

}  // namespace
}  // namespace mnc
