// Unit tests for the shard-count resolution helper.

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace dlacep {
namespace {

TEST(ResolveNumThreads, ZeroMeansHardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
}

}  // namespace
}  // namespace dlacep
