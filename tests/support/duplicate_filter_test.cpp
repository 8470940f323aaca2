#include "support/duplicate_filter.h"

#include <gtest/gtest.h>

namespace lm::support {
namespace {

TEST(DuplicateFilter, EvictsTheOldestKeyAtCapacity) {
  DuplicateFilter<int> filter;
  EXPECT_FALSE(filter.seen_before(1, 2));
  EXPECT_FALSE(filter.seen_before(2, 2));
  EXPECT_FALSE(filter.seen_before(3, 2));  // the window is full: 1 leaves
  EXPECT_TRUE(filter.seen_before(3, 2));
  EXPECT_TRUE(filter.seen_before(2, 2));
  EXPECT_FALSE(filter.seen_before(1, 2));
}

TEST(DuplicateFilter, EvictedKeyIsReadmitted) {
  DuplicateFilter<int> filter;
  EXPECT_FALSE(filter.seen_before(7, 1));
  EXPECT_TRUE(filter.seen_before(7, 1));
  EXPECT_FALSE(filter.seen_before(8, 1));  // evicts 7
  EXPECT_FALSE(filter.seen_before(7, 1));  // new again; evicts 8
  EXPECT_TRUE(filter.seen_before(7, 1));
  EXPECT_FALSE(filter.seen_before(8, 1));
}

TEST(DuplicateFilter, RepeatedKeyIsNotQueuedTwice) {
  // Were the repeat queued, admitting 2 would push the window to three
  // entries and evict the first copy of 1, forgetting it.
  DuplicateFilter<int> filter;
  EXPECT_FALSE(filter.seen_before(1, 2));
  EXPECT_TRUE(filter.seen_before(1, 2));
  EXPECT_FALSE(filter.seen_before(2, 2));
  EXPECT_TRUE(filter.seen_before(1, 2));
  EXPECT_TRUE(filter.seen_before(2, 2));
}

}  // namespace
}  // namespace lm::support
