// Unit tests for zone maps and sorted indexes.

#include <gtest/gtest.h>

#include <algorithm>

#include "index/sorted_index.h"
#include "index/zone_map.h"
#include "storage/column.h"
#include "storage/datagen.h"
#include "storage/paged_column.h"

namespace dbtouch::index {
namespace {

using storage::Column;
using storage::RowId;

TEST(ZoneMapTest, ZonesCoverColumn) {
  const Column c = storage::GenUniformInt32("c", 1000, 0, 99, 1);
  const ZoneMap zm(c.View(), 128);
  EXPECT_EQ(zm.num_zones(), 8);  // ceil(1000/128)
  EXPECT_EQ(zm.zone(0).first, 0);
  EXPECT_EQ(zm.zone(7).last, 999);
  // Zones tile without gaps.
  for (std::int64_t z = 1; z < zm.num_zones(); ++z) {
    EXPECT_EQ(zm.zone(z).first, zm.zone(z - 1).last + 1);
  }
}

TEST(ZoneMapTest, MinMaxAreTight) {
  const Column c = Column::FromInt32("c", {5, 1, 9, 100, 90, 95});
  const ZoneMap zm(c.View(), 3);
  EXPECT_DOUBLE_EQ(zm.zone(0).min, 1.0);
  EXPECT_DOUBLE_EQ(zm.zone(0).max, 9.0);
  EXPECT_DOUBLE_EQ(zm.zone(1).min, 90.0);
  EXPECT_DOUBLE_EQ(zm.zone(1).max, 100.0);
  EXPECT_DOUBLE_EQ(zm.global_min(), 1.0);
  EXPECT_DOUBLE_EQ(zm.global_max(), 100.0);
}

TEST(ZoneMapTest, MayMatchPrunesDisjointZones) {
  const Column c = Column::FromInt32("c", {5, 1, 9, 100, 90, 95});
  const ZoneMap zm(c.View(), 3);
  EXPECT_TRUE(zm.MayMatch(0, 0.0, 2.0));    // Zone 0 holds 1.
  EXPECT_FALSE(zm.MayMatch(0, 50.0, 80.0));  // Zone 0 max is 9.
  EXPECT_TRUE(zm.MayMatch(4, 99.0, 200.0));  // Zone 1 holds 100.
}

TEST(ZoneMapTest, MatchingZonesFindsPlantedOutlier) {
  Column c = storage::GenGaussianDouble("g", 10000, 0.0, 1.0, 7);
  const auto rows = storage::InjectOutliers(c, 0.0005, 500.0, 8);
  ASSERT_FALSE(rows.empty());
  const ZoneMap zm(c.View(), 256);
  const auto zones = zm.MatchingZones(400.0, 600.0);
  // Every positive outlier lies in some returned zone.
  for (const RowId r : rows) {
    if (c.View().GetDouble(r) > 0) {
      const bool covered =
          std::any_of(zones.begin(), zones.end(), [r](const Zone& z) {
            return z.first <= r && r <= z.last;
          });
      EXPECT_TRUE(covered) << "outlier row " << r << " not covered";
    }
  }
  // And pruning is real: far fewer zones than total.
  EXPECT_LT(zones.size(), static_cast<std::size_t>(zm.num_zones()) / 2);
}

TEST(SortedIndexTest, ValueOrder) {
  const Column c = Column::FromInt32("c", {30, 10, 20});
  const SortedIndex idx(c.View());
  ASSERT_EQ(idx.size(), 3);
  EXPECT_DOUBLE_EQ(idx.ValueAt(0), 10.0);
  EXPECT_EQ(idx.RowAt(0), 1);
  EXPECT_DOUBLE_EQ(idx.ValueAt(2), 30.0);
  EXPECT_EQ(idx.RowAt(2), 0);
}

TEST(SortedIndexTest, LowerBound) {
  const Column c = Column::FromInt32("c", {10, 20, 30, 30, 40});
  const SortedIndex idx(c.View());
  EXPECT_EQ(idx.LowerBound(5.0), 0);
  EXPECT_EQ(idx.LowerBound(30.0), 2);
  EXPECT_EQ(idx.LowerBound(31.0), 4);
  EXPECT_EQ(idx.LowerBound(99.0), 5);
}

TEST(SortedIndexTest, RowsInValueRangeMatchesScan) {
  const Column c = storage::GenUniformInt32("c", 2000, 0, 999, 11);
  const SortedIndex idx(c.View());
  const auto rows = idx.RowsInValueRange(100.0, 150.0);
  // Reference scan.
  std::int64_t expected = 0;
  for (RowId r = 0; r < 2000; ++r) {
    const int v = c.View().GetInt32(r);
    if (v >= 100 && v <= 150) {
      ++expected;
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(rows.size()), expected);
  EXPECT_EQ(idx.CountInValueRange(100.0, 150.0), expected);
  for (const RowId r : rows) {
    const int v = c.View().GetInt32(r);
    EXPECT_GE(v, 100);
    EXPECT_LE(v, 150);
  }
}

TEST(SortedIndexTest, EmptyRangeYieldsNothing) {
  const Column c = Column::FromInt32("c", {1, 2, 3});
  const SortedIndex idx(c.View());
  EXPECT_TRUE(idx.RowsInValueRange(10.0, 20.0).empty());
  EXPECT_EQ(idx.CountInValueRange(10.0, 20.0), 0);
}

// Built block-at-a-time, a zone map has the same zones as one built over
// the whole column, whatever the block size: a block may span zones and a
// zone may span blocks.
TEST(ZoneMapTest, BuildOverBlocksMatchesTheColumnBuild) {
  const Column c = storage::GenUniformInt32("c", 10'000, 0, 99'999, 3);
  const ZoneMap want(c.View(), 1024);
  for (const std::int64_t rows_per_block : {1, 100, 3000, 0}) {
    const auto got = ZoneMap::Build(*c.PagedSource(rows_per_block), 1024);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->num_zones(), want.num_zones());
    for (std::int64_t z = 0; z < want.num_zones(); ++z) {
      EXPECT_EQ(got->zone(z).first, want.zone(z).first);
      EXPECT_EQ(got->zone(z).last, want.zone(z).last);
      EXPECT_EQ(got->zone(z).min, want.zone(z).min)
          << rows_per_block << " rows a block, zone " << z;
      EXPECT_EQ(got->zone(z).max, want.zone(z).max);
    }
    EXPECT_EQ(got->global_min(), want.global_min());
    EXPECT_EQ(got->global_max(), want.global_max());
  }
}

}  // namespace
}  // namespace dbtouch::index
