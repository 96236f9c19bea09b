// Unit tests for the remote server's range reads.

#include <gtest/gtest.h>

#include <cstring>

#include "remote/remote_store.h"
#include "storage/datagen.h"

namespace dbtouch::remote {
namespace {

using storage::Column;

TEST(ServerTest, ReadRangeServesLevelData) {
  const Column base = storage::GenSequenceInt64("v", 4096, 0, 1);
  RemoteServer server(base.View());
  const auto bytes = server.ReadRange(100, 5);
  ASSERT_EQ(bytes.size(), 5 * sizeof(std::int64_t));
  std::int64_t values[5];
  std::memcpy(values, bytes.data(), bytes.size());
  EXPECT_EQ(values[0], 100);
  EXPECT_EQ(values[4], 104);
  EXPECT_EQ(server.requests_served(), 1);
}

TEST(ServerTest, ReadRangeClampsToLevel) {
  const Column base = storage::GenSequenceInt64("v", 1000, 0, 1);
  RemoteServer server(base.View());
  const auto bytes = server.ReadRange(995, 100);
  EXPECT_EQ(bytes.size(), 5 * sizeof(std::int64_t));
}

}  // namespace
}  // namespace dbtouch::remote
