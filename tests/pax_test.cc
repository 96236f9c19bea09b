// The PAX multi-column block tier: layout math, whole-table spill round
// trips, the one-fault-per-tuple residency contract, Open validation, and
// the server-level multi-attribute stall batching a fat-table tap rides
// on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "cache/block_provider.h"
#include "cache/buffer_manager.h"
#include "cache/file_block_provider.h"
#include "core/kernel.h"
#include "core/shared_state.h"
#include "server/api.h"
#include "server/touch_server.h"
#include "server_harness.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"
#include "storage/paged_column.h"
#include "storage/pax.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace dbtouch {
namespace {

using cache::FileBlockProvider;
using core::Kernel;
using core::KernelConfig;
using server::OpenWithObject;
using server::SessionId;
using server::TouchServer;
using server::TouchServerConfig;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::DataType;
using storage::PaxLayout;
using storage::RowId;
using storage::SpillOptions;
using storage::Table;
using storage::TableSpiller;
namespace api = server::api;

/// Scratch directory, removed with everything in it at scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "dbtouch_pax_XXXXXX")
            .string();
    path_ = ::mkdtemp(tmpl.data());
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Four columns mixing widths and a dictionary: int64, double, int32,
/// string — the fat-table shape the PAX tier exists for.
std::shared_ptr<Table> FatTable(const std::string& name, std::int64_t rows) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  cols.push_back(storage::GenGaussianDouble("g", rows, 10.0, 2.0, 11));
  cols.push_back(storage::GenUniformInt32("u", rows, -100, 100, 13));
  cols.push_back(storage::GenCategorical(
      "tag", rows, {"alpha", "beta", "gamma"}, 7));
  return *Table::FromColumns(name, std::move(cols));
}

std::shared_ptr<core::SharedState> MakeShared(std::int64_t rows_per_block) {
  cache::BufferManagerConfig buffer;
  buffer.rows_per_block = rows_per_block;
  return std::make_shared<core::SharedState>(
      sampling::SampleHierarchyConfig{}, buffer);
}

// ---- Layout math ------------------------------------------------------------

TEST(PaxLayoutTest, MinipagesDescendByWidthWithStableTies) {
  // Schema order: i32(4), double(8), float(4), i64(8), string(4).
  // Placement order (width desc, schema index ties): double, i64, i32,
  // float, string.
  const PaxLayout layout({DataType::kInt32, DataType::kDouble,
                          DataType::kFloat, DataType::kInt64,
                          DataType::kString});
  EXPECT_EQ(layout.row_bytes(), 28u);
  const std::int64_t rows = 1023;  // Odd: alignment must not rely on rows.
  EXPECT_EQ(layout.MinipageOffset(rows, 1), 0u);           // double first
  EXPECT_EQ(layout.MinipageOffset(rows, 3), rows * 8u);    // then i64
  EXPECT_EQ(layout.MinipageOffset(rows, 0), rows * 16u);   // then i32
  EXPECT_EQ(layout.MinipageOffset(rows, 2), rows * 20u);   // then float
  EXPECT_EQ(layout.MinipageOffset(rows, 4), rows * 24u);   // then string
  EXPECT_EQ(layout.BlockBytes(rows), rows * 28u);
  // Natural alignment with zero padding: every minipage offset is a
  // multiple of its field width for ANY row count, because 8-byte
  // minipages all precede 4-byte ones.
  for (const std::int64_t r : {1, 7, 96, 1023}) {
    for (std::size_t c = 0; c < layout.num_columns(); ++c) {
      EXPECT_EQ(layout.MinipageOffset(r, c) %
                    storage::TypeWidth(layout.type(c)),
                0u)
          << "rows=" << r << " col=" << c;
    }
    // Minipages tile the payload exactly.
    std::size_t total = 0;
    for (std::size_t c = 0; c < layout.num_columns(); ++c) {
      total += layout.MinipageBytes(r, c);
    }
    EXPECT_EQ(total, layout.BlockBytes(r));
  }
}

// ---- Whole-table spill round trip -------------------------------------------

TEST(PaxSpillTest, ReclaimedPaxTableServesIdenticalValuesAllColumns) {
  ScratchDir dir;
  const std::int64_t rows = 1'000;
  const std::int64_t rows_per_block = 96;  // 1000 % 96 != 0: ragged tail.
  auto shared = MakeShared(rows_per_block);
  auto table = FatTable("fat", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  const auto reference = FatTable("fat", rows);  // Same seeds, own copy.

  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = rows_per_block});
  ASSERT_TRUE(
      shared->SpillTablePax("fat", spiller, /*reclaim_raw=*/true).ok());
  EXPECT_TRUE(table->raw_released());
  EXPECT_TRUE(std::filesystem::exists(spiller.PaxPathFor("fat")));

  // Every column — across widths, the string dictionary, and the ragged
  // last block — reads back identical through the shared PAX binding.
  for (std::size_t col = 0; col < 4; ++col) {
    const auto source = shared->GetColumnSource("fat", col);
    ASSERT_TRUE(source.ok());
    EXPECT_EQ((*source)->type(), reference->schema().field(col).type);
    storage::PagedColumnCursor cursor(*source);
    for (RowId r = 0; r < rows; ++r) {
      ASSERT_EQ(cursor.GetValue(r).ToString(),
                reference->GetValue(r, col)->ToString())
          << "col " << col << " row " << r;
    }
  }
}

TEST(PaxSpillTest, OneFaultMakesBlockResidentForAllAttributes) {
  ScratchDir dir;
  const std::int64_t rows = 1'000;
  const std::int64_t rows_per_block = 128;
  auto shared = MakeShared(rows_per_block);
  auto table = FatTable("fat", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());

  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = rows_per_block});
  const auto provider = spiller.SpillTablePax(table);
  ASSERT_TRUE(provider.ok());
  ASSERT_NE((*provider)->pax_layout(), nullptr);
  EXPECT_EQ((*provider)->geometry().width(),
            (*provider)->pax_layout()->row_bytes());
  for (std::size_t col = 0; col < 4; ++col) {
    ASSERT_TRUE(shared->SetColumnProvider("fat", col, *provider).ok());
  }

  std::vector<std::shared_ptr<storage::PagedColumnSource>> sources;
  for (std::size_t col = 0; col < 4; ++col) {
    const auto source = shared->GetColumnSource("fat", col);
    ASSERT_TRUE(source.ok());
    sources.push_back(*source);
  }
  // All four columns share one residency token (one block namespace).
  for (const auto& source : sources) {
    EXPECT_EQ(source->share_token(), sources.front()->share_token());
  }

  // The PAX contract: pinning block 0 for the first attribute faults ONE
  // block from disk; the other three attributes' pins are cache hits.
  {
    std::vector<storage::BlockPin> pins;
    for (const auto& source : sources) {
      auto pin = source->PinBlock(0);
      ASSERT_TRUE(pin.ok());
      EXPECT_EQ(pin->view().row_count(), rows_per_block);
      pins.push_back(std::move(*pin));
    }
    EXPECT_EQ((*provider)->blocks_read(), 1);
  }
  // A different block costs exactly one more fault, again for all four.
  for (const auto& source : sources) {
    ASSERT_TRUE(source->PinBlock(3).ok());
  }
  EXPECT_EQ((*provider)->blocks_read(), 2);
}

TEST(PaxSpillTest, ColumnPerBlockSpillFaultsOncePerAttribute) {
  // The contrast case the ABL-PAX bench gates: the same fat-tuple read
  // over a column-per-block spill costs one fault PER attribute.
  ScratchDir dir;
  const std::int64_t rows = 1'000;
  const std::int64_t rows_per_block = 128;
  auto shared = MakeShared(rows_per_block);
  auto table = FatTable("fat", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());

  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = rows_per_block});
  ASSERT_TRUE(shared->SpillTable("fat", spiller).ok());

  std::int64_t faults_before = shared->buffer_manager().stats().faults;
  for (std::size_t col = 0; col < 4; ++col) {
    const auto source = shared->GetColumnSource("fat", col);
    ASSERT_TRUE(source.ok());
    ASSERT_TRUE((*source)->PinBlock(0).ok());
  }
  EXPECT_EQ(shared->buffer_manager().stats().faults - faults_before, 4);
}

// ---- File format ------------------------------------------------------------

TEST(PaxFileFormatTest, OpenRejectsUnknownFlagsAndCorruptColumnTypes) {
  ScratchDir dir;
  const std::int64_t rows = 500;
  auto table = FatTable("fat", rows);
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  ASSERT_TRUE(spiller.SpillTablePax(table).ok());
  const std::string path = spiller.PaxPathFor("fat");
  ASSERT_TRUE(FileBlockProvider::Open(path).ok());

  const auto corrupt_u32 = [&path](off_t offset, std::uint32_t value) {
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, &value, sizeof(value), offset),
              static_cast<ssize_t>(sizeof(value)));
    ::close(fd);
  };

  // The reserved flags word (offset 48) must be 0 and the version (offset
  // 4) must be 2: a file of any other format is refused, not misread.
  for (int bit = 0; bit < 32; ++bit) {
    corrupt_u32(48, 1u << bit);
    EXPECT_EQ(FileBlockProvider::Open(path).status().code(),
              StatusCode::kInvalidArgument)
        << "flag bit " << bit;
  }
  corrupt_u32(48, 0);  // Restore.
  for (const std::uint32_t version : {0u, 1u, 3u}) {
    corrupt_u32(4, version);
    EXPECT_EQ(FileBlockProvider::Open(path).status().code(),
              StatusCode::kInvalidArgument)
        << "version " << version;
  }
  corrupt_u32(4, cache::BlockFileHeader::kVersion);  // Restore.
  ASSERT_TRUE(FileBlockProvider::Open(path).ok());

  // Corrupt the first column-directory entry (at 64 + num_blocks * 16)
  // with an invalid type code.
  const std::int64_t num_blocks = (rows + 127) / 128;
  corrupt_u32(static_cast<off_t>(64 + num_blocks * 16), 99);
  EXPECT_FALSE(FileBlockProvider::Open(path).ok());
}

// ---- Server-level: fat-table stalls batch into one suspend ------------------

/// Runs one cold fat-table tap against a spilled table and returns the
/// server stats. `pax` picks the spill layout.
server::ServerStatsSnapshot RunFatTap(const std::string& dir, bool pax) {
  std::filesystem::create_directories(dir);
  TouchServerConfig config;
  config.num_workers = 1;
  config.base_frame_budget_us = 1'000'000;  // Relaxed deadlines.
  config.session_defaults.buffer.rows_per_block = 1'024;
  TouchServer server(config);
  auto table = FatTable("fat", 1 << 14);
  EXPECT_TRUE(server.RegisterTable(table).ok());
  TableSpiller spiller(dir, SpillOptions{.rows_per_block = 1'024});
  if (pax) {
    EXPECT_TRUE(server.shared()
                    .SpillTablePax("fat", spiller, /*reclaim_raw=*/true)
                    .ok());
  } else {
    EXPECT_TRUE(server.shared()
                    .SpillTable("fat", spiller, /*reclaim_raw=*/true)
                    .ok());
  }
  EXPECT_TRUE(server.Start().ok());
  const auto session = OpenWithObject(
      server, {.kind = 1, .table = "fat", .frame = {2.0, 1.0, 4.0, 10.0}});
  EXPECT_TRUE(session.ok());

  Kernel reference;
  TraceBuilder builder(reference.device());
  EXPECT_TRUE(server
                  .Call(api::SubmitBatchReq{
                      .session = *session,
                      .paced = false,
                      .events = api::ToWire(
                          builder.Tap("tap", PointCm{3.0, 6.0}))})
                  .ok());
  EXPECT_TRUE(server.Drain().ok());
  EXPECT_TRUE(server
                  .WithSession(*session,
                               [](Kernel& kernel) {
                                 EXPECT_FALSE(
                                     kernel.has_pending_gestures());
                                 EXPECT_GT(kernel.results().size(), 0u);
                               })
                  .ok());
  server::ServerStatsSnapshot stats = server.stats();
  EXPECT_TRUE(server.Stop().ok());
  return stats;
}

TEST(PaxServerTest, FatTableTapBatchesColdAttributesIntoOneSuspend) {
  ScratchDir dir;
  // Column-per-block spill: the tap's tuple probe misses on all four
  // attribute sources and suspends ONCE, with the extra attributes riding
  // the same stall (3 round trips saved).
  const server::ServerStatsSnapshot col =
      RunFatTap(dir.path() + "/col", /*pax=*/false);
  EXPECT_GE(col.fetch.suspended_quanta, 1);
  EXPECT_GE(col.fetch.batched_stall_attrs, 3);
  EXPECT_EQ(col.fetch.shed_on_fetch_error, 0);

  // PAX spill: all four attributes miss on the SAME block of the shared
  // provider, so the stall has one entry and nothing to batch.
  const server::ServerStatsSnapshot pax =
      RunFatTap(dir.path() + "/pax", /*pax=*/true);
  EXPECT_GE(pax.fetch.suspended_quanta, 1);
  EXPECT_EQ(pax.fetch.batched_stall_attrs, 0);
  EXPECT_EQ(pax.fetch.shed_on_fetch_error, 0);
  // And the headline fat-table economics: strictly fewer cold faults per
  // tap than the column-per-block layout.
  EXPECT_LT(pax.buffer.faulted_blocks, col.buffer.faulted_blocks);
}

}  // namespace
}  // namespace dbtouch
