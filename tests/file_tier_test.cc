// The disk spill tier: block-file format round trips, TableSpiller +
// SharedState rebinding, the bounded-residency acceptance criterion
// (a table 4x the buffer budget served through the pool), ranged-read
// coalescing against the file, and the fault-injection battery
// (truncation, short reads, missing files, permission errors).
//
// Labeled `slow` in CMake: CI runs this suite in its dedicated
// stress/fault ctest step.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/block_provider.h"
#include "cache/buffer_manager.h"
#include "cache/fetch_queue.h"
#include "cache/file_block_provider.h"
#include "core/kernel.h"
#include "core/shared_state.h"
#include "server/touch_server.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"
#include "storage/memory_tracker.h"
#include "storage/paged_column.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace dbtouch {
namespace {

using cache::BlockFileWriter;
using cache::FileBlockProvider;
using cache::FileFaultInjector;
using cache::FileProviderOptions;
using cache::TableBlockProvider;
using core::ActionConfig;
using core::Kernel;
using core::KernelConfig;
using server::TouchServer;
using server::TouchServerConfig;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::RowId;
using storage::SpillOptions;
using storage::Table;
using storage::TableSpiller;
using touch::RectCm;

/// Scratch directory, removed with everything in it at scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "dbtouch_file_tier_XXXXXX")
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

std::shared_ptr<Table> SequenceTable(const std::string& name,
                                     std::int64_t rows) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  return *Table::FromColumns(name, std::move(cols));
}

/// Applies `edit` to the header of the block file at `path`, in place.
void RewriteHeader(const std::string& path,
                   const std::function<void(cache::BlockFileHeader*)>& edit) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  cache::BlockFileHeader header;
  ASSERT_EQ(std::fread(&header, sizeof(header), 1, f), 1u);
  edit(&header);
  std::rewind(f);
  ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, f), 1u);
  std::fclose(f);
}

// ---- Format round trips -----------------------------------------------------

TEST(FileBlockProviderTest, SpilledBlocksAreByteIdenticalToTableProvider) {
  ScratchDir dir;
  SpillOptions options;
  options.rows_per_block = 96;  // 1000 % 96 != 0: a ragged tail block.
  TableSpiller spiller(dir.path(), options);
  auto table = SequenceTable("t", 1'000);
  const auto provider = spiller.SpillColumn(table, 0);
  ASSERT_TRUE(provider.ok()) << provider.status();
  EXPECT_EQ(spiller.columns_spilled(), 1);
  EXPECT_GT(spiller.bytes_written(), 1'000 * 8);

  TableBlockProvider reference(table, 0, options.rows_per_block);
  ASSERT_EQ((*provider)->geometry().num_blocks(),
            reference.geometry().num_blocks());
  for (std::int64_t b = 0; b < reference.geometry().num_blocks(); ++b) {
    const auto from_file = (*provider)->Fetch(b);
    const auto from_table = reference.Fetch(b);
    ASSERT_TRUE(from_file.ok()) << from_file.status();
    ASSERT_TRUE(from_table.ok());
    EXPECT_EQ(*from_file, *from_table) << "block " << b;
  }
}

TEST(FileBlockProviderTest, ReadRangeMatchesConcatenatedFetches) {
  ScratchDir dir;
  SpillOptions options;
  options.rows_per_block = 64;
  TableSpiller spiller(dir.path(), options);
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok()) << provider.status();

  const auto ranged = (*provider)->ReadRange(3, 5);
  ASSERT_TRUE(ranged.ok()) << ranged.status();
  std::vector<std::byte> expected;
  for (std::int64_t b = 3; b < 8; ++b) {
    const auto one = (*provider)->Fetch(b);
    ASSERT_TRUE(one.ok());
    expected.insert(expected.end(), one->begin(), one->end());
  }
  EXPECT_EQ(*ranged, expected);
  EXPECT_EQ((*provider)->ranged_reads(), 1);
  EXPECT_GE((*provider)->blocks_read(), 6);
}

TEST(FileBlockProviderTest, OpenRejectsMissingCorruptAndUnfinishedFiles) {
  ScratchDir dir;
  // Missing.
  EXPECT_EQ(FileBlockProvider::Open(dir.path() + "/absent.dbb")
                .status()
                .code(),
            StatusCode::kNotFound);

  // Garbage bytes: bad magic.
  const std::string garbage = dir.path() + "/garbage.dbb";
  {
    std::vector<char> noise(256, 'x');
    FILE* f = std::fopen(garbage.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(noise.data(), 1, noise.size(), f);
    std::fclose(f);
  }
  EXPECT_EQ(FileBlockProvider::Open(garbage).status().code(),
            StatusCode::kInvalidArgument);

  // A writer that never Finished leaves no committed header.
  auto table = SequenceTable("t", 500);
  TableBlockProvider reader(table, 0, 128);
  const std::string unfinished = dir.path() + "/unfinished.dbb";
  {
    BlockFileWriter writer(unfinished, reader.geometry());
    const auto block = reader.Fetch(0);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(writer.Append(block->data(), block->size()).ok());
    // No Finish.
  }
  EXPECT_EQ(FileBlockProvider::Open(unfinished).status().code(),
            StatusCode::kInvalidArgument);

  // Hostile headers over real spills: every count is bounded by the file
  // size before anything is allocated, and unknown type codes fail.
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  const auto plain = spiller.SpillColumn(table, 0);
  ASSERT_TRUE(plain.ok()) << plain.status();
  const auto pax = spiller.SpillTablePax(table);
  ASSERT_TRUE(pax.ok()) << pax.status();

  // A 16 TiB extent table claimed by a file of a few KiB.
  const std::string huge = dir.path() + "/huge.dbb";
  std::filesystem::copy_file((*plain)->path(), huge);
  RewriteHeader(huge, [](cache::BlockFileHeader* header) {
    header->row_count = std::int64_t{1} << 40;
    header->rows_per_block = 1;
    header->num_blocks = std::int64_t{1} << 40;
    header->payload_offset = 64 + (std::int64_t{1} << 44);
  });
  EXPECT_EQ(FileBlockProvider::Open(huge).status().code(),
            StatusCode::kInvalidArgument);

  // A PAX column directory of 2^32 - 1 entries (16 GiB).
  RewriteHeader((*pax)->path(), [](cache::BlockFileHeader* header) {
    header->num_columns = 0xFFFFFFFFu;
  });
  EXPECT_EQ(FileBlockProvider::Open((*pax)->path()).status().code(),
            StatusCode::kInvalidArgument);

  // An unknown type code of width 0 whose zero-length extents tile.
  const std::string typeless = dir.path() + "/typeless.dbb";
  std::filesystem::copy_file((*plain)->path(), typeless);
  std::int64_t payload_offset = 0;
  std::int64_t num_blocks = 0;
  RewriteHeader(typeless, [&](cache::BlockFileHeader* header) {
    header->type = 99;
    header->width = 0;
    payload_offset = header->payload_offset;
    num_blocks = header->num_blocks;
  });
  const std::vector<cache::BlockExtent> empty(
      static_cast<std::size_t>(num_blocks),
      cache::BlockExtent{payload_offset, 0});
  {
    FILE* f = std::fopen(typeless.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, sizeof(cache::BlockFileHeader), SEEK_SET);
    std::fwrite(empty.data(), sizeof(cache::BlockExtent), empty.size(), f);
    std::fclose(f);
  }
  EXPECT_EQ(FileBlockProvider::Open(typeless).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FileBlockProviderTest, WriterEnforcesBlockOrderAndSizes) {
  ScratchDir dir;
  auto table = SequenceTable("t", 300);
  TableBlockProvider reader(table, 0, 128);  // Blocks: 128, 128, 44 rows.
  BlockFileWriter writer(dir.path() + "/t.dbb", reader.geometry());
  const auto block = reader.Fetch(0);
  ASSERT_TRUE(block.ok());
  // Wrong size for block 0.
  EXPECT_EQ(writer.Append(block->data(), block->size() - 8).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer.Append(block->data(), block->size()).ok());
  // Finish before all blocks are written.
  EXPECT_EQ(writer.Finish().code(), StatusCode::kFailedPrecondition);
}

// ---- Spill + rebind through the SharedState ---------------------------------

TEST(TableSpillerTest, SpilledColumnsServeIdenticalValuesThroughThePool) {
  ScratchDir dir;
  const std::int64_t rows = 10'000;
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  cols.push_back(storage::GenCategorical(
      "tag", rows, {"alpha", "beta", "gamma"}, 7));
  auto table = *Table::FromColumns("spilled", std::move(cols));

  cache::BufferManagerConfig buffer;
  buffer.rows_per_block = 512;
  auto shared = std::make_shared<core::SharedState>(
      sampling::SampleHierarchyConfig{}, /*force_eager=*/true, buffer);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 512});
  ASSERT_TRUE(shared->SpillTable("spilled", spiller).ok());
  EXPECT_EQ(spiller.columns_spilled(), 2);

  // Both columns now fault from their block files; values — including
  // dictionary-decoded strings — match the in-memory table exactly.
  for (std::size_t col = 0; col < 2; ++col) {
    const auto source = shared->GetColumnSource("spilled", col);
    ASSERT_TRUE(source.ok());
    storage::PagedColumnCursor cursor(*source);
    for (RowId r = 0; r < rows; r += 37) {
      EXPECT_EQ(cursor.GetValue(r).ToString(),
                table->GetValue(r, col).ToString())
          << "col " << col << " row " << r;
    }
  }
}

// ---- The acceptance criterion: 4x-budget table, bounded residency -----------

TEST(FileTierAcceptanceTest, BeyondBudgetTableServesSlideSummaryWithinBudget) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 16;          // 512 KiB of int64.
  const std::int64_t table_bytes = rows * 8;
  const std::int64_t rows_per_block = 1'024;  // 8 KiB blocks.

  cache::BufferManagerConfig buffer;
  buffer.rows_per_block = rows_per_block;
  buffer.budget_bytes = table_bytes / 4;  // Table is 4x the budget.
  // Staging pad sized to one summary band, so a band's coalesced blocks
  // survive until the probe pins claim them (staged bytes live outside
  // the resident budget; the residency assertion below is untouched).
  buffer.staged_cap_bytes = buffer.budget_bytes;
  auto shared = std::make_shared<core::SharedState>(
      sampling::SampleHierarchyConfig{}, /*force_eager=*/true, buffer);
  auto table = SequenceTable("big", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());

  const std::int64_t matrix_before =
      storage::MemoryTracker::Instance().matrix_bytes();
  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = rows_per_block});
  // Spill with reclamation: the matrix is gone, so the whole script below
  // genuinely runs a 4x-budget table out of core.
  ASSERT_TRUE(
      shared->SpillTable("big", spiller, /*reclaim_raw=*/true).ok());
  EXPECT_TRUE(table->raw_released());
  EXPECT_EQ(table->resident_raw_bytes(), 0);
  // MemoryTracker accounting: the reclaim gave the table's bytes back.
  EXPECT_LE(storage::MemoryTracker::Instance().matrix_bytes(),
            matrix_before - table_bytes);

  KernelConfig config;
  config.use_sampling = false;  // Every summary reads base bands (disk).
  Kernel kernel(config, shared);
  const auto object = kernel.CreateColumnObject(
      "big", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(object.ok());
  ASSERT_TRUE(
      kernel.SetAction(*object, ActionConfig::Summary(40)).ok());

  // The full gesture script: slide down the object (summary bands), slide
  // back up, then tap spots — all served from the spilled file.
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("down", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                              MotionProfile::Constant(1.0)));
  kernel.Replay(builder.Slide("up", PointCm{3.0, 11.0}, PointCm{3.0, 1.0},
                              MotionProfile::Constant(1.0),
                              /*start_time_us=*/2'000'000));
  kernel.Replay(builder.Tap("tap", PointCm{3.0, 6.0}, 0.05,
                            /*start_time_us=*/4'000'000));
  ASSERT_GT(kernel.results().size(), 0u);
  EXPECT_EQ(kernel.stats().fetch_errors, 0);

  // Sequence data: every summary over band [first, last] averages to the
  // band midpoint, whatever tier served it.
  for (const auto& item : kernel.results().items()) {
    if (item.kind == core::ResultKind::kSummary) {
      const double mid = static_cast<double>(item.band_first +
                                             item.band_last) /
                         2.0;
      EXPECT_DOUBLE_EQ(item.value.AsDouble(), mid);
    }
  }

  // The bounded-residency contract: the whole script ran against a table
  // 4x the budget — whose raw storage no longer exists — and the pool's
  // resident high-water mark never crossed the budget.
  const cache::BlockCacheStats stats = shared->buffer_manager().stats();
  EXPECT_GT(stats.faults, 0);
  EXPECT_LE(stats.peak_resident_bytes, buffer.budget_bytes);
  EXPECT_LE(stats.resident_bytes, buffer.budget_bytes);
  // ...and the reclaimed matrix stayed gone throughout.
  EXPECT_EQ(table->resident_raw_bytes(), 0);

  // Batched demand fetches: adjacent cold-band misses coalesced into
  // ranged reads by the fetch queue — strictly fewer provider round
  // trips than blocks covered.
  EXPECT_GT(shared->buffer_manager().fetch_stats().ranged_reads, 0);
  EXPECT_LT(shared->buffer_manager().fetch_stats().ranged_reads,
            shared->buffer_manager().fetch_stats().ranged_blocks);
}

/// A staging pad of one block under summary bands of ~8 blocks: each wait
/// round leaves few fetched blocks claimable, yet every touch completes
/// and answers bit for bit as the in-memory kernel does.
TEST(FileTierAcceptanceTest, OneBlockStagingPadStillAnswersEveryTouch) {
  constexpr std::int64_t kRows = 1 << 15;
  constexpr std::int64_t kRowsPerBlock = 1'024;
  KernelConfig config;
  config.use_sampling = false;  // Every summary reads a base band.
  config.buffer.rows_per_block = kRowsPerBlock;
  config.buffer.budget_bytes = kRows * 8 / 2;
  config.buffer.staged_cap_bytes = kRowsPerBlock * 8;  // One block.
  const auto make_table = [] {
    std::vector<Column> cols;
    cols.push_back(storage::GenGaussianDouble("v", kRows, 0.0, 1.0, 17));
    return *Table::FromColumns("pad", std::move(cols));
  };
  // Half-width 66 positions x 62 rows per position: ~8-block bands.
  const auto run = [](Kernel& kernel) {
    const auto object = kernel.CreateColumnObject(
        "pad", "v", RectCm{2.0, 1.0, 2.0, 10.0});
    EXPECT_TRUE(object.ok());
    EXPECT_TRUE(kernel.SetAction(*object, ActionConfig::Summary(66)).ok());
    TraceBuilder builder(kernel.device());
    kernel.Replay(builder.Slide("down", PointCm{3.0, 1.0},
                                PointCm{3.0, 11.0},
                                MotionProfile::Constant(1.0)));
    kernel.Replay(builder.Slide("up", PointCm{3.0, 11.0}, PointCm{3.0, 1.0},
                                MotionProfile::Constant(0.5),
                                /*start_time_us=*/2'000'000));
    kernel.Replay(builder.Tap("tap", PointCm{3.0, 6.0}, 0.05,
                              /*start_time_us=*/4'000'000));
  };

  ScratchDir dir;
  auto shared = std::make_shared<core::SharedState>(
      config.sampling, /*force_eager=*/false, config.buffer);
  ASSERT_TRUE(shared->RegisterTable(make_table()).ok());
  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = kRowsPerBlock});
  ASSERT_TRUE(shared->SpillTable("pad", spiller, /*reclaim_raw=*/true).ok());
  Kernel spilled(config, shared);
  run(spilled);

  Kernel reference(config);
  ASSERT_TRUE(reference.RegisterTable(make_table()).ok());
  run(reference);

  EXPECT_GT(spilled.stats().suspensions, 0);
  EXPECT_EQ(spilled.stats().fetch_errors, 0);
  EXPECT_FALSE(spilled.has_pending_gestures());
  EXPECT_EQ(reference.stats().suspensions, 0);
  const auto& got = spilled.results().items();
  const auto& want = reference.results().items();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_GT(got.size(), 10u);
  std::int64_t widest_band = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].row, want[i].row) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value.ToDouble()),
              std::bit_cast<std::uint64_t>(want[i].value.ToDouble()))
        << i;
    EXPECT_EQ(got[i].band_first, want[i].band_first) << i;
    EXPECT_EQ(got[i].band_last, want[i].band_last) << i;
    EXPECT_EQ(got[i].rows_aggregated, want[i].rows_aggregated) << i;
    widest_band = std::max(widest_band,
                           got[i].band_last - got[i].band_first + 1);
  }
  EXPECT_GE(widest_band, 7 * kRowsPerBlock);
}

// ---- Fault battery ----------------------------------------------------------

TEST(FileTierFaultTest, TruncatedFileIsTransientUntilRetriesExhaust) {
  ScratchDir dir;
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok());
  const std::string path = (*provider)->path();

  // Chop the file in half: later blocks now end at EOF mid-extent.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  cache::FetchQueueConfig retry;
  retry.max_retries = 2;
  retry.retry_backoff_us = 50;
  std::int64_t retries = 0;
  const auto last_block = (*provider)->geometry().num_blocks() - 1;
  const auto result =
      cache::FetchBlockWithRetry(**provider, last_block, retry, &retries);
  ASSERT_FALSE(result.ok());
  // Short read: transient (the file may heal), so the bounded retry
  // policy spent its full budget before giving up.
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_TRUE(cache::IsTransientFetchError(result.status()));
  EXPECT_EQ(retries, retry.max_retries);

  // Early blocks are still intact and keep serving.
  EXPECT_TRUE((*provider)->Fetch(0).ok());
}

TEST(FileTierFaultTest, InjectedShortReadsRetryAndHeal) {
  ScratchDir dir;
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok());
  FileFaultInjector injector;
  (*provider)->set_fault_injector(&injector);

  cache::FetchQueueConfig retry;
  retry.max_retries = 3;
  retry.retry_backoff_us = 50;
  injector.FailNextReads(2, FileFaultInjector::Fault::kShortRead);
  std::int64_t retries = 0;
  const auto result =
      cache::FetchBlockWithRetry(**provider, 0, retry, &retries);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(retries, 2);
  EXPECT_EQ(injector.injected(), 2);

  // I/O hiccups (EAGAIN-shaped) are transient too.
  injector.FailNextReads(1, FileFaultInjector::Fault::kIoError);
  retries = 0;
  ASSERT_TRUE(
      cache::FetchBlockWithRetry(**provider, 1, retry, &retries).ok());
  EXPECT_EQ(retries, 1);
}

TEST(FileTierFaultTest, PermissionErrorFailsFastWithoutRetries) {
  ScratchDir dir;
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  const auto provider = spiller.SpillColumn(SequenceTable("t", 1'000), 0);
  ASSERT_TRUE(provider.ok());
  FileFaultInjector injector;
  (*provider)->set_fault_injector(&injector);

  injector.FailNextReads(1, FileFaultInjector::Fault::kPermissionDenied);
  cache::FetchQueueConfig retry;
  retry.max_retries = 5;
  retry.retry_backoff_us = 50;
  std::int64_t retries = 0;
  const auto result =
      cache::FetchBlockWithRetry(**provider, 0, retry, &retries);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(cache::IsTransientFetchError(result.status()));
  EXPECT_EQ(retries, 0);  // Permanent: not a single retry spent.

  // The fault was one-shot; the tier heals.
  EXPECT_TRUE((*provider)->Fetch(0).ok());
}

/// The single-user twin of the server battery below: a kernel over a
/// spilled column waits on the fetch queue inline, and a permanent read
/// fault sheds exactly the stalled gesture.
TEST(FileTierFaultTest, KernelShedsOnlyStalledGestureOnPermanentFault) {
  ScratchDir dir;
  cache::BufferManagerConfig buffer;
  buffer.rows_per_block = 1'024;
  buffer.fetch.retry_backoff_us = 100;
  buffer.fetch.max_retries = 1;
  auto shared = std::make_shared<core::SharedState>(
      sampling::SampleHierarchyConfig{}, /*force_eager=*/true, buffer);
  auto table = SequenceTable("t", 1 << 14);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  const auto provider = spiller.SpillColumn(table, 0);
  ASSERT_TRUE(provider.ok());
  FileFaultInjector injector;
  (*provider)->set_fault_injector(&injector);
  ASSERT_TRUE(shared->SetColumnProvider("t", 0, *provider).ok());

  Kernel kernel(KernelConfig{}, shared);
  ASSERT_TRUE(
      kernel.CreateColumnObject("t", "v", RectCm{2.0, 1.0, 2.0, 10.0}).ok());
  TraceBuilder builder(kernel.device());

  // The tap's fetch dies at once: the tap returns with that gesture shed.
  injector.FailNextReads(1, FileFaultInjector::Fault::kPermissionDenied);
  kernel.Replay(builder.Tap("tap", PointCm{3.0, 6.0}));
  EXPECT_EQ(kernel.stats().fetch_errors, 1);
  EXPECT_EQ(kernel.results().size(), 0u);
  EXPECT_FALSE(kernel.has_pending_gestures());

  // The tier heals; the next tap answers.
  kernel.Replay(builder.Tap("tap2", PointCm{3.0, 3.0}, 0.05,
                            /*start_time_us=*/1'000'000));
  EXPECT_EQ(kernel.stats().fetch_errors, 1);
  ASSERT_EQ(kernel.results().size(), 1u);
  const auto& item = kernel.results().items().front();
  EXPECT_EQ(item.value.AsInt(), item.row);
}

/// Server-level battery: the file tier's failures shed only the stalled
/// gesture — transient faults retry to an answer, permanent ones lose one
/// gesture and the session keeps serving (mirror of the remote tier's
/// PermanentFetchFailureShedsQuantumNotSession).
TEST(FileTierFaultTest, ServerShedsOnlyStalledGestureOnFileFaults) {
  ScratchDir dir;
  TouchServerConfig config;
  config.num_workers = 1;
  config.base_frame_budget_us = 1'000'000;  // Relaxed deadlines.
  config.session_defaults.buffer.rows_per_block = 1'024;
  config.session_defaults.buffer.fetch.retry_backoff_us = 100;
  config.session_defaults.buffer.fetch.max_retries = 1;
  TouchServer server(config);
  auto table = SequenceTable("t", 1 << 14);
  ASSERT_TRUE(server.RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  const auto provider = spiller.SpillColumn(table, 0);
  ASSERT_TRUE(provider.ok());
  FileFaultInjector injector;
  (*provider)->set_fault_injector(&injector);
  ASSERT_TRUE(server.shared().SetColumnProvider("t", 0, *provider).ok());
  ASSERT_TRUE(server.Start().ok());

  const auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server
                  .CreateColumnObject(*session, "t", "v",
                                      RectCm{2.0, 1.0, 2.0, 10.0})
                  .ok());
  Kernel reference;
  TraceBuilder builder(reference.device());

  // 1. Transient faults: the tap's fetch retries short reads and answers.
  injector.FailNextReads(1, FileFaultInjector::Fault::kShortRead);
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap", PointCm{3.0, 6.0}),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  {
    const server::ServerStatsSnapshot stats = server.stats();
    EXPECT_GE(stats.fetch.retries, 1);
    EXPECT_EQ(stats.fetch.shed_on_fetch_error, 0);
  }

  // 2. Permanent faults: the next gesture's fetch dies at once; only that
  // gesture is shed and the session stays serviceable.
  injector.FailNextReads(1'000,
                         FileFaultInjector::Fault::kPermissionDenied);
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap2", PointCm{3.0, 9.0}, 0.05,
                                           /*start_time_us=*/1'000'000),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  {
    const server::ServerStatsSnapshot stats = server.stats();
    EXPECT_GE(stats.fetch.fetch_errors, 1);
    EXPECT_GE(stats.fetch.shed_on_fetch_error, 1);
  }

  // 3. The tier heals; the same session answers normally again.
  injector.FailNextReads(0);
  ASSERT_TRUE(server
                  .SubmitTrace(*session,
                               builder.Tap("tap3", PointCm{3.0, 3.0}, 0.05,
                                           /*start_time_us=*/2'000'000),
                               {/*paced=*/false})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_TRUE(
      server
          .WithSession(*session,
                       [](Kernel& kernel) {
                         EXPECT_FALSE(kernel.has_pending_gestures());
                         ASSERT_GE(kernel.results().size(), 1u);
                         for (const auto& item :
                              kernel.results().items()) {
                           EXPECT_EQ(item.value.AsInt(), item.row);
                         }
                       })
          .ok());
  ASSERT_TRUE(server.Stop().ok());
}

}  // namespace
}  // namespace dbtouch
