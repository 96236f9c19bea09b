// Spill reclamation: SpillTable(reclaim_raw) must actually free the
// table's matrix — MemoryTracker-verified — while every remaining reader
// (data objects' pool sources, Table::GetValue, sample-hierarchy
// rebuilds, zone maps, CSV export, column extraction) keeps answering
// bit-identical through PagedColumnSource pins. Plus the race edges: a
// raw reader in flight makes reclamation wait, a stale provider fails
// cleanly after it, a live pool pin keeps its copy, a fill held across
// the reclaim retries on the spill, sources and objects bound before the
// reclaim (single-user and in a TouchServer) read on, and a publish at
// another block size is refused.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_provider.h"
#include "cache/buffer_manager.h"
#include "core/kernel.h"
#include "core/shared_state.h"
#include "gated_provider.h"
#include "index/zone_map.h"
#include "server/api.h"
#include "server/touch_server.h"
#include "server_harness.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/csv_loader.h"
#include "storage/datagen.h"
#include "storage/memory_tracker.h"
#include "storage/paged_column.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace dbtouch {
namespace {

using core::ActionConfig;
using core::Kernel;
using core::KernelConfig;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::MemoryTracker;
using storage::RowId;
using storage::SpillOptions;
using storage::Table;
using storage::TableSpiller;
using touch::RectCm;
namespace api = server::api;

class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "dbtouch_reclaim_XXXXXX")
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

std::shared_ptr<Table> MixedTable(const std::string& name,
                                  std::int64_t rows) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
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

// ---- The tentpole: reclamation frees tracked memory ------------------------

TEST(ReclaimTest, SpillWithReclaimDropsTrackedMatrixBytesToZero) {
  ScratchDir dir;
  const std::int64_t rows = 10'000;
  const std::int64_t before = MemoryTracker::Instance().matrix_bytes();
  auto shared = MakeShared(512);
  auto table = MixedTable("m", rows);
  // Matrix bytes for int64 + int32-coded string columns.
  const std::int64_t data_bytes = table->resident_raw_bytes();
  EXPECT_GE(data_bytes, rows * 12);
  EXPECT_GE(MemoryTracker::Instance().matrix_bytes() - before, data_bytes);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  // Reference values captured before anything is freed.
  std::vector<std::string> reference;
  for (RowId r = 0; r < rows; r += 97) {
    reference.push_back(table->GetValue(r, 0)->ToString() + "|" +
                        table->GetValue(r, 1)->ToString());
  }
  const Result<std::string> csv_before = storage::TableToCsv(*table);
  ASSERT_TRUE(csv_before.ok()) << csv_before.status();

  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 512});
  ASSERT_TRUE(
      shared->SpillTable("m", spiller, /*reclaim_raw=*/true).ok());

  // The headline assertion: the matrix is gone. What the process still
  // holds of this table is schema + dictionaries + pool blocks (bounded
  // by the buffer budget), nothing else.
  EXPECT_TRUE(table->raw_released());
  EXPECT_EQ(table->resident_raw_bytes(), 0);
  EXPECT_LE(MemoryTracker::Instance().matrix_bytes() - before,
            data_bytes / 10);

  // Frozen: mutation surfaces fail cleanly, never crash.
  EXPECT_EQ(table
                ->AppendRow({storage::Value(std::int64_t{1}),
                             storage::Value("alpha")})
                .code(),
            StatusCode::kFailedPrecondition);

  // Point reads — the tap/group-by path — now pin blocks and still
  // decode strings through the dictionary.
  std::size_t i = 0;
  for (RowId r = 0; r < rows; r += 97, ++i) {
    EXPECT_EQ(table->GetValue(r, 0)->ToString() + "|" +
                  table->GetValue(r, 1)->ToString(),
              reference[i])
        << "row " << r;
  }
  // The CSV export accessor reads through the same fallback.
  const Result<std::string> csv_after = storage::TableToCsv(*table);
  ASSERT_TRUE(csv_after.ok()) << csv_after.status();
  EXPECT_EQ(*csv_after, *csv_before);
  // Column extraction too.
  const Result<Column> extracted = table->ExtractColumn(1);
  ASSERT_TRUE(extracted.ok()) << extracted.status();
  EXPECT_EQ(extracted->row_count(), rows);
  EXPECT_EQ(extracted->GetValue(11).ToString(),
            table->GetValue(11, 1)->ToString());
}

TEST(ReclaimTest, SecondReclaimAndRotationAreRejected) {
  ScratchDir dir;
  auto shared = MakeShared(256);
  auto table = MixedTable("twice", 2'000);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 256});
  ASSERT_TRUE(
      shared->SpillTable("twice", spiller, /*reclaim_raw=*/true).ok());
  // A second spill streams from... nothing: the matrix is gone, and the
  // spiller's raw read fails cleanly instead of crashing.
  EXPECT_FALSE(shared->SpillTable("twice", spiller, true).ok());
  // Rotation has no matrix to rewrite.
  storage::Matrix replacement(table->schema(),
                              storage::MajorOrder::kRowMajor);
  EXPECT_EQ(table->ReplaceStorage(std::move(replacement)).code(),
            StatusCode::kFailedPrecondition);
}

/// A reclaimed table's spill files are its only copy. A second spill has
/// no matrix to read and fails; it must fail without touching the files
/// the first spill's providers read, for both layouts.
TEST(ReclaimTest, FailedRespillKeepsTheFilesTheBindingReads) {
  constexpr std::int64_t kRows = 20'000;
  constexpr std::int64_t kRowsPerBlock = 256;
  const auto reference = MixedTable("twice", kRows);
  for (const bool pax : {false, true}) {
    SCOPED_TRACE(pax ? "SpillTablePax" : "SpillTable");
    ScratchDir dir;
    cache::BufferManagerConfig buffer;
    buffer.rows_per_block = kRowsPerBlock;
    buffer.budget_bytes = 8 * kRowsPerBlock * 8;  // Eight int64 blocks.
    auto shared = std::make_shared<core::SharedState>(
        sampling::SampleHierarchyConfig{}, buffer);
    ASSERT_TRUE(shared->RegisterTable(MixedTable("twice", kRows)).ok());
    TableSpiller spiller(dir.path(),
                         SpillOptions{.rows_per_block = kRowsPerBlock});
    const auto spill = [&] {
      return pax ? shared->SpillTablePax("twice", spiller, true)
                 : shared->SpillTable("twice", spiller, true);
    };
    ASSERT_TRUE(spill().ok());
    EXPECT_EQ(spill().code(), StatusCode::kFailedPrecondition);

    // Every block of every column still pins with its values. Pins, not
    // Table::GetValue: a failed read returns a Status here instead of
    // aborting the process.
    for (std::size_t col = 0; col < 2; ++col) {
      const auto source = shared->GetColumnSource("twice", col);
      ASSERT_TRUE(source.ok()) << source.status();
      for (std::int64_t block = 0; block * kRowsPerBlock < kRows; ++block) {
        const auto pin = (*source)->PinBlock(block);
        ASSERT_TRUE(pin.ok()) << "column " << col << " block " << block
                              << ": " << pin.status();
        const storage::ColumnView view = pin->view();
        for (RowId i = 0; i < view.row_count(); ++i) {
          const RowId row = block * kRowsPerBlock + i;
          ASSERT_EQ(view.GetValue(i).ToString(),
                    reference->GetValue(row, col)->ToString())
              << "column " << col << " row " << row;
        }
      }
    }
    // The failed spill left no temporary file behind.
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
      EXPECT_EQ(entry.path().extension(), ".dbb") << entry.path();
    }
  }
}

// ---- Hierarchy rebuild over a reclaimed base -------------------------------

TEST(ReclaimTest, HierarchyRebuildsFromPagedBaseAfterReclaim) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 14;
  auto shared = MakeShared(1'024);
  auto table = MixedTable("h", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  // Reclaim BEFORE any hierarchy exists: the later build must pin blocks.
  ASSERT_TRUE(
      shared->SpillTable("h", spiller, /*reclaim_raw=*/true).ok());

  const auto hierarchy = shared->GetOrBuildHierarchy("h", 0);
  ASSERT_TRUE(hierarchy.ok()) << hierarchy.status();
  ASSERT_GT((*hierarchy)->num_levels(), 2);
  // Level l samples every 2^l-th value of the sequence — bit-exact.
  for (int level = 1; level < (*hierarchy)->num_levels(); ++level) {
    const storage::ColumnView view = (*hierarchy)->LevelView(level);
    const std::int64_t stride = (*hierarchy)->LevelStride(level);
    for (RowId s = 0; s < view.row_count(); s += 31) {
      EXPECT_EQ(view.GetInt64(s), s * stride)
          << "level " << level << " sample " << s;
    }
  }
  // The base zone map builds by scanning pinned blocks; over a sequence
  // every zone's [min, max] is exactly its row range.
  const auto zone_map = shared->GetOrBuildBaseZoneMap(*hierarchy);
  ASSERT_TRUE(zone_map.ok()) << zone_map.status();
  ASSERT_GT((*zone_map)->num_zones(), 1);
  const index::Zone& z = (*zone_map)->zone(1);
  EXPECT_EQ(z.min, static_cast<double>(z.first));
  EXPECT_EQ(z.max, static_cast<double>(z.last));
}

TEST(ReclaimTest, PreBuiltHierarchyKeepsItsLevelsThroughAReclaim) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 14;
  auto shared = MakeShared(1'024);
  auto table = MixedTable("pre", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  // Hierarchy built over the live matrix first...
  const auto hierarchy = shared->GetOrBuildHierarchy("pre", 0);
  ASSERT_TRUE(hierarchy.ok());

  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  ASSERT_TRUE(
      shared->SpillTable("pre", spiller, /*reclaim_raw=*/true).ok());
  // ...and still the one shared object sessions hold.
  const auto again = shared->GetOrBuildHierarchy("pre", 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), hierarchy->get());
  // Sample levels survived the reclaim (they are all that stays in RAM).
  const storage::ColumnView level1 = (*hierarchy)->LevelView(1);
  for (RowId s = 0; s < level1.row_count(); s += 53) {
    EXPECT_EQ(level1.GetInt64(s), s * 2);
  }
}

// A hierarchy and a base zone map over a resident table read the raw
// column zero-copy: the set-up build makes no buffer-pool lookup. Over a
// reclaimed table the same builds read the spill binding, one pin per
// block.
TEST(ReclaimTest, BuildsOverAResidentTableMakeNoPoolLookup) {
  ScratchDir dir;
  constexpr std::int64_t kRows = 1 << 14;
  auto shared = MakeShared(1'024);
  ASSERT_TRUE(shared->RegisterTable(MixedTable("resident", kRows)).ok());
  const auto hierarchy = shared->GetOrBuildHierarchy("resident", 0);
  ASSERT_TRUE(hierarchy.ok()) << hierarchy.status();
  ASSERT_TRUE(shared->GetOrBuildBaseZoneMap(*hierarchy).ok());
  EXPECT_EQ(shared->buffer_manager().stats().lookups, 0);

  ASSERT_TRUE(shared->RegisterTable(MixedTable("spilled", kRows)).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  ASSERT_TRUE(shared->SpillTable("spilled", spiller, true).ok());
  const auto paged = shared->GetOrBuildHierarchy("spilled", 0);
  ASSERT_TRUE(paged.ok()) << paged.status();
  EXPECT_EQ(shared->buffer_manager().stats().lookups, kRows / 1'024);
  // The same copies either way.
  for (int level = 1; level < (*hierarchy)->num_levels(); ++level) {
    const storage::ColumnView want = (*hierarchy)->LevelView(level);
    const storage::ColumnView got = (*paged)->LevelView(level);
    ASSERT_EQ(got.row_count(), want.row_count());
    for (RowId s = 0; s < want.row_count(); ++s) {
      ASSERT_EQ(got.GetInt64(s), want.GetInt64(s)) << "level " << level;
    }
  }
}

// ---- A damaged spill file: errors, never an abort --------------------------

constexpr std::int64_t kCutRows = 20'000;
constexpr std::int64_t kCutRowsPerBlock = 256;

/// Cuts every spill file in `dir` to half its size: the blocks of the
/// second half can no longer be read.
void CutSpillFilesInHalf(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::resize_file(entry.path(),
                                 std::filesystem::file_size(entry.path()) / 2);
  }
}

/// Two int64 sequence columns, "v" and "w".
std::shared_ptr<Table> TwoColumnTable(const std::string& name) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", kCutRows, 0, 1));
  cols.push_back(storage::GenSequenceInt64("w", kCutRows, 0, 1));
  return *Table::FromColumns(name, std::move(cols));
}

TEST(ReclaimTest, DamagedSpillFileFailsReadsInsteadOfAborting) {
  ScratchDir dir;
  cache::BufferManagerConfig buffer;
  buffer.rows_per_block = kCutRowsPerBlock;
  buffer.fetch.max_retries = 1;
  auto shared =
      std::make_shared<core::SharedState>(sampling::SampleHierarchyConfig{},
                                          buffer);
  const auto table = TwoColumnTable("cut");
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  // Column "v" gets its hierarchy while the table is resident.
  const auto hierarchy = shared->GetOrBuildHierarchy("cut", 0);
  ASSERT_TRUE(hierarchy.ok()) << hierarchy.status();
  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = kCutRowsPerBlock});
  ASSERT_TRUE(shared->SpillTable("cut", spiller, /*reclaim_raw=*/true).ok());
  CutSpillFilesInHalf(dir.path());

  // Point reads: the first half still answers, the second is an error.
  const Result<storage::Value> head = table->GetValue(10, 0);
  ASSERT_TRUE(head.ok()) << head.status();
  EXPECT_EQ(head->AsInt(), 10);
  EXPECT_FALSE(table->GetValue(kCutRows - 1, 0).ok());
  EXPECT_FALSE(storage::TableToCsv(*table).ok());
  // Whole-column reads stop at the first unreadable block.
  EXPECT_FALSE(table->ExtractColumn(0).ok());
  EXPECT_FALSE(shared->GetOrBuildHierarchy("cut", 1).ok());
  EXPECT_FALSE(shared->GetOrBuildBaseZoneMap(*hierarchy).ok());
  // The hierarchy built before the cut holds its own copies.
  const storage::ColumnView level1 = (*hierarchy)->LevelView(1);
  EXPECT_EQ(level1.GetInt64(level1.row_count() - 1),
            (level1.row_count() - 1) * 2);
}

TEST(ReclaimTest, DamagedSpillFileFailsServerCallsAndOthersKeepServing) {
  ScratchDir dir;
  server::TouchServerConfig config = server::RelaxedConfig(1);
  config.session_defaults.buffer.rows_per_block = kCutRowsPerBlock;
  config.session_defaults.buffer.fetch.max_retries = 1;
  server::TouchServer server(config);
  ASSERT_TRUE(server.RegisterTable(TwoColumnTable("cut")).ok());
  ASSERT_TRUE(server.RegisterTable(MixedTable("ok", 1 << 14)).ok());
  ASSERT_TRUE(server.Start().ok());
  // Made while "cut" is resident: its hierarchy predates the damage.
  const auto early = server.Call(api::OpenSessionReq{});
  ASSERT_TRUE(early.ok());
  auto create = server::ColumnObject("cut", "v");
  create.session = early->session;
  const auto early_object = server.Call(create);
  ASSERT_TRUE(early_object.ok()) << early_object.status();
  const auto healthy = server::OpenWithObject(
      server, server::ColumnObject("ok", "v"),
      ActionConfig::Aggregate(exec::AggKind::kSum));
  ASSERT_TRUE(healthy.ok()) << healthy.status();

  TableSpiller spiller(dir.path(),
                       SpillOptions{.rows_per_block = kCutRowsPerBlock});
  ASSERT_TRUE(
      server.shared().SpillTable("cut", spiller, /*reclaim_raw=*/true).ok());
  CutSpillFilesInHalf(dir.path());

  // A new column object on "w" needs a hierarchy, which reads the file.
  auto cold = server::ColumnObject("cut", "w");
  cold.session = early->session;
  EXPECT_FALSE(server.Call(cold).ok());
  // A zone-map filter needs the base zone map of "v", which reads it too.
  EXPECT_FALSE(server
                   .Call(api::SetActionReq{
                       .session = early->session,
                       .object = early_object->object,
                       .action = api::ToWire(ActionConfig::Filter(
                           exec::Predicate(exec::CompareOp::kGe, 100.0),
                           /*use_zone_map=*/true))})
                   .ok());

  // The server keeps serving the healthy session.
  const sim::TouchDevice device(config.session_defaults.device);
  TraceBuilder builder(device);
  ASSERT_TRUE(server
                  .Call(api::SubmitBatchReq{
                      .session = *healthy,
                      .paced = false,
                      .events = api::ToWire(builder.Slide(
                          "healthy", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                          MotionProfile::Constant(1.0)))})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  std::int64_t entries = 0;
  ASSERT_TRUE(server
                  .WithSession(*healthy,
                               [&](Kernel& kernel) {
                                 entries = kernel.stats().entries_returned;
                               })
                  .ok());
  EXPECT_GT(entries, 10);
  EXPECT_EQ(server.stats().executed, server.stats().submitted);
  EXPECT_TRUE(server.Stop().ok());
}

// ---- Spill racing an active raw reader -------------------------------------

TEST(ReclaimTest, ReclaimWaitsForInFlightRawReadsThenStaleReadersFailClean) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 15;
  auto shared = MakeShared(1'024);
  auto table = MixedTable("race", rows);
  ASSERT_TRUE(shared->RegisterTable(table).ok());

  // A stale binding: the provider sessions used before the spill.
  auto stale = std::make_shared<cache::TableBlockProvider>(table, 0, 1'024);
  ASSERT_TRUE(stale->Fetch(0).ok());

  // Hammer raw reads while the spill+reclaim runs. Each read either sees
  // the matrix (and must be correct) or the released state (and must be
  // a clean FailedPrecondition) — never freed memory. ASan/TSan CI runs
  // this suite.
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> clean_failures{0};
  std::thread reader([&] {
    std::int64_t block = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto payload =
          stale->Fetch(block % stale->geometry().num_blocks());
      if (payload.ok()) {
        // Spot-check: sequence data, first value of block b.
        std::int64_t first_value = 0;
        std::memcpy(&first_value, payload->data(), sizeof(first_value));
        EXPECT_EQ(first_value, (block % stale->geometry().num_blocks()) *
                                   1'024);
      } else {
        EXPECT_EQ(payload.status().code(),
                  StatusCode::kFailedPrecondition);
        clean_failures.fetch_add(1, std::memory_order_relaxed);
      }
      ++block;
    }
  });
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  ASSERT_TRUE(
      shared->SpillTable("race", spiller, /*reclaim_raw=*/true).ok());
  // Give the reader a moment against the released table, then stop.
  for (int i = 0; i < 1'000 && clean_failures.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  // After the reclaim the stale binding failed cleanly at least once...
  EXPECT_GT(clean_failures.load(), 0);
  // ...while the rebound path serves the same data from disk.
  storage::PagedColumnCursor cursor(*shared->GetColumnSource("race", 0));
  EXPECT_EQ(cursor.GetInt64(12'345), 12'345);
}

TEST(ReclaimTest, ReclaimSucceedsUnderLivePoolPinAndPinnedCopyStaysValid) {
  ScratchDir dir;
  auto shared = MakeShared(512);
  auto table = MixedTable("pinned", 4'096);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 512});
  // An operator mid-gesture: a pool pin over the resident table.
  const auto source = shared->GetColumnSource("pinned", 0);
  ASSERT_TRUE(source.ok()) << source.status();
  storage::PagedColumnCursor cursor(*source);
  EXPECT_EQ(cursor.GetInt64(100), 100);
  EXPECT_EQ(shared->buffer_manager().stats().pinned_blocks, 1);
  // The pin holds a pool copy, not a pointer into the matrix, so the
  // reclaim frees the matrix under it.
  ASSERT_TRUE(
      shared->SpillTable("pinned", spiller, /*reclaim_raw=*/true).ok());
  EXPECT_TRUE(table->raw_released());
  EXPECT_EQ(table->resident_raw_bytes(), 0);
  // Same block: the pinned copy still reads right (ASan/UBSan CI runs
  // this suite, so a read of freed memory would fail it).
  EXPECT_EQ(cursor.GetInt64(200), 200);
  EXPECT_EQ(cursor.GetInt64(511), 511);
  cursor.ReleasePin();
  EXPECT_EQ(shared->buffer_manager().stats().pinned_blocks, 0);
  storage::PagedColumnCursor rebound(*shared->GetColumnSource("pinned", 0));
  EXPECT_EQ(rebound.GetInt64(300), 300);  // Served from the spill file.
}

// ---- Sources handed out earlier read what is published ---------------------

TEST(ReclaimTest, SourceFromBeforeAReclaimReadsOn) {
  ScratchDir dir;
  auto shared = MakeShared(512);
  auto table = MixedTable("early", 8'192);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  const auto v = shared->GetColumnSource("early", 0);
  const auto tag = shared->GetColumnSource("early", 1);
  ASSERT_TRUE(v.ok() && tag.ok());
  storage::PagedColumnCursor cursor(*v);
  storage::PagedColumnCursor tags(*tag);
  EXPECT_EQ(cursor.GetInt64(10), 10);
  const storage::Value tag_before = tags.GetValue(6'000);
  tags.ReleasePin();
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 512});
  ASSERT_TRUE(
      shared->SpillTable("early", spiller, /*reclaim_raw=*/true).ok());
  ASSERT_TRUE(table->raw_released());
  // Blocks the cursors never pinned come from the spill files, strings
  // decoded through the file's dictionary.
  EXPECT_EQ(cursor.GetInt64(5'000), 5'000);
  EXPECT_EQ(tags.GetValue(6'000), tag_before);
  {
    const auto pin = (*v)->PinBlock(12);
    ASSERT_TRUE(pin.ok()) << pin.status();
    EXPECT_EQ(pin->view().GetInt64(0), 12 * 512);
  }
  cursor.ReleasePin();
  tags.ReleasePin();
  EXPECT_EQ(shared->buffer_manager().stats().pinned_blocks, 0);
}

TEST(ReclaimTest, FillHeldAcrossAReclaimRetriesOnTheSpill) {
  ScratchDir dir;
  auto shared = MakeShared(512);
  auto table = MixedTable("held", 8'192);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  auto gate = std::make_shared<cache::GatedProvider>(
      std::make_shared<cache::TableBlockProvider>(table, 0, 512));
  ASSERT_TRUE(shared->SetColumnProvider("held", 0, gate).ok());
  const auto source = shared->GetColumnSource("held", 0);
  ASSERT_TRUE(source.ok());
  // The read's fill waits in the gate, before it takes the table's
  // release gate, so the reclaim below completes under it.
  std::int64_t read = -1;
  std::thread reader([&] {
    storage::PagedColumnCursor cursor(*source);
    read = cursor.GetInt64(3'000);
  });
  gate->AwaitFetchStarted(1);
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 512});
  const Status spilled =
      shared->SpillTable("held", spiller, /*reclaim_raw=*/true);
  EXPECT_TRUE(table->raw_released());
  // The fill now finds the matrix gone and retries on the spill file.
  gate->OpenGate();
  reader.join();
  ASSERT_TRUE(spilled.ok()) << spilled;
  EXPECT_EQ(read, 3'000);
  EXPECT_EQ(gate->fetches_started(), 1);
  EXPECT_EQ(shared->buffer_manager().stats().pinned_blocks, 0);
}

TEST(ReclaimTest, SourcesFromBeforeAPublishReadWhatIsPublished) {
  ScratchDir dir;
  auto shared = MakeShared(128);
  auto table = MixedTable("pub", 1'000);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  const auto v = shared->GetColumnSource("pub", 0);
  const auto tag = shared->GetColumnSource("pub", 1);
  ASSERT_TRUE(v.ok() && tag.ok());
  EXPECT_NE((*v)->share_token(), (*tag)->share_token());

  // A new provider: the source handed out before it fetches through it.
  auto counting = std::make_shared<cache::GatedProvider>(
      std::make_shared<cache::TableBlockProvider>(table, 0, 128));
  counting->OpenGate();
  ASSERT_TRUE(shared->SetColumnProvider("pub", 0, counting).ok());
  {
    const auto pin = (*v)->PinBlock(2);
    ASSERT_TRUE(pin.ok()) << pin.status();
    EXPECT_EQ(pin->view().GetInt64(0), 2 * 128);
  }
  EXPECT_EQ(counting->fetches_started(), 1);

  // A PAX spill: both sources read minipages under one shared owner, so
  // a block faulted for one column is a hit for the other.
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 128});
  ASSERT_TRUE(shared->SpillTablePax("pub", spiller).ok());
  EXPECT_EQ((*v)->share_token(), (*tag)->share_token());
  const std::int64_t faults = shared->buffer_manager().stats().faults;
  {
    const auto v_pin = (*v)->PinBlock(5);
    const auto tag_pin = (*tag)->PinBlock(5);
    ASSERT_TRUE(v_pin.ok() && tag_pin.ok());
    EXPECT_EQ(v_pin->view().GetInt64(3), 5 * 128 + 3);
    EXPECT_EQ(tag_pin->view().GetValue(3), *table->GetValue(5 * 128 + 3, 1));
  }
  EXPECT_EQ(shared->buffer_manager().stats().faults, faults + 1);
  EXPECT_EQ(counting->fetches_started(), 1);  // The PAX file serves now.
  EXPECT_EQ(shared->buffer_manager().stats().pinned_blocks, 0);
}

TEST(ReclaimTest, PublishAtAnotherGeometryIsRefused) {
  ScratchDir dir;
  auto shared = MakeShared(512);
  auto table = MixedTable("geo", 4'096);
  ASSERT_TRUE(shared->RegisterTable(table).ok());
  const auto source = shared->GetColumnSource("geo", 0);
  ASSERT_TRUE(source.ok());
  const std::uintptr_t token = (*source)->share_token();

  // Block numbering never changes under a source: another block size is
  // refused, whether from a provider or from a spiller.
  auto other = std::make_shared<cache::GatedProvider>(
      std::make_shared<cache::TableBlockProvider>(table, 0, 1'024));
  other->OpenGate();
  EXPECT_EQ(shared->SetColumnProvider("geo", 0, other).code(),
            StatusCode::kInvalidArgument);
  TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
  EXPECT_EQ(shared->SpillTable("geo", spiller, /*reclaim_raw=*/true).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shared->SpillTablePax("geo", spiller).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
  EXPECT_FALSE(table->raw_released());

  // Reads stay as they were.
  EXPECT_EQ((*source)->share_token(), token);
  storage::PagedColumnCursor cursor(*source);
  EXPECT_EQ(cursor.GetInt64(2'000), 2'000);
  EXPECT_EQ(other->fetches_started(), 0);
}

// ---- Fat-table gestures over a reclaimed table -----------------------------

/// Answers as comparable strings: kind, row, attribute, value, rows.
std::vector<std::string> Answers(Kernel& kernel) {
  std::vector<std::string> out;
  for (const auto& item : kernel.results().items()) {
    out.push_back(std::to_string(static_cast<int>(item.kind)) + "@" +
                  std::to_string(item.row) + "." +
                  std::to_string(item.attribute) + "=" +
                  item.value.ToString() + "#" +
                  std::to_string(item.rows_aggregated));
  }
  return out;
}

TEST(ReclaimTest, TapScanAndGroupByServeFromReclaimedTable) {
  ScratchDir dir;
  const std::int64_t rows = 1 << 14;

  // Reference run: the table stays in memory, nothing spilled.
  const auto run = [&](bool reclaim) {
    std::shared_ptr<core::SharedState> shared;
    KernelConfig config;
    config.buffer.rows_per_block = 1'024;
    if (reclaim) {
      shared = std::make_shared<core::SharedState>(
          config.sampling, config.buffer);
      auto table = MixedTable("fat", rows);
      EXPECT_TRUE(shared->RegisterTable(table).ok());
      TableSpiller spiller(dir.path(),
                           SpillOptions{.rows_per_block = 1'024});
      EXPECT_TRUE(
          shared->SpillTable("fat", spiller, /*reclaim_raw=*/true).ok());
    }
    Kernel kernel(config, shared);
    if (!reclaim) {
      EXPECT_TRUE(kernel.RegisterTable(MixedTable("fat", rows)).ok());
    }
    const auto object =
        kernel.CreateTableObject("fat", RectCm{2.0, 1.0, 4.0, 10.0});
    EXPECT_TRUE(object.ok());
    TraceBuilder builder(kernel.device());

    // Fat tap: full tuple.
    kernel.Replay(builder.Tap("tap", PointCm{3.0, 4.0}));
    // Group-by slide: tag -> avg(v).
    EXPECT_TRUE(kernel
                    .SetAction(*object,
                               ActionConfig::GroupBy(1, 0,
                                                     exec::AggKind::kAvg))
                    .ok());
    kernel.Replay(builder.Slide("groupby", PointCm{3.0, 1.0},
                                PointCm{3.0, 11.0},
                                MotionProfile::Constant(1.0),
                                /*start_time_us=*/1'000'000));
    // Scan slide: touched cells surface as-is.
    EXPECT_TRUE(kernel.SetAction(*object, ActionConfig::Scan()).ok());
    kernel.Replay(builder.Slide("scan", PointCm{2.5, 11.0},
                                PointCm{2.5, 1.0},
                                MotionProfile::Constant(1.0),
                                /*start_time_us=*/3'000'000));
    EXPECT_EQ(kernel.stats().fetch_errors, 0);
    return Answers(kernel);
  };

  const std::vector<std::string> reference = run(/*reclaim=*/false);
  ASSERT_GT(reference.size(), 10u);
  EXPECT_EQ(run(/*reclaim=*/true), reference);
}

// ---- Objects bound before a reclaim follow it ------------------------------

/// When a run spills and reclaims the table its objects were bound on.
enum class ReclaimAt { kNever, kBeforeFirstTouch, kMidSlide, kBetweenGestures };

/// One single-user session over table "m", every object bound while "m"
/// is resident: a column object on m.v with a sum aggregate, joined to a
/// column object on a sequence table that stays resident, and a table
/// object on m with a tag -> avg(v) group-by. The pool holds 8 of m.v's
/// 32 blocks, so reads after the reclaim fault from the spill files.
std::vector<std::string> RunAcrossReclaim(ReclaimAt at) {
  ScratchDir dir;
  constexpr std::int64_t kRows = 1 << 15;
  KernelConfig config;
  config.buffer.rows_per_block = 1'024;
  config.buffer.budget_bytes = 8 * 1'024 * 8;
  auto shared = std::make_shared<core::SharedState>(
      config.sampling, config.buffer);
  EXPECT_TRUE(shared->RegisterTable(MixedTable("m", kRows)).ok());
  std::vector<Column> keys_cols;
  keys_cols.push_back(storage::GenSequenceInt64("k", kRows, 0, 1));
  EXPECT_TRUE(
      shared->RegisterTable(*Table::FromColumns("keys", std::move(keys_cols)))
          .ok());
  Kernel kernel(config, shared);
  const auto column =
      kernel.CreateColumnObject("m", "v", RectCm{1.0, 1.0, 2.0, 10.0});
  const auto keys =
      kernel.CreateColumnObject("keys", "k", RectCm{4.0, 1.0, 2.0, 10.0});
  const auto fat = kernel.CreateTableObject("m", RectCm{8.0, 1.0, 4.0, 10.0});
  EXPECT_TRUE(column.ok() && keys.ok() && fat.ok());
  EXPECT_TRUE(
      kernel.SetAction(*column, ActionConfig::Aggregate(exec::AggKind::kSum))
          .ok());
  EXPECT_TRUE(kernel.EnableJoin(*column, *keys).ok());
  EXPECT_TRUE(kernel
                  .SetAction(*fat, ActionConfig::GroupBy(
                                       1, 0, exec::AggKind::kAvg))
                  .ok());

  const auto reclaim = [&] {
    TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
    EXPECT_TRUE(shared->SpillTable("m", spiller, /*reclaim_raw=*/true).ok());
  };
  if (at == ReclaimAt::kBeforeFirstTouch) {
    reclaim();
  }
  TraceBuilder builder(kernel.device());
  // The column slide feeds the aggregate and the join's left side.
  const sim::GestureTrace slide =
      builder.Slide("column", PointCm{2.0, 1.0}, PointCm{2.0, 11.0},
                    MotionProfile::Constant(2.0));
  for (std::size_t i = 0; i < slide.events.size(); ++i) {
    if (at == ReclaimAt::kMidSlide && i == slide.events.size() / 2) {
      reclaim();
    }
    kernel.OnTouch(slide.events[i]);
  }
  if (at == ReclaimAt::kBetweenGestures) {
    reclaim();
  }
  kernel.Replay(builder.Slide("groupby", PointCm{9.0, 11.0},
                              PointCm{9.0, 1.0},
                              MotionProfile::Constant(2.0),
                              /*start_time_us=*/3'000'000));
  kernel.Replay(builder.Slide("keys", PointCm{5.0, 1.0}, PointCm{5.0, 11.0},
                              MotionProfile::Constant(2.0),
                              /*start_time_us=*/6'000'000));
  kernel.Replay(builder.Tap("fat-tap", PointCm{11.0, 6.0}, 0.05,
                            /*start_time_us=*/9'000'000));
  kernel.Replay(builder.Tap("column-tap", PointCm{2.0, 8.5}, 0.05,
                            /*start_time_us=*/10'000'000));
  EXPECT_EQ(kernel.stats().fetch_errors, 0);
  EXPECT_EQ(shared->buffer_manager().stats().pinned_blocks, 0);
  const auto m = shared->catalog().Get("m");
  EXPECT_TRUE(m.ok() && (*m)->raw_released() == (at != ReclaimAt::kNever));
  return Answers(kernel);
}

TEST(ReclaimTest, ObjectsBoundBeforeAReclaimFollowIt) {
  const std::vector<std::string> reference =
      RunAcrossReclaim(ReclaimAt::kNever);
  ASSERT_GT(reference.size(), 40u);
  // The join matched across the two slides.
  EXPECT_NE(std::find_if(reference.begin(), reference.end(),
                         [](const std::string& answer) {
                           return answer.rfind(
                                      std::to_string(static_cast<int>(
                                          core::ResultKind::kJoinMatch)) +
                                          "@",
                                      0) == 0;
                         }),
            reference.end());
  for (const ReclaimAt at : {ReclaimAt::kBeforeFirstTouch,
                             ReclaimAt::kMidSlide,
                             ReclaimAt::kBetweenGestures}) {
    EXPECT_EQ(RunAcrossReclaim(at), reference)
        << "reclaim point " << static_cast<int>(at);
  }
}

/// When a server run spills and reclaims "m".
enum class ServeReclaim {
  kNever,
  /// After the upper halves drained, before the lower halves go in.
  kBetweenHalves,
  /// Right after the lower halves are submitted, while they execute.
  kUnderTraffic,
};

/// The server-level run: one worker, a 4-block pool, a column object (sum
/// aggregate) and a table object (group-by) bound on resident "m". Each
/// object is slid over its upper half, then over its lower half, whose
/// blocks the pool no longer holds; `at` says when the reclaim lands.
std::vector<std::string> ServeAcrossReclaim(ServeReclaim at) {
  ScratchDir dir;
  // Deadlines no run can miss: nothing is shed or dropped.
  server::TouchServerConfig config = server::RelaxedConfig(1);
  config.session_defaults.buffer.rows_per_block = 1'024;
  config.session_defaults.buffer.budget_bytes = 4 * 1'024 * 8;
  server::TouchServer server(config);
  EXPECT_TRUE(server.RegisterTable(MixedTable("m", 1 << 15)).ok());
  EXPECT_TRUE(server.Start().ok());
  const auto session = server::OpenWithObject(
      server, server::ColumnObject("m", "v", {1.0, 1.0, 2.0, 10.0}),
      ActionConfig::Aggregate(exec::AggKind::kSum));
  EXPECT_TRUE(session.ok());
  const auto fat = server.Call(api::CreateObjectReq{
      .session = *session,
      .kind = 1,
      .table = "m",
      .frame = {8.0, 1.0, 4.0, 10.0}});
  EXPECT_TRUE(fat.ok());
  EXPECT_TRUE(server
                  .Call(api::SetActionReq{
                      .session = *session,
                      .object = fat->object,
                      .action = api::ToWire(ActionConfig::GroupBy(
                          1, 0, exec::AggKind::kAvg))})
                  .ok());

  const sim::TouchDevice device(config.session_defaults.device);
  TraceBuilder builder(device);
  const auto slide = [&](const char* name, double x, double from_y,
                         double to_y, sim::Micros start_us) {
    EXPECT_TRUE(server
                    .Call(api::SubmitBatchReq{
                        .session = *session,
                        .paced = false,
                        .events = api::ToWire(builder.Slide(
                            name, PointCm{x, from_y}, PointCm{x, to_y},
                            MotionProfile::Constant(1.0), start_us))})
                    .ok());
  };
  const auto reclaim = [&] {
    TableSpiller spiller(dir.path(), SpillOptions{.rows_per_block = 1'024});
    EXPECT_TRUE(
        server.shared().SpillTable("m", spiller, /*reclaim_raw=*/true).ok());
  };
  slide("column-upper", 2.0, 1.0, 5.5, 0);
  slide("fat-upper", 9.0, 1.0, 5.5, 2'000'000);
  EXPECT_TRUE(server.Drain().ok());
  if (at == ServeReclaim::kBetweenHalves) {
    reclaim();
  }
  slide("column-lower", 2.0, 6.0, 11.0, 4'000'000);
  slide("fat-lower", 9.0, 6.0, 11.0, 6'000'000);
  if (at == ServeReclaim::kUnderTraffic) {
    reclaim();
  }
  EXPECT_TRUE(server.Drain().ok());

  std::vector<std::string> out;
  EXPECT_TRUE(server
                  .WithSession(*session,
                               [&](Kernel& kernel) {
                                 EXPECT_EQ(kernel.stats().fetch_errors, 0);
                                 out = Answers(kernel);
                               })
                  .ok());
  const server::ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.fetch.fetch_errors, 0);
  EXPECT_EQ(stats.fetch.shed_on_fetch_error, 0);
  EXPECT_EQ(stats.dropped_quanta, 0);
  EXPECT_EQ(stats.executed, stats.submitted);
  EXPECT_EQ(server.shared().buffer_manager().stats().pinned_blocks, 0);
  EXPECT_TRUE(server.Stop().ok());
  return out;
}

TEST(ReclaimTest, ServerSessionFollowsAReclaim) {
  const std::vector<std::string> reference =
      ServeAcrossReclaim(ServeReclaim::kNever);
  ASSERT_GT(reference.size(), 20u);
  EXPECT_EQ(ServeAcrossReclaim(ServeReclaim::kBetweenHalves), reference);
  EXPECT_EQ(ServeAcrossReclaim(ServeReclaim::kUnderTraffic), reference);
}

}  // namespace
}  // namespace dbtouch
