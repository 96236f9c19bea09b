// ABL-CACHE — paper Section 2.6 "Caching Data": "caching can be exploited
// such that dbTouch is ready if the user decides to re-examine a data area
// already seen. dbTouch needs to observe the gesture patterns and adjust
// the caching policy."
//
// The cache under test is the payload-holding BufferManager: blocks of a
// real base table pinned through the gesture-aware BlockCache under a byte
// budget. Two reports:
//
//   1. Policy: plain LRU vs gesture-aware scan-bypass on an exploration
//      session mixing long scans with repeated re-examination.
//   2. Cold vs warm paged scans at cache budgets of 10%, 50% and 100% of
//      the table size — block hit rate and rows/s, plus the warm
//      re-examination of a previously studied region.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cache/buffer_manager.h"
#include "cache/file_block_provider.h"
#include "common/rng.h"
#include "core/shared_state.h"
#include "exec/aggregate.h"
#include "exec/span_kernels.h"
#include "storage/datagen.h"
#include "storage/memory_tracker.h"
#include "storage/paged_column.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace {

using dbtouch::cache::BlockCacheStats;
using dbtouch::cache::BufferManager;
using dbtouch::cache::BufferManagerConfig;
using dbtouch::storage::RowId;

constexpr std::int64_t kRowsPerBlock = 4096;  // 32 KiB blocks of int64.
constexpr std::int64_t kTableRows = 1'000'000;
/// Rows for the report sections; --smoke shrinks it so CI can run the
/// whole report as a bit-rot check in seconds.
std::int64_t g_report_rows = kTableRows;

std::shared_ptr<dbtouch::storage::Table> MakeTable(std::int64_t rows) {
  std::vector<dbtouch::storage::Column> cols;
  cols.push_back(dbtouch::storage::GenSequenceInt64("v", rows, 0, 1));
  auto table =
      dbtouch::storage::Table::FromColumns("bench", std::move(cols));
  return *table;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PassResult {
  double hit_rate = 0.0;
  std::int64_t faults = 0;
  std::int64_t rows = 0;
  double rows_per_s = 0.0;
};

/// Runs `fn` (which reads rows through the cursor) as one measured pass,
/// reporting the block hit rate and throughput of just that pass.
template <typename Fn>
PassResult MeasurePass(BufferManager& manager,
                       dbtouch::storage::PagedColumnCursor& cursor, Fn fn) {
  const BlockCacheStats before = manager.stats();
  const double t0 = NowSeconds();
  const std::int64_t rows = fn(cursor);
  const double elapsed = NowSeconds() - t0;
  const BlockCacheStats after = manager.stats();
  PassResult out;
  const std::int64_t lookups = after.lookups - before.lookups;
  out.hit_rate = lookups == 0 ? 0.0
                              : static_cast<double>(after.hits - before.hits) /
                                    static_cast<double>(lookups);
  out.faults = after.faults - before.faults;
  out.rows = rows;
  out.rows_per_s = elapsed > 0.0 ? static_cast<double>(rows) / elapsed : 0.0;
  return out;
}

/// Ping-pong study of the row region [first, last): the re-examination
/// pattern the paper says caching must serve.
std::int64_t Study(dbtouch::storage::PagedColumnCursor& cursor, RowId first,
                   RowId last, int rounds) {
  std::int64_t rows = 0;
  double sink = 0.0;
  for (int i = 0; i < rounds; ++i) {
    for (RowId r = first; r < last; r += 64) {
      sink += cursor.GetAsDouble(r);
      ++rows;
    }
    for (RowId r = last - 1; r >= first; r -= 64) {
      sink += cursor.GetAsDouble(r);
      ++rows;
    }
  }
  benchmark::DoNotOptimize(sink);
  cursor.ReleasePin();
  return rows;
}

std::int64_t SequentialScan(dbtouch::storage::PagedColumnCursor& cursor) {
  double sink = 0.0;
  const std::int64_t n = cursor.row_count();
  for (RowId r = 0; r < n; ++r) {
    sink += cursor.GetAsDouble(r);
  }
  benchmark::DoNotOptimize(sink);
  cursor.ReleasePin();
  return n;
}

void PolicyReport(const std::shared_ptr<dbtouch::storage::Table>& table,
                  dbtouch::bench::BenchReport& perf) {
  dbtouch::bench::Banner(
      "ABL-CACHE", "paper Section 2.6 'Caching Data'",
      "Hit rate re-examining previously seen regions: plain LRU vs the\n"
      "gesture-aware policy (bypass admission during one-directional\n"
      "scans, resume on reversal/pause) — now with block payloads owned\n"
      "by the BufferManager under a byte budget.");

  std::printf("\n");
  dbtouch::bench::Table report({"budget_blocks", "policy", "restudy_hit",
                                "faults", "evictions"});
  for (const std::int64_t budget_blocks : {32L, 64L, 128L}) {
    for (const bool aware : {false, true}) {
      BufferManagerConfig config;
      config.rows_per_block = kRowsPerBlock;
      config.budget_bytes = budget_blocks * kRowsPerBlock * 8;
      config.gesture_aware = aware;
      config.scan_run_length = 4;
      BufferManager manager(config);
      auto source = *manager.ColumnSource(table, 0);
      dbtouch::storage::PagedColumnCursor cursor(source);

      // Study a region, scan far past it, then return.
      const RowId region = g_report_rows * 3 / 5;
      const RowId width = 8 * kRowsPerBlock;
      Study(cursor, region, region + width, 2);
      manager.OnGesturePause();
      SequentialScan(cursor);
      manager.OnGesturePause();
      const PassResult restudy = MeasurePass(
          manager, cursor, [&](dbtouch::storage::PagedColumnCursor& c) {
            return Study(c, region, region + width, 2);
          });
      const BlockCacheStats stats = manager.stats();
      report.Row({dbtouch::bench::Fmt(budget_blocks),
                  aware ? "gesture-aware" : "plain-LRU",
                  dbtouch::bench::Fmt(restudy.hit_rate, 3),
                  dbtouch::bench::Fmt(stats.faults),
                  dbtouch::bench::Fmt(stats.evictions)});
      if (budget_blocks == 128) {
        perf.Metric(aware ? "restudy_hit_aware" : "restudy_hit_plain",
                    restudy.hit_rate);
      }
    }
  }
  std::printf(
      "\nPlain LRU admits every scan block, so the sweep between visits\n"
      "evicts the studied region whenever the budget is smaller than the\n"
      "table; the gesture-aware policy bypasses the scan and the region\n"
      "survives — the re-study runs at ~100%% hit rate from the cache.\n\n");
}

void ColdWarmReport(const std::shared_ptr<dbtouch::storage::Table>& table,
                    dbtouch::bench::BenchReport& perf) {
  const std::int64_t table_bytes = g_report_rows * 8;
  dbtouch::bench::Banner(
      "ABL-CACHE-PAGED", "cold vs warm paged scans",
      "Block hit rate and rows/s of paged reads at cache budgets of 10%,\n"
      "50% and 100% of table size. 'scan' passes read the whole column\n"
      "sequentially; 'restudy' re-examines an 8-block region studied\n"
      "before the measurement.");

  std::printf("\n");
  dbtouch::bench::Table report(
      {"budget", "pass", "hit_rate", "faults", "Mrows/s"});
  for (const int pct : {10, 50, 100}) {
    BufferManagerConfig config;
    config.rows_per_block = kRowsPerBlock;
    config.budget_bytes = table_bytes * pct / 100;
    config.gesture_aware = false;  // Pure LRU budget behaviour.
    BufferManager manager(config);
    auto source = *manager.ColumnSource(table, 0);
    dbtouch::storage::PagedColumnCursor cursor(source);
    const std::string label = std::to_string(pct) + "%";

    const PassResult cold =
        MeasurePass(manager, cursor, SequentialScan);
    const PassResult warm =
        MeasurePass(manager, cursor, SequentialScan);
    // Study once (cold for the region), then re-examine it warm.
    const RowId region = g_report_rows * 3 / 10;
    const RowId width = 8 * kRowsPerBlock;
    const PassResult study_cold = MeasurePass(
        manager, cursor, [&](dbtouch::storage::PagedColumnCursor& c) {
          return Study(c, region, region + width, 1);
        });
    const PassResult restudy = MeasurePass(
        manager, cursor, [&](dbtouch::storage::PagedColumnCursor& c) {
          return Study(c, region, region + width, 1);
        });

    const auto row = [&](const char* pass, const PassResult& r) {
      report.Row({label, pass, dbtouch::bench::Fmt(r.hit_rate, 3),
                  dbtouch::bench::Fmt(r.faults),
                  dbtouch::bench::Fmt(r.rows_per_s / 1e6, 1)});
    };
    row("scan-cold", cold);
    row("scan-warm", warm);
    row("restudy-cold", study_cold);
    row("restudy-warm", restudy);
    if (pct == 100) {
      perf.Metric("warm_scan_hit_rate", warm.hit_rate);
      perf.Metric("cold_scan_mrows_per_s", cold.rows_per_s / 1e6);
      perf.Metric("warm_scan_mrows_per_s", warm.rows_per_s / 1e6);
      perf.Metric("restudy_warm_hit_rate", restudy.hit_rate);
    }
  }
  std::printf(
      "\nAt 100%% budget the warm scan never faults and runs at memory\n"
      "speed; below it, sequential re-scans get no LRU reuse (the classic\n"
      "flooding pattern) but a studied region smaller than the budget is\n"
      "fully warm on re-examination at every budget.\n\n");
}

/// The disk spill tier: cold summary-band reads against a file-backed
/// column at a 10% budget, per-block faults vs ranged (coalesced) reads.
/// This is the bit-rot guard for the disk path — --smoke runs it — and
/// the acceptance report for batched demand fetches: the ranged mode must
/// issue strictly fewer provider calls than blocks fetched.
void FileTierReport(const std::shared_ptr<dbtouch::storage::Table>& table,
                    dbtouch::bench::BenchReport& perf) {
  dbtouch::bench::Banner(
      "ABL-CACHE-DISK", "file-backed spill tier + ranged reads",
      "The column spilled to a block file and read back through the pool\n"
      "at a 10% budget. Cold 8-block summary bands are faulted either\n"
      "block-by-block (N preads per band) or as one ranged fetch-queue\n"
      "run per band (1 pread per band).");

  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "dbtouch_bench_spill_XXXXXX")
                         .string();
  const std::string dir = ::mkdtemp(tmpl.data());
  dbtouch::storage::TableSpiller spiller(
      dir, dbtouch::storage::SpillOptions{.rows_per_block = kRowsPerBlock});

  std::printf("\n");
  dbtouch::bench::Table report({"mode", "bands", "blocks_fetched",
                                "provider_calls", "ranged", "MB_from_disk",
                                "ms"});
  constexpr std::int64_t kBandBlocks = 8;
  bool coalesced_ok = false;
  for (const bool ranged : {false, true}) {
    const auto provider = spiller.SpillColumn(table, 0);
    if (!provider.ok()) {
      std::printf("spill failed: %s\n", provider.status().ToString().c_str());
      break;
    }
    BufferManagerConfig config;
    config.rows_per_block = kRowsPerBlock;
    config.budget_bytes = g_report_rows * 8 / 10;
    // The staging pad must hold a whole band, or the ranged read's
    // blocks evict each other before the pins claim them.
    config.staged_cap_bytes = 2 * kBandBlocks * kRowsPerBlock * 8;
    BufferManager manager(config);
    auto source = manager.SourceFor("disk.v", 0, *provider);

    const std::int64_t num_blocks = source->num_blocks();
    std::int64_t bands = 0;
    const double t0 = NowSeconds();
    // Non-overlapping cold bands across the whole file.
    for (std::int64_t first = 0; first + kBandBlocks <= num_blocks;
         first += 2 * kBandBlocks, ++bands) {
      if (ranged) {
        // The band's misses as one run on the fetch queue, read with
        // one pread; once it lands, the pins below all hit.
        source->RequestPrefetchRange(first, first + kBandBlocks - 1,
                                     kBandBlocks);
        manager.WaitForFetches();
      }
      for (std::int64_t b = first; b < first + kBandBlocks; ++b) {
        auto pin = source->PinBlock(b, -1);
        if (!pin.ok()) {
          break;
        }
        benchmark::DoNotOptimize(pin->view().GetAsDouble(0));
      }
    }
    const double elapsed_ms = (NowSeconds() - t0) * 1e3;
    report.Row({ranged ? "ranged" : "per-block",
                dbtouch::bench::Fmt(bands),
                dbtouch::bench::Fmt((*provider)->blocks_read()),
                dbtouch::bench::Fmt((*provider)->reads()),
                dbtouch::bench::Fmt((*provider)->ranged_reads()),
                dbtouch::bench::Fmt(
                    static_cast<double>((*provider)->bytes_read()) / 1e6,
                    1),
                dbtouch::bench::Fmt(elapsed_ms, 1)});
    if (ranged) {
      coalesced_ok = (*provider)->ranged_reads() > 0 &&
                     (*provider)->reads() < (*provider)->blocks_read();
      // Provider round trips per block fetched: 1.0 = no coalescing,
      // 1/kBandBlocks = every band rode one ranged read.
      perf.Metric("disk_reads_per_block",
                  (*provider)->blocks_read() > 0
                      ? static_cast<double>((*provider)->reads()) /
                            static_cast<double>((*provider)->blocks_read())
                      : 0.0);
      perf.Metric("disk_mb_read",
                  static_cast<double>((*provider)->bytes_read()) / 1e6);
    }
  }
  std::printf(
      "\ncoalescing %s: ranged mode served each cold band with one\n"
      "provider call instead of one per block.\n\n",
      coalesced_ok ? "OK" : "FAILED");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!coalesced_ok) {
    // The --smoke CI step must fail when the disk path bit-rots.
    std::exit(1);
  }
}

/// Spill reclamation: the memory-ceiling acceptance report. A table 10x
/// the buffer budget is spilled WITH reclamation through a SharedState;
/// the report shows the MemoryTracker's matrix bytes before/after and the
/// pool's peak residency across a full paged scan + restudy. --smoke runs
/// this as the ABL-CACHE-RECLAIM bit-rot guard: if reclamation stops
/// freeing the matrix, or residency ever crosses the budget, the step
/// exits non-zero and CI fails.
void ReclaimReport(dbtouch::bench::BenchReport& perf) {
  dbtouch::bench::Banner(
      "ABL-CACHE-RECLAIM", "spilled tables actually leave RAM",
      "SpillTable(reclaim_raw) frees the matrix after a verified spill;\n"
      "every reader pins pool blocks instead. Tracked matrix bytes must\n"
      "drop by the table size and peak pool residency must stay within\n"
      "the byte budget while the whole column is scanned and restudied.");

  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "dbtouch_bench_reclaim_XXXXXX")
                         .string();
  const std::string dir = ::mkdtemp(tmpl.data());

  const std::int64_t rows = g_report_rows;
  const std::int64_t table_bytes = rows * 8;
  dbtouch::cache::BufferManagerConfig buffer;
  buffer.rows_per_block = kRowsPerBlock;
  buffer.budget_bytes = table_bytes / 10;
  auto& tracker = dbtouch::storage::MemoryTracker::Instance();
  const std::int64_t matrix_before = tracker.matrix_bytes();

  auto shared = std::make_shared<dbtouch::core::SharedState>(
      dbtouch::sampling::SampleHierarchyConfig{}, /*force_eager=*/false,
      buffer);
  auto table = MakeTable(rows);
  const std::int64_t loaded = tracker.matrix_bytes() - matrix_before;
  bool ok = shared->RegisterTable(table).ok();
  dbtouch::storage::TableSpiller spiller(
      dir, dbtouch::storage::SpillOptions{.rows_per_block = kRowsPerBlock});
  ok = ok && shared->SpillTable("bench", spiller, /*reclaim_raw=*/true).ok();
  const std::int64_t after_reclaim = tracker.matrix_bytes() - matrix_before;

  // Full scan + ping-pong restudy, all off the spill file.
  double checksum = 0.0;
  const auto source = shared->GetColumnSource("bench", 0);
  ok = ok && source.ok();
  if (source.ok()) {
    dbtouch::storage::PagedColumnCursor cursor(*source);
    for (RowId r = 0; r < rows; ++r) {
      checksum += cursor.GetAsDouble(r);
    }
    Study(cursor, rows / 2, rows / 2 + 4 * kRowsPerBlock, 2);
  }
  benchmark::DoNotOptimize(checksum);
  const dbtouch::cache::BlockCacheStats stats =
      shared->buffer_manager().stats();

  std::printf("\n");
  dbtouch::bench::Table report({"metric", "MB"});
  const auto mb = [](std::int64_t bytes) {
    return dbtouch::bench::Fmt(static_cast<double>(bytes) / 1e6, 2);
  };
  report.Row({"table (matrix loaded)", mb(loaded)});
  report.Row({"matrix after reclaim", mb(after_reclaim)});
  report.Row({"pool budget", mb(buffer.budget_bytes)});
  report.Row({"pool peak resident", mb(stats.peak_resident_bytes)});

  const bool reclaimed_ok = ok && table->raw_released() &&
                            after_reclaim <= loaded / 10 &&
                            stats.peak_resident_bytes <=
                                buffer.budget_bytes;
  perf.Metric("reclaim_matrix_residual_ratio",
              loaded > 0 ? static_cast<double>(after_reclaim) /
                               static_cast<double>(loaded)
                         : 0.0);
  perf.Metric("reclaim_peak_over_budget",
              buffer.budget_bytes > 0
                  ? static_cast<double>(stats.peak_resident_bytes) /
                        static_cast<double>(buffer.budget_bytes)
                  : 0.0);
  std::printf(
      "\nreclamation %s: tracked raw bytes %s the byte budget is the\n"
      "memory ceiling for a table 10x its size.\n\n",
      reclaimed_ok ? "OK" : "FAILED",
      reclaimed_ok ? "released;" : "NOT released or budget breached;");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!reclaimed_ok) {
    std::exit(1);  // The --smoke CI step must fail on memory-ceiling rot.
  }
}

/// ABL-SIMD: the vectorized-kernel acceptance report. Warm paged scans of
/// one double-wide column, per-row scalar cursor vs whole-span kernels
/// over pinned blocks. The span path must be at least 2x the cursor path
/// (the PR's headline acceptance) — the --smoke CI step exits non-zero
/// when it is not, whatever the host. A kAvg pass then times the per-row
/// cursor Add against AggregateSpan over the same blocks; its answers
/// must agree bit for bit, and `avg_span_cost_ratio` (kAvg AggregateSpan
/// time / MinMaxSpan time) is gated: an avg band should cost one add per
/// row.
void SimdReport(dbtouch::bench::BenchReport& perf) {
  dbtouch::bench::Banner(
      "ABL-SIMD", "span-vectorized scans over pinned spans",
      "Warm (fully resident) scans of a double column through the pool:\n"
      "the per-row scalar cursor (GetAsDouble per row) vs the span\n"
      "kernels iterating whole pinned minipages (runtime-dispatched\n"
      "AVX2 with a portable fallback). Same answers, bit for bit; the\n"
      "span path must win by >= 2x.");

  // A double column: the AVX2 min/max_pd fast path (int64 has no AVX2
  // min/max and only gets the loop-hoisting win).
  std::vector<dbtouch::storage::Column> cols;
  cols.push_back(dbtouch::storage::GenGaussianDouble(
      "g", g_report_rows, 10.0, 2.0, 29));
  auto table = *dbtouch::storage::Table::FromColumns("simd",
                                                     std::move(cols));
  BufferManagerConfig config;
  config.rows_per_block = kRowsPerBlock;
  config.budget_bytes = g_report_rows * 8;  // 100%: warm comparisons.
  config.gesture_aware = false;
  BufferManager manager(config);
  auto source = *manager.ColumnSource(table, 0);
  dbtouch::storage::PagedColumnCursor cursor(source);
  SequentialScan(cursor);  // Warm every block.

  const std::int64_t rows = source->row_count();
  const std::int64_t num_blocks = source->num_blocks();
  constexpr int kReps = 3;  // Best-of: squeeze out scheduler noise.
  // Under --smoke the table is small; iterate each measured pass until it
  // covers ~2M rows so the timings are milliseconds, not microseconds.
  const std::int64_t iters =
      std::max<std::int64_t>(1, 2'000'000 / std::max<std::int64_t>(rows, 1));

  // Scalar cursor pass: the pre-span per-row path (min/max/count summary
  // shape — the order-independent scan the SIMD tier accelerates).
  double cursor_elapsed = 1e300;
  dbtouch::exec::MinMaxState cursor_state;
  for (int rep = 0; rep < kReps; ++rep) {
    dbtouch::exec::MinMaxState state;
    const double t0 = NowSeconds();
    for (std::int64_t it = 0; it < iters; ++it) {
      for (RowId r = 0; r < rows; ++r) {
        const double v = cursor.GetAsDouble(r);
        ++state.count;
        if (v < state.min) {
          state.min = v;
        }
        if (v > state.max) {
          state.max = v;
        }
      }
    }
    cursor_elapsed = std::min(cursor_elapsed, NowSeconds() - t0);
    cursor_state = state;
    benchmark::DoNotOptimize(state);
  }

  // Span pass: pin each block once, run the vectorized kernel over the
  // whole pinned span (summary.cc's block-at-a-time shape).
  double span_elapsed = 1e300;
  dbtouch::exec::MinMaxState span_state;
  bool span_ok = true;
  for (int rep = 0; rep < kReps; ++rep) {
    dbtouch::exec::MinMaxState state;
    const double t0 = NowSeconds();
    for (std::int64_t it = 0; it < iters; ++it) {
      for (std::int64_t b = 0; b < num_blocks; ++b) {
        auto pin = source->PinBlock(b, -1);
        if (!pin.ok() ||
            !dbtouch::exec::MinMaxSpan(pin->view(), &state)) {
          span_ok = false;
          break;
        }
      }
    }
    span_elapsed = std::min(span_elapsed, NowSeconds() - t0);
    span_state = state;
    benchmark::DoNotOptimize(state);
  }

  // kAvg pass: the per-row cursor Add vs AggregateSpan over the same warm
  // blocks, each rep feeding one aggregate every pass (same row order, so
  // the same bits). DoNotOptimize takes the aggregate, not its double
  // value: on a bare double (the helper's "+m,r" asm operand), GCC 12 at
  // -O3 handed back a garbage value in this function.
  double avg_cursor_elapsed = 1e300;
  double avg_cursor_value = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    dbtouch::exec::RunningAggregate agg(dbtouch::exec::AggKind::kAvg);
    const double t0 = NowSeconds();
    for (std::int64_t it = 0; it < iters; ++it) {
      for (RowId r = 0; r < rows; ++r) {
        agg.Add(cursor.GetAsDouble(r));
      }
    }
    avg_cursor_elapsed = std::min(avg_cursor_elapsed, NowSeconds() - t0);
    benchmark::DoNotOptimize(agg);
    avg_cursor_value = agg.value();
  }
  double avg_span_elapsed = 1e300;
  double avg_span_value = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    dbtouch::exec::RunningAggregate agg(dbtouch::exec::AggKind::kAvg);
    const double t0 = NowSeconds();
    for (std::int64_t it = 0; it < iters; ++it) {
      for (std::int64_t b = 0; b < num_blocks; ++b) {
        auto pin = source->PinBlock(b, -1);
        if (!pin.ok() || !dbtouch::exec::AggregateSpan(pin->view(), &agg)) {
          span_ok = false;
          break;
        }
      }
    }
    avg_span_elapsed = std::min(avg_span_elapsed, NowSeconds() - t0);
    benchmark::DoNotOptimize(agg);
    avg_span_value = agg.value();
  }

  const double cursor_mrows =
      static_cast<double>(rows * iters) / cursor_elapsed / 1e6;
  const double span_mrows =
      static_cast<double>(rows * iters) / span_elapsed / 1e6;
  const double speedup =
      cursor_elapsed > 0.0 ? cursor_elapsed / span_elapsed : 0.0;
  const double blocks_per_sec =
      span_elapsed > 0.0
          ? static_cast<double>(num_blocks * iters) / span_elapsed
          : 0.0;
  const dbtouch::exec::SimdLevel level = dbtouch::exec::ActiveSimdLevel();

  std::printf("\n");
  dbtouch::bench::Table report({"path", "Mrows/s", "speedup"});
  report.Row({"scalar cursor", dbtouch::bench::Fmt(cursor_mrows, 1),
              "1.0"});
  report.Row({std::string("span kernels (") +
                  std::string(dbtouch::exec::SimdLevelName(level)) + ")",
              dbtouch::bench::Fmt(span_mrows, 1),
              dbtouch::bench::Fmt(speedup, 1)});

  const double fed_rows = static_cast<double>(rows * iters);
  const double avg_span_cost_ratio =
      span_elapsed > 0.0 ? avg_span_elapsed / span_elapsed : 0.0;
  std::printf("\n");
  dbtouch::bench::Table avg_report({"pass", "ns/row"});
  avg_report.Row({"avg: cursor Add",
                  dbtouch::bench::Fmt(avg_cursor_elapsed / fed_rows * 1e9, 2)});
  avg_report.Row({"avg: span",
                  dbtouch::bench::Fmt(avg_span_elapsed / fed_rows * 1e9, 2)});
  avg_report.Row({"min/max: span",
                  dbtouch::bench::Fmt(span_elapsed / fed_rows * 1e9, 2)});

  // Same answers, bit for bit — the parity contract the speed rides on.
  const bool parity = span_ok &&
                      cursor_state.count == span_state.count &&
                      cursor_state.min == span_state.min &&
                      cursor_state.max == span_state.max &&
                      std::bit_cast<std::uint64_t>(avg_cursor_value) ==
                          std::bit_cast<std::uint64_t>(avg_span_value);
  perf.Metric("simd_speedup", speedup);
  perf.Metric("blocks_per_sec", blocks_per_sec);
  perf.Metric("simd_dispatch",
              static_cast<std::int64_t>(level));  // 0 scalar, 1 avx2.
  perf.Metric("avg_span_cost_ratio", avg_span_cost_ratio);
  const bool simd_ok = parity && speedup >= 2.0;
  std::printf(
      "\nvectorized scan %s: %.1fx over the scalar cursor (>= 2x "
      "required), answers %s; kAvg span costs %.1fx the min/max span.\n\n",
      simd_ok ? "OK" : "FAILED", speedup,
      parity ? "bit-identical" : "DIVERGED", avg_span_cost_ratio);
  if (!simd_ok) {
    std::exit(1);  // The --smoke CI step must fail on SIMD-path rot.
  }
}

/// ABL-PAX: the fat-table fault-economics report. Eight-attribute tuple
/// taps against a budget-bounded pool, column-per-block spill vs the PAX
/// multi-column spill. PAX must cost strictly fewer cold faults per
/// tuple — the --smoke CI step exits non-zero when it does not.
void PaxReport(dbtouch::bench::BenchReport& perf) {
  dbtouch::bench::Banner(
      "ABL-PAX", "multi-column blocks vs column-per-block",
      "A fat table (8 mixed-type attributes) spilled to disk and tapped\n"
      "at random rows; every tap reads the WHOLE tuple. Column-per-block\n"
      "faults one block per attribute; PAX faults one multi-column block\n"
      "for the whole tuple.");

  const std::int64_t rows = std::min<std::int64_t>(g_report_rows, 250'000);
  const auto make_fat = [&] {
    std::vector<dbtouch::storage::Column> cols;
    cols.push_back(dbtouch::storage::GenSequenceInt64("id", rows, 0, 1));
    cols.push_back(
        dbtouch::storage::GenGaussianDouble("g", rows, 10.0, 2.0, 11));
    cols.push_back(
        dbtouch::storage::GenUniformInt32("u", rows, -100, 100, 13));
    cols.push_back(dbtouch::storage::GenZipfInt32("z", rows, 64, 1.1, 17));
    cols.push_back(
        dbtouch::storage::GenSinusoidDouble("s", rows, 5.0, 512.0, 0.1, 19));
    cols.push_back(dbtouch::storage::GenSegmentedDouble(
        "seg", rows, {1.0, 5.0, 2.0}, 0.1, 23));
    cols.push_back(dbtouch::storage::GenSequenceInt64("ts", rows, 1'000, 3));
    cols.push_back(dbtouch::storage::GenCategorical(
        "tag", rows, {"alpha", "beta", "gamma"}, 7));
    return *dbtouch::storage::Table::FromColumns("fat", std::move(cols));
  };

  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "dbtouch_bench_pax_XXXXXX")
                         .string();
  const std::string dir = ::mkdtemp(tmpl.data());
  constexpr std::int64_t kTaps = 2'000;
  constexpr std::size_t kCols = 8;

  std::printf("\n");
  dbtouch::bench::Table report(
      {"layout", "taps", "faults", "faults/tuple", "evictions"});
  double faults_per_tuple[2] = {0.0, 0.0};
  bool ran_ok = true;
  for (const bool pax : {false, true}) {
    dbtouch::cache::BufferManagerConfig buffer;
    buffer.rows_per_block = kRowsPerBlock;
    // A quarter of the fat table resident: taps keep faulting cold
    // blocks instead of settling into a fully warm set.
    buffer.budget_bytes = rows * 52 / 4;
    auto shared = std::make_shared<dbtouch::core::SharedState>(
        dbtouch::sampling::SampleHierarchyConfig{}, /*force_eager=*/false,
        buffer);
    auto table = make_fat();
    bool ok = shared->RegisterTable(table).ok();
    dbtouch::storage::TableSpiller spiller(
        dir,
        dbtouch::storage::SpillOptions{.rows_per_block = kRowsPerBlock});
    ok = ok && (pax ? shared->SpillTablePax("fat", spiller,
                                            /*reclaim_raw=*/true)
                    : shared->SpillTable("fat", spiller,
                                         /*reclaim_raw=*/true))
                   .ok();

    std::vector<std::shared_ptr<dbtouch::storage::PagedColumnSource>>
        sources;
    for (std::size_t c = 0; ok && c < kCols; ++c) {
      auto source = shared->GetColumnSource("fat", c);
      ok = ok && source.ok();
      if (source.ok()) {
        sources.push_back(*source);
      }
    }
    if (!ok) {
      std::printf("fat-table spill failed (pax=%d)\n", pax ? 1 : 0);
      ran_ok = false;
      break;
    }

    const std::int64_t faults_before =
        shared->buffer_manager().stats().faults;
    dbtouch::Rng rng(0xfa7);
    double sink = 0.0;
    for (std::int64_t t = 0; t < kTaps; ++t) {
      const RowId row = static_cast<RowId>(
          rng.NextBounded(static_cast<std::uint64_t>(rows)));
      const std::int64_t block = row / kRowsPerBlock;
      for (const auto& source : sources) {
        auto pin = source->PinBlock(block, row);
        if (!pin.ok()) {
          ran_ok = false;
          break;
        }
        sink += pin->view().GetAsDouble(row - block * kRowsPerBlock);
      }
    }
    benchmark::DoNotOptimize(sink);
    const dbtouch::cache::BlockCacheStats stats =
        shared->buffer_manager().stats();
    const std::int64_t faults = stats.faults - faults_before;
    faults_per_tuple[pax ? 1 : 0] =
        static_cast<double>(faults) / static_cast<double>(kTaps);
    report.Row({pax ? "pax" : "column-per-block",
                dbtouch::bench::Fmt(kTaps), dbtouch::bench::Fmt(faults),
                dbtouch::bench::Fmt(faults_per_tuple[pax ? 1 : 0], 3),
                dbtouch::bench::Fmt(stats.evictions)});
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  perf.Metric("faults_per_tuple", faults_per_tuple[1]);
  perf.Metric("faults_per_tuple_col", faults_per_tuple[0]);
  const bool pax_ok =
      ran_ok && faults_per_tuple[1] < faults_per_tuple[0];
  std::printf(
      "\nPAX economics %s: %.3f faults/tuple vs %.3f column-per-block "
      "(strictly fewer required).\n\n",
      pax_ok ? "OK" : "FAILED", faults_per_tuple[1], faults_per_tuple[0]);
  if (!pax_ok) {
    std::exit(1);  // The --smoke CI step must fail on fat-table rot.
  }
}

void BM_PagedScan(benchmark::State& state) {
  static auto table = MakeTable(kTableRows);
  BufferManagerConfig config;
  config.rows_per_block = kRowsPerBlock;
  config.budget_bytes = kTableRows * 8 * state.range(0) / 100;
  config.gesture_aware = false;
  BufferManager manager(config);
  auto source = *manager.ColumnSource(table, 0);
  dbtouch::storage::PagedColumnCursor cursor(source);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SequentialScan(cursor));
  }
  state.SetItemsProcessed(state.iterations() * kTableRows);
  state.SetLabel("budget=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_PagedScan)->Arg(10)->Arg(50)->Arg(100);

void BM_RawViewScan(benchmark::State& state) {
  static auto table = MakeTable(kTableRows);
  const dbtouch::storage::ColumnView view = table->ColumnViewAt(0);
  for (auto _ : state) {
    double sink = 0.0;
    for (RowId r = 0; r < kTableRows; ++r) {
      sink += view.GetAsDouble(r);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kTableRows);
  state.SetLabel("unpaged baseline");
}
BENCHMARK(BM_RawViewScan);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      g_report_rows = 150'000;
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      break;
    }
  }
  const auto table = MakeTable(g_report_rows);
  dbtouch::bench::BenchReport perf("cache");
  PolicyReport(table, perf);
  ColdWarmReport(table, perf);
  FileTierReport(table, perf);
  ReclaimReport(perf);
  SimdReport(perf);
  PaxReport(perf);
  // Policy/residency metrics are deterministic load shapes (tight 20%
  // gates); rows/s metrics vary with the host and stay informational.
  // disk_reads_per_block and faults_per_tuple count provider reads and
  // pool faults under a fixed, seeded script (seeded taps, LRU): the same
  // code gives the same count on any host, so they gate at tolerance 0.
  perf.Gate("restudy_hit_aware", "higher", 0.2);
  perf.Gate("warm_scan_hit_rate", "higher", 0.2);
  perf.Gate("disk_reads_per_block", "lower", 0.0);
  perf.Gate("reclaim_peak_over_budget", "lower", 0.2);
  // simd_speedup is a same-host ratio — both sides scale with the
  // machine, so it gates with a looser band; the hard >= 2x floor lives
  // in SimdReport itself.
  perf.Gate("faults_per_tuple", "lower", 0.0);
  perf.Gate("simd_speedup", "higher", 0.5);
  // avg_span_cost_ratio is a same-host ratio too: a kAvg band back on a
  // divide per row (~10x) fails it, timing noise (well under 2x) does not.
  perf.Gate("avg_span_cost_ratio", "lower", 1.0);
  perf.Write("BENCH_cache.json");
  benchmark::Initialize(&argc, argv);
  if (!smoke) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
