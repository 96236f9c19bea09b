// Tests for the observability layer: log-spaced histogram bucket math,
// snapshot sums and percentile behaviour, one-writer recording read by a
// concurrent snapshotter, the JsonWriter emitter (golden outputs,
// escaping), the TraceRecorder ring (wraparound, torn-slot rejection,
// concurrent writers — the TSan payload for the seqlock-style slots) and
// slow-quantum exemplar retention, plus the ServerStatsSnapshot::ToJson
// document shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/trace_recorder.h"
#include "server/server_stats.h"

namespace dbtouch::obs {
namespace {

// ---- Histogram bucket math ------------------------------------------------

TEST(HistogramTest, SmallValuesGetExactBuckets) {
  // Below 2^kPrecisionBits every integer has its own bucket.
  for (std::int64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(v)), v);
  }
}

TEST(HistogramTest, BucketRelativeErrorIsBounded) {
  // Above the exact range the quantisation error (value - bucket lower
  // bound) must stay under 2^-kPrecisionBits of the value.
  for (std::int64_t v = Histogram::kSubBuckets; v < (1ll << 40);
       v = v * 3 + 7) {
    const std::size_t index = Histogram::BucketIndex(v);
    const std::int64_t lower = Histogram::BucketLowerBound(index);
    EXPECT_LE(lower, v);
    EXPECT_LT(v - lower,
              (v >> Histogram::kPrecisionBits) + 1);
    // Bucket bounds are monotone in the index.
    EXPECT_GT(Histogram::BucketLowerBound(index + 1), lower);
  }
}

TEST(HistogramTest, CountSumMinMaxAreExact) {
  Histogram hist;
  std::int64_t expected_sum = 0;
  for (std::int64_t v = 1; v <= 1000; ++v) {
    hist.Record(v * 17);
    expected_sum += v * 17;
  }
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_EQ(snap.sum, expected_sum);  // Sums are exact, not bucketised.
  EXPECT_EQ(snap.min, 17);
  EXPECT_EQ(snap.max, 17'000);
}

TEST(HistogramTest, PercentilesAtBucketResolution) {
  Histogram hist;
  for (std::int64_t v = 1; v <= 10'000; ++v) {
    hist.Record(v);
  }
  const HistogramSnapshot snap = hist.Snapshot();
  // p50 of 1..10000 is 5000; bucket resolution allows ~3.1% low.
  const std::int64_t p50 = snap.Percentile(0.50);
  EXPECT_GE(p50, 4600);
  EXPECT_LE(p50, 5000);
  const std::int64_t p99 = snap.Percentile(0.99);
  EXPECT_GE(p99, 9500);
  EXPECT_LE(p99, 9900);
  // p0/p100 come from the exact extremes, not buckets.
  EXPECT_EQ(snap.Percentile(0.0), 1);
  EXPECT_EQ(snap.Percentile(1.0), 10'000);
  EXPECT_EQ(HistogramSnapshot{}.Percentile(0.5), 0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram hist;
  hist.Record(-123);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.min, 0);
}

TEST(HistogramTest, SnapshotAddSumsCountsAndKeepsTheExtremes) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) {
    a.Record(10);
    b.Record(1'000);
  }
  const Histogram empty;
  // Empty snapshots report min = max = 0; adding one on either side must
  // not pull the total's extremes to 0.
  HistogramSnapshot total;
  total.Add(empty.Snapshot());
  total.Add(b.Snapshot());
  total.Add(empty.Snapshot());
  total.Add(a.Snapshot());
  EXPECT_EQ(total.count, 200);
  EXPECT_EQ(total.sum, 100 * 10 + 100 * 1'000);
  EXPECT_EQ(total.min, 10);
  EXPECT_EQ(total.max, 1'000);
  ASSERT_EQ(total.buckets.size(),
            static_cast<std::size_t>(Histogram::kNumBuckets));
  EXPECT_EQ(total.buckets[Histogram::BucketIndex(10)], 100);
  EXPECT_EQ(total.buckets[Histogram::BucketIndex(1'000)], 100);
  // Percentiles over the sum are those of one histogram fed both.
  Histogram both;
  for (int i = 0; i < 100; ++i) {
    both.Record(10);
    both.Record(1'000);
  }
  const HistogramSnapshot expected = both.Snapshot();
  for (const double p : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_EQ(total.Percentile(p), expected.Percentile(p)) << p;
  }
  // Nothing but empties adds up to an empty snapshot.
  HistogramSnapshot none;
  none.Add(empty.Snapshot());
  EXPECT_EQ(none.count, 0);
  EXPECT_EQ(none.min, 0);
  EXPECT_EQ(none.max, 0);
  EXPECT_EQ(none.Percentile(0.5), 0);
}

TEST(HistogramTest, ResetDiscardsEverything) {
  Histogram hist;
  hist.Record(42);
  hist.Reset();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.Percentile(0.99), 0);
}

TEST(HistogramTest, ConcurrentRecordersLoseNothing) {
  // One histogram per recording thread, the contract the server's workers
  // follow, while another thread snapshots them all in a loop.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<Histogram> hists(kThreads);
  std::atomic<int> recording{kThreads};
  std::int64_t snapshots = 0;
  bool count_decreased = false;
  std::thread reader([&] {
    std::int64_t last = 0;
    while (recording.load(std::memory_order_acquire) > 0) {
      HistogramSnapshot total;
      for (const Histogram& h : hists) {
        total.Add(h.Snapshot());
      }
      count_decreased = count_decreased || total.count < last;
      last = total.count;
      ++snapshots;
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hists, &recording, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hists[static_cast<std::size_t>(t)].Record((t + 1) * 100);
      }
      recording.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  reader.join();
  EXPECT_FALSE(count_decreased);
  EXPECT_GT(snapshots, 0);

  HistogramSnapshot snap;
  for (const Histogram& h : hists) {
    snap.Add(h.Snapshot());
  }
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::int64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<std::int64_t>(kPerThread) * (t + 1) * 100;
    EXPECT_EQ(snap.buckets[Histogram::BucketIndex((t + 1) * 100)],
              kPerThread);
  }
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.min, 100);
  EXPECT_EQ(snap.max, kThreads * 100);
}

// ---- JsonWriter -----------------------------------------------------------

TEST(JsonWriterTest, GoldenDocument) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Field("name", std::string_view("dbtouch"));
  writer.Field("executed", static_cast<std::int64_t>(42));
  writer.Field("enabled", true);
  writer.Key("tags");
  writer.BeginArray();
  writer.Int(1);
  writer.Int(2);
  writer.EndArray();
  writer.Key("nested");
  writer.BeginObject();
  writer.Key("none");
  writer.Null();
  writer.EndObject();
  writer.EndObject();
  const std::string json = std::move(writer).str();
  EXPECT_EQ(json,
            "{\"name\":\"dbtouch\",\"executed\":42,\"enabled\":true,"
            "\"tags\":[1,2],\"nested\":{\"none\":null}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Field("k", std::string_view("a\"b\\c\n\t\x01"));
  writer.EndObject();
  EXPECT_EQ(std::move(writer).str(),
            "{\"k\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter writer;
  writer.BeginArray();
  writer.Double(1.5);
  writer.Double(std::numeric_limits<double>::infinity());
  writer.Double(std::numeric_limits<double>::quiet_NaN());
  writer.EndArray();
  EXPECT_EQ(std::move(writer).str(), "[1.5,null,null]");
}

// ---- TraceRecorder --------------------------------------------------------

TEST(TraceRecorderTest, RecordsOrderedEvents) {
  TraceRecorderConfig config;
  config.capacity = 64;
  TraceRecorder recorder(config);
  recorder.Record(SpanStage::kSubmitted, 7, 1, /*a=*/1000, /*b=*/1);
  recorder.Record(SpanStage::kDispatched, 7, 1);
  recorder.Record(SpanStage::kExecuting, 7, 1);
  recorder.Record(SpanStage::kCompleted, 7, 1, /*a=*/350, /*b=*/0);
  const std::vector<SpanEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].stage, SpanStage::kSubmitted);
  EXPECT_EQ(events[0].quantum, 7);
  EXPECT_EQ(events[0].session, 1);
  EXPECT_EQ(events[0].a, 1000);
  EXPECT_EQ(events[3].stage, SpanStage::kCompleted);
  EXPECT_EQ(events[3].a, 350);
  // Tickets are 1-based and strictly increasing.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ticket, i + 1);
    EXPECT_GE(events[i].t_us, 0);
  }
  EXPECT_EQ(recorder.recorded(), 4u);
}

TEST(TraceRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRecorderConfig config;
  config.capacity = 33;
  const TraceRecorder recorder(config);
  EXPECT_EQ(recorder.capacity(), 64u);
}

TEST(TraceRecorderTest, RingWrapsKeepingNewestEvents) {
  TraceRecorderConfig config;
  config.capacity = 16;
  TraceRecorder recorder(config);
  constexpr int kEvents = 100;
  for (int i = 0; i < kEvents; ++i) {
    recorder.Record(SpanStage::kExecuting, /*quantum=*/i + 1,
                    /*session=*/1, /*a=*/i);
  }
  EXPECT_EQ(recorder.recorded(), static_cast<std::uint64_t>(kEvents));
  const std::vector<SpanEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The survivors are exactly the last 16 events, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t expected_ticket = kEvents - 16 + i + 1;
    EXPECT_EQ(events[i].ticket, expected_ticket);
    EXPECT_EQ(events[i].quantum,
              static_cast<std::int64_t>(expected_ticket));
  }
}

TEST(TraceRecorderTest, ConcurrentWritersNeverYieldTornEvents) {
  // Writers stamp every payload field with a value derived from their own
  // ticket; a snapshot event mixing two writers' stores would break the
  // relation. Concurrent Snapshot() calls exercise the torn-slot
  // rejection path under TSan.
  TraceRecorderConfig config;
  config.capacity = 256;  // Small ring => constant wraparound.
  TraceRecorder recorder(config);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const SpanEvent& event : recorder.Snapshot()) {
        // quantum == session + 1 and a == 2 * session hold for every
        // untorn event.
        ASSERT_EQ(event.quantum, event.session + 1);
        ASSERT_EQ(event.a, 2 * event.session);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::int64_t tag =
            static_cast<std::int64_t>(t) * kPerThread + i;
        recorder.Record(SpanStage::kExecuting, tag + 1, tag, 2 * tag);
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<SpanEvent> events = recorder.Snapshot();
  EXPECT_EQ(events.size(), recorder.capacity());
  for (const SpanEvent& event : events) {
    EXPECT_EQ(event.quantum, event.session + 1);
    EXPECT_EQ(event.a, 2 * event.session);
  }
}

TEST(TraceRecorderTest, ExemplarsKeepTheSlowestCompletions) {
  TraceRecorderConfig config;
  config.max_exemplars = 4;
  TraceRecorder recorder(config);
  for (std::int64_t i = 1; i <= 100; ++i) {
    SlowQuantumExemplar exemplar;
    exemplar.quantum = i;
    exemplar.session = 1;
    exemplar.e2e_us = i * 10;
    exemplar.exec_us = i * 10;
    recorder.NoteCompletion(exemplar);
  }
  const std::vector<SlowQuantumExemplar> kept = recorder.Exemplars();
  ASSERT_EQ(kept.size(), 4u);
  std::set<std::int64_t> e2e;
  for (const SlowQuantumExemplar& exemplar : kept) {
    e2e.insert(exemplar.e2e_us);
  }
  EXPECT_EQ(e2e, (std::set<std::int64_t>{970, 980, 990, 1000}));
}

TEST(TraceRecorderTest, DumpJsonIsWellFormedish) {
  TraceRecorderConfig config;
  config.capacity = 16;
  TraceRecorder recorder(config);
  recorder.Record(SpanStage::kSubmitted, 1, 1);
  recorder.Record(SpanStage::kCompleted, 1, 1, /*a=*/500);
  const std::string json = recorder.DumpJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"submitted\""), std::string::npos);
  EXPECT_NE(json.find("\"completed\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ---- ServerStatsSnapshot::ToJson ------------------------------------------

TEST(ServerStatsJsonTest, DocumentCarriesStagesBufferFetchAndSessions) {
  server::ServerStatsSnapshot snapshot;
  snapshot.sessions_opened = 2;
  snapshot.submitted = 10;
  snapshot.executed = 8;
  snapshot.deadline_misses = 1;
  {
    Histogram e2e;
    e2e.Record(100);
    e2e.Record(200);
    snapshot.stages.e2e = e2e.Snapshot();
    Histogram queue;
    queue.Record(30);
    snapshot.stages.queue_wait = queue.Snapshot();
  }
  snapshot.per_session[7].executed = 8;
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"executed\":8"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":{\"queue_wait\":"), std::string::npos);
  EXPECT_NE(json.find("\"e2e\":"), std::string::npos);
  EXPECT_NE(json.find("\"buffer\":"), std::string::npos);
  EXPECT_NE(json.find("\"fetch\":"), std::string::npos);
  EXPECT_NE(json.find("\"per_session\":{\"7\":"), std::string::npos);
  // The e2e stage serialised its exact extremes.
  EXPECT_NE(json.find("\"min\":100"), std::string::npos);
  EXPECT_NE(json.find("\"max\":200"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  // Bucket arrays stay opt-in: the default document has no raw buckets.
  EXPECT_EQ(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(snapshot.ToJson(/*include_buckets=*/true).find("\"buckets\""),
            std::string::npos);
}

}  // namespace
}  // namespace dbtouch::obs
