// Server-wide observability for the multi-session touch server: per-touch
// latency percentiles, deadline accounting, load-shedding counters and a
// cross-session fairness figure. Snapshots are coherent copies; nothing
// here hands out live references into worker state.

#ifndef DBTOUCH_SERVER_SERVER_STATS_H_
#define DBTOUCH_SERVER_SERVER_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "sim/virtual_clock.h"

namespace dbtouch::server {

using SessionId = std::int64_t;

/// Per-session roll-up inside a ServerStatsSnapshot.
struct SessionStatsSnapshot {
  std::int64_t submitted = 0;
  std::int64_t executed = 0;
  std::int64_t dropped_quanta = 0;
  std::int64_t deadline_misses = 0;
  /// Quanta that parked on a cold block fetch instead of blocking.
  std::int64_t suspended_quanta = 0;
  /// Sample levels currently being shed for this session (0 = healthy).
  int shed_levels = 0;
  /// Mirrored from the session kernel under its lock.
  std::int64_t touch_events = 0;
  std::int64_t entries_returned = 0;
  std::int64_t rows_scanned = 0;
  /// Deadline-sacred mode: quanta answered coarsely from the resident
  /// sample level at deadline pressure, and refinement quanta completed.
  std::int64_t partial_quanta = 0;
  std::int64_t refined_quanta = 0;
};

/// Shared buffer-manager roll-up inside a ServerStatsSnapshot: how the
/// server-wide block cache (the bounded-memory read path) is behaving.
struct BufferStatsSnapshot {
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  /// Blocks faulted in from a backing store (base table or remote tier).
  std::int64_t faulted_blocks = 0;
  std::int64_t evictions = 0;
  /// Admissions skipped by the gesture-aware scan-bypass policy.
  std::int64_t bypasses = 0;
  /// Bytes currently retained, the high-water mark, and the budget they
  /// are bounded by.
  std::int64_t resident_bytes = 0;
  std::int64_t peak_resident_bytes = 0;
  std::int64_t budget_bytes = 0;
  /// Raw column storage resident OUTSIDE the pool, from
  /// storage::MemoryTracker: table matrices (drops to ~0 for a table
  /// spilled with reclamation) and standalone columns (sample-hierarchy
  /// copies and the like). The pool budget is the real memory ceiling
  /// only when tracked_matrix_bytes of the served tables is gone.
  std::int64_t tracked_matrix_bytes = 0;
  std::int64_t tracked_column_bytes = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Async block-fetch pipeline roll-up: the FetchQueue behind the shared
/// BufferManager plus the server-side suspend/resume accounting.
struct FetchStatsSnapshot {
  /// Quanta that suspended on cold blocks (their worker served other
  /// sessions while the fetch ran) and resumes executed after completion.
  std::int64_t suspended_quanta = 0;
  std::int64_t resumed_quanta = 0;
  /// Demand fetches (a session parked on the block) and low-priority
  /// prefetch warm-ups along the extrapolated slide path.
  std::int64_t demand_fetches = 0;
  std::int64_t prefetch_fetches = 0;
  /// Transient-error retries: async fetcher retries plus retries spent by
  /// inline PinBlock fills (reads no residency probe fronts).
  std::int64_t retries = 0;
  /// Fetches that failed past their bounded retries.
  std::int64_t fetch_errors = 0;
  /// Gesture executions shed because their blocks never arrived.
  std::int64_t shed_on_fetch_error = 0;
  /// Queued demand fetches retracted because their session closed.
  std::int64_t cancelled_fetches = 0;
  /// In-flight fetches whose retry loop a session close cut short (capped
  /// at one attempt instead of a full retry budget).
  std::int64_t aborted_fetches = 0;
  /// Suspend round trips saved by multi-attribute stalls: a fat-table
  /// quantum whose probe missed on N sources suspends once, not N times;
  /// each such suspend adds N - 1 here.
  std::int64_t batched_stall_attrs = 0;
  /// Batched demand fetches: adjacent cold misses coalesced into single
  /// provider range reads by the fetch queue, the blocks those ranged
  /// reads covered, and the payload bytes faulted in from the cold tier
  /// (disk or remote) by the fetch queue.
  std::int64_t ranged_reads = 0;
  std::int64_t ranged_blocks = 0;
  std::int64_t bytes_fetched = 0;
  /// Wall time inside provider fetches (incl. retry backoff).
  sim::Micros fetch_wall_us = 0;
  sim::Micros max_fetch_wall_us = 0;
  /// Smoothed per-block cold-fetch wall (us); what the deadline-sacred
  /// scheduler consults to predict whether a park blows the deadline.
  sim::Micros ewma_block_fetch_us = 0;

  double avg_fetch_ms() const {
    const std::int64_t n = demand_fetches + prefetch_fetches;
    return n == 0 ? 0.0
                  : static_cast<double>(fetch_wall_us) / 1e3 /
                        static_cast<double>(n);
  }
};

/// Where a frame's budget went, across every executed quantum: exact-bucket
/// latency histograms per pipeline stage. The stages partition the
/// end-to-end latency (queue wait + in-kernel execution + parked-on-fetch
/// stall = end-to-end, up to bucket quantisation), so a p99 regression can
/// be attributed to queueing, kernel work or cold fetches instead of being
/// one opaque number.
struct StageLatencySnapshot {
  /// Scheduled release -> first dispatch to a worker.
  obs::HistogramSnapshot queue_wait;
  /// Time inside kernel execution, summed across suspend/resume cycles.
  obs::HistogramSnapshot exec;
  /// Time parked on cold-block fetches (park -> re-dispatch), summed
  /// across cycles; zero for quanta that never suspended.
  obs::HistogramSnapshot fetch_stall;
  /// Scheduled release -> completion: what a live user waited.
  obs::HistogramSnapshot e2e;
  /// Partial answer's touch release -> full-fidelity refinement, per
  /// refinement quantum; empty unless partial_answers is enabled.
  obs::HistogramSnapshot refine;
};

struct ServerStatsSnapshot {
  std::int64_t sessions_opened = 0;
  std::int64_t sessions_active = 0;
  std::int64_t submitted = 0;
  std::int64_t executed = 0;
  /// Quanta discarded outright (admission overflow or hopelessly late).
  std::int64_t dropped_quanta = 0;
  /// Touches that executed but completed after their frame deadline.
  std::int64_t deadline_misses = 0;
  /// Deadline-sacred mode accounting: quanta answered coarsely at
  /// deadline pressure, refinement quanta completed at full fidelity, and
  /// refinements abandoned on permanent fetch failure (the partial answer
  /// stood). All zero with partial_answers off.
  std::int64_t partial_answers = 0;
  std::int64_t refinements = 0;
  std::int64_t refinements_shed = 0;
  /// Latency = completion - scheduled arrival, steady-clock micros.
  /// Derived from stages.e2e (exact-bucket percentiles over EVERY executed
  /// touch — no sample cap, no reservoir bias); kept as top-level fields
  /// because they are the headline numbers.
  sim::Micros p50_latency_us = 0;
  sim::Micros p99_latency_us = 0;
  sim::Micros max_latency_us = 0;
  /// Per-stage latency histograms over all executed touches.
  StageLatencySnapshot stages;
  /// Jain's fairness index over per-session executed touches: 1.0 =
  /// perfectly even service, 1/n = one session starving the rest.
  double fairness = 1.0;
  /// The shared BufferManager all sessions read base data through.
  BufferStatsSnapshot buffer;
  /// The async block-fetch pipeline (zeros while no slow tier is bound).
  FetchStatsSnapshot fetch;
  std::map<SessionId, SessionStatsSnapshot> per_session;

  double miss_rate() const {
    return executed == 0 ? 0.0
                         : static_cast<double>(deadline_misses) /
                               static_cast<double>(executed);
  }

  /// The whole snapshot as one JSON document (counters, buffer/fetch
  /// roll-ups, per-stage histograms, per-session table) — the
  /// machine-readable form BENCH_*.json and postmortem dumps build on.
  /// `include_buckets` adds the sparse bucket arrays of each histogram.
  std::string ToJson(bool include_buckets = false) const;
};

/// Percentile over a scratch copy (nth_element reorders it).
sim::Micros LatencyPercentile(std::vector<sim::Micros> samples, double p);

/// Jain's index (sum x)^2 / (n * sum x^2); 1.0 for empty/uniform input.
double JainFairness(const std::vector<std::int64_t>& executed_per_session);

}  // namespace dbtouch::server

#endif  // DBTOUCH_SERVER_SERVER_STATS_H_
