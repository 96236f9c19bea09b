// touchbench: the socket-to-socket benchmark of the dbTouch serving stack.
//
//   touchbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   touchbench --selftest
//
// One process drives the real stack over loopback sockets: a
// gateway::Gateway in front of a server::TouchServer, loaded by a seeded
// generator of at most four threads with one connection each (many
// sessions share a connection), pinned to one or two CPUs. Every layer is
// measured from outside: calls into public functions are timed, public
// stats are read; nothing under src/ is instrumented for the benchmark.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// once untraced and once with TouchServerConfig::enable_tracing, records
// the benchmark's own spans (ledger.h) and prints the per-layer metrics
// and per-layer self times. Either way the run checks its outputs against
// a standalone core::Kernel replay of the same touches, and the last line
// of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is non-zero when a check fails. See README.md.

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/block_provider.h"
#include "common/logging.h"
#include "common/macros.h"
#include "core/kernel.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "gateway/wire.h"
#include "ledger.h"
#include "load.h"
#include "obs/json.h"
#include "server/frame_scheduler.h"
#include "server/touch_server.h"
#include "storage/datagen.h"
#include "storage/spill.h"

namespace perfbench {
namespace {

using dbtouch::Result;
using dbtouch::Status;
namespace core = dbtouch::core;
namespace gw = dbtouch::gateway;
namespace obs = dbtouch::obs;
namespace server = dbtouch::server;
namespace storage = dbtouch::storage;
namespace cache = dbtouch::cache;

// ---- Fixed shape of the stack and the generator ----------------------------

/// Generator threads; each owns one connection.
constexpr int kConnections = 4;
/// Gateway event loops, server workers and cold-tier fetcher threads. The
/// threads share one or two CPUs (CpuPlan), where a second thread of a
/// kind adds no capacity, only context switches.
constexpr int kGatewayLoops = 1;
constexpr int kWorkers = 1;
constexpr int kFetchers = 1;
/// setup_s is the median of this many full set-ups per run.
constexpr int kSetupRepeats = 9;
constexpr Micros kFrameIntervalUs = 66'667;  // 15 Hz display frames.
constexpr int kTailResults = 16;
/// Every wait for the server to go idle gives up after this long; what is
/// still unaccounted then counts as failed.
constexpr Micros kIdleBoundUs = 10'000'000;
constexpr const char* kColumn = "v";

struct Workload {
  std::string name;
  std::string why;
  int sessions = 0;
  /// Closed-loop bursts of unpaced frames, one per session per burst,
  /// instead of paced 15 Hz frames.
  bool burst = false;
  /// Run the server's workers on CpuPlan::side instead of CpuPlan::main.
  bool worker_own_cpu = false;
  int burst_touches = 0;  // Touches per frame.
  std::int64_t table_rows = 0;
  std::int64_t pool_bytes = 0;
  std::int64_t rows_per_block = 16'384;
  /// Spill the table to disk and free its raw copy, so faults go to
  /// cache::FileBlockProvider.
  bool spill = false;
  ScriptShape shape;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "paced_fleet";
    w.why = "open loop, 256 paced sessions on one in-memory table";
    w.sessions = 256;
    w.table_rows = 1'000'000;
    w.pool_bytes = 64ll << 20;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "scrub_burst";
    w.why = "closed loop, 16 sessions flooding wide summaries";
    w.sessions = 16;
    w.burst = true;
    w.worker_own_cpu = true;
    w.burst_touches = 64;
    w.shape.speed_min_cm_s = 10.0;
    w.shape.speed_max_cm_s = 10.0;
    w.table_rows = 1'000'000;
    w.pool_bytes = 64ll << 20;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "cold_explore";
    w.why = "open loop over a spilled table 8x the buffer pool";
    w.sessions = 80;
    w.table_rows = 9'000'000;
    w.pool_bytes = 8ll << 20;
    w.rows_per_block = 4'096;
    w.spill = true;
    w.shape.region_frac = 0.25;
    w.shape.think_min_s = 0.05;
    w.shape.think_max_s = 0.2;
    out.push_back(w);
  }
  return out;
}

core::ActionConfig ActionFor(const Workload& w, int session_index) {
  if (w.burst) return core::ActionConfig::Summary(4096);
  switch (session_index % 3) {
    case 0:
      return core::ActionConfig::Summary(64);
    case 1:
      return core::ActionConfig::Scan();
    default:
      return core::ActionConfig::Aggregate(dbtouch::exec::AggKind::kAvg);
  }
}

/// Seeded per-session frame phase: sessions do not share one frame grid,
/// so the generator is not asked to send every frame at the same instant.
Micros PhaseFor(std::uint64_t seed, int session_index) {
  dbtouch::Rng rng(seed * 31 + static_cast<std::uint64_t>(session_index) + 7);
  return static_cast<Micros>(rng.NextBounded(kFrameIntervalUs));
}

core::KernelConfig SessionKernelConfig(const Workload& w) {
  core::KernelConfig config;
  config.buffer.budget_bytes = w.pool_bytes;
  config.buffer.rows_per_block = w.rows_per_block;
  config.buffer.fetch.num_fetchers = kFetchers;
  return config;
}

Result<std::shared_ptr<storage::Table>> MakeTable(const Workload& w,
                                                  std::uint64_t seed) {
  std::vector<storage::Column> columns;
  columns.push_back(storage::GenGaussianDouble(kColumn, w.table_rows, 100.0,
                                               15.0, seed));
  return storage::Table::FromColumns(w.name, std::move(columns));
}

// ---- Small measurement helpers ---------------------------------------------

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolated percentile of raw samples (p in [0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Percentile of a server histogram, interpolated by rank inside the
/// bucket HistogramSnapshot::Percentile picks (which reports only the
/// bucket's lower bound).
double HistPercentile(const obs::HistogramSnapshot& h, double p) {
  if (h.count == 0) return 0.0;
  const auto target = static_cast<std::int64_t>(
      std::ceil(p * static_cast<double>(h.count)));
  const std::int64_t rank = std::max<std::int64_t>(target, 1);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    if (seen + h.buckets[i] >= rank) {
      // Zero readings (a quantum that never stalled) stay exactly zero.
      if (i == 0) return 0.0;
      const double lo =
          static_cast<double>(obs::Histogram::BucketLowerBound(i));
      const double hi =
          static_cast<double>(obs::Histogram::BucketLowerBound(i + 1));
      const double frac = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(h.buckets[i]);
      return lo + frac * (hi - lo);
    }
    seen += h.buckets[i];
  }
  return static_cast<double>(h.max);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

/// Where the process's threads run. Left to the kernel across four CPUs,
/// touch_p50_us and the burst rate flipped between levels from run to
/// run: a hand-off between threads had to wake another, possibly halted,
/// virtual CPU, whose latency follows the host's load, and the gateway
/// loop did or did not land on the worker's CPU. So every thread is
/// pinned: on one CPU a hand-off is a context switch on a running CPU. A
/// closed loop's worker gets a CPU of its own, so that admitting a burst
/// does not share time slices with draining it.
struct CpuPlan {
  int main = -1;  // Generator, gateway loop, fetcher; workers by default.
  int side = -1;  // Workers of a workload with Workload::worker_own_cpu.
};

/// The two highest-numbered CPUs the process may use (the same one twice
/// on a one-CPU host).
CpuPlan PlanCpus() {
  CpuPlan plan;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return plan;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      plan.side = plan.main;
      plan.main = c;
    }
  }
  if (plan.side < 0) plan.side = plan.main;
  return plan;
}

/// Pins the calling thread to `cpu`; threads it starts afterwards inherit
/// the mask.
void PinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

// ---- The timed block-provider decorator ------------------------------------

/// Times every backing read of an in-memory column (traced runs only);
/// the bytes served are the inner provider's, unchanged.
class TimedProvider final : public cache::BlockProvider {
 public:
  TimedProvider(std::shared_ptr<cache::BlockProvider> inner,
                SpanBuffer* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  const cache::BlockGeometry& geometry() const override {
    return inner_->geometry();
  }
  const storage::Dictionary* dictionary() const override {
    return inner_->dictionary();
  }
  bool async() const override { return inner_->async(); }

  Result<std::vector<std::byte>> Fetch(std::int64_t block) override {
    const std::int64_t start = NowNs();
    auto out = inner_->Fetch(block);
    Note(block, start);
    return out;
  }
  Result<std::vector<std::byte>> ReadRange(std::int64_t first,
                                           std::int64_t count) override {
    const std::int64_t start = NowNs();
    auto out = inner_->ReadRange(first, count);
    Note(first, start);
    return out;
  }

  std::int64_t reads() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(read_us_.size());
  }
  double read_us_p99() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return Percentile(read_us_, 0.99);
  }

 private:
  void Note(std::int64_t block, std::int64_t start) {
    const std::int64_t end = NowNs();
    const std::lock_guard<std::mutex> lock(mu_);
    read_us_.push_back(static_cast<double>(end - start) / 1e3);
    spans_->Add("cache.provider_read", block, start, end);
  }

  std::shared_ptr<cache::BlockProvider> inner_;
  mutable std::mutex mu_;
  std::vector<double> read_us_;
  SpanBuffer* spans_;
};

// ---- The stack under test --------------------------------------------------

struct SessionRef {
  int index = 0;
  api::SessionId id = 0;
  int conn = 0;
  core::ActionConfig action;
  /// Where the session's script starts on the run clock.
  Micros start_us = 0;
  /// Touches sent so far: the prefix of the script the server saw.
  std::int64_t touches_sent = 0;
};

struct Stack {
  std::unique_ptr<server::TouchServer> server;
  std::unique_ptr<gw::Gateway> gateway;
  std::vector<std::unique_ptr<gw::Client>> clients;
  std::vector<SessionRef> sessions;
  std::shared_ptr<storage::Table> table;
  std::shared_ptr<TimedProvider> provider;
  double spill_s = 0.0;
  std::int64_t spill_bytes = 0;
  double setup_s = 0.0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Connections first (their sessions close), then the gateway, then the
  /// server — the reverse of set-up.
  ~Stack() {
    clients.clear();
    if (gateway != nullptr) (void)gateway->Stop();
    if (server != nullptr) (void)server->Stop();
  }
};

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::string out_dir;
  CpuPlan cpus;
  bool traced = false;
  Ledger* ledger = nullptr;
};

Result<std::unique_ptr<Stack>> SetUp(const RunOptions& opt) {
  const Workload& w = *opt.workload;
  const std::int64_t t0 = NowNs();
  auto stack = std::make_unique<Stack>();
  Stack& st = *stack;
  DBTOUCH_ASSIGN_OR_RETURN(st.table, MakeTable(w, opt.seed));

  server::TouchServerConfig config;
  config.num_workers = kWorkers;
  config.session_defaults = SessionKernelConfig(w);
  config.enable_tracing = opt.traced;
  config.trace.capacity = 1u << 18;
  st.server = std::make_unique<server::TouchServer>(config);
  DBTOUCH_RETURN_IF_ERROR(st.server->RegisterTable(st.table));

  if (w.spill) {
    // Build the shared hierarchy over the raw column first, then spill and
    // reclaim before any session binds the table (no session disruption).
    DBTOUCH_RETURN_IF_ERROR(
        st.server->shared().GetOrBuildHierarchy(w.name, 0).status());
    const std::string dir = opt.out_dir + "/spill-" + w.name;
    ::mkdir(dir.c_str(), 0755);
    storage::SpillOptions spill;
    spill.rows_per_block = w.rows_per_block;
    storage::TableSpiller spiller(dir, spill);
    SpanBuffer* spans = opt.traced ? opt.ledger->NewBuffer() : nullptr;
    const std::int64_t s0 = NowNs();
    DBTOUCH_RETURN_IF_ERROR(
        st.server->shared().SpillTable(w.name, spiller, /*reclaim_raw=*/true));
    const std::int64_t s1 = NowNs();
    if (spans != nullptr) spans->Add("storage.spill", 0, s0, s1);
    st.spill_s = Seconds(s1 - s0);
    st.spill_bytes = spiller.bytes_written();
    // Flush the spill now, in set-up, rather than as background writeback
    // in the middle of the measured run.
    if (const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  } else if (opt.traced) {
    st.provider = std::make_shared<TimedProvider>(
        std::make_shared<cache::TableBlockProvider>(st.table, 0,
                                                    w.rows_per_block),
        opt.ledger->NewBuffer());
    DBTOUCH_RETURN_IF_ERROR(
        st.server->shared().SetColumnProvider(w.name, 0, st.provider));
  }

  // Workers inherit the CPU of the thread that starts them.
  PinTo(w.worker_own_cpu ? opt.cpus.side : opt.cpus.main);
  const Status started = st.server->Start();
  PinTo(opt.cpus.main);
  DBTOUCH_RETURN_IF_ERROR(started);

  gw::GatewayConfig gconfig;
  gconfig.num_loops = kGatewayLoops;
  st.gateway = std::make_unique<gw::Gateway>(*st.server, gconfig);
  DBTOUCH_RETURN_IF_ERROR(st.gateway->Start());
  for (int c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<gw::Client>();
    DBTOUCH_RETURN_IF_ERROR(client->Connect("127.0.0.1", st.gateway->port()));
    st.clients.push_back(std::move(client));
  }
  for (int i = 0; i < w.sessions; ++i) {
    SessionRef ref;
    ref.index = i;
    ref.conn = i % kConnections;
    ref.action = ActionFor(w, i);
    ref.start_us = w.burst ? 0 : PhaseFor(opt.seed, i);
    gw::Client& client = *st.clients[static_cast<std::size_t>(ref.conn)];
    DBTOUCH_ASSIGN_OR_RETURN(const api::OpenSessionResp open,
                             client.OpenSession());
    ref.id = open.session;
    api::CreateObjectReq create;
    create.session = ref.id;
    create.table = w.name;
    create.column = kColumn;
    create.frame = kObjectFrame;
    DBTOUCH_ASSIGN_OR_RETURN(const api::CreateObjectResp object,
                             client.CreateObject(create));
    api::SetActionReq set;
    set.session = ref.id;
    set.object = object.object;
    set.action = ToWireAction(ref.action);
    DBTOUCH_RETURN_IF_ERROR(client.SetAction(set).status());
    st.sessions.push_back(ref);
  }
  st.setup_s = Seconds(NowNs() - t0);
  return stack;
}

SessionScript ScriptFor(const RunOptions& opt, const SessionRef& s) {
  return SessionScript(opt.seed, s.index, opt.workload->shape,
                       core::KernelConfig{}.device, s.start_us);
}

// ---- Load generation -------------------------------------------------------

struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// The part of the window the server had work: all of it in a paced
  /// run, the bursts without the idle gaps between them in a closed loop.
  std::int64_t busy_ns = 0;
  /// End-to-end latency of the touches completed in the window.
  obs::HistogramSnapshot e2e;
};

/// `now` minus `before`: the counts recorded in between.
obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& now,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = now;
  d.count -= before.count;
  d.sum -= before.sum;
  for (std::size_t i = 0; i < d.buckets.size() && i < before.buckets.size();
       ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  return d;
}

/// Cuts windows off the server's cumulative end-to-end histogram.
class WindowCutter {
 public:
  explicit WindowCutter(server::TouchServer& server)
      : server_(server),
        last_(server.stats().stages.e2e),
        last_ns_(NowNs()) {}

  void Cut(std::vector<Window>& out) {
    obs::HistogramSnapshot now = server_.stats().stages.e2e;
    const std::int64_t now_ns = NowNs();
    out.push_back(
        Window{last_ns_, now_ns, now_ns - last_ns_, Delta(now, last_)});
    last_ = std::move(now);
    last_ns_ = now_ns;
  }

  /// Starts the next window now, without recording the time since the
  /// last cut.
  void Skip() {
    last_ = server_.stats().stages.e2e;
    last_ns_ = NowNs();
  }

 private:
  server::TouchServer& server_;
  obs::HistogramSnapshot last_;
  std::int64_t last_ns_;
};

/// What the generator saw of one run.
struct LoadResult {
  std::int64_t attempted = 0;  // Touches sent.
  std::int64_t rejected = 0;
  std::int64_t errors = 0;     // Touches in frames whose call failed.
  std::int64_t unaccounted = 0;
  double wall_s = 0.0;         // Paced: the replay; bursts: sum of bursts.
  std::vector<double> lag_us;  // Lateness of each send vs its schedule.
  std::vector<double> rtt_us;  // SubmitBatch round trip.
  std::vector<double> ack_us;  // Scheduled send -> SubmitBatchResp.
  /// The run cut into windows (paced: fixed spans of the replay; closed
  /// loop: kBurstsPerWindow bursts each). Timed end-to-end metrics are
  /// medians over windows, so a passing hiccup on a shared host moves one
  /// window, not the run's figure.
  std::vector<Window> windows;
  /// Windows that start earlier are warm-up and left out of the medians.
  std::int64_t timed_from_ns = 0;
  /// Frames sampled for the standalone codec / admit measurements.
  std::vector<std::pair<std::int64_t, api::SubmitBatchReq>> sample;
};

/// Per-thread share of a LoadResult, merged after the threads join.
struct ThreadTally {
  std::int64_t attempted = 0, rejected = 0, errors = 0;
  std::vector<double> lag_us, rtt_us, ack_us;
  SpanBuffer* spans = nullptr;

  void Merge(LoadResult& r) const {
    r.attempted += attempted;
    r.rejected += rejected;
    r.errors += errors;
    r.lag_us.insert(r.lag_us.end(), lag_us.begin(), lag_us.end());
    r.rtt_us.insert(r.rtt_us.end(), rtt_us.begin(), rtt_us.end());
    r.ack_us.insert(r.ack_us.end(), ack_us.begin(), ack_us.end());
  }
};

/// Books one frame's answer: it was due at `due_ns`, left at `before`
/// and was answered at `after`.
void NoteFrame(const api::SubmitBatchReq& req,
               const Result<api::SubmitBatchResp>& resp, std::int64_t frame_id,
               std::int64_t due_ns, std::int64_t before, std::int64_t after,
               ThreadTally& t) {
  t.attempted += static_cast<std::int64_t>(req.events.size());
  if (!resp.ok()) {
    t.errors += static_cast<std::int64_t>(req.events.size());
    return;
  }
  t.rejected += resp->rejected;
  t.lag_us.push_back(static_cast<double>(before - due_ns) / 1e3);
  t.rtt_us.push_back(static_cast<double>(after - before) / 1e3);
  t.ack_us.push_back(static_cast<double>(after - due_ns) / 1e3);
  if (t.spans != nullptr) {
    const std::int32_t root = t.spans->Add("gen.frame", frame_id, due_ns, after);
    t.spans->Add("gateway.client_submit", frame_id, before, after, root);
  }
}

/// Sends one frame and waits for its answer; `due_ns` is when it was
/// scheduled to leave.
void SendFrame(gw::Client& client, const api::SubmitBatchReq& req,
               std::int64_t frame_id, std::int64_t due_ns, ThreadTally& t) {
  const std::int64_t before = NowNs();
  const auto resp = client.SubmitBatch(req);
  NoteFrame(req, resp, frame_id, due_ns, before, NowNs(), t);
}

/// Reads the answer to a pipelined SubmitBatch frame.
Result<api::SubmitBatchResp> ReadSubmitResponse(gw::Client& client) {
  gw::FrameHeader header;
  DBTOUCH_ASSIGN_OR_RETURN(const std::string payload,
                           client.TryReadFrame(&header));
  DBTOUCH_ASSIGN_OR_RETURN(const gw::ResponseEnvelope envelope,
                           gw::DecodeResponsePayload(payload));
  if (envelope.code != api::WireCode::kOk) {
    return api::StatusFromWire(envelope.code, envelope.message);
  }
  api::SubmitBatchResp resp;
  gw::WireReader reader(envelope.body);
  DBTOUCH_RETURN_IF_ERROR(gw::Decode(reader, &resp));
  return resp;
}

/// Runs fn(c) for every connection c, one thread each (the caller's
/// thread takes connection 0), and joins them.
template <typename Fn>
void ForEachConnection(Fn&& fn) {
  std::vector<std::thread> threads;
  for (int c = 1; c < kConnections; ++c) threads.emplace_back(fn, c);
  fn(0);
  for (std::thread& t : threads) t.join();
}

/// Polls Stats over the wire until the server is idle or the bound runs
/// out. Connections must stay open meanwhile: closing one closes its
/// sessions and drops their queued touches.
api::StatsResp WaitIdleBounded(gw::Client& client, Micros poll_us,
                               bool* idle) {
  const std::int64_t give_up = NowNs() + kIdleBoundUs * 1000;
  api::StatsResp last;
  *idle = false;
  while (NowNs() < give_up) {
    auto stats = client.Stats();
    if (!stats.ok()) return last;
    last = *stats;
    if (last.idle()) {
      *idle = true;
      return last;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(poll_us));
  }
  return last;
}

std::int64_t Unaccounted(const api::StatsResp& s) {
  return std::max<std::int64_t>(
      0, s.submitted - s.executed - s.dropped_quanta);
}

/// Frames of each run kept for the standalone codec and admit timings.
constexpr std::size_t kSampleFrames = 512;
/// Window length of paced runs.
constexpr std::int64_t kWindowNs = 500'000'000;
/// The first stretch of every run warms the stack up (caches, allocator,
/// result streams) and is not timed.
constexpr std::int64_t kWarmupNs = 2'000'000'000;
/// Closed loop: one burst starts every period (or as soon as the previous
/// one drained, if it ran longer), so a run sends a fixed number of
/// touches whatever the speed — and the server's per-session result
/// streams, which grow with every touch, stay a fixed size.
constexpr std::int64_t kBurstPeriodNs = 100'000'000;
/// Closed loop: bursts per window, so each window holds enough touches
/// (4 x 1024) for its p99 to rest on some forty of them.
constexpr int kBurstsPerWindow = 4;

LoadResult RunPaced(const RunOptions& opt, Stack& st, double seconds) {
  const Micros horizon = static_cast<Micros>(seconds * 1e6);
  // Cut every session's script into frames up front (not timed).
  std::vector<std::vector<PacedFrame>> frames(st.sessions.size());
  for (SessionRef& s : st.sessions) {
    SessionScript script = ScriptFor(opt, s);
    frames[s.index] =
        CutPacedFrames(script, kFrameIntervalUs, s.start_us, horizon);
    for (PacedFrame& f : frames[s.index]) {
      f.req.session = s.id;
      s.touches_sent += static_cast<std::int64_t>(f.req.events.size());
    }
  }
  LoadResult result;
  for (std::size_t f = 0; result.sample.size() < kSampleFrames; ++f) {
    bool any = false;
    for (const SessionRef& s : st.sessions) {
      if (f < frames[s.index].size() &&
          result.sample.size() < kSampleFrames) {
        result.sample.emplace_back(
            static_cast<std::int64_t>(s.index) * 1'000'000 + f,
            frames[s.index][f].req);
        any = true;
      }
    }
    if (!any) break;
  }

  std::vector<ThreadTally> tallies(kConnections);
  for (ThreadTally& t : tallies) {
    if (opt.traced) t.spans = opt.ledger->NewBuffer();
  }
  // Start a little in the future so every thread is ready at t = 0.
  const std::int64_t epoch_ns = NowNs() + 20'000'000;
  result.timed_from_ns = epoch_ns + kWarmupNs;
  WindowCutter cutter(*st.server);
  ForEachConnection([&](int c) {
    struct Slot {
      Micros at;
      int session;
      std::size_t frame;
    };
    std::vector<Slot> schedule;
    for (const SessionRef& s : st.sessions) {
      if (s.conn != c) continue;
      for (std::size_t f = 0; f < frames[s.index].size(); ++f) {
        schedule.push_back(Slot{frames[s.index][f].send_us, s.index, f});
      }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Slot& a, const Slot& b) { return a.at < b.at; });
    ThreadTally& t = tallies[static_cast<std::size_t>(c)];
    gw::Client& client = *st.clients[static_cast<std::size_t>(c)];
    std::int64_t next_window_ns = epoch_ns + kWindowNs;
    for (const Slot& slot : schedule) {
      const std::int64_t due = epoch_ns + slot.at * 1000;
      std::int64_t now = NowNs();
      if (c == 0 && now >= next_window_ns) {
        cutter.Cut(result.windows);
        next_window_ns += kWindowNs;
        now = NowNs();
      }
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      SendFrame(client, frames[slot.session][slot.frame].req,
                static_cast<std::int64_t>(slot.session) * 1'000'000 +
                    static_cast<std::int64_t>(slot.frame),
                due, t);
    }
  });
  result.wall_s = Seconds(NowNs() - epoch_ns);
  for (const ThreadTally& t : tallies) t.Merge(result);
  bool idle = false;
  const api::StatsResp last = WaitIdleBounded(*st.clients[0], 1000, &idle);
  if (!idle) result.unaccounted = Unaccounted(last);
  cutter.Cut(result.windows);  // The last stretch and the drain.
  return result;
}

LoadResult RunBursts(const RunOptions& opt, Stack& st, double seconds) {
  const Workload& w = *opt.workload;
  std::vector<SessionScript> scripts;
  for (const SessionRef& s : st.sessions) scripts.push_back(ScriptFor(opt, s));
  LoadResult result;
  {
    // The first frames each session will send, for the codec / admit
    // measurements (drawn from copies of the scripts).
    std::vector<SessionScript> copies = scripts;
    for (int f = 0; result.sample.size() < kSampleFrames; ++f) {
      for (const SessionRef& s : st.sessions) {
        api::SubmitBatchReq req =
            NextBurstFrame(copies[s.index], w.burst_touches);
        req.session = s.id;
        result.sample.emplace_back(
            static_cast<std::int64_t>(s.index) * 1'000'000 + f, req);
      }
    }
  }
  std::vector<ThreadTally> tallies(kConnections);
  for (ThreadTally& t : tallies) {
    if (opt.traced) t.spans = opt.ledger->NewBuffer();
  }
  std::vector<std::int64_t> frames_sent(st.sessions.size(), 0);
  const std::int64_t begin_ns = NowNs();
  result.timed_from_ns = begin_ns + kWarmupNs;
  const auto bursts = static_cast<std::int64_t>(seconds * 1e9) / kBurstPeriodNs;
  std::int64_t busy_ns = 0;
  std::int64_t window_busy_ns = 0;
  WindowCutter cutter(*st.server);
  for (std::int64_t b = 0; b < bursts; ++b) {
    const std::int64_t due = begin_ns + b * kBurstPeriodNs;
    if (due > NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    // Every frame of the burst is encoded up front, then each connection
    // writes its frames in one go (pipelined) and reads the answers: the
    // whole burst is queued within a few round trips, so the burst
    // measures the server draining it, not the generator feeding it.
    std::vector<std::vector<std::pair<std::int64_t, api::SubmitBatchReq>>>
        frames(kConnections);
    std::vector<std::string> wire(kConnections);
    for (SessionRef& s : st.sessions) {
      api::SubmitBatchReq req =
          NextBurstFrame(scripts[s.index], w.burst_touches);
      req.session = s.id;
      s.touches_sent += w.burst_touches;
      const std::int64_t frame_id =
          static_cast<std::int64_t>(s.index) * 1'000'000 +
          frames_sent[s.index]++;
      wire[s.conn] += gw::EncodeRequestFrame(
          gw::MessageType::kSubmitBatch,
          static_cast<std::uint32_t>(frame_id), req);
      frames[s.conn].emplace_back(frame_id, std::move(req));
    }
    // A window spans kBurstsPerWindow bursts; the idle gap before its first
    // burst is left out of it.
    if (b % kBurstsPerWindow == 0) cutter.Skip();
    const std::int64_t start = NowNs();
    ForEachConnection([&](int c) {
      ThreadTally& t = tallies[static_cast<std::size_t>(c)];
      gw::Client& client = *st.clients[static_cast<std::size_t>(c)];
      const std::int64_t before = NowNs();
      const Status sent = client.SendRaw(wire[c]);
      for (const auto& [frame_id, req] : frames[c]) {
        const Result<api::SubmitBatchResp> resp =
            sent.ok() ? ReadSubmitResponse(client)
                      : Result<api::SubmitBatchResp>(sent);
        // Closed loop: every frame is due the moment the burst starts.
        NoteFrame(req, resp, frame_id, start, before, NowNs(), t);
      }
    });
    bool idle = false;
    const api::StatsResp last = WaitIdleBounded(*st.clients[0], 50, &idle);
    const std::int64_t burst_ns = NowNs() - start;
    busy_ns += burst_ns;
    window_busy_ns += burst_ns;
    if (!idle || (b + 1) % kBurstsPerWindow == 0 || b + 1 == bursts) {
      cutter.Cut(result.windows);
      result.windows.back().busy_ns = window_busy_ns;
      window_busy_ns = 0;
    }
    if (!idle) {
      result.unaccounted = Unaccounted(last);
      break;
    }
  }
  result.wall_s = Seconds(busy_ns);
  for (const ThreadTally& t : tallies) t.Merge(result);
  return result;
}

// ---- Output checks ---------------------------------------------------------

struct SessionView {
  api::SessionSnapshotResp snap;
  bool verifiable = false;  // Never shed, never dropped: exact replay.
};

struct Verdict {
  int verified = 0;
  int skipped = 0;
  int mismatched = 0;
  std::vector<std::string> problems;
  double kernel_ns_per_touch = 0.0;
};

bool SameResult(const core::ResultItem& a, const api::ResultInfo& b) {
  const double av = a.value.is_string() ? 0.0 : a.value.ToDouble();
  return a.object == b.object && static_cast<std::uint8_t>(a.kind) == b.kind &&
         a.row == b.row &&
         std::memcmp(&av, &b.value, sizeof(double)) == 0 &&
         a.approximate == b.approximate && a.partial == b.partial;
}

/// Replays one session's touches through a standalone kernel on `shared`
/// and compares counters and the result tail with the server's snapshot.
/// Returns an empty string on a match.
std::string ReplayAndCompare(const RunOptions& opt, const SessionRef& s,
                             const api::SessionSnapshotResp& snap,
                             const std::shared_ptr<core::SharedState>& shared,
                             SpanBuffer* spans, std::int64_t* on_touch_ns) {
  core::KernelConfig config = SessionKernelConfig(*opt.workload);
  config.rotation_trigger_rad = 1e9;  // As TouchServer opens sessions.
  core::Kernel kernel(config, shared);
  auto object = kernel.CreateColumnObject(
      opt.workload->name, kColumn,
      dbtouch::touch::RectCm{kObjectFrame.x, kObjectFrame.y,
                             kObjectFrame.width, kObjectFrame.height});
  if (!object.ok()) return object.status().ToString();
  Status set = kernel.SetAction(*object, s.action);
  if (!set.ok()) return set.ToString();
  SessionScript script = ScriptFor(opt, s);
  // Results are counted and their tail kept; the rest is dropped as the
  // replay goes so the check runs in bounded memory.
  std::int64_t results = 0;
  std::vector<core::ResultItem> tail;
  auto fold = [&] {
    const auto& items = kernel.results().items();
    results += static_cast<std::int64_t>(items.size());
    tail.insert(tail.end(), items.begin(), items.end());
    if (tail.size() > kTailResults) {
      tail.erase(tail.begin(), tail.end() - kTailResults);
    }
    kernel.results().Clear();
  };
  for (std::int64_t i = 0; i < s.touches_sent; ++i) {
    const dbtouch::sim::TouchEvent e = script.Next();
    const std::int64_t t0 = NowNs();
    kernel.OnTouch(e);
    const std::int64_t t1 = NowNs();
    *on_touch_ns += t1 - t0;
    if (spans != nullptr) spans->Add("core.kernel_on_touch", i, t0, t1);
    if (kernel.results().size() >= 4096) fold();
  }
  fold();
  const core::KernelStats& k = kernel.stats();
  if (k.touch_events != snap.touch_events) {
    return "touch count " + std::to_string(snap.touch_events) +
           " != replay " + std::to_string(k.touch_events);
  }
  if (k.entries_returned != snap.entries_returned) {
    return "entries " + std::to_string(snap.entries_returned) +
           " != replay " + std::to_string(k.entries_returned);
  }
  if (results != snap.result_count) {
    return "results " + std::to_string(snap.result_count) + " != replay " +
           std::to_string(results);
  }
  if (tail.size() != snap.results.size()) return "result tail length";
  for (std::size_t i = 0; i < tail.size(); ++i) {
    if (!SameResult(tail[i], snap.results[i])) {
      return "result tail differs at " + std::to_string(i);
    }
  }
  return "";
}

Verdict Verify(const RunOptions& opt, const Stack& st,
               const std::vector<SessionView>& views,
               const std::shared_ptr<storage::Table>& table) {
  Verdict v;
  auto shared = std::make_shared<core::SharedState>(
      core::KernelConfig{}.sampling, /*force_eager=*/true,
      SessionKernelConfig(*opt.workload).buffer);
  if (Status s = shared->RegisterTable(table); !s.ok()) {
    v.problems.push_back("replay table: " + s.ToString());
    ++v.mismatched;
    return v;
  }
  std::vector<int> todo;
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (views[i].verifiable) {
      todo.push_back(static_cast<int>(i));
    } else {
      ++v.skipped;
    }
  }
  // Built once up front so no replay pays for it.
  if (auto h = shared->GetOrBuildHierarchy(opt.workload->name, 0); !h.ok()) {
    v.problems.push_back("replay hierarchy: " + h.status().ToString());
    ++v.mismatched;
    return v;
  }
  std::mutex mu;
  auto check = [&](int i, SpanBuffer* spans, std::int64_t* on_touch_ns) {
    const std::string problem = ReplayAndCompare(
        opt, st.sessions[i], views[i].snap, shared, spans, on_touch_ns);
    const std::lock_guard<std::mutex> lock(mu);
    if (problem.empty()) {
      ++v.verified;
    } else {
      ++v.mismatched;
      if (v.problems.size() < 8) {
        v.problems.push_back("session " + std::to_string(i) + ": " + problem);
      }
    }
  };
  if (todo.empty()) return v;
  // The first sessions replay alone, timed, until enough touches were
  // seen: the standalone kernel's cost per touch.
  constexpr std::int64_t kTimedTouches = 2'000;
  SpanBuffer* kernel_spans = opt.traced ? opt.ledger->NewBuffer() : nullptr;
  std::int64_t on_touch_ns = 0;
  std::int64_t timed_touches = 0;
  std::size_t next = 0;
  while (next < todo.size() && timed_touches < kTimedTouches) {
    check(todo[next], kernel_spans, &on_touch_ns);
    timed_touches += st.sessions[todo[next]].touches_sent;
    ++next;
  }
  v.kernel_ns_per_touch = Ratio(static_cast<double>(on_touch_ns),
                                static_cast<double>(timed_touches));
  std::mutex next_mu;
  ForEachConnection([&](int) {
    std::int64_t ignored = 0;
    while (true) {
      int i = -1;
      {
        const std::lock_guard<std::mutex> lock(next_mu);
        if (next >= todo.size()) return;
        i = todo[next++];
      }
      check(i, nullptr, &ignored);
    }
  });
  return v;
}

// ---- One measured phase ----------------------------------------------------

struct Phase {
  bool ok = true;
  std::vector<std::string> problems;
  LoadResult load;
  server::ServerStatsSnapshot stats;
  api::StatsResp wire_stats;
  gw::GatewayStatsSnapshot gw_before, gw_after;
  std::vector<SessionView> views;
  Verdict verdict;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  double spill_s = 0.0;
  std::int64_t spill_bytes = 0;
  // Traced extras.
  double codec_ns_per_frame = 0.0;
  double admit_us_per_frame = 0.0;
  double sched_ns_per_quantum = 0.0;
  std::int64_t provider_reads = 0;
  double provider_read_us_p99 = 0.0;
  double prefetch_claim_rate = 0.0;
  cache::FetchQueueStats fetch_queue;
  std::string server_trace_json;
  // Sums over session snapshots.
  std::int64_t touch_events = 0, entries = 0, rows_scanned = 0,
               suspensions = 0;
  double summary_entries_per_touch = 0.0;

  void Fail(std::string what) {
    ok = false;
    problems.push_back(std::move(what));
  }
};

double TimeCodec(const LoadResult& load, SpanBuffer* spans) {
  std::int64_t total = 0;
  std::size_t frames = 0;
  for (const auto& [id, req] : load.sample) {
    const std::int32_t root = spans->Open("codec.frame", id);
    const std::int64_t t0 = NowNs();
    std::int32_t span = spans->Open("codec.encode_request", id, root);
    const std::string frame = gw::EncodeRequestFrame(
        gw::MessageType::kSubmitBatch, static_cast<std::uint32_t>(id), req);
    spans->Close(span);
    span = spans->Open("codec.decode_request", id, root);
    api::SubmitBatchReq decoded;
    auto header = gw::DecodeHeader(frame);
    gw::WireReader reader(std::string_view(frame).substr(gw::kFrameHeaderBytes));
    const bool req_ok = header.ok() && gw::Decode(reader, &decoded).ok();
    spans->Close(span);
    span = spans->Open("codec.encode_response", id, root);
    api::SubmitBatchResp resp;
    resp.accepted = static_cast<std::int64_t>(decoded.events.size());
    const std::string out = gw::EncodeResponseFrame(
        gw::MessageType::kSubmitBatch, static_cast<std::uint32_t>(id), resp);
    spans->Close(span);
    span = spans->Open("codec.decode_response", id, root);
    auto envelope = gw::DecodeResponsePayload(
        std::string_view(out).substr(gw::kFrameHeaderBytes));
    api::SubmitBatchResp back;
    bool resp_ok = envelope.ok();
    if (resp_ok) {
      gw::WireReader r(envelope->body);
      resp_ok = gw::Decode(r, &back).ok();
    }
    spans->Close(span);
    spans->Close(root);
    total += NowNs() - t0;
    ++frames;
    if (!req_ok || !resp_ok || !(decoded == req) || !(back == resp)) return -1;
  }
  return Ratio(static_cast<double>(total), static_cast<double>(frames));
}

/// Times in-process TouchServer::Call(SubmitBatchReq) on the run's frames,
/// retargeted at fresh sessions opened for the purpose (closed after, which
/// drops what they queued).
Result<double> TimeAdmit(const RunOptions& opt, Stack& st,
                         const LoadResult& load, SpanBuffer* spans) {
  constexpr int kAdmitSessions = 16;
  std::vector<api::SessionId> ids;
  for (int i = 0; i < kAdmitSessions; ++i) {
    DBTOUCH_ASSIGN_OR_RETURN(const api::OpenSessionResp open,
                             st.server->Call(api::OpenSessionReq{}));
    api::CreateObjectReq create;
    create.session = open.session;
    create.table = opt.workload->name;
    create.column = kColumn;
    create.frame = kObjectFrame;
    DBTOUCH_ASSIGN_OR_RETURN(const api::CreateObjectResp object,
                             st.server->Call(create));
    api::SetActionReq set;
    set.session = open.session;
    set.object = object.object;
    set.action = ToWireAction(ActionFor(*opt.workload, i));
    DBTOUCH_RETURN_IF_ERROR(st.server->Call(set).status());
    ids.push_back(open.session);
  }
  std::int64_t total = 0;
  std::size_t n = 0;
  for (const auto& [id, frame] : load.sample) {
    api::SubmitBatchReq req = frame;
    req.session = ids[n % ids.size()];
    const std::int32_t span = spans->Open("server.admit", id);
    const std::int64_t t0 = NowNs();
    auto resp = st.server->Call(req);
    total += NowNs() - t0;
    spans->Close(span);
    DBTOUCH_RETURN_IF_ERROR(resp.status());
    ++n;
  }
  for (const api::SessionId id : ids) {
    api::CloseSessionReq close;
    close.session = id;
    DBTOUCH_RETURN_IF_ERROR(st.server->Call(close).status());
  }
  return Ratio(static_cast<double>(total) / 1e3, static_cast<double>(n));
}

/// Push / PopRunnable / OnTaskDone on a standalone FrameScheduler holding
/// the workload's session count.
double TimeScheduler(int sessions, SpanBuffer* spans) {
  constexpr int kQuanta = 20'000;
  server::FrameScheduler sched;
  const Micros now = server::SteadyNowUs();
  std::int64_t total = 0;
  for (int q = 0; q < kQuanta; ++q) {
    server::TouchTask task;
    task.session_id = q % sessions;
    task.release_us = now - 1;
    task.deadline_us = now + q;
    task.budget_us = kFrameIntervalUs;
    task.droppable = true;
    const std::int32_t span = spans->Open("server.sched_push", q);
    const std::int64_t t0 = NowNs();
    sched.Push(task);
    total += NowNs() - t0;
    spans->Close(span);
  }
  for (int q = 0; q < kQuanta; ++q) {
    std::int32_t span = spans->Open("server.sched_pop", q);
    std::int64_t t0 = NowNs();
    const auto task = sched.PopRunnable();
    total += NowNs() - t0;
    spans->Close(span);
    if (!task.has_value()) break;
    span = spans->Open("server.sched_done", q);
    t0 = NowNs();
    sched.OnTaskDone(task->session_id);
    total += NowNs() - t0;
    spans->Close(span);
  }
  return static_cast<double>(total) / kQuanta;
}

/// Spill timing for workloads that serve from memory: the table streamed
/// through a standalone TableSpiller (not bound to the server).
void TimeStandaloneSpill(const RunOptions& opt, const Stack& st, Phase& ph,
                         SpanBuffer* spans) {
  const std::string dir = opt.out_dir + "/spill-" + opt.workload->name;
  ::mkdir(dir.c_str(), 0755);
  storage::SpillOptions spill;
  spill.rows_per_block = opt.workload->rows_per_block;
  storage::TableSpiller spiller(dir, spill);
  const std::int64_t t0 = NowNs();
  const auto provider = spiller.SpillColumn(st.table, 0);
  const std::int64_t t1 = NowNs();
  spans->Add("storage.spill", 0, t0, t1);
  if (!provider.ok()) {
    ph.Fail("standalone spill: " + provider.status().ToString());
    return;
  }
  ph.spill_s = Seconds(t1 - t0);
  ph.spill_bytes = spiller.bytes_written();
}

/// Provider reads and read-latency p99 of the spilled tier, from the fetch
/// queue's counters and the server trace's fetch-done spans (a decorator
/// bound after the reclaim would split the pool's block namespace and
/// change what is served).
void ColdProviderStats(const Stack& st, Phase& ph) {
  const cache::FetchQueueStats& f = ph.fetch_queue;
  ph.provider_reads = f.completed - f.ranged_blocks + f.ranged_reads;
  std::vector<double> wall;
  if (const obs::TraceRecorder* trace = st.server->trace_recorder()) {
    for (const obs::SpanEvent& e : trace->Snapshot()) {
      if (e.stage == obs::SpanStage::kFetchDone) {
        wall.push_back(static_cast<double>(e.b));
      }
    }
  }
  ph.provider_read_us_p99 = Percentile(std::move(wall), 0.99);
}

Phase RunPhase(const RunOptions& opt, double seconds, int setups) {
  Phase ph;
  const Workload& w = *opt.workload;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < setups; ++r) {
    // Tear the previous stack down before the next set-up reuses its
    // spill files and memory.
    stack.reset();
    auto next = SetUp(opt);
    if (!next.ok()) {
      ph.Fail("set-up: " + next.status().ToString());
      return ph;
    }
    stack = std::move(*next);
    ph.setup_s.push_back(stack->setup_s);
  }
  Stack& st = *stack;
  ph.spill_s = st.spill_s;
  ph.spill_bytes = st.spill_bytes;

  ph.gw_before = st.gateway->stats();
  ph.load = w.burst ? RunBursts(opt, st, seconds) : RunPaced(opt, st, seconds);
  ph.gw_after = st.gateway->stats();
  ph.peak_rss_mb = PeakRssMb();

  if (ph.load.errors > 0) {
    ph.Fail(std::to_string(ph.load.errors) + " touches in failed calls");
  }
  if (ph.load.unaccounted > 0) {
    ph.Fail(std::to_string(ph.load.unaccounted) +
            " touches unaccounted at the idle bound");
  }
  auto wire = st.clients[0]->Stats();
  if (!wire.ok()) {
    ph.Fail("stats: " + wire.status().ToString());
    return ph;
  }
  ph.wire_stats = *wire;
  ph.stats = st.server->stats();
  ph.fetch_queue = st.server->shared().buffer_manager().fetch_stats();
  ph.prefetch_claim_rate =
      st.server->shared().buffer_manager().prefetch_claim_rate();
  // The wire roll-up and the in-process histogram must agree once idle.
  if (ph.wire_stats.p50_latency_us != ph.stats.stages.e2e.Percentile(0.5) ||
      ph.wire_stats.p99_latency_us != ph.stats.stages.e2e.Percentile(0.99) ||
      ph.wire_stats.executed != ph.stats.executed) {
    ph.Fail("StatsResp disagrees with the server's histograms");
  }

  std::int64_t summary_touches = 0, summary_entries = 0;
  for (const SessionRef& s : st.sessions) {
    api::SessionSnapshotReq req;
    req.session = s.id;
    req.max_results = kTailResults;
    auto snap = st.clients[static_cast<std::size_t>(s.conn)]->SessionSnapshot(
        req);
    if (!snap.ok()) {
      ph.Fail("snapshot: " + snap.status().ToString());
      return ph;
    }
    const auto it = ph.stats.per_session.find(s.id);
    const bool clean = it != ph.stats.per_session.end() &&
                       it->second.deadline_misses == 0 &&
                       it->second.dropped_quanta == 0 &&
                       snap->fetch_errors == 0;
    ph.touch_events += snap->touch_events;
    ph.entries += snap->entries_returned;
    ph.rows_scanned += snap->rows_scanned;
    ph.suspensions += snap->suspensions;
    if (s.action.kind == core::ActionKind::kSummary) {
      summary_touches += snap->touch_events;
      summary_entries += snap->entries_returned;
    }
    ph.views.push_back(SessionView{std::move(*snap), clean});
  }
  ph.summary_entries_per_touch =
      Ratio(static_cast<double>(summary_entries),
            static_cast<double>(summary_touches));
  // Paper Fig. 4a: about one entry per registered touch of a slide.
  if (w.name == "paced_fleet" && (ph.summary_entries_per_touch < 0.7 ||
                                  ph.summary_entries_per_touch > 1.1)) {
    ph.Fail("summary sessions returned " +
            std::to_string(ph.summary_entries_per_touch) +
            " entries per touch; Fig. 4a expects about one");
  }

  if (opt.traced) {
    SpanBuffer* spans = opt.ledger->NewBuffer();
    ph.codec_ns_per_frame = TimeCodec(ph.load, spans);
    if (ph.codec_ns_per_frame < 0) ph.Fail("codec round trip mismatch");
    auto admit = TimeAdmit(opt, st, ph.load, spans);
    if (admit.ok()) {
      ph.admit_us_per_frame = *admit;
    } else {
      ph.Fail("admit: " + admit.status().ToString());
    }
    ph.sched_ns_per_quantum = TimeScheduler(w.sessions, spans);
    if (w.spill) {
      ColdProviderStats(st, ph);
    } else {
      ph.provider_reads = st.provider->reads();
      ph.provider_read_us_p99 = st.provider->read_us_p99();
      TimeStandaloneSpill(opt, st, ph, spans);
    }
    ph.server_trace_json = st.server->trace_recorder()->DumpJson();
  }

  // The replay needs the table's rows: a reclaimed table has given its
  // raw copy up, so it is generated again from the seed.
  std::shared_ptr<storage::Table> table = st.table;
  if (w.spill) {
    auto fresh = MakeTable(w, opt.seed);
    if (!fresh.ok()) {
      ph.Fail("replay table: " + fresh.status().ToString());
      return ph;
    }
    table = *fresh;
  }
  ph.verdict = Verify(opt, st, ph.views, table);
  if (ph.verdict.mismatched > 0) {
    for (const std::string& p : ph.verdict.problems) ph.Fail(p);
  }
  if (ph.verdict.verified == 0) ph.Fail("no session could be verified");
  return ph;
}

// ---- Reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};


std::int64_t FailedTouches(const Phase& ph) {
  // Rejected touches are counted by the server as dropped too.
  return ph.load.errors + ph.stats.dropped_quanta + ph.load.unaccounted;
}

/// Median over the run's timed windows of fn(window); warm-up windows and
/// windows too small to carry a p99 are left out unless no window is left.
template <typename Fn>
double WindowMedian(const LoadResult& load, Fn&& fn) {
  std::vector<double> values;
  for (const Window& w : load.windows) {
    if (w.start_ns >= load.timed_from_ns && w.e2e.count >= 1000) {
      values.push_back(fn(w));
    }
  }
  if (values.empty()) {
    for (const Window& w : load.windows) {
      if (w.e2e.count > 0) values.push_back(fn(w));
    }
  }
  return Median(std::move(values));
}

std::vector<Metric> EndToEnd(const Phase& ph, bool burst) {
  const LoadResult& load = ph.load;
  const double attempted = static_cast<double>(load.attempted);
  const double executed = static_cast<double>(ph.stats.executed);
  // Closed loop: the rate while bursts drain; open loop: the served rate.
  const double rate =
      burst ? WindowMedian(load,
                           [](const Window& w) {
                             return static_cast<double>(w.e2e.count) /
                                    Seconds(w.busy_ns);
                           })
            : Ratio(executed, load.wall_s);
  return {
      {"touch_p50_us",
       WindowMedian(load,
                    [](const Window& w) { return HistPercentile(w.e2e, 0.5); }),
       "us"},
      {"touch_p99_us",
       WindowMedian(load,
                    [](const Window& w) { return HistPercentile(w.e2e, 0.99); }),
       "us"},
      {"deadline_hit_rate",
       Ratio(executed - static_cast<double>(ph.stats.deadline_misses),
             attempted),
       "ratio"},
      {"touches_per_s", rate, "1/s"},
      {"entries_per_touch",
       Ratio(static_cast<double>(ph.entries),
             static_cast<double>(ph.touch_events)),
       "count"},
      {"setup_s", Median(ph.setup_s), "s"},
      {"peak_rss_mb", ph.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const Phase& ph, const Phase& untraced) {
  const server::ServerStatsSnapshot& s = ph.stats;
  const double executed = static_cast<double>(s.executed);
  const double touches = static_cast<double>(ph.touch_events);
  const double gw_bytes = static_cast<double>(
      (ph.gw_after.bytes_received - ph.gw_before.bytes_received) +
      (ph.gw_after.bytes_sent - ph.gw_before.bytes_sent));
  double shed_sum = 0.0;
  for (const auto& [id, session] : s.per_session) shed_sum += session.shed_levels;
  const double p50_untraced = HistPercentile(untraced.stats.stages.e2e, 0.5);
  const double p50_traced = HistPercentile(s.stages.e2e, 0.5);
  return {
      {"gateway.rtt_p50_us", Percentile(ph.load.rtt_us, 0.50), "us"},
      {"gateway.ack_p50_us", Percentile(ph.load.ack_us, 0.50), "us"},
      {"gateway.ack_p99_us", Percentile(ph.load.ack_us, 0.99), "us"},
      {"gateway.codec_ns_per_frame", ph.codec_ns_per_frame, "ns"},
      {"gateway.bytes_per_touch",
       Ratio(gw_bytes, static_cast<double>(ph.load.attempted)), "count"},
      {"gateway.gen_lag_p99_us", Percentile(ph.load.lag_us, 0.99), "us"},
      {"server.queue_wait_p50_us", HistPercentile(s.stages.queue_wait, 0.50),
       "us"},
      {"server.queue_wait_p99_us", HistPercentile(s.stages.queue_wait, 0.99),
       "us"},
      {"server.admit_us_per_frame", ph.admit_us_per_frame, "us"},
      {"server.sched_ns_per_quantum", ph.sched_ns_per_quantum, "ns"},
      // Worker-seconds of the measured wall (idle included) per touch,
      // minus the part spent executing it: dispatch and idle capacity.
      {"server.worker_us_per_touch",
       Ratio(kWorkers * ph.load.wall_s * 1e6, executed) -
           s.stages.exec.Mean(),
       "us"},
      {"server.dropped", static_cast<double>(s.dropped_quanta), "count"},
      {"server.rejected", static_cast<double>(ph.load.rejected), "count"},
      {"server.shed_level_mean",
       Ratio(shed_sum, static_cast<double>(s.per_session.size())), "count"},
      {"server.fairness", s.fairness, "ratio"},
      {"core.exec_p50_us", HistPercentile(s.stages.exec, 0.50), "us"},
      {"core.exec_p99_us", HistPercentile(s.stages.exec, 0.99), "us"},
      {"core.kernel_ns_per_touch", ph.verdict.kernel_ns_per_touch, "ns"},
      {"core.rows_scanned_per_touch",
       Ratio(static_cast<double>(ph.rows_scanned), touches), "count"},
      {"core.suspensions_per_touch",
       Ratio(static_cast<double>(ph.suspensions), touches), "count"},
      {"cache.hit_rate", s.buffer.hit_rate(), "ratio"},
      {"cache.faults_per_touch",
       Ratio(static_cast<double>(s.buffer.faulted_blocks), executed), "count"},
      {"cache.evictions_per_touch",
       Ratio(static_cast<double>(s.buffer.evictions), executed), "count"},
      {"cache.fetch_stall_p50_us", HistPercentile(s.stages.fetch_stall, 0.50),
       "us"},
      {"cache.fetch_stall_p99_us", HistPercentile(s.stages.fetch_stall, 0.99),
       "us"},
      {"cache.provider_reads", static_cast<double>(ph.provider_reads),
       "count"},
      {"cache.provider_read_us_p99", ph.provider_read_us_p99, "us"},
      {"cache.ranged_blocks_per_read",
       Ratio(static_cast<double>(s.fetch.ranged_blocks),
             static_cast<double>(s.fetch.ranged_reads)),
       "count"},
      {"cache.prefetch_claim_rate", ph.prefetch_claim_rate, "ratio"},
      {"cache.peak_resident_over_budget",
       Ratio(static_cast<double>(s.buffer.peak_resident_bytes),
             static_cast<double>(s.buffer.budget_bytes)),
       "ratio"},
      {"storage.spill_s", ph.spill_s, "s"},
      {"storage.spill_mb_per_s",
       Ratio(static_cast<double>(ph.spill_bytes) / 1e6, ph.spill_s), "MB/s"},
      {"obs.trace_overhead_pct", (Ratio(p50_traced, p50_untraced) - 1.0) * 100,
       "%"},
  };
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintSelfTimes(const Ledger& ledger, const Phase& ph) {
  std::printf("per-layer self time (benchmark spans; self = span - children)\n");
  std::printf("  %-28s %9s %12s %12s %12s\n", "layer", "spans", "total_ms",
              "self_ms", "self_us/span");
  for (const auto& [layer, t] : ledger.SelfTimes()) {
    std::printf("  %-28s %9lld %12.3f %12.3f %12.3f\n", layer.c_str(),
                static_cast<long long>(t.spans), t.total_ms, t.self_ms,
                Ratio(t.self_ms * 1e3, static_cast<double>(t.spans)));
  }
  // The server's own stages tile each touch's end-to-end latency.
  const server::StageLatencySnapshot& st = ph.stats.stages;
  std::printf("server stages (sum over executed touches; they tile e2e)\n");
  const std::pair<const char*, const obs::HistogramSnapshot*> stages[] = {
      {"server.queue_wait", &st.queue_wait},
      {"core.exec", &st.exec},
      {"cache.fetch_stall", &st.fetch_stall},
      {"e2e", &st.e2e}};
  for (const auto& [name, h] : stages) {
    std::printf("  %-28s %9lld %12.3f %12s %12.3f\n", name,
                static_cast<long long>(h->count),
                static_cast<double>(h->sum) / 1e3, "", h->Mean());
  }
}

void PrintResult(bool correct, const Phase& ph,
                 const std::vector<Metric>& metrics) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("correct", correct);
  w.Field("attempted", std::max<std::int64_t>(ph.load.attempted, 1));
  w.Field("failed", FailedTouches(ph));
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Field("value", m.value);
    w.Field("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", std::move(w).str().c_str());
  std::fflush(stdout);
}

void PrintPhaseSummary(const char* label, const Phase& ph) {
  std::printf(
      "[%s] attempted %lld touches, executed %lld, dropped %lld, rejected "
      "%lld, errored %lld, unaccounted %lld; verified %d sessions, skipped "
      "%d (shed or dropped), mismatched %d; summary entries/touch %.3f\n",
      label, static_cast<long long>(ph.load.attempted),
      static_cast<long long>(ph.stats.executed),
      static_cast<long long>(ph.stats.dropped_quanta),
      static_cast<long long>(ph.load.rejected),
      static_cast<long long>(ph.load.errors),
      static_cast<long long>(ph.load.unaccounted), ph.verdict.verified,
      ph.verdict.skipped, ph.verdict.mismatched, ph.summary_entries_per_touch);
  std::printf("  failed_ops_rate %.6f (errored, dropped, rejected or "
              "unaccounted touches / attempted)\n",
              Ratio(static_cast<double>(FailedTouches(ph)),
                    static_cast<double>(ph.load.attempted)));
  std::printf("  ack_p50_us %.4f us (scheduled send -> SubmitBatchResp; "
              "reported as gateway.ack_p50_us)\n",
              Percentile(ph.load.ack_us, 0.5));
  for (const std::string& p : ph.problems) {
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  }
}

// ---- Self-test -------------------------------------------------------------

/// The first frames every session of `w` sends under `seed`, encoded.
std::string FramesFor(const Workload& w, std::uint64_t seed) {
  std::vector<api::SubmitBatchReq> reqs;
  for (int i = 0; i < w.sessions; ++i) {
    SessionRef s;
    s.index = i;
    s.start_us = w.burst ? 0 : PhaseFor(seed, i);
    RunOptions opt;
    opt.workload = &w;
    opt.seed = seed;
    SessionScript script = ScriptFor(opt, s);
    if (w.burst) {
      for (int f = 0; f < 4; ++f) {
        reqs.push_back(NextBurstFrame(script, w.burst_touches));
      }
    } else {
      for (PacedFrame& f :
           CutPacedFrames(script, kFrameIntervalUs, s.start_us, 2'000'000)) {
        reqs.push_back(std::move(f.req));
      }
    }
  }
  std::string out;
  std::uint32_t id = 1;
  for (const api::SubmitBatchReq& req : reqs) {
    out += gw::EncodeRequestFrame(gw::MessageType::kSubmitBatch, id++, req);
  }
  return out;
}

int SelfTest() {
  int failures = 0;
  for (const Workload& w : Workloads()) {
    const std::string a = FramesFor(w, 7);
    const std::string b = FramesFor(w, 7);
    const std::string c = FramesFor(w, 8);
    const bool same = a == b && !a.empty();
    const bool differs = a != c;
    std::printf("%-14s %zu bytes of frames: same seed identical %s, other "
                "seed differs %s\n",
                w.name.c_str(), a.size(), same ? "yes" : "NO",
                differs ? "yes" : "NO");
    if (!same || !differs) ++failures;
  }
  std::printf("%s\n", failures == 0 ? "selftest ok" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: touchbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n       touchbench --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  dbtouch::SetLogLevel(dbtouch::LogLevel::kWarning);
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      traced = value == "1";
    } else if (arg == "--out") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  const CpuPlan cpus = PlanCpus();
  PinTo(cpus.main);
  const std::vector<Workload> workloads = Workloads();
  const auto it =
      std::find_if(workloads.begin(), workloads.end(),
                   [&](const Workload& w) { return w.name == workload_name; });
  if (it == workloads.end() || seconds <= 0) return Usage();
  ::mkdir(out_dir.c_str(), 0755);

  RunOptions opt;
  opt.workload = &*it;
  opt.seed = seed;
  opt.out_dir = out_dir;
  opt.cpus = cpus;
  std::printf("workload %s (%s), seed %llu, %g s, trace %d\n",
              it->name.c_str(), it->why.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);

  if (!traced) {
    const Phase ph = RunPhase(opt, seconds, kSetupRepeats);
    PrintPhaseSummary("untraced", ph);
    const std::vector<Metric> metrics = EndToEnd(ph, it->burst);
    PrintMetrics("end-to-end metrics", metrics);
    PrintResult(ph.ok, ph, metrics);
    return ph.ok ? 0 : 1;
  }
  // Traced: an untraced half for the overhead baseline, then the traced
  // half that the per-layer metrics come from.
  Ledger ledger;
  const Phase base = RunPhase(opt, seconds / 2, 1);
  PrintPhaseSummary("untraced half", base);
  RunOptions topt = opt;
  topt.traced = true;
  topt.ledger = &ledger;
  Phase ph = RunPhase(topt, seconds / 2, 1);
  PrintPhaseSummary("traced half", ph);
  const std::vector<Metric> metrics = PerLayer(ph, base);
  PrintMetrics("per-layer metrics (traced run)", metrics);
  PrintSelfTimes(ledger, ph);
  const std::string path = out_dir + "/" + it->name + "-seed" +
                           std::to_string(seed) + "-trace.json";
  if (!ledger.WriteJson(path, ph.server_trace_json)) {
    ph.Fail("could not write " + path);
  } else {
    std::printf("trace written to %s\n", path.c_str());
  }
  const bool correct = ph.ok && base.ok;
  PrintResult(correct, ph, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
