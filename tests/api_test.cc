// server::api layer tests: the wire codec round-trips every request and
// response type bit-identically, the action mapping round-trips every
// kind, the WireCode<->Status mapping is total and stable, hostile bytes
// never crash a decoder or the server behind it, and TouchServer::Call
// refuses requests it cannot serve before changing anything.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gateway/wire.h"
#include "server/api.h"
#include "server/touch_server.h"
#include "server_harness.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"
#include "storage/table.h"

namespace dbtouch::server {
namespace {

namespace gw = dbtouch::gateway;

using core::ActionConfig;
using core::ActionKind;
using core::Kernel;
using exec::AggKind;
using exec::CompareOp;
using exec::Predicate;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::Table;

// ---- Codec round-trips -----------------------------------------------------

/// THE api acceptance check: encode -> decode -> re-encode must be
/// bit-identical, and the decoded struct must compare equal. Any codec
/// asymmetry (field order drift, lossy narrowing, missed field) fails
/// one of the two.
template <typename T>
void ExpectBitIdenticalRoundtrip(const T& value) {
  gw::WireWriter first;
  Encode(value, first);

  T decoded;
  gw::WireReader reader(first.buffer());
  ASSERT_TRUE(Decode(reader, &decoded).ok());
  EXPECT_TRUE(reader.AtEnd()) << "decoder left trailing bytes";
  EXPECT_TRUE(decoded == value);

  gw::WireWriter second;
  Encode(decoded, second);
  EXPECT_EQ(first.buffer(), second.buffer()) << "re-encode not bit-identical";
}

api::WireAction SampleAction() {
  api::WireAction action;
  action.kind = 2;
  action.agg = 1;
  action.summary_k = 128;
  action.has_predicate = true;
  action.predicate_op = 6;
  action.predicate_lo = -3.25;
  action.predicate_hi = 700.5;
  action.use_zone_map = true;
  action.group_key_attribute = 3;
  action.group_value_attribute = 9;
  return action;
}

std::vector<api::WireTouchEvent> SampleEvents() {
  std::vector<api::WireTouchEvent> events;
  for (int i = 0; i < 5; ++i) {
    api::WireTouchEvent event;
    event.timestamp_us = 66'667 * i;
    event.finger_id = i % 2;
    event.phase = i == 0 ? 0 : (i == 4 ? 2 : 1);
    event.x_cm = 3.0 + 0.1 * i;
    event.y_cm = 1.0 + 2.0 * i;
    events.push_back(event);
  }
  return events;
}

TEST(ApiCodecTest, OpenSessionRoundtrip) {
  ExpectBitIdenticalRoundtrip(api::OpenSessionReq{});
  api::OpenSessionResp resp;
  resp.session = 42;
  ExpectBitIdenticalRoundtrip(resp);
}

TEST(ApiCodecTest, CloseSessionRoundtrip) {
  api::CloseSessionReq req;
  req.session = -7;  // Ids are opaque i64; sign must survive.
  ExpectBitIdenticalRoundtrip(req);
  ExpectBitIdenticalRoundtrip(api::CloseSessionResp{});
}

TEST(ApiCodecTest, CreateObjectRoundtrip) {
  api::CreateObjectReq req;
  req.session = 3;
  req.kind = 1;
  req.table = "lineitem";
  req.column = "";  // Table objects carry an empty column name.
  req.frame = api::WireRect{0.5, 1.5, 6.25, 12.0};
  ExpectBitIdenticalRoundtrip(req);
  api::CreateObjectResp resp;
  resp.object = 11;
  ExpectBitIdenticalRoundtrip(resp);
}

TEST(ApiCodecTest, SetActionRoundtrip) {
  api::SetActionReq req;
  req.session = 5;
  req.object = 2;
  req.action = SampleAction();
  ExpectBitIdenticalRoundtrip(req);
  ExpectBitIdenticalRoundtrip(api::SetActionResp{});
}

TEST(ApiCodecTest, SubmitBatchRoundtrip) {
  api::SubmitBatchReq req;
  req.session = 9;
  req.paced = false;
  req.events = SampleEvents();
  ExpectBitIdenticalRoundtrip(req);
  api::SubmitBatchResp resp;
  resp.accepted = 4;
  resp.rejected = 1;
  ExpectBitIdenticalRoundtrip(resp);
}

TEST(ApiCodecTest, StatsRoundtrip) {
  ExpectBitIdenticalRoundtrip(api::StatsReq{});
  api::StatsResp resp;
  resp.sessions_active = 12;
  resp.submitted = 100;
  resp.executed = 90;
  resp.dropped_quanta = 10;
  resp.deadline_misses = 3;
  resp.p50_latency_us = 400;
  resp.p99_latency_us = 9'000;
  resp.suspended_quanta = 7;
  resp.buffer_hits = 55;
  resp.buffer_lookups = 60;
  ExpectBitIdenticalRoundtrip(resp);
}

TEST(ApiCodecTest, SessionSnapshotRoundtrip) {
  api::SessionSnapshotReq req;
  req.session = 4;
  req.max_results = 16;
  ExpectBitIdenticalRoundtrip(req);

  api::SessionSnapshotResp resp;
  resp.session = 4;
  api::ObjectInfo object;
  object.object = 1;
  object.kind = 0;
  object.orientation = 1;
  object.table = "t";
  object.column = 2;
  object.frame = api::WireRect{1, 2, 3, 4};
  object.tuple_count = 20'000;
  resp.objects.push_back(object);
  resp.touch_events = 31;
  resp.gesture_events = 30;
  resp.entries_returned = 29;
  resp.rows_scanned = 1'000;
  resp.rows_pruned = 500;
  resp.suspensions = 2;
  resp.fetch_errors = 1;
  resp.shed_levels = 3;
  resp.result_count = 2;
  api::ResultInfo result;
  result.object = 1;
  result.kind = 1;
  result.row = 77;
  result.value = 3.5;
  result.approximate = true;
  resp.results.push_back(result);
  result.row = 78;
  result.value = -1.0;
  result.approximate = false;
  resp.results.push_back(result);
  ExpectBitIdenticalRoundtrip(resp);
}

TEST(ApiCodecTest, RequestFrameRoundtripsThroughHeader) {
  // Full frame (header + payload) for every request type, decoded the
  // way the gateway does it: header first, then the typed payload.
  api::SubmitBatchReq req;
  req.session = 1;
  req.paced = true;
  req.events = SampleEvents();
  const std::string frame =
      gw::EncodeRequestFrame(gw::MessageType::kSubmitBatch, 7, req);
  ASSERT_GE(frame.size(), gw::kFrameHeaderBytes);

  auto header = gw::DecodeHeader(frame);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, gw::kWireVersion);
  EXPECT_EQ(header->message_type(), gw::MessageType::kSubmitBatch);
  EXPECT_FALSE(header->is_response());
  EXPECT_EQ(header->request_id, 7u);
  EXPECT_EQ(header->payload_len, frame.size() - gw::kFrameHeaderBytes);

  api::SubmitBatchReq decoded;
  gw::WireReader reader(
      std::string_view(frame).substr(gw::kFrameHeaderBytes));
  ASSERT_TRUE(Decode(reader, &decoded).ok());
  EXPECT_TRUE(decoded == req);
}

TEST(ApiCodecTest, TruncationFailsCleanly) {
  api::SetActionReq req;
  req.session = 5;
  req.object = 2;
  req.action = SampleAction();
  gw::WireWriter w;
  Encode(req, w);
  // Every proper prefix must fail to decode — never read past the end,
  // never succeed on partial data.
  for (std::size_t cut = 0; cut < w.buffer().size(); ++cut) {
    api::SetActionReq out;
    gw::WireReader reader(std::string_view(w.buffer()).substr(0, cut));
    EXPECT_FALSE(Decode(reader, &out).ok()) << "cut=" << cut;
  }
}

TEST(ApiCodecTest, ActionMappingRoundTrips) {
  std::vector<ActionConfig> actions;
  for (int kind = 0; kind <= static_cast<int>(ActionKind::kGroupBy); ++kind) {
    for (int agg = 0; agg <= static_cast<int>(AggKind::kStdDev); ++agg) {
      ActionConfig action;
      action.kind = static_cast<ActionKind>(kind);
      action.agg = static_cast<AggKind>(agg);
      action.summary_k = 3 * kind + agg;
      actions.push_back(action);
    }
  }
  for (int op = 0; op < static_cast<int>(CompareOp::kBetween); ++op) {
    actions.push_back(ActionConfig::Filter(
        Predicate(static_cast<CompareOp>(op), -1.5 * op)));
  }
  actions.push_back(ActionConfig::Filter(Predicate(-3.25, 700.5),
                                         /*use_zone_map=*/true));
  actions.push_back(ActionConfig::GroupBy(3, 9, AggKind::kMax));
  for (const ActionConfig& action : actions) {
    const auto back = api::FromWire(api::ToWire(action));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(*back == action) << core::ActionKindName(action.kind);
  }

  api::WireAction bad = api::ToWire(ActionConfig::Summary(10));
  bad.agg = static_cast<std::uint8_t>(AggKind::kStdDev) + 1;
  EXPECT_TRUE(api::FromWire(bad).status().IsInvalidArgument());
  bad = api::ToWire(ActionConfig::Filter(Predicate(CompareOp::kLt, 1.0)));
  bad.predicate_op = static_cast<std::uint8_t>(CompareOp::kBetween) + 1;
  EXPECT_TRUE(api::FromWire(bad).status().IsInvalidArgument());
}

TEST(ApiCodecTest, HostileVectorCountRejected) {
  // A SubmitBatch claiming 2^31 events in a 32-byte payload must fail
  // before any allocation, not OOM.
  gw::WireWriter w;
  w.I64(1);                     // session
  w.Bool(true);                 // paced
  w.U32(0x8000'0000u);          // events count: hostile
  api::SubmitBatchReq out;
  gw::WireReader reader(w.buffer());
  EXPECT_FALSE(Decode(reader, &out).ok());
}

// ---- WireCode mapping ------------------------------------------------------

TEST(ApiWireCodeTest, StatusCodesMapOneToOne) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
      StatusCode::kUnimplemented, StatusCode::kResourceExhausted,
      StatusCode::kDeadlineExceeded, StatusCode::kAborted,
      StatusCode::kInternal};
  for (StatusCode code : codes) {
    const Status status(code, "msg");
    const api::WireCode wire = api::WireCodeFromStatus(status);
    EXPECT_EQ(static_cast<int>(wire), static_cast<int>(code));
    const Status back = api::StatusFromWire(wire, "msg");
    EXPECT_EQ(back.code(), code);
  }
}

TEST(ApiWireCodeTest, ProtocolCodesMapToCanonicalStatuses) {
  EXPECT_EQ(api::StatusFromWire(api::WireCode::kUnsupportedVersion, "").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(api::StatusFromWire(api::WireCode::kMalformedFrame, "").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(api::StatusFromWire(api::WireCode::kBackpressure, "").code(),
            StatusCode::kResourceExhausted);
}

TEST(ApiWireCodeTest, EveryCodeHasAName) {
  const api::WireCode codes[] = {
      api::WireCode::kOk,          api::WireCode::kInvalidArgument,
      api::WireCode::kNotFound,    api::WireCode::kAlreadyExists,
      api::WireCode::kOutOfRange,  api::WireCode::kFailedPrecondition,
      api::WireCode::kUnimplemented, api::WireCode::kResourceExhausted,
      api::WireCode::kDeadlineExceeded, api::WireCode::kAborted,
      api::WireCode::kInternal,    api::WireCode::kUnsupportedVersion,
      api::WireCode::kMalformedFrame, api::WireCode::kBackpressure};
  for (api::WireCode code : codes) {
    EXPECT_NE(api::WireCodeName(code), "Unknown");
  }
  EXPECT_EQ(api::WireCodeName(static_cast<api::WireCode>(999)), "Unknown");
}

// ---- Hostile requests ------------------------------------------------------

std::shared_ptr<Table> SmallTable() {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", 20'000, 0, 1));
  auto table = Table::FromColumns("t", std::move(cols));
  EXPECT_TRUE(table.ok());
  return *table;
}

/// A short unpaced slide down the harness's column frame.
std::vector<api::WireTouchEvent> ShortSlide(double seconds) {
  Kernel reference;
  TraceBuilder builder(reference.device());
  return api::ToWire(builder.Slide("s", PointCm{3.0, 1.0},
                                   PointCm{3.0, 11.0},
                                   MotionProfile::Constant(seconds)));
}

/// The payload a peer sends for `value`.
template <typename T>
std::string Payload(const T& value) {
  gw::WireWriter w;
  Encode(value, w);
  return w.buffer();
}

/// Mutation `k` of `payload`, k < 6 * size: byte k / 5 set to 0x00 or
/// 0xFF or flipped at bit 0, 4 or 7 while k < 5 * size, then the payload
/// cut to each length below its own.
std::string Mutate(std::string payload, std::size_t k) {
  constexpr unsigned char kKeep[] = {0x00, 0x00, 0xFF, 0xFF, 0xFF};
  constexpr unsigned char kFlip[] = {0x00, 0xFF, 0x01, 0x10, 0x80};
  const std::size_t n = payload.size();
  if (k >= 5 * n) {
    return payload.substr(0, k - 5 * n);
  }
  char& byte = payload[k / 5];
  byte = static_cast<char>(
      (static_cast<unsigned char>(byte) & kKeep[k % 5]) ^ kFlip[k % 5]);
  return payload;
}

/// Decodes every mutation of `value`'s payload; each must end in a Status.
template <typename T>
void SweepDecode(const T& value) {
  const std::string payload = Payload(value);
  for (std::size_t k = 0; k < 6 * payload.size(); ++k) {
    T out;
    const std::string bytes = Mutate(payload, k);
    gw::WireReader reader(bytes);
    (void)Decode(reader, &out);
  }
}

/// The sweep's server: one worker, table "t", and one live session with
/// one summary column object. The session is opened again whenever a
/// mutated close closed it or a mutated create added a second object
/// (the newest object is the one a slide touches).
class HostileTarget {
 public:
  HostileTarget() : server_(RelaxedConfig(1)) {
    EXPECT_TRUE(server_.RegisterTable(SmallTable()).ok());
    EXPECT_TRUE(server_.Start().ok());
  }
  ~HostileTarget() { EXPECT_TRUE(server_.Stop().ok()); }

  /// Decodes each mutation of `base()`'s payload, built for the live
  /// session, and passes every request that decodes to Call. An accepted
  /// object or action is slid over at once, and every step drains.
  template <typename Req>
  void Sweep(const std::function<Req()>& base) {
    const std::size_t mutations = 6 * Payload(base()).size();
    for (std::size_t k = 0; k < mutations; ++k) {
      EnsureSession();
      Req req;
      const std::string bytes = Mutate(Payload(base()), k);
      gw::WireReader reader(bytes);
      if (!Decode(reader, &req).ok()) {
        continue;
      }
      ++decoded_;
      const bool accepted = server_.Call(req).ok();
      if (accepted && (std::is_same_v<Req, api::CreateObjectReq> ||
                       std::is_same_v<Req, api::SetActionReq>)) {
        (void)server_.Call(api::SubmitBatchReq{
            .session = session_, .paced = false, .events = slide_});
      }
      ASSERT_TRUE(server_.Drain().ok()) << "mutation " << k;
    }
  }

  api::SessionId session() const { return session_; }
  api::ObjectId object() const { return object_; }
  const std::vector<api::WireTouchEvent>& slide() const { return slide_; }
  std::int64_t decoded() const { return decoded_; }
  TouchServer& server() { return server_; }

 private:
  void EnsureSession() {
    const auto snapshot =
        server_.Call(api::SessionSnapshotReq{.session = session_});
    if (snapshot.ok() && snapshot->objects.size() == 1) {
      return;
    }
    if (snapshot.ok()) {
      ASSERT_TRUE(
          server_.Call(api::CloseSessionReq{.session = session_}).ok());
    }
    const auto open = server_.Call(api::OpenSessionReq{});
    ASSERT_TRUE(open.ok());
    session_ = open->session;
    api::CreateObjectReq create = ColumnObject("t", "v");
    create.session = session_;
    const auto made = server_.Call(create);
    ASSERT_TRUE(made.ok());
    object_ = made->object;
    ASSERT_TRUE(server_
                    .Call(api::SetActionReq{
                        .session = session_,
                        .object = object_,
                        .action = api::ToWire(ActionConfig::Summary(10))})
                    .ok());
  }

  TouchServer server_;
  api::SessionId session_ = -1;
  api::ObjectId object_ = 0;
  /// Unpaced, so that no flipped timestamp can schedule a release far in
  /// the future; short, so that a flip of `paced` costs a fifth of a
  /// second.
  const std::vector<api::WireTouchEvent> slide_ = ShortSlide(0.2);
  std::int64_t decoded_ = 0;
};

TEST(ApiCodecTest, HostileBytesNeverCrashDecodeOrCall) {
  // OpenSessionReq, StatsReq, CloseSessionResp and SetActionResp carry no
  // payload bytes to corrupt.
  HostileTarget target;
  target.Sweep<api::CloseSessionReq>(
      [&] { return api::CloseSessionReq{.session = target.session()}; });
  target.Sweep<api::CreateObjectReq>([&] {
    api::CreateObjectReq req = ColumnObject("t", "v");
    req.session = target.session();
    return req;
  });
  target.Sweep<api::SetActionReq>([&] {
    return api::SetActionReq{
        .session = target.session(),
        .object = target.object(),
        .action = api::ToWire(ActionConfig::Summary(10))};
  });
  target.Sweep<api::SubmitBatchReq>([&] {
    return api::SubmitBatchReq{
        .session = target.session(), .paced = false, .events = target.slide()};
  });
  target.Sweep<api::SessionSnapshotReq>([&] {
    return api::SessionSnapshotReq{.session = target.session(),
                                   .max_results = 16};
  });
  EXPECT_GT(target.decoded(), 0);

  // Responses only reach a client's decoder.
  SweepDecode(api::OpenSessionResp{.session = 42});
  SweepDecode(api::CreateObjectResp{.object = 11});
  SweepDecode(api::SubmitBatchResp{.accepted = 4, .rejected = 1});
  SweepDecode(api::StatsResp{.sessions_active = 12, .submitted = 100});
  const auto snapshot = target.server().Call(
      api::SessionSnapshotReq{.session = target.session(), .max_results = 4});
  ASSERT_TRUE(snapshot.ok());
  ASSERT_FALSE(snapshot->results.empty());
  SweepDecode(*snapshot);
}

TEST(ApiCallTest, HostileBatchesAreRefusedBeforeAdmission) {
  TouchServer server(RelaxedConfig(1));
  ASSERT_TRUE(server.RegisterTable(SmallTable()).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto session = OpenWithObject(server, ColumnObject("t", "v"));
  ASSERT_TRUE(session.ok());
  const auto touch = [](std::int64_t t_us, std::uint8_t phase, double y) {
    return api::WireTouchEvent{
        .timestamp_us = t_us, .phase = phase, .x_cm = 3.0, .y_cm = y};
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<bool, std::vector<api::WireTouchEvent>> hostile[] = {
      // The span between two touches overflows int64.
      {false, {touch(kMin / 2 - 5, 0, 5.0), touch(kMax / 2 + 5, 2, 5.0)}},
      // A paced touch due 2^60 us out would hold Drain() for ever.
      {true, {touch(0, 0, 5.0), touch(std::int64_t{1} << 60, 2, 5.0)}},
      // One microsecond over the hour, on either side of the first touch.
      {false, {touch(0, 0, 5.0), touch(3'600'000'001, 2, 5.0)}},
      {false, {touch(0, 0, 5.0), touch(-3'600'000'001, 2, 5.0)}},
      {false, {touch(0, 0, 5.0), touch(66'667, 2, nan)}},
      {false, {touch(0, 0, inf), touch(66'667, 2, 5.0)}},
  };
  for (const auto& [paced, events] : hostile) {
    const auto resp = server.Call(api::SubmitBatchReq{
        .session = *session, .paced = paced, .events = events});
    ASSERT_TRUE(resp.status().IsInvalidArgument()) << resp.status();
  }
  EXPECT_EQ(server.stats().submitted, 0);
  ASSERT_TRUE(server.Drain().ok());

  // A batch exactly an hour wide is admitted.
  ASSERT_TRUE(server
                  .Call(api::SubmitBatchReq{
                      .session = *session,
                      .paced = false,
                      .events = {touch(0, 0, 5.0),
                                 touch(3'600'000'000, 2, 5.0)}})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_EQ(server.stats().submitted, 2);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(ApiCallTest, HostileFramesAreRefusedAndFarTouchesClamp) {
  TouchServer server(RelaxedConfig(1));
  ASSERT_TRUE(server.RegisterTable(SmallTable()).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto open = server.Call(api::OpenSessionReq{});
  ASSERT_TRUE(open.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const api::WireRect hostile[] = {
      {2.0, 1.0, 2.0, 0.0},    {2.0, 1.0, 2.0, -5.0},
      {2.0, 1.0, 2.0, nan},    {2.0, 1.0, 2.0, 1e300},
      {2.0, 1.0, inf, 10.0},   {2.0, 1.0, 0.0, 10.0},
      {nan, 1.0, 2.0, 10.0},   {2.0, -inf, 2.0, 10.0},
      {2.0, 1.0, 2.0, 1000.5},
  };
  for (const std::uint8_t kind : {0, 1}) {
    for (const api::WireRect& frame : hostile) {
      api::CreateObjectReq create = ColumnObject("t", "v", frame);
      create.session = open->session;
      create.kind = kind;
      const auto resp = server.Call(create);
      EXPECT_TRUE(resp.status().IsInvalidArgument())
          << "kind " << int{kind} << " frame " << frame.x << ","
          << frame.y << " " << frame.width << "x" << frame.height << ": "
          << resp.status();
    }
  }
  // A frame of 1,000 cm is still an object.
  api::CreateObjectReq large = ColumnObject("t", "v", {2.0, 1.0, 2.0, 1000.0});
  large.session = open->session;
  ASSERT_TRUE(server.Call(large).ok());

  // A slide that begins on an object may move to any finite coordinate:
  // past the far edge it reads the last row, past the near edge the first.
  const auto session = OpenWithObject(server, ColumnObject("t", "v"));
  ASSERT_TRUE(session.ok());
  const auto touch = [](std::int64_t t_us, std::uint8_t phase, double y) {
    return api::WireTouchEvent{
        .timestamp_us = t_us, .phase = phase, .x_cm = 3.0, .y_cm = y};
  };
  ASSERT_TRUE(server
                  .Call(api::SubmitBatchReq{
                      .session = *session,
                      .paced = false,
                      .events = {touch(0, 0, 5.0), touch(66'667, 1, 6.0),
                                 touch(133'334, 1, 1e300),
                                 touch(200'001, 1, -1e300),
                                 touch(266'668, 2, -1e300)}})
                  .ok());
  ASSERT_TRUE(server.Drain().ok());
  std::vector<std::int64_t> rows;
  ASSERT_TRUE(server
                  .WithSession(*session,
                               [&](Kernel& kernel) {
                                 for (const auto& item :
                                      kernel.results().items()) {
                                   rows.push_back(item.row);
                                 }
                               })
                  .ok());
  ASSERT_GE(rows.size(), 2u);
  EXPECT_NE(std::find(rows.begin(), rows.end(), 19'999), rows.end());
  EXPECT_EQ(rows.back(), 0);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(ApiCallTest, HostileSummaryKNeitherAbortsNorOverflows) {
  TouchServer server(RelaxedConfig(1));
  ASSERT_TRUE(server.RegisterTable(SmallTable()).ok());
  ASSERT_TRUE(server.Start().ok());
  const auto open = server.Call(api::OpenSessionReq{});
  ASSERT_TRUE(open.ok());
  api::CreateObjectReq create = ColumnObject("t", "v");
  create.session = open->session;
  const auto object = server.Call(create);
  ASSERT_TRUE(object.ok());
  const auto set_k = [&](std::int64_t k) {
    api::WireAction action = api::ToWire(ActionConfig::Summary(10));
    action.summary_k = k;
    return server
        .Call(api::SetActionReq{.session = open->session,
                                .object = object->object,
                                .action = action})
        .status();
  };
  const auto slide = [&] {
    ASSERT_TRUE(server
                    .Call(api::SubmitBatchReq{.session = open->session,
                                              .paced = false,
                                              .events = ShortSlide(0.5)})
                    .ok());
    ASSERT_TRUE(server.Drain().ok());
  };

  // A negative half-width is refused, and the object keeps its scan.
  EXPECT_TRUE(set_k(-5).IsInvalidArgument());
  slide();
  // The widest one covers the whole column.
  ASSERT_TRUE(set_k(std::numeric_limits<std::int64_t>::max()).ok());
  slide();
  ASSERT_TRUE(server
                  .WithSession(open->session,
                               [](Kernel& kernel) {
                                 std::int64_t summaries = 0;
                                 for (const auto& item :
                                      kernel.results().items()) {
                                   if (item.kind !=
                                       core::ResultKind::kSummary) {
                                     continue;
                                   }
                                   ++summaries;
                                   EXPECT_EQ(item.band_first, 0);
                                   EXPECT_EQ(item.band_last, 19'999);
                                 }
                                 EXPECT_GT(summaries, 0);
                               })
                  .ok());
  ASSERT_TRUE(server.Stop().ok());
}

TEST(ApiCallTest, ErrorsSurfaceAsStatuses) {
  TouchServer server(RelaxedConfig());
  ASSERT_TRUE(server.RegisterTable(SmallTable()).ok());
  ASSERT_TRUE(server.Start().ok());

  api::CloseSessionReq close;
  close.session = 12345;
  EXPECT_EQ(server.Call(close).status().code(), StatusCode::kNotFound);

  const auto session = server.Call(api::OpenSessionReq{});
  ASSERT_TRUE(session.ok());
  api::CreateObjectReq create;
  create.session = session->session;
  create.kind = 0;
  create.table = "missing";
  create.column = "v";
  create.frame = api::WireRect{1, 1, 2, 10};
  EXPECT_FALSE(server.Call(create).ok());

  api::SetActionReq set;
  set.session = session->session;
  set.object = 99;
  set.action.kind = 200;  // No such ActionKind.
  EXPECT_EQ(server.Call(set).status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(server.Stop().ok());
}

TEST(ApiCallTest, StatsIdleSemantics) {
  api::StatsResp stats;
  stats.submitted = 10;
  stats.executed = 8;
  stats.dropped_quanta = 1;
  EXPECT_FALSE(stats.idle());
  stats.dropped_quanta = 2;
  EXPECT_TRUE(stats.idle());
}

}  // namespace
}  // namespace dbtouch::server
