// Helpers for tests that drive a TouchServer. Every request still goes
// through TouchServer::Call, as the gateway's do; this header only names
// the config and the open -> create -> set sequence most server tests
// start from.

#ifndef DBTOUCH_TESTS_SERVER_HARNESS_H_
#define DBTOUCH_TESTS_SERVER_HARNESS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/result.h"
#include "core/action.h"
#include "server/api.h"
#include "server/touch_server.h"

namespace dbtouch::server {

/// Budgets far above any realistic execution time, so nothing sheds or
/// drops and behaviour is deterministic.
inline TouchServerConfig RelaxedConfig(int workers = 2) {
  TouchServerConfig config;
  config.num_workers = workers;
  config.base_frame_budget_us = 10'000'000;  // 10 s.
  config.min_frame_budget_us = 10'000'000;
  config.est_row_ns = 0.0;
  config.drop_slack_us = 3'600'000'000;  // Effectively never drop.
  return config;
}

/// A column object over `table`.`column`; the default frame is the
/// 2 x 10 cm one the tests' slides run along (x = 3, y from 1 to 11).
inline api::CreateObjectReq ColumnObject(
    std::string table, std::string column,
    api::WireRect frame = {2.0, 1.0, 2.0, 10.0}) {
  return {.kind = 0,
          .table = std::move(table),
          .column = std::move(column),
          .frame = frame};
}

/// Opens a session, creates `create`'s object in it (its `session` field
/// is filled in here) and, when given, sets `action` on that object.
inline Result<SessionId> OpenWithObject(
    TouchServer& server, api::CreateObjectReq create,
    const std::optional<core::ActionConfig>& action = std::nullopt) {
  DBTOUCH_ASSIGN_OR_RETURN(const api::OpenSessionResp open,
                           server.Call(api::OpenSessionReq{}));
  create.session = open.session;
  DBTOUCH_ASSIGN_OR_RETURN(const api::CreateObjectResp made,
                           server.Call(create));
  if (action.has_value()) {
    DBTOUCH_RETURN_IF_ERROR(
        server
            .Call(api::SetActionReq{.session = open.session,
                                    .object = made.object,
                                    .action = api::ToWire(*action)})
            .status());
  }
  return open.session;
}

}  // namespace dbtouch::server

#endif  // DBTOUCH_TESTS_SERVER_HARNESS_H_
