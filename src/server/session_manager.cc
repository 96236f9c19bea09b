#include "server/session_manager.h"

namespace dbtouch::server {

Result<SessionId> SessionManager::Open(const core::KernelConfig& config) {
  const SessionId id = next_id_.fetch_add(1);
  auto session = std::make_shared<ServerSession>(id, config, shared_);
  const std::lock_guard<std::mutex> lock(mu_);
  sessions_.emplace(id, std::move(session));
  return id;
}

Status SessionManager::Close(SessionId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  it->second->closed.store(true, std::memory_order_release);
  sessions_.erase(it);
  return Status::OK();
}

Result<std::shared_ptr<ServerSession>> SessionManager::Get(
    SessionId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  return it->second;
}

std::vector<std::shared_ptr<ServerSession>> SessionManager::Snapshot()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<ServerSession>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    out.push_back(session);
  }
  return out;
}

std::size_t SessionManager::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace dbtouch::server
