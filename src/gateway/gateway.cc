#include "gateway/gateway.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dbtouch::gateway {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string("gateway: ") + what + ": " +
                          std::strerror(errno));
}

}  // namespace

Gateway::Gateway(server::TouchServer& server, GatewayConfig config)
    : server_(server), config_(std::move(config)) {
  if (config_.num_loops < 1) config_.num_loops = 1;
}

Gateway::~Gateway() { (void)Stop(); }

Status Gateway::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("gateway: already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("gateway: bad host " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0) {
    Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    Status st = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);

  loops_.clear();
  for (int i = 0; i < config_.num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      Status st = Errno("epoll_create1/eventfd");
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
      ::close(listen_fd_);
      listen_fd_ = -1;
      loops_.clear();
      return st;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  // The acceptor lives on loop 0.
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { LoopMain(i); });
  }
  return Status::OK();
}

Status Gateway::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  for (auto& loop : loops_) {
    std::uint64_t one = 1;
    (void)!::write(loop->wake_fd, &one, sizeof(one));
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) {
    // Connections not closed by the loop thread (it exits on the wake):
    // close them here, sessions included.
    for (auto& [fd, conn] : loop->conns) {
      for (api::SessionId session : conn->sessions) {
        if (server_.Call(api::CloseSessionReq{.session = session}).ok()) {
          sessions_closed_on_disconnect_.fetch_add(1,
                                                   std::memory_order_relaxed);
        }
      }
      ::close(conn->fd);
      connections_active_.fetch_sub(1, std::memory_order_relaxed);
    }
    loop->conns.clear();
    {
      std::lock_guard<std::mutex> lock(loop->mu);
      for (int fd : loop->pending) ::close(fd);
      loop->pending.clear();
    }
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return Status::OK();
}

GatewayStatsSnapshot Gateway::stats() const {
  GatewayStatsSnapshot s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_active = connections_active_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.version_rejections = version_rejections_.load(std::memory_order_relaxed);
  s.slow_reader_closes = slow_reader_closes_.load(std::memory_order_relaxed);
  s.sessions_closed_on_disconnect =
      sessions_closed_on_disconnect_.load(std::memory_order_relaxed);
  return s;
}

void Gateway::LoopMain(std::size_t index) {
  Loop& loop = *loops_[index];
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      std::uint32_t mask = events[i].events;
      if (fd == loop.wake_fd) {
        std::uint64_t drained;
        while (::read(loop.wake_fd, &drained, sizeof(drained)) > 0) {
        }
        AdoptPending(loop);
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      Connection& conn = *it->second;
      if (mask & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(loop, conn);
        continue;
      }
      if (mask & EPOLLIN) {
        HandleReadable(loop, conn);
        // HandleReadable may have closed the connection.
        if (loop.conns.find(fd) == loop.conns.end()) continue;
      }
      if (mask & EPOLLOUT) {
        HandleWritable(loop, conn);
      }
    }
  }
}

void Gateway::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (static_cast<std::size_t>(
            connections_active_.load(std::memory_order_relaxed)) >=
        config_.max_connections) {
      // Over capacity: best-effort backpressure notice, then close. The
      // frame may not fit the socket buffer of a just-accepted socket
      // only in pathological cases; a lost notice still ends in a close
      // the client can observe. Count the rejection first: a client that
      // has read the notice and the close may read the stats right away.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      std::string frame =
          EncodeErrorFrame(MessageType::kError, 0, api::WireCode::kBackpressure,
                           "gateway: connection limit reached");
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    // Hand the connection to the least-loaded loop.
    std::size_t target = 0;
    std::size_t best = loops_[0]->conn_count.load(std::memory_order_relaxed);
    for (std::size_t i = 1; i < loops_.size(); ++i) {
      std::size_t count = loops_[i]->conn_count.load(std::memory_order_relaxed);
      if (count < best) {
        best = count;
        target = i;
      }
    }
    Loop& loop = *loops_[target];
    loop.conn_count.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(loop.mu);
      loop.pending.push_back(fd);
    }
    if (target == 0) {
      AdoptPending(loop);
    } else {
      std::uint64_t one_wake = 1;
      (void)!::write(loop.wake_fd, &one_wake, sizeof(one_wake));
    }
  }
}

void Gateway::AdoptPending(Loop& loop) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(loop.mu);
    fds.swap(loop.pending);
  }
  for (int fd : fds) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      connections_active_.fetch_sub(1, std::memory_order_relaxed);
      loop.conn_count.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    loop.conns.emplace(fd, std::move(conn));
  }
}

void Gateway::HandleReadable(Loop& loop, Connection& conn) {
  char chunk[64 * 1024];
  const std::size_t chunk_cap =
      std::min(sizeof(chunk), config_.read_chunk_bytes);
  while (true) {
    ssize_t n = ::read(conn.fd, chunk, chunk_cap);
    if (n > 0) {
      bytes_received_.fetch_add(n, std::memory_order_relaxed);
      conn.in.append(chunk, static_cast<std::size_t>(n));
      if (conn.in.size() >= kMaxPayloadBytes + kFrameHeaderBytes) {
        // Parse eagerly so a fast sender cannot balloon the read buffer.
        if (!ProcessFrames(loop, conn)) return;
      }
      continue;
    }
    if (n == 0) {
      // Peer closed (possibly mid-frame): drop the connection and its
      // sessions; any partial frame in conn.in is discarded.
      CloseConnection(loop, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(loop, conn);
    return;
  }
  if (!ProcessFrames(loop, conn)) return;
  (void)FlushWrites(loop, conn);
}

void Gateway::HandleWritable(Loop& loop, Connection& conn) {
  (void)FlushWrites(loop, conn);
}

bool Gateway::ProcessFrames(Loop& loop, Connection& conn) {
  std::size_t offset = 0;
  while (!conn.closing) {
    if (conn.in.size() - offset < kFrameHeaderBytes) break;
    std::string_view view(conn.in.data() + offset, conn.in.size() - offset);
    Result<FrameHeader> header = DecodeHeader(view);
    if (!header.ok()) {
      // Bad magic / oversize length: the stream is unframeable from here
      // on, so answer once and cut the connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn.out.append(EncodeErrorFrame(MessageType::kError, 0,
                                       api::WireCode::kMalformedFrame,
                                       header.status().message()));
      if (FlushWrites(loop, conn)) CloseConnection(loop, conn);
      return false;
    }
    if (view.size() - kFrameHeaderBytes < header->payload_len) break;
    offset += kFrameHeaderBytes;
    std::string_view payload(conn.in.data() + offset, header->payload_len);
    offset += header->payload_len;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (header->version != kWireVersion) {
      version_rejections_.fetch_add(1, std::memory_order_relaxed);
      conn.out.append(EncodeErrorFrame(
          header->message_type(), header->request_id,
          api::WireCode::kUnsupportedVersion,
          "gateway: protocol version " + std::to_string(header->version) +
              " not supported (speaking " + std::to_string(kWireVersion) +
              ")"));
      // Flush the rejection, then close; nothing after this frame is
      // trusted to parse under our version.
      conn.closing = true;
      break;
    }
    if (!DispatchFrame(conn, *header, payload)) {
      if (FlushWrites(loop, conn)) CloseConnection(loop, conn);
      return false;
    }
  }
  if (offset > 0) conn.in.erase(0, offset);
  return true;
}

bool Gateway::DispatchFrame(Connection& conn, const FrameHeader& header,
                            std::string_view payload) {
  const std::uint32_t id = header.request_id;
  const MessageType type = header.message_type();

  // Decode into the api struct, call the server, encode the reply. A
  // decode failure or trailing garbage is a malformed frame: answer and
  // poison the connection (return false).
  auto malformed = [&](const Status& st) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn.out.append(EncodeErrorFrame(type, id, api::WireCode::kMalformedFrame,
                                     st.message()));
    return false;
  };
  auto dispatch = [&](auto req) -> bool {
    WireReader r(payload);
    Status st = Decode(r, &req);
    if (!st.ok()) return malformed(st);
    if (!r.AtEnd()) {
      return malformed(Status::InvalidArgument(
          "wire: " + std::to_string(r.remaining()) +
          " trailing bytes after payload"));
    }
    auto resp = server_.Call(req);
    if (!resp.ok()) {
      conn.out.append(EncodeErrorFrame(type, id,
                                       api::WireCodeFromStatus(resp.status()),
                                       resp.status().message()));
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if constexpr (std::is_same_v<decltype(req), api::OpenSessionReq>) {
      conn.sessions.push_back(resp->session);
    } else if constexpr (std::is_same_v<decltype(req), api::CloseSessionReq>) {
      conn.sessions.erase(
          std::remove(conn.sessions.begin(), conn.sessions.end(), req.session),
          conn.sessions.end());
    }
    conn.out.append(EncodeResponseFrame(type, id, *resp));
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  switch (type) {
    case MessageType::kOpenSession:
      return dispatch(api::OpenSessionReq{});
    case MessageType::kCloseSession:
      return dispatch(api::CloseSessionReq{});
    case MessageType::kCreateObject:
      return dispatch(api::CreateObjectReq{});
    case MessageType::kSetAction:
      return dispatch(api::SetActionReq{});
    case MessageType::kSubmitBatch:
      return dispatch(api::SubmitBatchReq{});
    case MessageType::kStats:
      return dispatch(api::StatsReq{});
    case MessageType::kSessionSnapshot:
      return dispatch(api::SessionSnapshotReq{});
    case MessageType::kError:
      break;
  }
  return malformed(Status::InvalidArgument(
      "wire: unknown message type " + std::to_string(header.type)));
}

bool Gateway::FlushWrites(Loop& loop, Connection& conn) {
  while (conn.out_off < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                       conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_sent_.fetch_add(n, std::memory_order_relaxed);
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(loop, conn);
    return false;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.closing) {
      CloseConnection(loop, conn);
      return false;
    }
    UpdateEpollOut(loop, conn, false);
    return true;
  }
  // Still backlogged: reclaim consumed prefix, enforce the bound, arm
  // EPOLLOUT.
  if (conn.out_off > (64u << 10)) {
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  if (conn.out.size() - conn.out_off > config_.write_queue_limit_bytes) {
    slow_reader_closes_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(loop, conn);
    return false;
  }
  UpdateEpollOut(loop, conn, true);
  return true;
}

void Gateway::UpdateEpollOut(Loop& loop, Connection& conn, bool want) {
  if (conn.want_write == want) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Gateway::CloseConnection(Loop& loop, Connection& conn) {
  // Connection-owned sessions die with the connection; closing a session
  // aborts its in-flight block fetches (the PR-5 abort path) and drops
  // its queued quanta.
  for (api::SessionId session : conn.sessions) {
    if (server_.Call(api::CloseSessionReq{.session = session}).ok()) {
      sessions_closed_on_disconnect_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  int fd = conn.fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  loop.conns.erase(fd);
  loop.conn_count.fetch_sub(1, std::memory_order_relaxed);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace dbtouch::gateway
