#include "cluster/frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace odenet::cluster {

namespace {

// EINTR-looping full read. Returns true on `size` bytes, false on a
// clean EOF at offset 0; throws on mid-frame EOF or a socket error.
bool read_exact(int fd, std::uint8_t* buf, std::size_t size,
                const char* what) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, buf + got, size - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return false;  // clean close at a frame boundary
      ODENET_CHECK(false, "connection closed mid-" << what << ": got " << got
                                                   << " of " << size
                                                   << " byte(s)");
    }
    if (errno == EINTR) continue;
    ODENET_CHECK(false,
                 "read failed mid-" << what << ": " << std::strerror(errno));
  }
  return true;
}

void write_all(int fd, const std::uint8_t* buf, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, buf + sent, size - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ODENET_CHECK(false, "write failed: " << std::strerror(errno));
  }
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

// One accepted socket: a reader thread (parse → submit → enqueue) and a
// writer thread (resolve futures in arrival order → respond). done goes
// true when either side finishes or stop() shuts the socket down; the
// writer drains what it was already handed, then exits.
struct SocketFrontend::Connection {
  int fd = -1;
  std::thread reader;
  std::thread writer;

  struct PendingReply {
    std::uint64_t id = 0;
    std::size_t shard = kNoShard;
    std::future<runtime::InferenceResult> future;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<PendingReply> replies;
  bool done = false;
};

SocketFrontend::SocketFrontend(EngineCluster& cluster, FrontendConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {}

SocketFrontend::~SocketFrontend() { stop(); }

void SocketFrontend::start() {
  ODENET_CHECK(!running_.load(), "frontend already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  ODENET_CHECK(listen_fd_ >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  ODENET_CHECK(::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) == 1,
               "bad frontend host '" << cfg_.host << "'");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    close_fd(listen_fd_);
    ODENET_CHECK(false, "bind(" << cfg_.host << ":" << cfg_.port
                                << "): " << err);
  }
  if (::listen(listen_fd_, cfg_.backlog) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(listen_fd_);
    ODENET_CHECK(false, "listen(): " << err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ODENET_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "getsockname(): " << std::strerror(errno));
  port_ = ntohs(bound.sin_port);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketFrontend::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Unblock accept() by shutting the listener down, then close it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fd(listen_fd_);
  close_all_connections();
}

void SocketFrontend::close_all_connections() {
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);  // unblocks the reader
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->done = true;
    }
    conn->cv.notify_all();
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    close_fd(conn->fd);
  }
}

void SocketFrontend::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (stop()) or failed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection& ref = *conn;
    conn->reader = std::thread([this, &ref] { reader_loop(ref); });
    conn->writer = std::thread([this, &ref] { writer_loop(ref); });
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(std::move(conn));
  }
}

void SocketFrontend::reader_loop(Connection& conn) {
  std::vector<std::uint8_t> payload;
  while (true) {
    std::uint8_t header[kFrameHeaderBytes];
    bool fatal = false;
    try {
      if (!read_exact(conn.fd, header, sizeof(header), "frame header")) {
        break;  // client closed cleanly between frames
      }
      const std::uint32_t length = decode_frame_length(header);
      ODENET_CHECK(length <= kMaxFramePayload,
                   "frame prefix promises " << length
                                            << " bytes, protocol bound is "
                                            << kMaxFramePayload);
      payload.resize(length);
      ODENET_CHECK(read_exact(conn.fd, payload.data(), length, "frame"),
                   "connection closed mid-frame");

      const WireRequest wire = decode_request(payload.data(), payload.size());
      requests_.fetch_add(1, std::memory_order_relaxed);

      core::Tensor image({wire.channels, wire.height, wire.width});
      image.storage() = wire.pixels;

      runtime::SubmitOptions opts;
      opts.priority = wire.priority;
      opts.evictable = wire.evictable;
      if (wire.deadline_us > 0) {
        opts.deadline = std::chrono::microseconds(wire.deadline_us);
      }
      opts.tenant = wire.tenant;
      opts.model = wire.model;
      opts.model_version = wire.model_version;
      std::size_t shard = kNoShard;
      Connection::PendingReply reply;
      reply.id = wire.id;
      reply.future = cluster_.submit(std::move(image), opts, &shard);
      reply.shard = shard;
      {
        std::lock_guard<std::mutex> lock(conn.mutex);
        conn.replies.push_back(std::move(reply));
      }
      conn.cv.notify_one();
      continue;
    } catch (const Error& e) {
      // Framing is lost — best-effort error reply, then drop the
      // connection. (A write failure here is ignored: the socket may
      // already be gone.)
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      WireResponse res;
      res.status = ResponseStatus::kError;
      res.message = e.what();
      try {
        const std::vector<std::uint8_t> frame = encode_response(res);
        write_all(conn.fd, frame.data(), frame.size());
      } catch (const Error&) {
      }
      fatal = true;
    }
    if (fatal) break;
  }
  ::shutdown(conn.fd, SHUT_RD);
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.done = true;
  }
  conn.cv.notify_all();
}

void SocketFrontend::writer_loop(Connection& conn) {
  while (true) {
    Connection::PendingReply reply;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.cv.wait(lock, [&conn] { return conn.done || !conn.replies.empty(); });
      if (conn.replies.empty()) {
        return;  // done && drained
      }
      reply = std::move(conn.replies.front());
      conn.replies.pop_front();
    }

    WireResponse res;
    res.id = reply.id;
    res.shard = reply.shard == kNoShard
                    ? kNoShardByte
                    : static_cast<std::uint8_t>(reply.shard);
    try {
      const runtime::InferenceResult r = reply.future.get();
      res.status = ResponseStatus::kOk;
      res.predicted = r.predicted;
      res.latency_ms = static_cast<float>(r.total_seconds * 1e3);
      res.model_version = r.model_version;
      res.logits.assign(r.logits.data(),
                        r.logits.data() + r.logits.numel());
    } catch (const runtime::QueueFull& e) {
      res.status = ResponseStatus::kShed;
      res.message = e.what();
    } catch (const runtime::DeadlineExceeded& e) {
      res.status = ResponseStatus::kDeadlineExceeded;
      res.message = e.what();
    } catch (const std::exception& e) {
      res.status = ResponseStatus::kError;
      res.message = e.what();
    }

    try {
      const std::vector<std::uint8_t> frame = encode_response(res);
      write_all(conn.fd, frame.data(), frame.size());
      responses_.fetch_add(1, std::memory_order_relaxed);
    } catch (const Error&) {
      return;  // client gone; keep draining is pointless
    }
  }
}

FrontendCounters SocketFrontend::counters() const {
  FrontendCounters c;
  c.connections = connections_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.responses = responses_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// FrontendClient

FrontendClient::FrontendClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  ODENET_CHECK(fd_ >= 0, "socket(): " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ODENET_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "bad host '" << host << "'");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(fd_);
    ODENET_CHECK(false, "connect(" << host << ":" << port << "): " << err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

FrontendClient::~FrontendClient() { close(); }

void FrontendClient::send(const WireRequest& req) {
  const std::vector<std::uint8_t> frame = encode_request(req);
  send_raw(frame.data(), frame.size());
}

void FrontendClient::send_raw(const void* data, std::size_t size) {
  ODENET_CHECK(fd_ >= 0, "client already closed");
  write_all(fd_, static_cast<const std::uint8_t*>(data), size);
}

WireResponse FrontendClient::recv() {
  ODENET_CHECK(fd_ >= 0, "client already closed");
  std::uint8_t header[kFrameHeaderBytes];
  ODENET_CHECK(read_exact(fd_, header, sizeof(header), "response header"),
               "server closed the connection");
  const std::uint32_t length = decode_frame_length(header);
  ODENET_CHECK(length <= kMaxFramePayload,
               "response prefix promises " << length
                                           << " bytes, protocol bound is "
                                           << kMaxFramePayload);
  std::vector<std::uint8_t> payload(length);
  ODENET_CHECK(read_exact(fd_, payload.data(), length, "response"),
               "server closed mid-response");
  return decode_response(payload.data(), payload.size());
}

void FrontendClient::close() { close_fd(fd_); }

}  // namespace odenet::cluster
