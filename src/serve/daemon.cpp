#include "serve/daemon.hpp"

#include <utility>

#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace gearsim::serve {

Daemon::Daemon(Service& service, Options options)
    : service_(service), options_(std::move(options)) {}

Daemon::~Daemon() { stop(); }

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// Longest request line the daemon accepts, newline excluded.  A longer
/// one gets an error response and the connection closes, so a client
/// cannot make the daemon buffer without bound.
constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// Buffered line reader over one connection.  Bytes read past a line's
/// '\n' stay buffered for the next line on the same connection.
class LineReader {
 public:
  enum class Status { kLine, kClosed, kTooLong };

  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line into `line`, without its '\n'.  kClosed on EOF before any
  /// byte and on read errors; a final line without a newline is delivered
  /// as-is, so a client that forgets the terminator still gets an answer.
  Status next(std::string& line) {
    line.clear();
    for (;;) {
      const char* begin = buffer_ + begin_;
      const std::size_t buffered = end_ - begin_;
      const auto* newline =
          static_cast<const char*>(std::memchr(begin, '\n', buffered));
      const std::size_t take =
          newline != nullptr ? static_cast<std::size_t>(newline - begin)
                             : buffered;
      if (line.size() + take > kMaxRequestLine) return Status::kTooLong;
      line.append(begin, take);
      if (newline != nullptr) {
        begin_ += take + 1;
        return Status::kLine;
      }
      begin_ = end_ = 0;
      const ssize_t n = ::read(fd_, buffer_, sizeof(buffer_));
      if (n > 0) {
        end_ = static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) return line.empty() ? Status::kClosed : Status::kLine;
      if (errno == EINTR) continue;
      return Status::kClosed;
    }
  }

 private:
  int fd_;
  char buffer_[4096];
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// Send all of `bytes`.  A client that hung up fails the send with EPIPE
/// instead of raising SIGPIPE, which would kill the daemon.
bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, kSendFlags);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

void Daemon::start() {
  GEARSIM_REQUIRE(!running_.load(std::memory_order_acquire),
                  "daemon already started");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  GEARSIM_REQUIRE(options_.socket_path.size() < sizeof(addr.sun_path),
                  "socket path too long: " + options_.socket_path);
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  GEARSIM_REQUIRE(listen_fd_ >= 0,
                  std::string("socket(): ") + std::strerror(errno));
  // A previous daemon may have died without cleanup; the bind below
  // would fail on its stale socket file, so remove it first.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    GEARSIM_REQUIRE(false, "bind/listen " + options_.socket_path + ": " + error);
  }

  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or broken) — stop accepting.
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    // Join the connections that finished since the last accept, so a
    // long-lived daemon holds threads only for live connections.
    std::vector<std::thread> finished;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const std::uint64_t id : finished_ids_) {
        const auto it = connections_.find(id);
        finished.push_back(std::move(it->second.thread));
        connections_.erase(it);
      }
      finished_ids_.clear();
      const std::uint64_t id = next_connection_id_++;
      std::thread thread([this, id, fd] { serve_connection(id, fd); });
      connections_.emplace(id, Connection{std::move(thread), fd});
    }
    for (std::thread& t : finished) t.join();
  }
  {
    // Flip the flag under the waiters' mutex: otherwise it can land
    // between wait()'s predicate check and its sleep, and the wakeup is
    // lost.
    const std::lock_guard<std::mutex> lock(mutex_);
    running_.store(false, std::memory_order_release);
  }
  stopped_cv_.notify_all();
}

void Daemon::serve_connection(std::uint64_t id, int fd) {
  LineReader reader(fd);
  std::string line;
  for (;;) {
    const LineReader::Status status = reader.next(line);
    if (status == LineReader::Status::kClosed) break;
    if (status == LineReader::Status::kTooLong) {
      (void)write_all(fd, error_response("request line longer than " +
                                         std::to_string(kMaxRequestLine) +
                                         " bytes"));
      (void)write_all(fd, "\n");
      break;
    }
    const std::string response = service_.handle_line(line);
    if (!write_all(fd, response) || !write_all(fd, "\n")) break;
    if (service_.shutdown_requested()) {
      // The shutdown answer is already on the wire; tear the listener
      // down so wait() returns and no new connections land.
      request_stop();
      break;
    }
  }
  {
    // Drop the fd before closing it, under the mutex stop() shuts fds
    // down under, so stop() never touches a reused descriptor.
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = connections_.find(id);
    if (it != connections_.end()) it->second.fd = -1;
    finished_ids_.push_back(id);
  }
  ::close(fd);
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopped_cv_.wait(lock, [this] {
    return !running_.load(std::memory_order_acquire);
  });
}

void Daemon::request_stop() {
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    // Wakes the blocked accept() with an error; the loop then exits and
    // flips running_.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
}

void Daemon::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unordered_map<std::uint64_t, Connection> connections;
  {
    // No connection is accepted any more.  Shut down the read side of
    // every connection: a thread blocked in read() on an idle client sees
    // EOF and closes, so the client reads EOF too; a thread still
    // answering a request writes its response first and sees EOF on its
    // next read.
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, c] : connections_) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RD);
    }
    connections.swap(connections_);
  }
  for (auto& [id, c] : connections) {
    if (c.thread.joinable()) c.thread.join();
  }
  {
    // Every connection has recorded its id by now; a restarted daemon
    // must not try to reap them.
    const std::lock_guard<std::mutex> lock(mutex_);
    finished_ids_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  running_.store(false, std::memory_order_release);
}

#else  // !(__unix__ || __APPLE__)

void Daemon::start() {
  GEARSIM_REQUIRE(false, "gearsim daemon requires AF_UNIX sockets");
}
void Daemon::accept_loop() {}
void Daemon::serve_connection(std::uint64_t, int) {}
void Daemon::wait() {}
void Daemon::request_stop() {}
void Daemon::stop() {}

#endif

}  // namespace gearsim::serve
