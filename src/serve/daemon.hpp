// The gearsim daemon: a Service behind an AF_UNIX stream socket.
//
// Line protocol: clients write one request per line, the daemon answers
// one response line per request on the same connection (any number of
// round trips per connection; EOF ends it).  Reads are buffered per
// connection, and a request line longer than 1 MiB gets one error
// response before the connection closes.  Threading is one thread per
// live connection: a connection's thread is joined by the accept loop
// once it finishes, so threads never accumulate over the daemon's life,
// and the Service underneath bounds concurrent simulation work through
// its admission gate.
//
// Lifecycle: start() binds (replacing any stale socket file), listens
// and spawns the accept loop; a client's shutdown request — or a local
// request_stop() — stops accepting and wakes wait(); stop() shuts down
// the read side of every live connection (so a client idling on an open
// connection cannot hold the daemon up, while a request in flight still
// gets its answer), joins every thread and removes the socket file.
// Responses are sent without SIGPIPE, so a client that hangs up never
// kills the daemon.  Unix-only: on other platforms start() throws and
// `gearsim serve` reports the error (the Service and protocol layers
// stay fully portable/testable).
// See docs/SERVICE.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace gearsim::serve {

class Service;

class Daemon {
 public:
  struct Options {
    std::string socket_path = "gearsim.sock";
  };

  /// `service` must outlive the daemon.
  Daemon(Service& service, Options options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind + listen + start accepting.  Throws ContractError when the
  /// socket cannot be created (or on non-Unix platforms).
  void start();

  /// Block until a shutdown request arrives (or request_stop is called).
  void wait();

  /// Stop accepting and wake wait(); safe from any thread, including a
  /// connection thread that just answered a shutdown request.
  void request_stop();

  /// End every live connection once its current request is answered,
  /// join every thread and remove the socket file.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

 private:
  void accept_loop();
  void serve_connection(std::uint64_t id, int fd);

  Service& service_;
  Options options_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  struct Connection {
    std::thread thread;
    int fd = -1;  // -1 once its thread is about to close it.
  };
  std::mutex mutex_;  // Guards the connection fields and the stop cv.
  std::condition_variable stopped_cv_;
  std::unordered_map<std::uint64_t, Connection> connections_;
  std::vector<std::uint64_t> finished_ids_;  // Done, not yet joined.
  std::uint64_t next_connection_id_ = 0;
};

}  // namespace gearsim::serve
