#include "serve/client.hpp"

#include <utility>

#include "util/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace gearsim::serve {

Client::Client(std::string socket_path)
    : socket_path_(std::move(socket_path)) {}

#if defined(__unix__) || defined(__APPLE__)

std::string Client::request(std::string_view line) const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  GEARSIM_REQUIRE(socket_path_.size() < sizeof(addr.sun_path),
                  "socket path too long: " + socket_path_);
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  GEARSIM_REQUIRE(fd >= 0, std::string("socket(): ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    GEARSIM_REQUIRE(false, "connect " + socket_path_ + ": " + error);
  }

  std::string wire(line);
  wire += '\n';
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const std::string error = std::strerror(errno);
    ::close(fd);
    GEARSIM_REQUIRE(false, "write " + socket_path_ + ": " + error);
  }

  // One request per connection, so the response is everything up to the
  // first '\n'.
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      const auto bytes = static_cast<std::size_t>(n);
      const auto* newline =
          static_cast<const char*>(std::memchr(buffer, '\n', bytes));
      response.append(buffer, newline != nullptr
                                  ? static_cast<std::size_t>(newline - buffer)
                                  : bytes);
      if (newline != nullptr) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ::close(fd);
    GEARSIM_REQUIRE(n == 0, std::string("read: ") + std::strerror(errno));
    GEARSIM_REQUIRE(false, "daemon closed the connection mid-response");
  }
  ::close(fd);
  return response;
}

#else  // !(__unix__ || __APPLE__)

std::string Client::request(std::string_view) const {
  GEARSIM_REQUIRE(false, "gearsim client requires AF_UNIX sockets");
}

#endif

}  // namespace gearsim::serve
