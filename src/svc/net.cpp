#include "svc/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "base/error.hpp"
#include "base/fault.hpp"
#include "base/string_util.hpp"

namespace tir::svc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

struct Parsed {
  bool is_unix = false;
  std::string path;   ///< unix
  std::string host;   ///< tcp
  int port = 0;       ///< tcp
};

Parsed parse_endpoint(const std::string& endpoint) {
  Parsed p;
  if (endpoint.rfind("unix:", 0) == 0) {
    p.is_unix = true;
    p.path = endpoint.substr(5);
    if (p.path.empty()) throw ConfigError("empty unix socket path in '" + endpoint + "'");
    if (p.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw ConfigError("unix socket path too long: " + p.path);
    }
    return p;
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      throw ConfigError("tcp endpoint needs HOST:PORT, got '" + endpoint + "'");
    }
    p.host = rest.substr(0, colon);
    std::uint64_t port = 0;
    try {
      port = str::to_u64(std::string_view(rest).substr(colon + 1), "tcp port");
    } catch (const ParseError& e) {
      throw ConfigError("bad tcp endpoint '" + endpoint + "': " + e.what());
    }
    if (p.host.empty() || port > 65535) throw ConfigError("bad tcp endpoint '" + endpoint + "'");
    p.port = static_cast<int>(port);
    return p;
  }
  throw ConfigError("endpoint must start with unix: or tcp: — got '" + endpoint + "'");
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ConfigError("tcp host must be a dotted IPv4 address, got '" + host + "'");
  }
  return addr;
}

void set_socket_timeout(int fd, int option, int ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

/// Finish a connect() that EINTR interrupted: on POSIX the connection keeps
/// establishing asynchronously, so re-calling connect() is wrong (EALREADY /
/// spurious EADDRINUSE) — poll for writability and read SO_ERROR instead.
void finish_interrupted_connect(int fd, const std::string& endpoint) {
  pollfd pfd{fd, POLLOUT, 0};
  for (;;) {
    const int r = ::poll(&pfd, 1, -1);
    if (r > 0) break;
    if (r < 0 && errno == EINTR) continue;
    fail("poll after interrupted connect " + endpoint);
  }
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) fail("getsockopt " + endpoint);
  if (err != 0) {
    errno = err;
    fail("connect " + endpoint);
  }
}

}  // namespace

LineConn& LineConn::operator=(LineConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    timeout_mode_ = other.timeout_mode_;
    other.fd_ = -1;
  }
  return *this;
}

void LineConn::set_timeouts(int recv_ms, int send_ms, TimeoutMode mode) {
  timeout_mode_ = mode;
  if (fd_ < 0) return;
  set_socket_timeout(fd_, SO_RCVTIMEO, recv_ms);
  set_socket_timeout(fd_, SO_SNDTIMEO, send_ms);
}

void LineConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool LineConn::read_line(std::string& out, std::size_t max_line) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    if (buffer_.size() > max_line) throw Error("line exceeds " + std::to_string(max_line) + " bytes");
    switch (fault::point("svc.net.read")) {
      case fault::Kind::Eintr:
        continue;  // what a real EINTR return does: retry the syscall
      case fault::Kind::Reset:
        throw Error("recv: injected connection reset");
      case fault::Kind::Stall:
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        break;
      default:
        break;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) {
      if (!buffer_.empty()) {  // final unterminated line
        out = std::move(buffer_);
        buffer_.clear();
        return true;
      }
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired.  Whether that is fatal depends on the mode:
        // the server only cuts peers that stalled *mid-line* (slow loris);
        // the client treats any stall as its deadline talking.
        if (timeout_mode_ == TimeoutMode::Always ||
            (timeout_mode_ == TimeoutMode::MidLine && !buffer_.empty())) {
          throw Error("read timeout (" +
                      std::string(buffer_.empty() ? "no data" : "stalled mid-line") + ")");
        }
        continue;
      }
      fail("recv");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineConn::write_line(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    std::size_t len = framed.size() - sent;
    switch (fault::point("svc.net.write")) {
      case fault::Kind::Eintr:
        continue;  // what a real EINTR return does: retry the syscall
      case fault::Kind::Reset:
        return false;  // peer vanished between our writes
      case fault::Kind::ShortWrite:
        len = 1;  // force the partial-write continuation path
        break;
      default:
        break;
    }
    const ssize_t n = ::send(fd_, framed.data() + sent, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      // SO_SNDTIMEO expired: the peer stopped draining its socket.  Treat
      // it as gone — blocking a worker on a wedged client is the one thing
      // the server must never do.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Listener::Listener(const std::string& endpoint) {
  const Parsed p = parse_endpoint(endpoint);
  if (p.is_unix) {
    ::unlink(p.path.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) fail("socket(unix)");
    const sockaddr_un addr = make_unix_addr(p.path);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      fail("bind " + p.path);
    }
    unlink_path_ = p.path;
    endpoint_ = "unix:" + p.path;
  } else {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail("socket(tcp)");
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = make_tcp_addr(p.host, p.port);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      fail("bind " + endpoint);
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) fail("getsockname");
    char host[INET_ADDRSTRLEN] = {};
    inet_ntop(AF_INET, &addr.sin_addr, host, sizeof host);
    endpoint_ = "tcp:" + std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
  }
  if (::listen(fd_, 64) < 0) fail("listen " + endpoint_);
}

LineConn Listener::accept() {
  for (;;) {
    const int listen_fd = fd_.load();
    if (listen_fd < 0) return LineConn();  // closed by the shutdown thread
    if (fault::point("svc.net.accept") == fault::Kind::AcceptFail) {
      continue;  // a transient accept() failure: the loop just retries
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return LineConn(fd);
    if (errno == EINTR) continue;
    // Transient per-connection failures must not stop the accept loop: the
    // peer aborted its own connect (ECONNABORTED) or the host briefly ran
    // out of descriptors/buffers — the next accept() may well succeed.
    if (errno == ECONNABORTED || errno == EPROTO) continue;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
      // Resource exhaustion clears when a connection closes; don't hot-spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    // EBADF/EINVAL after close() from the shutdown thread: orderly stop.
    return LineConn();
  }
}

void Listener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() first so a concurrent accept() in another thread unblocks
    // even on platforms where close() alone leaves it sleeping.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

LineConn dial(const std::string& endpoint) {
  const Parsed p = parse_endpoint(endpoint);
  if (fault::point("svc.net.dial") == fault::Kind::Reset) {
    errno = ECONNRESET;
    fail("connect " + endpoint + " (injected)");
  }
  sockaddr_un unix_addr{};
  sockaddr_in tcp_addr{};
  const sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  if (p.is_unix) {
    unix_addr = make_unix_addr(p.path);
    addr = reinterpret_cast<const sockaddr*>(&unix_addr);
    addr_len = sizeof unix_addr;
  } else {
    tcp_addr = make_tcp_addr(p.host, p.port);
    addr = reinterpret_cast<const sockaddr*>(&tcp_addr);
    addr_len = sizeof tcp_addr;
  }
  const int fd = ::socket(p.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail(p.is_unix ? "socket(unix)" : "socket(tcp)");
  if (::connect(fd, addr, addr_len) < 0) {
    if (errno == EINTR) {
      // The connection keeps establishing in the background; wait for it.
      try {
        finish_interrupted_connect(fd, endpoint);
        return LineConn(fd);
      } catch (...) {
        ::close(fd);
        throw;
      }
    }
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect " + endpoint);
  }
  return LineConn(fd);
}

}  // namespace tir::svc
