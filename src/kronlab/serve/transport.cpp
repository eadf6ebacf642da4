#include "kronlab/serve/transport.hpp"

#include <cerrno>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "kronlab/common/random.hpp"

namespace kronlab::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw io_error("kronlab serve: " + what + ": " + std::strerror(errno));
}

/// Deadline → remaining poll() timeout in ms (-1 = forever, 0 = expired).
int poll_timeout(std::chrono::steady_clock::time_point end, bool infinite) {
  if (infinite) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      end - std::chrono::steady_clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

/// Stream-socket transport over one connected fd (TCP, Unix, socketpair).
class SocketTransport final : public Transport {
public:
  explicit SocketTransport(int fd) : fd_(fd) {}

  ~SocketTransport() override {
    if (fd_ >= 0) ::close(fd_);
  }

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  bool read_exact(void* buf, std::size_t n,
                  std::chrono::milliseconds deadline) override {
    const bool infinite = deadline < std::chrono::milliseconds::zero();
    const auto end = std::chrono::steady_clock::now() + deadline;
    auto* out = static_cast<std::uint8_t*>(buf);
    std::size_t got = 0;
    while (got < n) {
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, poll_timeout(end, infinite));
      if (pr < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll");
      }
      if (pr == 0) {
        throw timeout_error("kronlab serve: read deadline expired after " +
                            std::to_string(got) + "/" + std::to_string(n) +
                            " bytes");
      }
      const ssize_t r = ::recv(fd_, out + got, n - got, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw_errno("recv");
      }
      if (r == 0) {
        if (got == 0) return false; // clean EOF at a message boundary
        throw io_error("kronlab serve: peer closed mid-message (" +
                       std::to_string(got) + "/" + std::to_string(n) +
                       " bytes)");
      }
      got += static_cast<std::size_t>(r);
    }
    return true;
  }

  void write_all(const void* buf, std::size_t n) override {
    const auto* in = static_cast<const std::uint8_t*>(buf);
    std::size_t put = 0;
    while (put < n) {
      // MSG_NOSIGNAL: a peer that vanished mid-write is an io_error on
      // this connection, not a process-wide SIGPIPE.
      const ssize_t w = ::send(fd_, in + put, n - put, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        throw_errno("send");
      }
      put += static_cast<std::size_t>(w);
    }
  }

  void shutdown_read() override { ::shutdown(fd_, SHUT_RD); }

  void shutdown_write() override { ::shutdown(fd_, SHUT_WR); }

  void shutdown() override { ::shutdown(fd_, SHUT_RDWR); }

private:
  int fd_;
};

/// Listener over a bound fd, woken for close() through a self-pipe so a
/// blocked accept() returns promptly without racing on the fd's lifetime.
class SocketListener final : public Listener {
public:
  SocketListener(int fd, int port, std::string unlink_path)
      : fd_(fd), port_(port), unlink_path_(std::move(unlink_path)) {
    if (::pipe(wake_) != 0) {
      ::close(fd_);
      throw_errno("pipe");
    }
  }

  ~SocketListener() override {
    close();
    ::close(fd_);
    ::close(wake_[0]);
    ::close(wake_[1]);
    if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
  }

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  std::unique_ptr<Transport> accept() override {
    while (true) {
      pollfd pfds[2] = {{fd_, POLLIN, 0}, {wake_[0], POLLIN, 0}};
      const int pr = ::poll(pfds, 2, -1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll");
      }
      if ((pfds[1].revents & POLLIN) != 0) return nullptr; // close()d
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return nullptr; // listener torn down underneath us
      }
      return std::make_unique<SocketTransport>(conn);
    }
  }

  void close() override {
    const char byte = 0;
    // Best-effort wake; the pipe never fills (one byte per close call).
    [[maybe_unused]] const ssize_t w = ::write(wake_[1], &byte, 1);
  }

  [[nodiscard]] int port() const override { return port_; }

private:
  int fd_;
  int port_;
  std::string unlink_path_;
  int wake_[2] = {-1, -1};
};

} // namespace

std::unique_ptr<Listener> listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  return std::make_unique<SocketListener>(fd, ntohs(bound.sin_port), "");
}

std::unique_ptr<Listener> listen_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw io_error("kronlab serve: unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw_errno("bind " + path);
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen " + path);
  }
  return std::make_unique<SocketListener>(fd, -1, path);
}

std::unique_ptr<Transport> connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw io_error("kronlab serve: not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  return std::make_unique<SocketTransport>(fd);
}

std::unique_ptr<Transport> connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw io_error("kronlab serve: unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    throw_errno("connect " + path);
  }
  return std::make_unique<SocketTransport>(fd);
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
local_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("socketpair");
  }
  return {std::make_unique<SocketTransport>(fds[0]),
          std::make_unique<SocketTransport>(fds[1])};
}

// ---------------------------------------------------------------------------
// Fault shim.

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 TransportFaultPlan plan)
    : inner_(std::move(inner)), plan_(plan) {}

bool FaultyTransport::read_exact(void* buf, std::size_t n,
                                 std::chrono::milliseconds deadline) {
  return inner_->read_exact(buf, n, deadline);
}

void FaultyTransport::write_all(const void* buf, std::size_t n) {
  std::chrono::milliseconds nap{0};
  {
    MutexLock lock(mu_);
    // One deterministic draw per write, keyed on (seed, sequence) the way
    // dist/comm keys on (sender, receiver, channel sequence).
    std::uint64_t state = plan_.seed ^ (0x9E3779B97F4A7C15ull * ++writes_);
    const double u =
        static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
    if (u < plan_.drop) {
      ++stats_.dropped;
      return;
    }
    if (u < plan_.drop + plan_.delay) {
      ++stats_.delayed;
      nap = plan_.delay_for;
    }
  }
  if (nap.count() > 0) std::this_thread::sleep_for(nap);
  inner_->write_all(buf, n);
}

void FaultyTransport::shutdown_read() { inner_->shutdown_read(); }

void FaultyTransport::shutdown_write() { inner_->shutdown_write(); }

void FaultyTransport::shutdown() { inner_->shutdown(); }

TransportFaultStats FaultyTransport::fault_stats() const {
  MutexLock lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Framing.

void write_frame(Transport& t, const std::vector<word_t>& payload) {
  const auto frame = seal_frame(payload);
  t.write_all(frame.data(), frame.size());
}

std::optional<std::vector<word_t>> read_frame(
    Transport& t, std::chrono::milliseconds deadline) {
  std::uint8_t header[sizeof frame_magic + 8];
  if (!t.read_exact(header, sizeof header, deadline)) return std::nullopt;
  if (std::memcmp(header, frame_magic, sizeof frame_magic) != 0) {
    throw protocol_error("kronlab serve: bad frame magic");
  }
  std::uint64_t len = 0;
  std::memcpy(&len, header + sizeof frame_magic, 8);
  if (len > max_frame_bytes || len % sizeof(word_t) != 0) {
    throw protocol_error("kronlab serve: implausible frame length " +
                         std::to_string(len));
  }
  // Payload and checksum land in the word vector in one read; the
  // checksum word is then popped off its end.
  std::vector<word_t> payload(len / sizeof(word_t) + 1);
  if (!t.read_exact(payload.data(), static_cast<std::size_t>(len) + 8,
                    deadline)) {
    throw io_error("kronlab serve: peer closed mid-frame");
  }
  const auto stored = static_cast<std::uint64_t>(payload.back());
  payload.pop_back();
  if (stored != frame_checksum(payload)) {
    throw checksum_error("kronlab serve: frame checksum mismatch");
  }
  return payload;
}

} // namespace kronlab::serve
