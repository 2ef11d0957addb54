#include "serve/net.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace respin::serve {

std::size_t serve_stdio(LineService& service, std::istream& in,
                        std::ostream& out) {
  std::size_t handled = 0;
  std::string line;
  // Streamed event lines may arrive from the service's dispatch threads
  // while handle_line() blocks; serialize writes so lines never tear.
  std::mutex write_mu;
  const Emit emit = [&](const std::string& event) {
    std::lock_guard<std::mutex> lock(write_mu);
    out << event << '\n';
    out.flush();
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string response = service.handle_line(line, emit);
    {
      std::lock_guard<std::mutex> lock(write_mu);
      out << response << '\n';
      out.flush();
    }
    ++handled;
    if (service.draining()) break;
  }
  service.drain();
  return handled;
}

namespace {

/// Write end of the self-pipe; the signal handler's only side effect.
std::atomic<int> g_signal_pipe_wr{-1};

extern "C" void handle_termination_signal(int) {
  const int fd = g_signal_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

/// Open client connections, so shutdown can unblock their reader threads.
class ConnectionRegistry {
 public:
  void add(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    fds_.push_back(fd);
  }
  void remove(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    fds_.erase(std::remove(fds_.begin(), fds_.end(), fd), fds_.end());
  }
  void shutdown_all() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
  }

 private:
  std::mutex mu_;
  std::vector<int> fds_;
};

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// One connection: newline-framed requests in, one terminal response line
/// each, intermediate event lines interleaved under the write lock.
void serve_connection(LineService& service, ConnectionRegistry& registry,
                      int fd) {
  std::string buffer;
  char chunk[4096];
  std::mutex write_mu;
  const Emit emit = [&](const std::string& event) {
    std::lock_guard<std::mutex> lock(write_mu);
    // A dead client just drops events; the terminal send notices.
    (void)send_all(fd, event + "\n");
  };
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = service.handle_line(line, emit);
      bool ok = false;
      {
        std::lock_guard<std::mutex> lock(write_mu);
        ok = send_all(fd, response + "\n");
      }
      if (!ok) {
        start = buffer.size();
        break;
      }
    }
    buffer.erase(0, start);
  }
  registry.remove(fd);
  ::close(fd);
}

}  // namespace

int serve_tcp(LineService& service, std::uint16_t port, std::ostream& log,
              const std::string& name) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    log << name << ": socket() failed: " << std::strerror(errno) << '\n';
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    log << name << ": bind(" << port << ") failed: " << std::strerror(errno)
        << '\n';
    ::close(listen_fd);
    return 1;
  }
  if (::listen(listen_fd, 16) != 0) {
    log << name << ": listen() failed: " << std::strerror(errno) << '\n';
    ::close(listen_fd);
    return 1;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  const std::uint16_t bound_port = ntohs(addr.sin_port);

  // Self-pipe: the signal handler writes one byte; poll() below watches
  // the read end, so SIGTERM interrupts accept() deterministically.
  int signal_pipe[2] = {-1, -1};
  if (::pipe(signal_pipe) != 0) {
    log << name << ": pipe() failed: " << std::strerror(errno) << '\n';
    ::close(listen_fd);
    return 1;
  }
  g_signal_pipe_wr.store(signal_pipe[1], std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = handle_termination_signal;
  ::sigemptyset(&action.sa_mask);
  struct sigaction old_term {}, old_int {};
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);

  log << name << ": listening on port " << bound_port << '\n';
  log.flush();

  ConnectionRegistry registry;
  std::vector<std::thread> connections;
  bool signalled = false;
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {signal_pipe[0], POLLIN, 0}};
    // Finite timeout so a `shutdown` op served on a connection thread is
    // noticed even while no new connection arrives.
    const int ready = ::poll(fds, 2, 200);
    if (service.draining()) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      signalled = true;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int client_fd = ::accept(listen_fd, nullptr, nullptr);
      if (client_fd < 0) continue;
      // Each response is its own small write; without this, Nagle holds a
      // pipelined second response until the client's delayed ACK (~40 ms).
      ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      registry.add(client_fd);
      connections.emplace_back(serve_connection, std::ref(service),
                               std::ref(registry), client_fd);
    }
  }

  log << name << ": "
      << (signalled ? "termination signal received" : "shutdown requested")
      << ", draining\n";
  log.flush();
  ::close(listen_fd);
  service.drain();  // Finish queued + in-flight work (checkpointed).
  registry.shutdown_all();
  for (std::thread& t : connections) t.join();

  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  g_signal_pipe_wr.store(-1, std::memory_order_relaxed);
  ::close(signal_pipe[0]);
  ::close(signal_pipe[1]);
  log << name << ": drained, exiting\n";
  log.flush();
  return 0;
}

}  // namespace respin::serve
