#include "serve/client.hpp"

#include <arpa/inet.h>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

namespace respin::serve {

LineClient::LineClient(std::string host, std::uint16_t port)
    : host_(std::move(host)), port_(port) {}

LineClient::~LineClient() { close(); }

LineClient::LineClient(LineClient&& other) noexcept
    : host_(std::move(other.host_)),
      port_(other.port_),
      fd_(other.fd_),
      buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    close();
    host_ = std::move(other.host_);
    port_ = other.port_;
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void LineClient::connect() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad worker address: " + host_);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to " + host_ + ":" +
                             std::to_string(port_) + " failed: " + reason);
  }
  // Request lines are small writes; send each at once instead of letting
  // Nagle wait on the worker's delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  buffer_.clear();
}

std::string LineClient::read_line() {
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      close();
      throw std::runtime_error("worker " + host_ + ":" +
                               std::to_string(port_) +
                               " closed the connection mid-response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string LineClient::roundtrip(const std::string& line) {
  if (fd_ < 0) connect();
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) {
      close();
      throw std::runtime_error("send to worker " + host_ + ":" +
                               std::to_string(port_) + " failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  return read_line();
}

}  // namespace respin::serve
