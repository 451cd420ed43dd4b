#include "http_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

#include "trace.hpp"

namespace perfbench {

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  return request;
}

HttpCall::~HttpCall() { close_fd(); }

void HttpCall::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool HttpCall::start(std::uint16_t port, const std::string& request) {
  close_fd();
  done_ = false;
  response_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close_fd();
    return false;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      close_fd();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

bool HttpCall::poll() {
  if (done_) return true;
  if (fd_ < 0) {
    done_ = true;
    done_ns_ = now_ns();
    return true;
  }
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      response_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (n < 0 && errno == EINTR) continue;
    // EOF or a hard error: the exchange is over either way.
    done_ = true;
    done_ns_ = now_ns();
    close_fd();
    return true;
  }
}

void HttpCall::wait() {
  // Spins rather than sleeping in poll(2): waking a sleeping thread costs
  // a host-dependent delay on a VM, which set-up times would then measure.
  const std::int64_t deadline = now_ns() + kWaitTimeoutNs;
  while (!poll()) {
    if (now_ns() > deadline) {
      close_fd();
      response_.clear();
      done_ = true;
      done_ns_ = now_ns();
      return;
    }
  }
}

int HttpCall::status() const {
  // "HTTP/1.1 201 Created"
  if (response_.size() < 12 || response_.compare(0, 5, "HTTP/") != 0) return 0;
  const std::size_t space = response_.find(' ');
  if (space == std::string::npos) return 0;
  return std::atoi(response_.c_str() + space + 1);
}

std::string HttpCall::body() const {
  const std::size_t end = response_.find("\r\n\r\n");
  return end == std::string::npos ? std::string() : response_.substr(end + 4);
}

int http_blocking(std::uint16_t port, const std::string& method,
                  const std::string& target, const std::string& payload,
                  std::string* body) {
  HttpCall call;
  if (!call.start(port, http_request(method, target, payload))) return 0;
  call.wait();
  if (body != nullptr) *body = call.body();
  return call.status();
}

}  // namespace perfbench
