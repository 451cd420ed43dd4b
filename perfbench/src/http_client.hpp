// Minimal HTTP/1.1 client for the node's loopback REST server. One
// connection per request (the server answers with Connection: close).
// start() connects and writes the request; poll() reads whatever has
// arrived without blocking, so the traffic loop can keep pacing frames
// while a request is outstanding.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body);

class HttpCall {
 public:
  HttpCall() = default;
  ~HttpCall();
  HttpCall(const HttpCall&) = delete;
  HttpCall& operator=(const HttpCall&) = delete;

  /// Connects to 127.0.0.1:`port` and sends `request`. False on error.
  bool start(std::uint16_t port, const std::string& request);

  /// Reads what is available; true once the server closed the
  /// connection (the whole response is in response()).
  bool poll();

  /// Busy-waits until the response is complete, or for at most
  /// kWaitTimeoutNs (then status() is 0).
  void wait();
  static constexpr std::int64_t kWaitTimeoutNs = 5'000'000'000;

  [[nodiscard]] bool done() const { return done_; }
  /// HTTP status code, or 0 when the response was not parsed.
  [[nodiscard]] int status() const;
  [[nodiscard]] std::string body() const;
  [[nodiscard]] std::int64_t done_ns() const { return done_ns_; }

 private:
  void close_fd();

  int fd_ = -1;
  bool done_ = false;
  std::int64_t done_ns_ = 0;
  std::string response_;
};

/// Sends one request and waits for the reply; returns the status code
/// (0 on transport failure) and stores the body in `body` when given.
int http_blocking(std::uint16_t port, const std::string& method,
                  const std::string& target, const std::string& payload,
                  std::string* body = nullptr);

}  // namespace perfbench
