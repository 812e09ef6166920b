#include "service/udp_socket.hpp"
#include <netdb.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace emergence::service {
namespace {

sockaddr_in to_sockaddr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ep.ip);
  addr.sin_port = htons(ep.port);
  return addr;
}

Endpoint from_sockaddr(const sockaddr_in& addr) {
  return Endpoint{ntohl(addr.sin_addr.s_addr), ntohs(addr.sin_port)};
}

}  // namespace

Endpoint resolve_endpoint(const std::string& text) {
  try {
    return Endpoint::parse(text);
  } catch (const Error&) {
    // Not a dotted quad; fall through to DNS.
  }
  const auto colon = text.rfind(':');
  require(colon != std::string::npos && colon > 0 && colon + 1 < text.size(),
          "endpoint '" + text + "': expected HOST:PORT");
  const std::string host = text.substr(0, colon);
  const std::string port = text.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_DGRAM;
  addrinfo* result = nullptr;
  require(::getaddrinfo(host.c_str(), port.c_str(), &hints, &result) == 0 &&
              result != nullptr,
          "endpoint '" + text + "': host did not resolve");
  const auto* addr = reinterpret_cast<const sockaddr_in*>(result->ai_addr);
  const Endpoint resolved{ntohl(addr->sin_addr.s_addr),
                          ntohs(addr->sin_port)};
  ::freeaddrinfo(result);
  return resolved;
}

UdpSocket::UdpSocket(const Endpoint& listen) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  require(fd_ >= 0, std::string("UdpSocket: socket() failed: ") +
                        std::strerror(errno));
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int saved = errno;
    ::close(fd_);
    throw PreconditionError(std::string("UdpSocket: O_NONBLOCK failed: ") +
                            std::strerror(saved));
  }
  sockaddr_in addr = to_sockaddr(listen);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd_);
    throw PreconditionError("UdpSocket: bind(" + listen.to_string() +
                            ") failed: " + std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int saved = errno;
    ::close(fd_);
    throw PreconditionError(std::string("UdpSocket: getsockname failed: ") +
                            std::strerror(saved));
  }
  local_ = from_sockaddr(bound);
  // A wildcard bind reports 0.0.0.0; keep the requested address for
  // to_string/self-addressing, only adopt the kernel-resolved port.
  if (listen.ip != 0) local_.ip = listen.ip;
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpSocket::send_to(const Endpoint& to, BytesView datagram) {
  sockaddr_in addr = to_sockaddr(to);
  // Fire-and-forget, like the wire: a full socket buffer or a transient
  // errno loses the datagram exactly as the network could; retries live at
  // the request layer, not here. The loss is counted by errno class.
  if (::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) >= 0)
    return;
  switch (errno) {
    case EAGAIN:
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      ++send_errors_.would_block;
      break;
    case ENOBUFS:
      ++send_errors_.no_buffers;
      break;
    case EMSGSIZE:
      ++send_errors_.too_large;
      break;
    default:
      ++send_errors_.other;
  }
}

void UdpSocket::on_receive(Handler handler) { handler_ = std::move(handler); }

std::size_t UdpSocket::poll(double max_wait_seconds) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int timeout_ms =
      max_wait_seconds <= 0.0
          ? 0
          : static_cast<int>(std::ceil(max_wait_seconds * 1000.0));
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return 0;

  std::size_t received = 0;
  std::uint8_t buffer[65536];
  while (true) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n =
        ::recvfrom(fd_, buffer, sizeof(buffer), 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) break;  // EAGAIN/EWOULDBLOCK: drained
    ++received;
    if (handler_)
      handler_(from_sockaddr(from),
               BytesView(buffer, static_cast<std::size_t>(n)));
  }
  return received;
}

}  // namespace emergence::service
