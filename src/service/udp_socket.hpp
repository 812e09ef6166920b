// POSIX UDP binding of the DatagramSocket seam (the real transport).
//
// Non-blocking socket + poll(2): the daemon's run loop alternates
// WallClock::fire_due() with poll(seconds_until_next), so timers and
// datagrams interleave on one thread with no locks — the same single-
// threaded event discipline the simulator enforces.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "service/datagram.hpp"

namespace emergence::service {

/// Endpoint::parse plus DNS: "host:port" resolves the host via getaddrinfo
/// (IPv4), so docker-compose service names ("seed:4100") work wherever the
/// daemon/tool flags accept an endpoint. Throws PreconditionError when the
/// host does not resolve.
Endpoint resolve_endpoint(const std::string& text);

/// sendto(2) failures by errno class. Sends stay fire-and-forget — a failed
/// send loses the datagram exactly as the network could — but each loss is
/// counted, so a daemon that drops frames at its own socket shows it.
struct UdpSendErrors {
  std::uint64_t would_block = 0;  ///< EAGAIN / EWOULDBLOCK: send buffer full
  std::uint64_t no_buffers = 0;   ///< ENOBUFS
  std::uint64_t too_large = 0;    ///< EMSGSIZE
  std::uint64_t other = 0;

  /// (errno label, count) in a fixed order, for status lines and metrics.
  std::array<std::pair<const char*, std::uint64_t>, 4> by_class() const {
    return {{{"eagain", would_block},
             {"enobufs", no_buffers},
             {"emsgsize", too_large},
             {"other", other}}};
  }
};

class UdpSocket final : public DatagramSocket {
 public:
  /// Binds on `listen` (IPv4). Port 0 lets the kernel pick; the resolved
  /// endpoint is available via local_endpoint(). Throws PreconditionError
  /// on any socket/bind failure (address in use, permission, ...).
  explicit UdpSocket(const Endpoint& listen);
  ~UdpSocket() override;

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  void send_to(const Endpoint& to, BytesView datagram) override;
  Endpoint local_endpoint() const override { return local_; }
  void on_receive(Handler handler) override;

  /// Waits up to `max_wait_seconds` for readability, then drains every
  /// pending datagram into the handler. Returns the number received.
  /// A negative wait means "don't block at all".
  std::size_t poll(double max_wait_seconds);

  int fd() const { return fd_; }
  const UdpSendErrors& send_errors() const { return send_errors_; }

 private:
  int fd_ = -1;
  Endpoint local_;
  Handler handler_;
  UdpSendErrors send_errors_;
};

}  // namespace emergence::service
