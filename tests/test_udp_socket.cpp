// The POSIX UDP binding (src/service/udp_socket.hpp) on the loopback
// interface: a datagram round trip between two kernel-bound sockets, and
// sendto(2) failures counted by errno class instead of discarded.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "service/udp_socket.hpp"

namespace emergence::service {
namespace {

/// 127.0.0.1, kernel-chosen port.
const Endpoint kLoopbackAnyPort{0x7F000001u, 0};

TEST(UdpSocket, LoopbackRoundTrip) {
  UdpSocket a(kLoopbackAnyPort);
  UdpSocket b(kLoopbackAnyPort);
  ASSERT_NE(a.local_endpoint().port, 0);
  ASSERT_NE(a.local_endpoint(), b.local_endpoint());

  Endpoint sender;
  Bytes received;
  b.on_receive([&](const Endpoint& from, BytesView datagram) {
    sender = from;
    received.assign(datagram.begin(), datagram.end());
  });
  a.send_to(b.local_endpoint(), bytes_of("over the loopback"));
  EXPECT_EQ(b.poll(5.0), 1u);
  EXPECT_EQ(received, bytes_of("over the loopback"));
  EXPECT_EQ(sender, a.local_endpoint());

  for (const auto& [label, count] : a.send_errors().by_class())
    EXPECT_EQ(count, 0u) << label;
}

TEST(UdpSocket, OversizedDatagramCountsAsEmsgsize) {
  UdpSocket a(kLoopbackAnyPort);
  UdpSocket b(kLoopbackAnyPort);
  // Larger than any IPv4 UDP payload (65,507 bytes): the kernel refuses it.
  const Bytes oversized(70000, 0xAB);
  EXPECT_NO_THROW(a.send_to(b.local_endpoint(), oversized));
  const UdpSendErrors& errors = a.send_errors();
  EXPECT_EQ(errors.too_large, 1u);
  EXPECT_EQ(errors.would_block, 0u);
  EXPECT_EQ(errors.no_buffers, 0u);
  EXPECT_EQ(errors.other, 0u);
  EXPECT_EQ(b.poll(-1.0), 0u);  // nothing was sent
}

}  // namespace
}  // namespace emergence::service
