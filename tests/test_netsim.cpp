// Simulated-Internet unit tests: listeners, probes, RTT determinism, AS
// database longest-prefix matching, clock accounting.
#include <gtest/gtest.h>

#include "netsim/network.hpp"

namespace opcua_study {
namespace {

TEST(Netsim, ListenProbeConnectLifecycle) {
  Network net;
  const Ipv4 ip = make_ipv4(10, 5, 5, 5);
  EXPECT_FALSE(net.syn_probe(ip, 4840));
  net.listen(ip, 4840, [] { return std::make_unique<DummyBannerService>("x"); });
  EXPECT_TRUE(net.syn_probe(ip, 4840));
  EXPECT_TRUE(net.is_listening(ip, 4840));
  EXPECT_FALSE(net.is_listening(ip, 4841));
  EXPECT_EQ(net.listener_count(), 1u);
  auto conn = net.connect(ip, 4840);
  ASSERT_NE(conn, nullptr);
  net.close_listener(ip, 4840);
  EXPECT_FALSE(net.syn_probe(ip, 4840));
  EXPECT_EQ(net.connect(ip, 4840), nullptr);
}

TEST(Netsim, PortsAreIndependent) {
  Network net;
  const Ipv4 ip = make_ipv4(10, 5, 5, 6);
  net.listen(ip, 4840, [] { return std::make_unique<DummyBannerService>("a"); });
  net.listen(ip, 48010, [] { return std::make_unique<DummyBannerService>("b"); });
  EXPECT_EQ(net.listener_count(), 2u);
  const auto endpoints = net.bound_endpoints();
  EXPECT_EQ(endpoints.size(), 2u);
}

TEST(Netsim, RttIsDeterministicAndBounded) {
  Network net;
  for (Ipv4 ip : {make_ipv4(1, 2, 3, 4), make_ipv4(200, 9, 8, 7), Ipv4{0}}) {
    const auto rtt = net.rtt_us(ip);
    EXPECT_EQ(rtt, net.rtt_us(ip));
    EXPECT_GE(rtt, 10000u);   // >= 10 ms
    EXPECT_LE(rtt, 150000u);  // <= 150 ms
  }
  EXPECT_NE(net.rtt_us(make_ipv4(1, 2, 3, 4)), net.rtt_us(make_ipv4(1, 2, 3, 5)));
}

TEST(Netsim, ConnectionAccountsBytesAndTime) {
  Network net;
  const Ipv4 ip = make_ipv4(10, 5, 5, 7);
  net.listen(ip, 80, [] { return std::make_unique<DummyBannerService>("srv"); });
  auto conn = net.connect(ip, 80);
  EXPECT_EQ(conn->take_elapsed(), net.rtt_us(ip));  // the handshake
  const Bytes reply = conn->roundtrip(to_bytes("GET /"));
  EXPECT_FALSE(reply.empty());
  EXPECT_EQ(conn->bytes_sent(), 5u);
  EXPECT_EQ(conn->bytes_received(), reply.size());
  EXPECT_GT(conn->take_elapsed(), 0u);
  EXPECT_EQ(net.total_bytes_sent(), 5u);
  // The banner service serves once, then the connection is dead.
  EXPECT_TRUE(conn->peer_closed());
  EXPECT_THROW(conn->roundtrip(to_bytes("again")), DecodeError);
}

TEST(AsDb, LongestPrefixMatchWins) {
  AsDatabase db;
  db.add(parse_cidr("20.0.0.0/8"), {100, "big"});
  db.add(parse_cidr("20.1.0.0/16"), {200, "specific"});
  EXPECT_EQ(db.asn_of(make_ipv4(20, 2, 0, 1)), 100u);
  EXPECT_EQ(db.asn_of(make_ipv4(20, 1, 9, 9)), 200u);
  EXPECT_EQ(db.asn_of(make_ipv4(30, 0, 0, 1)), 0u);
  EXPECT_EQ(db.lookup(make_ipv4(20, 1, 0, 1))->name, "specific");
  EXPECT_EQ(db.lookup(make_ipv4(99, 0, 0, 1)), nullptr);
}

TEST(SimClock, DayAndFiletimeProgression) {
  SimClock clock(days_from_civil({2020, 2, 9}));
  EXPECT_EQ(clock.today_days(), days_from_civil({2020, 2, 9}));
  clock.advance_ms(36ULL * 3600 * 1000);  // +1.5 days
  EXPECT_EQ(clock.today_days(), days_from_civil({2020, 2, 10}));
  EXPECT_GT(clock.now_filetime(), filetime_from_days(days_from_civil({2020, 2, 9})));
  clock.reset(days_from_civil({2020, 3, 1}));
  EXPECT_EQ(clock.now_us(), 0u);
  EXPECT_EQ(clock.today_days(), days_from_civil({2020, 3, 1}));
}

}  // namespace
}  // namespace opcua_study
