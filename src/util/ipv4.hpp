// IPv4 address helpers for the simulated Internet.
#pragma once

#include <cstdint>
#include <string>

namespace opcua_study {

using Ipv4 = std::uint32_t;  // host byte order

std::string format_ipv4(Ipv4 addr);
/// "a.b.c.d" with each octet 1-3 decimal digits <= 255 and nothing else;
/// throws std::invalid_argument otherwise.
Ipv4 parse_ipv4(const std::string& dotted);
constexpr Ipv4 make_ipv4(unsigned a, unsigned b, unsigned c, unsigned d) {
  return (static_cast<Ipv4>(a) << 24) | (static_cast<Ipv4>(b) << 16) |
         (static_cast<Ipv4>(c) << 8) | static_cast<Ipv4>(d);
}

/// CIDR prefix, e.g. 10.0.0.0/8. Used for scan universes, exclusion lists
/// and the AS database.
struct Cidr {
  Ipv4 base = 0;
  int prefix_len = 32;

  bool contains(Ipv4 addr) const {
    if (prefix_len == 0) return true;
    const Ipv4 mask = prefix_len >= 32 ? ~Ipv4{0} : ~((Ipv4{1} << (32 - prefix_len)) - 1);
    return (addr & mask) == (base & mask);
  }
  std::uint64_t size() const { return std::uint64_t{1} << (32 - prefix_len); }
  Ipv4 first() const {
    const Ipv4 mask = prefix_len >= 32 ? ~Ipv4{0} : (prefix_len == 0 ? 0 : ~((Ipv4{1} << (32 - prefix_len)) - 1));
    return base & mask;
  }
};

Cidr parse_cidr(const std::string& text);  // "a.b.c.d/len"
std::string format_cidr(const Cidr& c);

}  // namespace opcua_study
