#include "util/ipv4.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace opcua_study {

std::string format_ipv4(Ipv4 addr) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (addr >> 24) & 0xff, (addr >> 16) & 0xff,
                (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

Ipv4 parse_ipv4(const std::string& dotted) {
  // Four octets of 1-3 decimal digits, each <= 255, joined by dots and
  // with nothing around them (from_chars takes no sign or space).
  Ipv4 addr = 0;
  const char* at = dotted.data();
  const char* const end = at + dotted.size();
  for (int octet = 0; octet < 4; ++octet) {
    unsigned value = 0;
    const auto [stop, error] = std::from_chars(at, end, value);
    if (error != std::errc() || stop - at > 3 || value > 255 ||
        (octet < 3 ? stop == end || *stop != '.' : stop != end)) {
      throw std::invalid_argument("bad IPv4: " + dotted);
    }
    addr = (addr << 8) | value;
    at = octet < 3 ? stop + 1 : stop;
  }
  return addr;
}

Cidr parse_cidr(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return Cidr{parse_ipv4(text), 32};
  Cidr c;
  c.base = parse_ipv4(text.substr(0, slash));
  c.prefix_len = std::stoi(text.substr(slash + 1));
  if (c.prefix_len < 0 || c.prefix_len > 32) throw std::invalid_argument("bad prefix: " + text);
  return c;
}

std::string format_cidr(const Cidr& c) {
  return format_ipv4(c.base) + "/" + std::to_string(c.prefix_len);
}

}  // namespace opcua_study
