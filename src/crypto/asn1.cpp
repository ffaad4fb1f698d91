#include "crypto/asn1.hpp"

#include <cstdio>

#include "util/date.hpp"

namespace opcua_study {

// ------------------------------------------------------------------ Oid ----

std::string Oid::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (i) out.push_back('.');
    out += std::to_string(arcs[i]);
  }
  return out;
}

Bytes Oid::encode_body() const {
  if (arcs.size() < 2) throw std::invalid_argument("OID needs >= 2 arcs");
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(arcs[0] * 40 + arcs[1]));
  for (std::size_t i = 2; i < arcs.size(); ++i) {
    std::uint32_t v = arcs[i];
    std::uint8_t tmp[5];
    int n = 0;
    do {
      tmp[n++] = static_cast<std::uint8_t>(v & 0x7f);
      v >>= 7;
    } while (v);
    for (int j = n - 1; j >= 0; --j) {
      out.push_back(static_cast<std::uint8_t>(tmp[j] | (j ? 0x80 : 0x00)));
    }
  }
  return out;
}

Oid Oid::decode_body(std::span<const std::uint8_t> body) {
  if (body.empty()) throw DecodeError("empty OID");
  Oid o;
  o.arcs.push_back(body[0] / 40);
  o.arcs.push_back(body[0] % 40);
  std::uint32_t v = 0;
  for (std::size_t i = 1; i < body.size(); ++i) {
    v = (v << 7) | (body[i] & 0x7f);
    if (!(body[i] & 0x80)) {
      o.arcs.push_back(v);
      v = 0;
    }
  }
  return o;
}

namespace oid {
const Oid kRsaEncryption{{1, 2, 840, 113549, 1, 1, 1}};
const Oid kMd5WithRsa{{1, 2, 840, 113549, 1, 1, 4}};
const Oid kSha1WithRsa{{1, 2, 840, 113549, 1, 1, 5}};
const Oid kSha256WithRsa{{1, 2, 840, 113549, 1, 1, 11}};
const Oid kCommonName{{2, 5, 4, 3}};
const Oid kOrganization{{2, 5, 4, 10}};
const Oid kCountry{{2, 5, 4, 6}};
const Oid kSubjectAltName{{2, 5, 29, 17}};
const Oid kBasicConstraints{{2, 5, 29, 19}};
const Oid kKeyUsage{{2, 5, 29, 15}};
}  // namespace oid

// ------------------------------------------------------------ DerWriter ----

void DerWriter::length(std::size_t len) {
  if (len < 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(len));
    return;
  }
  std::uint8_t tmp[8];
  int n = 0;
  while (len) {
    tmp[n++] = static_cast<std::uint8_t>(len & 0xff);
    len >>= 8;
  }
  buf_.push_back(static_cast<std::uint8_t>(0x80 | n));
  for (int i = n - 1; i >= 0; --i) buf_.push_back(tmp[i]);
}

void DerWriter::tlv(std::uint8_t tag, std::span<const std::uint8_t> content) {
  buf_.push_back(tag);
  length(content.size());
  buf_.insert(buf_.end(), content.begin(), content.end());
}

void DerWriter::boolean(bool v) {
  const std::uint8_t b = v ? 0xff : 0x00;
  tlv(der::kBoolean, {&b, 1});
}

void DerWriter::integer(const Bignum& v) {
  Bytes body = v.to_bytes_be();
  if (body.empty()) body.push_back(0);
  // DER: positive integers must not have the top bit set.
  if (body[0] & 0x80) body.insert(body.begin(), 0x00);
  tlv(der::kInteger, body);
}

void DerWriter::integer(std::int64_t v) {
  if (v < 0) throw std::invalid_argument("negative DER integers unsupported");
  integer(Bignum{static_cast<std::uint64_t>(v)});
}

void DerWriter::null() { tlv(der::kNull, {}); }

void DerWriter::oid_value(const Oid& o) { tlv(der::kOid, o.encode_body()); }

void DerWriter::bit_string(std::span<const std::uint8_t> bits, unsigned unused_bits) {
  Bytes body;
  body.reserve(bits.size() + 1);
  body.push_back(static_cast<std::uint8_t>(unused_bits));
  body.insert(body.end(), bits.begin(), bits.end());
  tlv(der::kBitString, body);
}

void DerWriter::octet_string(std::span<const std::uint8_t> data) { tlv(der::kOctetString, data); }

void DerWriter::utf8_string(std::string_view s) {
  tlv(der::kUtf8String, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void DerWriter::printable_string(std::string_view s) {
  tlv(der::kPrintableString, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void DerWriter::ia5_string(std::string_view s) {
  tlv(der::kIa5String, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void DerWriter::time(std::int64_t days_since_epoch) {
  const CivilDate d = civil_from_days(days_since_epoch);
  char buf[24];
  if (d.year >= 2050) {
    std::snprintf(buf, sizeof buf, "%04d%02u%02u000000Z", d.year, d.month, d.day);
    tlv(der::kGeneralizedTime, {reinterpret_cast<const std::uint8_t*>(buf), 15});
  } else {
    std::snprintf(buf, sizeof buf, "%02d%02u%02u000000Z", d.year % 100, d.month, d.day);
    tlv(der::kUtcTime, {reinterpret_cast<const std::uint8_t*>(buf), 13});
  }
}

void DerWriter::constructed(std::uint8_t tag, const std::function<void(DerWriter&)>& fill) {
  DerWriter inner;
  fill(inner);
  tlv(tag, inner.buf_);
}

void DerWriter::raw(std::span<const std::uint8_t> already_encoded) {
  buf_.insert(buf_.end(), already_encoded.begin(), already_encoded.end());
}

// ------------------------------------------------------------ DerParser ----

std::uint8_t DerParser::peek_tag() const {
  if (done()) throw DecodeError("DER: peek past end");
  return data_[pos_];
}

DerParser::Tlv DerParser::next() {
  if (done()) throw DecodeError("DER: read past end");
  const std::size_t start = pos_;
  const std::uint8_t tag = data_[pos_++];
  if (pos_ >= data_.size()) throw DecodeError("DER: truncated length");
  std::size_t len = data_[pos_++];
  if (len & 0x80) {
    const std::size_t n = len & 0x7f;
    if (n == 0 || n > 8) throw DecodeError("DER: bad long-form length");
    if (pos_ + n > data_.size()) throw DecodeError("DER: truncated length");
    len = 0;
    for (std::size_t i = 0; i < n; ++i) len = (len << 8) | data_[pos_++];
  }
  if (pos_ + len > data_.size()) throw DecodeError("DER: truncated content");
  Tlv out;
  out.tag = tag;
  out.content = data_.subspan(pos_, len);
  out.full = data_.subspan(start, pos_ + len - start);
  pos_ += len;
  return out;
}

DerParser::Tlv DerParser::expect(std::uint8_t tag) {
  Tlv t = next();
  if (t.tag != tag) {
    throw DecodeError("DER: expected tag " + std::to_string(tag) + ", got " + std::to_string(t.tag));
  }
  return t;
}

Bignum DerParser::read_integer() {
  const Tlv t = expect(der::kInteger);
  return Bignum::from_bytes_be(t.content);
}

Oid DerParser::read_oid() {
  const Tlv t = expect(der::kOid);
  return Oid::decode_body(t.content);
}

std::string DerParser::read_string() {
  const Tlv t = next();
  if (t.tag != der::kUtf8String && t.tag != der::kPrintableString && t.tag != der::kIa5String) {
    throw DecodeError("DER: not a string type");
  }
  return std::string(t.content.begin(), t.content.end());
}

std::int64_t DerParser::read_time_days() {
  const Tlv t = next();
  // Certificate bytes come from scanned servers: every date character read
  // must be an ASCII digit, or the time is a DecodeError like any other
  // malformed field.
  const auto digits = [&t](std::size_t at, std::size_t count) {
    int value = 0;
    for (std::size_t i = at; i < at + count; ++i) {
      const std::uint8_t c = t.content[i];
      if (c < '0' || c > '9') throw DecodeError("DER: non-digit in time value");
      value = value * 10 + (c - '0');
    }
    return value;
  };
  CivilDate d;
  if (t.tag == der::kUtcTime) {
    if (t.content.size() < 13) throw DecodeError("bad UTCTime");
    const int yy = digits(0, 2);
    d.year = yy >= 50 ? 1900 + yy : 2000 + yy;
    d.month = static_cast<unsigned>(digits(2, 2));
    d.day = static_cast<unsigned>(digits(4, 2));
  } else if (t.tag == der::kGeneralizedTime) {
    if (t.content.size() < 15) throw DecodeError("bad GeneralizedTime");
    d.year = digits(0, 4);
    d.month = static_cast<unsigned>(digits(4, 2));
    d.day = static_cast<unsigned>(digits(6, 2));
  } else {
    throw DecodeError("DER: not a time type");
  }
  return days_from_civil(d);
}

Bytes DerParser::read_octet_string() {
  const Tlv t = expect(der::kOctetString);
  return Bytes(t.content.begin(), t.content.end());
}

Bytes DerParser::read_bit_string() {
  const Tlv t = expect(der::kBitString);
  if (t.content.empty()) throw DecodeError("empty BIT STRING");
  return Bytes(t.content.begin() + 1, t.content.end());
}

}  // namespace opcua_study
