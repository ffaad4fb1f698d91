// Byte-buffer primitives shared by the whole code base.
//
// All wire formats in this project (OPC UA binary, ASN.1 DER) are built on
// top of ByteWriter / ByteReader. OPC UA is little-endian; DER is
// big-endian and length-driven, so the reader/writer expose both.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace opcua_study {

using Bytes = std::vector<std::uint8_t>;

/// Thrown when a reader runs past the end of its buffer or a wire value is
/// structurally invalid. Callers at protocol boundaries catch this and turn
/// it into a protocol error (never a crash): a scanner must survive
/// arbitrary garbage from the network.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string to_string(std::span<const std::uint8_t> b) {
  return std::string(b.begin(), b.end());
}

/// Append-only growable byte sink. Little-endian writers carry the `_le`
/// suffix implicitly (OPC UA default); big-endian variants are explicit.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void raw(std::span<const std::uint8_t> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void raw(const Bytes& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void raw(std::string_view s) { buf_.insert(buf_.end(), s.begin(), s.end()); }

  /// Patch a previously written little-endian u32 (used for message-size
  /// fields that are only known once the body is serialized).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    if (offset + 4 > buf_.size()) throw std::logic_error("patch_u32 out of range");
    for (int i = 0; i < 4; ++i) buf_[offset + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::size_t size() const { return buf_.size(); }
  /// Drop what was written past the first `n` bytes.
  void truncate(std::size_t n) {
    if (n < buf_.size()) buf_.resize(n);
  }
  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Bounds-checked sequential reader. Every accessor throws DecodeError on
/// underflow so malformed network input can never read out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  Bytes raw(std::size_t n) {
    need(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> view(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw DecodeError("buffer underflow");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace opcua_study
