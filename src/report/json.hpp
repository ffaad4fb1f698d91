// Minimal ordered JSON emitter.
//
// The library's diff, series, service and telemetry reports use it, and so
// does crypto_throughput's BENCH_crypto.json; it keeps that output
// well-formed without hand-managed commas. It covers exactly what those
// need — objects, arrays, scalars — and nothing else.
//
// The document renders into one std::string, so a service response costs
// a few appends per field. The forms are fixed, and the test
// Report.JsonWriterMatchesRecordedBytes pins them: integers in decimal,
// doubles in printf's "%.12g" form through std::to_chars (0.1, 1e-07,
// 1e+21, -0), and strings with '"', '\\', '\n', '\t' and '\r' escaped by
// name, every other byte below 0x20 as \u00XX, and all other bytes (DEL,
// UTF-8) copied as they are.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace opcua_study {

class JsonWriter {
 public:
  JsonWriter& begin_object() {
    open('{');
    return *this;
  }
  JsonWriter& end_object() {
    close('}');
    return *this;
  }
  JsonWriter& begin_array() {
    open('[');
    return *this;
  }
  JsonWriter& end_array() {
    close(']');
    return *this;
  }

  JsonWriter& key(std::string_view name) {
    comma();
    quote(name);
    out_ += ": ";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    comma();
    char digits[32];
    out_.append(digits,
                std::to_chars(digits, digits + sizeof digits, v, std::chars_format::general, 12)
                    .ptr);
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    append_integer(v);
    return *this;
  }
  JsonWriter& value(int v) {
    comma();
    append_integer(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    comma();
    quote(v);
    return *this;
  }
  // Without it a string literal would convert to bool before string_view.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  std::string str() const { return out_ + "\n"; }

 private:
  void open(char bracket) {
    comma();
    out_ += bracket;
    first_.push_back(true);
  }
  void close(char bracket) {
    out_ += bracket;
    first_.pop_back();
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ", ";
      first_.back() = false;
    }
  }
  template <typename Int>
  void append_integer(Int v) {
    char digits[24];
    out_.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
  }
  /// Appends `s` quoted: each run of bytes that need no escape in one call.
  void quote(std::string_view s) {
    out_ += '"';
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      out_.append(s, run, i - run);
      run = i + 1;
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default: {
          static constexpr char kHex[] = "0123456789abcdef";
          const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
          out_.append(escape, sizeof escape);
        }
      }
    }
    out_.append(s, run);
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

}  // namespace opcua_study
