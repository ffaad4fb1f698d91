// Minimal ordered JSON emitter.
//
// The library's diff, series, service and telemetry reports use it, and so
// does crypto_throughput's BENCH_crypto.json; it keeps that output
// well-formed without hand-managed commas. It covers exactly what those
// need — objects, arrays, scalars — and nothing else.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace opcua_study {

class JsonWriter {
 public:
  JsonWriter() { out_.precision(12); }

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

  JsonWriter& key(const std::string& name) {
    comma();
    quote(name);
    out_ << ": ";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    comma();
    out_ << v;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    out_ << v;
    return *this;
  }
  JsonWriter& value(int v) {
    comma();
    out_ << v;
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    comma();
    quote(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }

  template <typename T>
  JsonWriter& field(const std::string& name, T v) {
    key(name);
    return value(v);
  }

  std::string str() const { return out_.str() + "\n"; }

 private:
  void open(char bracket) {
    comma();
    out_ << bracket;
    stack_.push_back(bracket);
    first_.push_back(true);
  }
  void close(char bracket) {
    out_ << bracket;
    stack_.pop_back();
    first_.pop_back();
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ << ", ";
      first_.back() = false;
    }
  }
  void quote(const std::string& s) {
    out_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\n': out_ << "\\n"; break;
        case '\t': out_ << "\\t"; break;
        case '\r': out_ << "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            static const char* hex = "0123456789abcdef";
            out_ << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  std::vector<char> stack_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

}  // namespace opcua_study
