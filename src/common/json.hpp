#pragma once
// The one JSON writer for the simulator's artifacts: campaign records and
// gathered reports, the rows benches append to BENCH_perf.json, and the
// telemetry exports. One layout (the campaign records'): one member or
// element per line, two-space indent, empty containers as {} and [], a
// newline after the root. Doubles print at %.17g, so they read back
// bit-equal. Strings are not escaped: every string written is a manifest
// id (`valid_id`), a hash or a fixed name.

#include <charconv>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/assert.hpp"

namespace noc::json {

class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  /// Member name; the next value, object or array is its value.
  Writer& key(std::string_view k) {
    next_line();
    out_.append("\"").append(k).append("\": ");
    keyed_ = true;
    return *this;
  }

  Writer& value(std::string_view s) {
    start_value();
    out_.append("\"").append(s).append("\"");
    return *this;
  }
  Writer& value(double v) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    start_value();
    out_.append(buf, static_cast<size_t>(n));
    return *this;
  }
  template <std::integral T>
  Writer& value(T v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    start_value();
    out_.append(buf, static_cast<size_t>(r.ptr - buf));
    return *this;
  }

  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// The document so far; complete once the root container is closed.
  const std::string& str() const { return out_; }

 private:
  // Separator, newline and indent before the next member or element.
  void next_line() {
    if (!empty_) out_ += ',';
    out_ += '\n';
    out_.append(2 * static_cast<size_t>(depth_), ' ');
    empty_ = false;
  }
  // A value right after its key stays on the key's line.
  void start_value() {
    if (depth_ > 0 && !keyed_) next_line();
    keyed_ = false;
  }
  Writer& open(char c) {
    start_value();
    out_ += c;
    ++depth_;
    empty_ = true;
    return *this;
  }
  Writer& close(char c) {
    NOC_EXPECTS(depth_ > 0 && !keyed_);
    --depth_;
    if (!empty_) {
      out_ += '\n';
      out_.append(2 * static_cast<size_t>(depth_), ' ');
    }
    out_ += c;
    // The enclosing container now holds at least this one.
    empty_ = false;
    if (depth_ == 0) out_ += '\n';
    return *this;
  }

  std::string out_;
  int depth_ = 0;
  bool empty_ = true;   // innermost open container has no member yet
  bool keyed_ = false;  // a key was written and awaits its value
};

/// Whole file as a string; empty when it cannot be opened.
inline std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string s;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) s.append(buf, n);
  std::fclose(f);
  return s;
}

/// Write `body` to `path` through `path.tmp` and a rename, so the target
/// is either the old file or the whole new one. False (and no `.tmp` left
/// behind) when any step fails.
inline bool write_file(const std::string& path, std::string_view body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace noc::json
