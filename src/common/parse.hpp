#pragma once
// Strict whole-token number parsing for the repo's text formats (campaign
// manifests, trace files).

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace noc {

/// Parse `v` as one number of type T into `*out`. The whole token must be
/// the number and it must fit the field: "5o0", "0.05x", "1.7" for an
/// integer, "" and out-of-range values fail instead of loading a prefix or
/// saturating.
template <typename T>
bool parse_number(std::string_view v, T* out) {
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, *out);
  if (ec != std::errc() || p != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

}  // namespace noc
