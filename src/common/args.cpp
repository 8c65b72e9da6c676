#include "common/args.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace ptstore {

std::optional<u64> parse_arg(const char* opt, const char* text, u64 min, u64 max) {
  const std::string_view s(text);
  const bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  const std::string_view digits = hex ? s.substr(2) : s;
  u64 v = 0;
  // from_chars takes no sign, whitespace or prefix for an unsigned type.
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v, hex ? 16 : 10);
  const bool octal_like = !hex && digits.size() > 1 && digits[0] == '0';
  if (ec == std::errc() && end == digits.data() + digits.size() && !octal_like &&
      v >= min && v <= max) {
    return v;
  }
  std::fprintf(stderr, "%s needs an integer in [%llu, %llu], got '%s'\n", opt,
               static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max), text);
  return std::nullopt;
}

std::optional<double> parse_real_arg(const char* opt, const char* text,
                                     double min, double max) {
  const std::string_view s(text);
  double v = 0;
  // from_chars takes no whitespace, '+' or hex prefix in the general format.
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && end == s.data() + s.size() && std::isfinite(v) &&
      v >= min && v <= max) {
    return v;
  }
  std::fprintf(stderr, "%s needs a number in [%g, %g], got '%s'\n", opt, min,
               max, text);
  return std::nullopt;
}

}  // namespace ptstore
