// Strict numeric values for command-line options, shared by every CLI in
// the tree (tools/, the benches, the examples) so none of them silently
// reads "abc" as 0 or wraps an out-of-range count.
#pragma once

#include <optional>

#include "common/types.h"

namespace ptstore {

/// Parses `text`, the value of option `opt`, as an unsigned integer in
/// [min, max]: decimal, or hexadecimal after 0x/0X. Empty text, a sign,
/// whitespace, a leading zero (octal to strtoul), trailing characters and
/// out-of-range values are rejected with a message on stderr naming `opt`;
/// the caller then exits 2.
std::optional<u64> parse_arg(const char* opt, const char* text, u64 min = 0,
                             u64 max = ~u64{0});

/// Parses `text`, the value of option `opt`, as a finite decimal number in
/// [min, max] ("90", "99.5", "1e1"). Empty text, whitespace, a '+' sign,
/// inf/nan, hexadecimal, trailing characters and out-of-range values are
/// rejected the same way.
std::optional<double> parse_real_arg(const char* opt, const char* text,
                                     double min, double max);

}  // namespace ptstore
