//===----------------------------------------------------------------------===//
///
/// \file
/// The one rule for every number a tool reads from its command line: all
/// of the text is a decimal integer in range. "5abc", "1M", "" and a value
/// that overflows the target type are refused, not read as 5, 1 or 0.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SUPPORT_PARSEINTEGER_H
#define LSMS_SUPPORT_PARSEINTEGER_H

#include <charconv>
#include <string_view>

namespace lsms {

/// Parses all of \p Text as a decimal integer of \p Out's type. Returns
/// false, leaving \p Out untouched, on an empty value, trailing text or a
/// value out of range.
template <typename T> bool parseWholeInteger(std::string_view Text, T &Out) {
  const char *Last = Text.data() + Text.size();
  T Value{};
  const auto [Ptr, Ec] = std::from_chars(Text.data(), Last, Value);
  if (Ec != std::errc() || Ptr != Last)
    return false;
  Out = Value;
  return true;
}

} // namespace lsms

#endif // LSMS_SUPPORT_PARSEINTEGER_H
