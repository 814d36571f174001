#ifndef GSTORED_UTIL_STRING_UTIL_H_
#define GSTORED_UTIL_STRING_UTIL_H_

#include <string_view>
#include <vector>

namespace gstored {

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string_view> SplitString(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

}  // namespace gstored

#endif  // GSTORED_UTIL_STRING_UTIL_H_
