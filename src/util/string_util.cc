#include "util/string_util.h"

#include <cctype>

namespace gstored {

std::vector<std::string_view> SplitString(std::string_view text, char sep) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.push_back(text.substr(start));
      break;
    }
    pieces.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

}  // namespace gstored
