#include "sparql/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace gstored {
namespace {

/// A minimal tokenizer over the SPARQL subset. Produces terms (IRIs,
/// literals, variables, blank nodes), bare words (keywords, '*'), and the
/// punctuation '{', '}', '.'.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  /// Returns the next token, or an empty view at end of input. On a lexing
  /// error, fills *error and returns empty.
  std::string_view Next(std::string* error) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return {};
    char c = text_[pos_];
    size_t start = pos_;
    if (c == '{' || c == '}' || c == '.') {
      ++pos_;
      return text_.substr(start, 1);
    }
    if (c == '<') {
      size_t close = text_.find('>', pos_);
      if (close == std::string_view::npos) {
        *error = "unterminated IRI";
        return {};
      }
      pos_ = close + 1;
      return text_.substr(start, pos_ - start);
    }
    if (c == '"') {
      size_t i = pos_ + 1;
      while (i < text_.size() && text_[i] != '"') {
        if (text_[i] == '\\' && i + 1 < text_.size()) ++i;
        ++i;
      }
      if (i >= text_.size()) {
        *error = "unterminated literal";
        return {};
      }
      pos_ = i + 1;
      if (pos_ < text_.size() && text_[pos_] == '@') {
        while (pos_ < text_.size() && !IsBreak(text_[pos_])) ++pos_;
      } else if (pos_ + 1 < text_.size() && text_[pos_] == '^' &&
                 text_[pos_ + 1] == '^') {
        size_t close = text_.find('>', pos_);
        if (close == std::string_view::npos) {
          *error = "unterminated datatype IRI";
          return {};
        }
        pos_ = close + 1;
      }
      return text_.substr(start, pos_ - start);
    }
    // Variables, blank nodes, keywords, '*'.
    while (pos_ < text_.size() && !IsBreak(text_[pos_]) && text_[pos_] != '{' &&
           text_[pos_] != '}') {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

 private:
  static bool IsBreak(char c) {
    return std::isspace(static_cast<unsigned char>(c));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool IsTermToken(std::string_view tok) {
  if (tok.empty()) return false;
  char c = tok.front();
  return c == '?' || c == '$' || c == '<' || c == '"' ||
         StartsWith(tok, "_:");
}

}  // namespace

Result<QueryGraph> ParseSparql(std::string_view text) {
  Tokenizer tokenizer(text);
  std::string error;
  QueryGraph query;

  std::string_view tok = tokenizer.Next(&error);
  if (!error.empty()) return Status::ParseError(error);
  if (!EqualsIgnoreCase(tok, "SELECT")) {
    return Status::ParseError("query must start with SELECT");
  }

  // Projection list: '*' or variables, up to WHERE / '{'.
  while (true) {
    tok = tokenizer.Next(&error);
    if (!error.empty()) return Status::ParseError(error);
    if (tok.empty()) return Status::ParseError("unexpected end after SELECT");
    if (EqualsIgnoreCase(tok, "WHERE") || tok == "{") break;
    if (tok == "*") continue;
    if (tok.front() != '?' && tok.front() != '$') {
      return Status::ParseError("expected variable in SELECT list, got '" +
                                std::string(tok) + "'");
    }
    query.AddSelectVar(tok);
  }
  if (EqualsIgnoreCase(tok, "WHERE")) {
    tok = tokenizer.Next(&error);
    if (!error.empty()) return Status::ParseError(error);
    if (tok != "{") return Status::ParseError("expected '{' after WHERE");
  }

  // Triple patterns until '}'.
  std::vector<std::string_view> terms;
  while (true) {
    tok = tokenizer.Next(&error);
    if (!error.empty()) return Status::ParseError(error);
    if (tok.empty()) return Status::ParseError("missing closing '}'");
    if (tok == "}" || tok == ".") {
      if (!terms.empty()) {
        if (terms.size() != 3) {
          return Status::ParseError(
              "triple pattern must have exactly 3 terms, got " +
              std::to_string(terms.size()));
        }
        if (terms[1].front() == '"' || StartsWith(terms[1], "_:")) {
          return Status::ParseError(
              "predicate must be an IRI or a variable");
        }
        query.AddEdge(terms[0], terms[1], terms[2]);
        terms.clear();
      }
      if (tok == "}") break;
      continue;
    }
    if (!IsTermToken(tok)) {
      return Status::ParseError("unexpected token '" + std::string(tok) +
                                "' in pattern");
    }
    terms.push_back(tok);
  }

  if (query.num_edges() == 0) {
    return Status::ParseError("query has no triple patterns");
  }
  if (query.num_vertices() > kMaxEnumerableVertices && !query.IsStar()) {
    return Status::ParseError(
        "non-star query has " + std::to_string(query.num_vertices()) +
        " vertices; at most " + std::to_string(kMaxEnumerableVertices) +
        " are supported");
  }
  // A variable may not be used both as a vertex and as a predicate: the
  // paper's model treats predicate variables as pure edge-label wildcards.
  for (const QueryEdge& e : query.edges()) {
    if (!e.pred_is_variable) continue;
    for (const QueryVertex& v : query.vertices()) {
      if (v.is_variable && v.label == e.pred_label) {
        return Status::ParseError(
            "variable '" + e.pred_label +
            "' used as both a vertex and a predicate is unsupported");
      }
    }
  }
  return query;
}

}  // namespace gstored
