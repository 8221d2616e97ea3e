#include "sql/lexer.h"

#include <algorithm>

#include "util/byte_class.h"
#include "util/string_util.h"

namespace sqlog::sql {

// Classification rides the locale-independent table in util/byte_class.h.
// The previous std::isalpha/isalnum/isdigit calls were a correctness bug:
// under a non-"C" global locale, bytes >= 0x80 classify as alphabetic and
// silently change tokenization (see lexer_test locale regression).
//
// Whitespace and identifier runs are a few bytes long, so plain byte
// loops skip them; the end of a quoted literal or a line comment is
// found with string_view::find (libc memchr). DESIGN.md § "Byte
// scanning" has the measurements behind that choice.

const char* TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kIdentifier: return "identifier";
    case TokenType::kVariable: return "variable";
    case TokenType::kNumber: return "number";
    case TokenType::kString: return "string";
    case TokenType::kComma: return ",";
    case TokenType::kLParen: return "(";
    case TokenType::kRParen: return ")";
    case TokenType::kDot: return ".";
    case TokenType::kSemicolon: return ";";
    case TokenType::kStar: return "*";
    case TokenType::kPlus: return "+";
    case TokenType::kMinus: return "-";
    case TokenType::kSlash: return "/";
    case TokenType::kPercent: return "%";
    case TokenType::kEq: return "=";
    case TokenType::kNotEq: return "<>";
    case TokenType::kLess: return "<";
    case TokenType::kLessEq: return "<=";
    case TokenType::kGreater: return ">";
    case TokenType::kGreaterEq: return ">=";
    case TokenType::kEnd: return "<end>";
  }
  return "<unknown>";
}

Result<TokenStream> Lex(std::string_view s) {
  TokenStream stream;
  std::vector<Token>& tokens = stream.tokens;
  size_t i = 0;
  const size_t n = s.size();

  auto push = [&](TokenType type, std::string_view text, size_t offset, size_t end) {
    // sqlog-lint: allow(R10 token-vector growth is amortized across the statement; the vector lives in the returned stream)
    tokens.push_back(Token{type, text, offset, end});
  };

  // Scans a quoted region starting after the opening quote. `close` is
  // the closing character; when `doubling` is set a doubled close
  // character is an escape for one literal close character. On success
  // `i` is left after the closing quote and the (unescaped) payload is
  // pushed as `type` — as a view into `s` when no escape occurred, or as
  // stream-owned storage when unescaping had to rewrite bytes.
  auto lex_quoted = [&](TokenType type, char close, bool doubling,
                        const char* what) -> Status {
    size_t start = i;
    ++i;
    size_t body = i;
    bool escaped = false;
    while (i < n) {
      i = std::min(s.find(close, i), n);
      if (i >= n) break;
      if (doubling && i + 1 < n && s[i + 1] == close) {
        escaped = true;
        i += 2;
        continue;
      }
      break;
    }
    if (i >= n) {
      return Status::ParseError(StrFormat("unterminated %s at offset %zu", what, start));
    }
    std::string_view raw = s.substr(body, i - body);
    ++i;  // closing quote
    if (!escaped) {
      push(type, raw, start, i);
      return Status::OK();
    }
    std::string text;  // sqlog-lint: allow(R10 unescape path: runs only when a literal contains a doubled quote)
    text.reserve(raw.size());
    for (size_t k = 0; k < raw.size(); ++k) {
      // sqlog-lint: allow(R10 push into the reserved unescape buffer above)
      text.push_back(raw[k]);
      if (raw[k] == close) ++k;  // skip the doubled escape character
    }
    push(type, stream.Materialize(std::move(text)), start, i);
    return Status::OK();
  };

  while (i < n) {
    char c = s[i];
    // Whitespace.
    if (IsSpaceByte(c)) {
      ++i;
      while (i < n && IsSpaceByte(s[i])) ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && s[i + 1] == '-') {
      i = std::min(s.find('\n', i + 2), n);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      size_t start = i;
      i += 2;
      bool closed = false;
      while (i + 1 < n) {
        if (s[i] == '*' && s[i + 1] == '/') {
          i += 2;
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated block comment at offset %zu", start));
      }
      continue;
    }
    // String literal.
    if (c == '\'') {
      Status status = lex_quoted(TokenType::kString, '\'', true, "string literal");
      if (!status.ok()) return status;
      continue;
    }
    // Bracketed identifier (no escape for ']').
    if (c == '[') {
      Status status =
          lex_quoted(TokenType::kIdentifier, ']', false, "bracketed identifier");
      if (!status.ok()) return status;
      continue;
    }
    // Double-quoted identifier.
    if (c == '"') {
      Status status =
          lex_quoted(TokenType::kIdentifier, '"', true, "quoted identifier");
      if (!status.ok()) return status;
      continue;
    }
    // Variable.
    if (c == '@') {
      size_t start = i;
      ++i;
      size_t body = i;
      while (i < n && IsIdentCharByte(s[i])) ++i;
      if (i == body) {
        return Status::ParseError(StrFormat("bare '@' at offset %zu", start));
      }
      push(TokenType::kVariable, s.substr(body, i - body), start, i);
      continue;
    }
    // Number. A leading digit, or a '.' followed by a digit.
    if (IsDigitByte(c) || (c == '.' && i + 1 < n && IsDigitByte(s[i + 1]))) {
      size_t start = i;
      if (c == '0' && i + 1 < n && (s[i + 1] == 'x' || s[i + 1] == 'X')) {
        bool upper = s[i + 1] == 'X';
        i += 2;
        size_t digits = i;
        while (i < n && IsHexDigitByte(s[i])) ++i;
        if (i == digits) {
          return Status::ParseError(StrFormat("malformed hex literal at offset %zu", start));
        }
        if (upper) {
          // Token text is normalized to a lowercase "0x" prefix.
          push(TokenType::kNumber,  // sqlog-lint: allow(R10 rewrite runs only for the rare upper-case 0X prefix)
               stream.Materialize("0x" + std::string(s.substr(digits, i - digits))),
               start, i);
        } else {
          push(TokenType::kNumber, s.substr(start, i - start), start, i);
        }
      } else {
        bool seen_dot = false;
        while (i < n && (IsDigitByte(s[i]) || (s[i] == '.' && !seen_dot))) {
          if (s[i] == '.') seen_dot = true;
          ++i;
        }
        // Exponent part. Backtracks when 'e' is not followed by digits,
        // so the token stays one contiguous slice of the input.
        if (i < n && (s[i] == 'e' || s[i] == 'E')) {
          size_t mark = i;
          ++i;
          if (i < n && (s[i] == '+' || s[i] == '-')) ++i;
          if (i < n && IsDigitByte(s[i])) {
            while (i < n && IsDigitByte(s[i])) ++i;
          } else {
            i = mark;  // 'e' starts an identifier, not an exponent
          }
        }
        push(TokenType::kNumber, s.substr(start, i - start), start, i);
      }
      continue;
    }
    // Identifier.
    if (IsIdentStartByte(c)) {
      size_t start = i;
      ++i;
      while (i < n && IsIdentCharByte(s[i])) ++i;
      push(TokenType::kIdentifier, s.substr(start, i - start), start, i);
      continue;
    }
    // Operators and punctuation. Texts are static strings.
    size_t start = i;
    switch (c) {
      case ',': push(TokenType::kComma, ",", start, start + 1); ++i; break;
      case '(': push(TokenType::kLParen, "(", start, start + 1); ++i; break;
      case ')': push(TokenType::kRParen, ")", start, start + 1); ++i; break;
      case '.': push(TokenType::kDot, ".", start, start + 1); ++i; break;
      case ';': push(TokenType::kSemicolon, ";", start, start + 1); ++i; break;
      case '*': push(TokenType::kStar, "*", start, start + 1); ++i; break;
      case '+': push(TokenType::kPlus, "+", start, start + 1); ++i; break;
      case '-': push(TokenType::kMinus, "-", start, start + 1); ++i; break;
      case '/': push(TokenType::kSlash, "/", start, start + 1); ++i; break;
      case '%': push(TokenType::kPercent, "%", start, start + 1); ++i; break;
      case '=': push(TokenType::kEq, "=", start, start + 1); ++i; break;
      case '!':
        if (i + 1 < n && s[i + 1] == '=') {
          push(TokenType::kNotEq, "!=", start, start + 2);
          i += 2;
        } else {
          return Status::ParseError(StrFormat("unexpected '!' at offset %zu", start));
        }
        break;
      case '<':
        if (i + 1 < n && s[i + 1] == '>') {
          push(TokenType::kNotEq, "<>", start, start + 2);
          i += 2;
        } else if (i + 1 < n && s[i + 1] == '=') {
          push(TokenType::kLessEq, "<=", start, start + 2);
          i += 2;
        } else {
          push(TokenType::kLess, "<", start, start + 1);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && s[i + 1] == '=') {
          push(TokenType::kGreaterEq, ">=", start, start + 2);
          i += 2;
        } else {
          push(TokenType::kGreater, ">", start, start + 1);
          ++i;
        }
        break;
      default:
        return Status::ParseError(
            StrFormat("unexpected character '%c' (0x%02x) at offset %zu", c,
                      static_cast<unsigned char>(c), start));
    }
  }
  tokens.push_back(Token{TokenType::kEnd, {}, n, n});  // sqlog-lint: allow(R10 single sentinel push; capacity already amortized)
  return stream;
}

}  // namespace sqlog::sql
