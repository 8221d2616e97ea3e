#include "sql/fingerprint.h"

#include "util/byte_class.h"
#include "util/string_util.h"

namespace sqlog::sql {

namespace {

/// True when token `i` is a number the parser folds into the template
/// rather than a per-record constant: the count of `TOP 5` / `TOP (5)`.
/// Mirrors the parser's TOP production (and the fuzz mutator's
/// IsTopCount), which are the only places a number shapes the parse.
bool IsStructuralNumber(const TokenStream& tokens, size_t i) {
  auto is_top = [&](size_t k) {
    return tokens[k].Is(TokenType::kIdentifier) && EqualsIgnoreCase(tokens[k].text, "top");
  };
  if (i >= 1 && is_top(i - 1)) return true;
  if (i >= 2 && tokens[i - 1].Is(TokenType::kLParen) && is_top(i - 2)) return true;
  return false;
}

/// Length-delimits a payload so adjacent tokens cannot alias: 4 bytes of
/// little-endian length, then the bytes.
// sqlog-lint: allow(R10 appends into the caller-owned key buffer, which callers clear and reuse across statements; growth is amortized)
void AppendDelimited(std::string_view payload, std::string* key) {
  uint32_t n = static_cast<uint32_t>(payload.size());
  key->push_back(static_cast<char>(n & 0xff));
  key->push_back(static_cast<char>((n >> 8) & 0xff));
  key->push_back(static_cast<char>((n >> 16) & 0xff));
  key->push_back(static_cast<char>((n >> 24) & 0xff));
  key->append(payload);
}

// sqlog-lint: allow(R10 appends into the caller-owned key buffer; see AppendDelimited)
void AppendFolded(std::string_view text, std::string* key) {
  uint32_t n = static_cast<uint32_t>(text.size());
  key->push_back(static_cast<char>(n & 0xff));
  key->push_back(static_cast<char>((n >> 8) & 0xff));
  key->push_back(static_cast<char>((n >> 16) & 0xff));
  key->push_back(static_cast<char>((n >> 24) & 0xff));
  // Copy, then fold in place. ASCII only: std::tolower would depend on
  // the global locale for bytes >= 0x80.
  const size_t at = key->size();
  key->append(text);
  char* folded = key->data() + at;
  for (size_t k = 0; k < text.size(); ++k) folded[k] = ToLowerByte(folded[k]);
}

}  // namespace

// sqlog-lint: allow(R10 appends into the caller-owned key buffer; each parse shard reuses one key string)
void AppendNormalizedKey(const TokenStream& tokens, std::string* key) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    key->push_back(static_cast<char>(token.type));
    switch (token.type) {
      case TokenType::kIdentifier:
      case TokenType::kVariable:
        AppendFolded(token.text, key);
        break;
      case TokenType::kNumber:
        if (IsStructuralNumber(tokens, i)) AppendDelimited(token.text, key);
        break;
      case TokenType::kString:
      default:
        break;  // the type byte alone: placeholder or punctuation
    }
  }
}

// sqlog-lint: allow(R10 builds and returns the per-statement placeholder index vector; one amortized allocation per statement by design)
std::vector<size_t> PlaceholderedTokenIndices(const TokenStream& tokens) {
  std::vector<size_t> indices;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.Is(TokenType::kString) ||
        (token.Is(TokenType::kNumber) && !IsStructuralNumber(tokens, i))) {
      indices.push_back(i);
    }
  }
  return indices;
}

}  // namespace sqlog::sql
