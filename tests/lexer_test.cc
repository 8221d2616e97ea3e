#include "sql/lexer.h"

#include <gtest/gtest.h>

#include <clocale>
#include <string>
#include <vector>

#include "util/byte_class.h"

namespace sqlog::sql {
namespace {

TokenStream MustLex(std::string_view s) {
  auto tokens = Lex(s);
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  return tokens.ok() ? std::move(tokens.value()) : TokenStream{};
}

TEST(LexerTest, EmptyInputYieldsEndToken) {
  auto tokens = MustLex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, Identifiers) {
  auto tokens = MustLex("photoPrimary _tmp x1 #temp");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "photoPrimary");
  EXPECT_EQ(tokens[1].text, "_tmp");
  EXPECT_EQ(tokens[2].text, "x1");
  EXPECT_EQ(tokens[3].text, "#temp");
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tokens[i].type, TokenType::kIdentifier);
}

TEST(LexerTest, BracketedAndQuotedIdentifiers) {
  auto tokens = MustLex("[My Table] \"other name\"");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "My Table");
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "other name");
}

TEST(LexerTest, StringLiteralWithEscape) {
  auto tokens = MustLex("'it''s'");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(LexerTest, UnterminatedStringIsError) {
  EXPECT_FALSE(Lex("'oops").ok());
  EXPECT_FALSE(Lex("[oops").ok());
  EXPECT_FALSE(Lex("\"oops").ok());
}

struct NumberCase {
  const char* input;
  const char* expected;
};

class LexerNumberTest : public ::testing::TestWithParam<NumberCase> {};

TEST_P(LexerNumberTest, LexesNumber) {
  auto tokens = MustLex(GetParam().input);
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_EQ(tokens[0].text, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(Numbers, LexerNumberTest,
                         ::testing::Values(NumberCase{"42", "42"},
                                           NumberCase{"0.5", "0.5"},
                                           NumberCase{".25", ".25"},
                                           NumberCase{"1e9", "1e9"},
                                           NumberCase{"1.5E-3", "1.5E-3"},
                                           NumberCase{"2e+4", "2e+4"},
                                           NumberCase{"0x1F", "0x1F"},
                                           NumberCase{"587722981742", "587722981742"}));

TEST(LexerTest, ExponentFollowedByIdentifierIsNotExponent) {
  // `1 error` must not swallow the 'e'.
  auto tokens = MustLex("1error");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_EQ(tokens[0].text, "1");
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "error");
}

TEST(LexerTest, Variables) {
  auto tokens = MustLex("@ra @dec");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kVariable);
  EXPECT_EQ(tokens[0].text, "ra");
  EXPECT_EQ(tokens[1].text, "dec");
}

TEST(LexerTest, BareAtSignIsError) {
  EXPECT_FALSE(Lex("@ ").ok());
}

TEST(LexerTest, Operators) {
  auto tokens = MustLex("= <> != < <= > >= + - * / % . , ; ( )");
  std::vector<TokenType> expected = {
      TokenType::kEq,      TokenType::kNotEq,   TokenType::kNotEq, TokenType::kLess,
      TokenType::kLessEq,  TokenType::kGreater, TokenType::kGreaterEq,
      TokenType::kPlus,    TokenType::kMinus,   TokenType::kStar,  TokenType::kSlash,
      TokenType::kPercent, TokenType::kDot,     TokenType::kComma, TokenType::kSemicolon,
      TokenType::kLParen,  TokenType::kRParen,  TokenType::kEnd};
  ASSERT_EQ(tokens.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].type, expected[i]) << i;
  }
}

TEST(LexerTest, LineCommentsAreSkipped) {
  auto tokens = MustLex("SELECT -- comment here\n x");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "x");
}

TEST(LexerTest, BlockCommentsAreSkipped) {
  auto tokens = MustLex("a /* multi\nline */ b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, UnterminatedBlockCommentIsError) {
  EXPECT_FALSE(Lex("a /* oops").ok());
}

TEST(LexerTest, OffsetsPointIntoInput) {
  auto tokens = MustLex("ab  cd");
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 4u);
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  auto result = Lex("a ? b");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), sqlog::StatusCode::kParseError);
}

TEST(LexerTest, FullStatement) {
  auto tokens = MustLex(
      "SELECT p.objID FROM fGetObjFromRect(1.0, 2.0, 3.0, 4.0) n, photoPrimary p "
      "WHERE n.objID = p.objID and r between 14 and 17");
  // Spot-check shape: first, a keyword identifier; contains 4 numbers in
  // the function call, ends with kEnd.
  EXPECT_EQ(tokens.front().text, "SELECT");
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
  int numbers = 0;
  for (const auto& token : tokens) {
    if (token.type == TokenType::kNumber) ++numbers;
  }
  EXPECT_EQ(numbers, 6);
}

// End-of-input edges of every scan: runs that stop at the last byte of
// the statement, at run lengths 1-70 and around 1,024 bytes (64-byte
// word and 1 KiB storage edges of earlier scan implementations).
std::vector<size_t> EdgeLengths() {
  std::vector<size_t> lengths;
  for (size_t len = 1; len <= 70; ++len) lengths.push_back(len);
  for (size_t len = 1016; len <= 1032; ++len) lengths.push_back(len);
  return lengths;
}

/// `len` bytes cycling through `alphabet`.
std::string Cycled(std::string_view alphabet, size_t len) {
  std::string run;
  for (size_t k = 0; k < len; ++k) run.push_back(alphabet[k % alphabet.size()]);
  return run;
}

/// Lexes `input` and compares every token with `expected` plus the kEnd
/// sentinel at input.size().
void ExpectTokens(const std::string& input, std::vector<Token> expected) {
  expected.push_back(Token{TokenType::kEnd, {}, input.size(), input.size()});
  auto tokens = MustLex(input);
  ASSERT_EQ(tokens.size(), expected.size()) << "input length " << input.size();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].type, expected[i].type) << "token " << i << " of " << input.size();
    EXPECT_EQ(tokens[i].text, expected[i].text) << "token " << i << " of " << input.size();
    EXPECT_EQ(tokens[i].offset, expected[i].offset) << "token " << i << " of " << input.size();
    EXPECT_EQ(tokens[i].end, expected[i].end) << "token " << i << " of " << input.size();
  }
}

TEST(LexerTest, IdentifierRunEndsAtEndOfInput) {
  for (size_t len : EdgeLengths()) {
    const std::string ident = "a" + Cycled("Zb_9$#", len - 1);
    ExpectTokens(ident, {{TokenType::kIdentifier, ident, 0, len}});
    const std::string input = "x " + ident;
    ExpectTokens(input, {{TokenType::kIdentifier, "x", 0, 1},
                         {TokenType::kIdentifier, ident, 2, len + 2}});
    const std::string name = Cycled("v_9$#Q", len);
    ExpectTokens("@" + name, {{TokenType::kVariable, name, 0, len + 1}});
  }
}

TEST(LexerTest, WhitespaceRunEndsAtEndOfInput) {
  for (size_t len : EdgeLengths()) {
    const std::string space = Cycled(" \t\n\v\f\r", len);
    ExpectTokens("x" + space, {{TokenType::kIdentifier, "x", 0, 1}});
    ExpectTokens(space + "x", {{TokenType::kIdentifier, "x", len, len + 1}});
    ExpectTokens(space, {});
  }
}

TEST(LexerTest, LineCommentWithoutNewlineEndsAtEndOfInput) {
  for (size_t len : EdgeLengths()) {
    const std::string body = Cycled("c -'\"[]/*\r", len);
    ExpectTokens("x --" + body, {{TokenType::kIdentifier, "x", 0, 1}});
    ExpectTokens("x --" + body + "\ny", {{TokenType::kIdentifier, "x", 0, 1},
                                         {TokenType::kIdentifier, "y", len + 5, len + 6}});
  }
}

TEST(LexerTest, QuotedTokenClosedOnLastByte) {
  for (size_t len : EdgeLengths()) {
    const std::string body = Cycled("s ,-\n\x80", len);
    ExpectTokens("'" + body + "'", {{TokenType::kString, body, 0, len + 2}});
    ExpectTokens("x '" + body + "'", {{TokenType::kIdentifier, "x", 0, 1},
                                      {TokenType::kString, body, 2, len + 4}});
    ExpectTokens("[" + body + "]", {{TokenType::kIdentifier, body, 0, len + 2}});
    ExpectTokens("\"" + body + "\"", {{TokenType::kIdentifier, body, 0, len + 2}});
  }
}

TEST(LexerTest, UnterminatedQuoteAtEveryLengthIsError) {
  struct Case {
    char open;
    const char* what;
  };
  for (const Case& c : {Case{'\'', "string literal"}, Case{'[', "bracketed identifier"},
                        Case{'"', "quoted identifier"}}) {
    for (size_t len : EdgeLengths()) {
      const std::string input = std::string("x ") + c.open + Cycled("s ,-\n", len - 1);
      auto result = Lex(input);
      ASSERT_FALSE(result.ok()) << c.open << " length " << len;
      EXPECT_EQ(result.status().code(), sqlog::StatusCode::kParseError);
      EXPECT_EQ(result.status().message(),
                std::string("unterminated ") + c.what + " at offset 2")
          << c.open << " length " << len;
    }
  }
}

/// Lexes `input` under the named locale, restoring the previous locale
/// afterwards, and reports whether lexing succeeded.
bool LexOkUnderLocale(const char* locale_name, std::string_view input) {
  std::string saved = std::setlocale(LC_ALL, nullptr);
  std::setlocale(LC_ALL, locale_name);
  bool ok = Lex(input).ok();
  std::setlocale(LC_ALL, saved.c_str());
  return ok;
}

// Regression for the locale-dependent classification bug: the lexer
// used std::isalpha/isalnum, whose verdict on bytes >= 0x80 depends on
// the global locale — under an 8-bit or UTF-8 locale a high byte could
// start an "identifier" that the C locale rejects, so the same log
// parsed differently depending on the host environment. Classification
// now goes through the locale-independent byte class table; high-byte
// input must lex identically (here: to a parse error, since no token
// starts with 0xE9) whatever the environment locale is.
TEST(LexerTest, HighByteClassificationIgnoresLocale) {
  const std::string input = "caf\xE9 = 1";
  const bool c_locale_verdict = LexOkUnderLocale("C", input);
  EXPECT_FALSE(c_locale_verdict);
  // "" = the environment's locale; also pin the UTF-8 locale explicitly
  // (the container ships C.utf8 — setlocale leaves the locale unchanged
  // if it is unavailable, which still exercises the "" path).
  EXPECT_EQ(c_locale_verdict, LexOkUnderLocale("", input));
  EXPECT_EQ(c_locale_verdict, LexOkUnderLocale("C.utf8", input));
}

TEST(LexerTest, HighBytesInsideStringsLexUnderAnyLocale) {
  const std::string input = "SELECT '\xC3\xA9\x80\xFF' FROM t";
  std::string saved = std::setlocale(LC_ALL, nullptr);
  std::setlocale(LC_ALL, "");
  auto tokens = MustLex(input);
  std::setlocale(LC_ALL, saved.c_str());
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].type, TokenType::kString);
  EXPECT_EQ(tokens[1].text, "\xC3\xA9\x80\xFF");
}

// The class table itself, checked against the explicit C-locale truth
// for all 256 byte values — this is the contract the lexer and the
// normalized key build on, independent of <cctype> and the global locale.
TEST(LexerTest, ByteClassTableMatchesCLocaleForAllBytes) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool space = b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' ||
                       b == '\r';
    const bool digit = b >= '0' && b <= '9';
    const bool alpha = (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z');
    const bool hex = digit || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F');
    EXPECT_EQ(IsSpaceByte(c), space) << "byte " << b;
    EXPECT_EQ(IsDigitByte(c), digit) << "byte " << b;
    EXPECT_EQ(IsAlphaByte(c), alpha) << "byte " << b;
    EXPECT_EQ(IsHexDigitByte(c), hex) << "byte " << b;
    EXPECT_EQ(IsAlnumByte(c), alpha || digit) << "byte " << b;
    EXPECT_EQ(IsIdentStartByte(c), alpha || b == '_' || b == '#') << "byte " << b;
    EXPECT_EQ(IsIdentCharByte(c), alpha || digit || b == '_' || b == '$' || b == '#')
        << "byte " << b;
    const char lower = (b >= 'A' && b <= 'Z') ? static_cast<char>(b + 32) : c;
    const char upper = (b >= 'a' && b <= 'z') ? static_cast<char>(b - 32) : c;
    EXPECT_EQ(ToLowerByte(c), lower) << "byte " << b;
    EXPECT_EQ(ToUpperByte(c), upper) << "byte " << b;
  }
}

}  // namespace
}  // namespace sqlog::sql
