// A lightweight C++ lexer for the radar_lint analyzer.
//
// The old linter matched regexes against comment-stripped lines, which
// cannot see constructs that span lines (backslash splices), nested
// literal syntax (raw strings, digit separators), or token adjacency
// ("assert" vs "static_assert"). This lexer produces a flat token stream
// with accurate physical line numbers so every rule becomes a token-
// sequence match instead of a text heuristic.
//
// Contract (DESIGN.md §13):
//   - Backslash-newline splices are removed before tokenization (the
//     standard's translation phase 2), so a token spelled across a splice
//     is one token carrying the line number of its first character. The
//     phase-1/2 reversal inside raw strings is NOT implemented: a raw
//     string containing a literal backslash-newline is still joined. That
//     only perturbs the *text* of that string token — its source span and
//     line number stay exact.
//   - Raw strings (R"delim(...)delim", with encoding prefixes) are lexed
//     with full delimiter tracking; escapes are meaningless inside them.
//   - Ordinary string/char literals honour escape sequences, so '\'' and
//     "\"" do not end the literal early. Adjacent string literals are
//     separate tokens (concatenation is a parser-level concept the passes
//     don't need).
//   - pp-numbers keep digit separators in `text`; NormalizeNumber strips
//     them for value comparison. 1'000'000 is one kNumber token.
//   - Comments are tokens (kComment) carrying their full text, so passes
//     can read structured annotations (// RADAR_HOT, // RADAR_HOT_END).
//   - A `#` that starts a logical line opens a preprocessor directive:
//     every token to the end of that logical line carries the directive's
//     name ("include", "pragma", "define", ...). Passes skip `include`
//     directives (a header *name* is not a use) but scan macro bodies.
//   - Every token records its [begin, end) byte span in the ORIGINAL
//     content.
//
// The lexer never fails: malformed input (unterminated literal, stray
// byte) degrades to a best-effort token ending at EOF.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace radar::lint {

enum class TokKind : std::uint8_t {
  kIdentifier,  ///< identifiers and keywords (no keyword table needed)
  kNumber,      ///< pp-number: 42, 0.6, 1'000'000, 0x1fULL, 1e-3
  kString,      ///< "...", R"(...)", u8"...", including the delimiters
  kChar,        ///< 'x', '\'', u'ሴ'
  kPunct,       ///< one punctuation char, except "::" which is one token
  kComment,     ///< // or /* */, full text including the markers
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;        ///< spliced source text of the token
  int line = 0;            ///< 1-based physical line of the first char
  std::string directive;   ///< "include", "pragma", ... when inside a
                           ///< preprocessor directive; empty otherwise
  std::size_t begin = 0;   ///< byte span in the original (unspliced)
  std::size_t end = 0;     ///< content: [begin, end)
};

/// Tokenizes `content`. Whitespace and newlines produce no tokens; line
/// structure is recoverable from Token::line and the spans.
std::vector<Token> Lex(std::string_view content);

/// Returns a number token's text with digit separators removed, so
/// "1'000'000" compares equal to "1000000".
std::string NormalizeNumber(std::string_view text);

}  // namespace radar::lint
