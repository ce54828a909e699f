// nsm_analyze lexer: a real C++ tokenizer for the concurrency analyzer.
//
// A line regex cannot see a guard declared in a caller, a call split across
// lines, or the difference between code and the inside of a raw string.
// This lexer produces the token stream the analyzer's scope/guard tracker,
// call-graph extractor and hygiene scan operate on, handling everything
// that defeats line regexes:
//
//   - line and block comments (C++ block comments do not nest: the first
//     `*/` ends the comment, and the analyzer must resume lexing there);
//   - string/char literals with escape sequences, and encoding prefixes
//     (L, u8, u, U);
//   - raw string literals R"delim(...)delim" whose bodies may contain
//     braces, quotes, and code-shaped text;
//   - preprocessor directives, including backslash line continuations
//     (a macro body spanning ten continued lines is one logical directive
//     and contributes no tokens); only `#include` yields a token, carrying
//     the header name;
//   - multi-character punctuators the analyzer matches on (`::`, `->`).
//
// Tokens keep their 1-based source line so findings are clickable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace nsm_analyze {

enum class TokenKind {
  kIdentifier,   // identifiers and keywords (the parser distinguishes)
  kNumber,       // numeric literals, including separators and suffixes
  kString,       // string literal; `text` holds the *contents* (no quotes)
  kChar,         // character literal; `text` holds the contents
  kPunct,        // punctuator; `text` is "::", "->", or a single character
  kInclude,      // `#include <h>` / `#include "h"`; `text` holds `h`
};

struct Token {
  TokenKind kind;
  std::string text;
  int line = 0;
};

/// Tokenize one translation unit.  Never throws on malformed input: an
/// unterminated literal or comment simply ends at end-of-file (the analyzer
/// reports per-file findings, not parse errors, and must make progress on
/// any text a repository can contain).
std::vector<Token> Lex(const std::string& source);

}  // namespace nsm_analyze
