/**
 * @file
 * Shared C++ token lexer for the project's static analyzer.
 *
 * Every hopp_analyze pass needs to reason about source text without
 * being fooled by comments, string literals, raw strings, or
 * preprocessor line continuations. Line-regex scanning cannot tell
 * `allow(` inside a string from `allow(` in a directive comment, or
 * `//` inside a raw string from a comment. This lexer produces a
 * full-fidelity token stream instead:
 *
 *   - every byte of the input is covered by exactly one token, so
 *     concatenating token texts reproduces the file byte-for-byte
 *     (the reassembly property the lexer tests verify);
 *   - comments, string/char literals (including encoding prefixes and
 *     raw strings with arbitrary delimiters), preprocessor directives
 *     (including backslash line continuations), identifiers, numbers
 *     (pp-number rules: digit separators, exponent signs), and
 *     single-character punctuators are distinct token kinds;
 *   - each token records the 1-based line its first character sits on.
 *
 * The lexer is deliberately a *lexer*, not a parser: rules built on it
 * (see token_stream.hh) match token sequences, which is exactly the
 * granularity the project's determinism and architecture rules need.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hopp::analysis
{

enum class TokKind
{
    Whitespace,  //!< spaces, tabs, newlines, carriage returns
    Comment,     //!< // line or slash-star block comment, markers included
    String,      //!< "..." or raw R"delim(...)delim", prefix + quotes included
    CharLit,     //!< '...' character literal, quotes included
    PpDirective, //!< '#' line incl. backslash continuations
    Ident,       //!< identifier or keyword
    Number,      //!< pp-number (integer / float / separators / exponents)
    Punct,       //!< any other single character
};

struct Token
{
    TokKind kind;
    std::string text; //!< exact source spelling
    int line;         //!< 1-based line of the first character
};

namespace detail
{

inline bool
identStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

inline bool
identChar(char c)
{
    return identStart(c) || (c >= '0' && c <= '9');
}

inline bool
digit(char c)
{
    return c >= '0' && c <= '9';
}

/**
 * Length of a string-literal encoding prefix (u8, u, U, L) at `i`, or
 * 0 when none. Only meaningful when the character after the prefix is
 * a quote or R".
 */
inline std::size_t
encodingPrefixLen(const std::string &s, std::size_t i)
{
    if (s.compare(i, 2, "u8") == 0)
        return 2;
    if (s[i] == 'u' || s[i] == 'U' || s[i] == 'L')
        return 1;
    return 0;
}

} // namespace detail

/**
 * Lex `src` into a full-coverage token vector. Never fails: malformed
 * input (unterminated literal or comment) yields a token running to
 * end of input, which keeps the reassembly property intact.
 */
inline std::vector<Token>
lex(const std::string &src)
{
    using namespace detail;

    std::vector<Token> out;
    std::size_t i = 0;
    int line = 1;
    bool line_start = true; // only whitespace seen since last newline

    auto countLines = [](const std::string &text) {
        int n = 0;
        for (char c : text)
            if (c == '\n')
                ++n;
        return n;
    };
    auto push = [&](TokKind kind, std::size_t begin, std::size_t end) {
        Token t{kind, src.substr(begin, end - begin), line};
        line += countLines(t.text);
        if (kind != TokKind::Whitespace)
            line_start = false;
        out.push_back(std::move(t));
    };

    while (i < src.size()) {
        char c = src[i];

        // Whitespace runs (newlines reset the line-start flag).
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            std::size_t j = i;
            bool saw_nl = false;
            while (j < src.size() &&
                   (src[j] == ' ' || src[j] == '\t' || src[j] == '\r' ||
                    src[j] == '\n')) {
                saw_nl = saw_nl || src[j] == '\n';
                ++j;
            }
            push(TokKind::Whitespace, i, j);
            if (saw_nl)
                line_start = true;
            i = j;
            continue;
        }

        // Comments.
        if (c == '/' && i + 1 < src.size()) {
            if (src[i + 1] == '/') {
                std::size_t j = src.find('\n', i);
                if (j == std::string::npos)
                    j = src.size();
                push(TokKind::Comment, i, j);
                i = j;
                continue;
            }
            if (src[i + 1] == '*') {
                std::size_t j = src.find("*/", i + 2);
                j = j == std::string::npos ? src.size() : j + 2;
                push(TokKind::Comment, i, j);
                i = j;
                continue;
            }
        }

        // Preprocessor directive: '#' first on its line, swallowing
        // backslash-newline continuations. Comments inside the
        // directive ride along in the token text; token_stream.hh's
        // ppText() strips them before rules look at the directive.
        if (c == '#' && line_start) {
            std::size_t j = i;
            while (j < src.size()) {
                if (src[j] == '\n') {
                    // A continuation if the last non-CR char before the
                    // newline is a backslash.
                    std::size_t k = j;
                    while (k > i && src[k - 1] == '\r')
                        --k;
                    if (k > i && src[k - 1] == '\\') {
                        ++j;
                        continue;
                    }
                    break;
                }
                // A trailing // comment ends the directive; it lexes
                // as its own Comment token so suppression / expect
                // directives on include lines are still seen.
                if (src[j] == '/' && j + 1 < src.size() &&
                    src[j + 1] == '/')
                    break;
                // A block comment inside the directive may span lines.
                if (src[j] == '/' && j + 1 < src.size() &&
                    src[j + 1] == '*') {
                    std::size_t close = src.find("*/", j + 2);
                    j = close == std::string::npos ? src.size()
                                                   : close + 2;
                    continue;
                }
                ++j;
            }
            push(TokKind::PpDirective, i, j);
            i = j;
            continue;
        }

        // String and character literals, with optional encoding prefix
        // and raw-string syntax. Checked before identifiers so u8"x",
        // LR"(y)" and friends lex as one literal token.
        {
            std::size_t p = identStart(c) ? encodingPrefixLen(src, i) : 0;
            std::size_t q = i + p;
            bool raw = q < src.size() && src[q] == 'R' &&
                       q + 1 < src.size() && src[q + 1] == '"';
            if (raw) {
                // R"delim( ... )delim"
                std::size_t open = q + 2;
                std::size_t paren = src.find('(', open);
                if (paren != std::string::npos) {
                    // Appended in place: GCC 12 -O2 misreads
                    // `")" + std::string&&` as an overlapping memcpy
                    // (-Wrestrict) and fails a -Werror Release build.
                    std::string close(1, ')');
                    close.append(src, open, paren - open);
                    close += '"';
                    std::size_t end = src.find(close, paren + 1);
                    end = end == std::string::npos ? src.size()
                                                   : end + close.size();
                    push(TokKind::String, i, end);
                    i = end;
                    continue;
                }
            }
            if (q < src.size() && (src[q] == '"' || src[q] == '\'') &&
                (p == 0 || !raw)) {
                // Guard: a bare identifier char followed by a quote only
                // counts when the prefix is a real encoding prefix; the
                // encodingPrefixLen check above already ensured that.
                char quote = src[q];
                bool is_literal = p > 0 || !identStart(c);
                // Digit separators (1'000) are consumed by the number
                // lexer below, so a quote directly after a digit never
                // reaches this point.
                if (is_literal || src[i] == quote) {
                    std::size_t j = q + 1;
                    while (j < src.size() && src[j] != quote &&
                           src[j] != '\n') {
                        if (src[j] == '\\' && j + 1 < src.size())
                            ++j;
                        ++j;
                    }
                    if (j < src.size() && src[j] == quote)
                        ++j;
                    push(quote == '"' ? TokKind::String : TokKind::CharLit,
                         i, j);
                    i = j;
                    continue;
                }
            }
        }

        // Identifiers.
        if (identStart(c)) {
            std::size_t j = i + 1;
            while (j < src.size() && identChar(src[j]))
                ++j;
            push(TokKind::Ident, i, j);
            i = j;
            continue;
        }

        // Numbers (pp-number: digits, idents, '.', digit separators,
        // and signs directly after an exponent character).
        if (digit(c) || (c == '.' && i + 1 < src.size() &&
                         digit(src[i + 1]))) {
            std::size_t j = i + 1;
            while (j < src.size()) {
                char d = src[j];
                if (identChar(d) || d == '.') {
                    ++j;
                } else if (d == '\'' && j + 1 < src.size() &&
                           identChar(src[j + 1])) {
                    j += 2; // digit separator
                } else if ((d == '+' || d == '-') &&
                           (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                            src[j - 1] == 'p' || src[j - 1] == 'P')) {
                    ++j;
                } else {
                    break;
                }
            }
            push(TokKind::Number, i, j);
            i = j;
            continue;
        }

        // Everything else: one punctuator character.
        push(TokKind::Punct, i, i + 1);
        ++i;
    }
    return out;
}

/** Reassemble a token vector back into source text. */
inline std::string
reassemble(const std::vector<Token> &toks)
{
    std::string out;
    for (const auto &t : toks)
        out += t.text;
    return out;
}

} // namespace hopp::analysis
