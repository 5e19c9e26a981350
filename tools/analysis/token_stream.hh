/**
 * @file
 * Token-stream views and matching helpers shared by the hopp_analyze
 * passes.
 *
 * A TokenStream wraps one lexed file and offers the three views the
 * passes consume:
 *
 *   - code(): tokens with whitespace and comments removed and string /
 *     char literal *contents* replaced by an empty literal — rules
 *     match real code tokens, never prose or literal payloads;
 *   - strippedLines(): the file line by line with comments blanked to
 *     spaces and literal contents blanked in place — for the legacy
 *     line-window rules (layout and columns preserved exactly);
 *   - comments(): comment tokens only — suppression directives like
 *     `// hopp-analyze: allow(...)` are parsed from here, so a directive
 *     spelled inside a string literal can no longer suppress anything.
 *
 * ppText() flattens a preprocessor directive token: line continuations
 * and embedded comments become single spaces, which is what include
 * and guard parsing want to see.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/lexer.hh"

namespace hopp::analysis
{

/** One non-whitespace, non-comment token with its source line. */
struct CodeToken
{
    TokKind kind;
    std::string text;
    int line;
};

/** Directive text with continuations and comments flattened to spaces. */
inline std::string
ppText(const std::string &directive)
{
    std::string out;
    std::size_t i = 0;
    while (i < directive.size()) {
        char c = directive[i];
        if (c == '\\') {
            // Backslash-newline (with optional CR) is a continuation.
            std::size_t j = i + 1;
            while (j < directive.size() && directive[j] == '\r')
                ++j;
            if (j < directive.size() && directive[j] == '\n') {
                out += ' ';
                i = j + 1;
                continue;
            }
        }
        if (c == '/' && i + 1 < directive.size()) {
            if (directive[i + 1] == '/')
                break; // trailing comment: directive content ends
            if (directive[i + 1] == '*') {
                std::size_t close = directive.find("*/", i + 2);
                out += ' ';
                i = close == std::string::npos ? directive.size()
                                               : close + 2;
                continue;
            }
        }
        if (c == '\n' || c == '\r' || c == '\t')
            c = ' ';
        out += c;
        ++i;
    }
    return out;
}

class TokenStream
{
  public:
    explicit TokenStream(const std::string &src) : tokens_(lex(src)) {}

    const std::vector<Token> &all() const { return tokens_; }

    /**
     * Code tokens: comments and whitespace gone, directives flattened.
     * String/char literals keep their exact text (their *kind* keeps
     * token matchers from confusing them with identifiers or
     * punctuation).
     */
    std::vector<CodeToken>
    code() const
    {
        std::vector<CodeToken> out;
        for (const auto &t : tokens_) {
            switch (t.kind) {
            case TokKind::Whitespace:
            case TokKind::Comment:
                break;
            case TokKind::PpDirective:
                out.push_back({t.kind, ppText(t.text), t.line});
                break;
            default:
                out.push_back({t.kind, t.text, t.line});
                break;
            }
        }
        return out;
    }

    /** Comment tokens with their start lines (directive parsing). */
    std::vector<Token>
    comments() const
    {
        std::vector<Token> out;
        for (const auto &t : tokens_)
            if (t.kind == TokKind::Comment)
                out.push_back(t);
        return out;
    }

    /**
     * The file as lines of "code text": comments become spaces, string
     * and char literal contents become spaces (delimiters kept), other
     * tokens keep their exact spelling and position. Preprocessor
     * directives keep their text so include/guard-sensitive rules can
     * still see them line by line.
     */
    std::vector<std::string>
    strippedLines() const
    {
        std::vector<std::string> lines(1);
        auto append = [&](const std::string &text) {
            for (char c : text) {
                if (c == '\n')
                    lines.emplace_back();
                else
                    lines.back() += c;
            }
        };
        auto blank = [&](const std::string &text, std::size_t keep) {
            // Keep the first and last `keep` chars (delimiters), blank
            // the payload; newlines inside raw strings stay newlines.
            for (std::size_t k = 0; k < text.size(); ++k) {
                char c = text[k];
                if (c == '\n') {
                    lines.emplace_back();
                    continue;
                }
                bool delim = k < keep || k + keep >= text.size();
                lines.back() += delim ? c : ' ';
            }
        };
        for (const auto &t : tokens_) {
            switch (t.kind) {
            case TokKind::Comment:
                blank(t.text, 0);
                break;
            case TokKind::String:
            case TokKind::CharLit:
                blank(t.text, 1);
                break;
            default:
                append(t.text);
                break;
            }
        }
        return lines;
    }

  private:
    std::vector<Token> tokens_;
};

/**
 * Index of the matching closer for the opener at `open` in a code-token
 * vector ((), {}, []). Returns toks.size() when unbalanced.
 */
inline std::size_t
matchForward(const std::vector<CodeToken> &toks, std::size_t open)
{
    const std::string &o = toks[open].text;
    const char *close = o == "(" ? ")" : o == "{" ? "}" : "]";
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct)
            continue;
        if (toks[i].text == o)
            ++depth;
        else if (toks[i].text == close && --depth == 0)
            return i;
    }
    return toks.size();
}

} // namespace hopp::analysis
