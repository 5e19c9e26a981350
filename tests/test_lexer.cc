/**
 * @file
 * Unit tests for the shared analysis lexer (tools/analysis/lexer.hh)
 * and token-stream views — the foundation every hopp_analyze pass
 * stands on. The load-bearing property is full fidelity: every byte of
 * the input lands in exactly one token, so reassembling the token
 * texts reproduces the file byte-for-byte. The edge cases here are the
 * ones that defeat line-regex scanning: raw strings containing comment
 * markers, string literals containing directive syntax, and
 * preprocessor lines with backslash continuations.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/lexer.hh"
#include "analysis/token_stream.hh"
#include "common/random.hh"

using namespace hopp::analysis;

namespace
{

std::vector<Token>
tokensOf(const std::string &src, TokKind kind)
{
    std::vector<Token> out;
    for (const auto &t : lex(src))
        if (t.kind == kind)
            out.push_back(t);
    return out;
}

} // namespace

TEST(Lexer, RoundTripSimple)
{
    std::string src = "int main() { return 0; }\n";
    EXPECT_EQ(reassemble(lex(src)), src);
}

TEST(Lexer, RawStringContainingLineComment)
{
    // The // inside the raw string must NOT start a comment.
    std::string src = "auto s = R\"(not // a comment)\";\n";
    auto toks = lex(src);
    EXPECT_EQ(reassemble(toks), src);
    EXPECT_TRUE(tokensOf(src, TokKind::Comment).empty());
    auto strings = tokensOf(src, TokKind::String);
    ASSERT_EQ(strings.size(), 1u);
    EXPECT_EQ(strings[0].text, "R\"(not // a comment)\"");
}

TEST(Lexer, RawStringContainingBlockCommentMarkers)
{
    std::string src = "auto s = R\"x(/* not a comment */)x\";\n";
    auto toks = lex(src);
    EXPECT_EQ(reassemble(toks), src);
    EXPECT_TRUE(tokensOf(src, TokKind::Comment).empty());
    auto strings = tokensOf(src, TokKind::String);
    ASSERT_EQ(strings.size(), 1u);
    EXPECT_EQ(strings[0].text, "R\"x(/* not a comment */)x\"");
}

TEST(Lexer, RawStringDelimiterRequiresExactClose)
{
    // ")(" inside the payload must not close R"ab( ... )ab".
    std::string src = "auto s = R\"ab(close )( here )ab\";";
    auto strings = tokensOf(src, TokKind::String);
    ASSERT_EQ(strings.size(), 1u);
    EXPECT_EQ(strings[0].text, "R\"ab(close )( here )ab\"");
}

TEST(Lexer, EncodingPrefixedLiterals)
{
    std::string src = "auto a = u8\"x\"; auto b = L\"y\"; auto c = u'z';";
    EXPECT_EQ(reassemble(lex(src)), src);
    auto strings = tokensOf(src, TokKind::String);
    ASSERT_EQ(strings.size(), 2u);
    EXPECT_EQ(strings[0].text, "u8\"x\"");
    EXPECT_EQ(strings[1].text, "L\"y\"");
    auto chars = tokensOf(src, TokKind::CharLit);
    ASSERT_EQ(chars.size(), 1u);
    EXPECT_EQ(chars[0].text, "u'z'");
}

TEST(Lexer, StringContainingDirectiveSyntax)
{
    // A suppression directive spelled inside a string is a String
    // token, never a Comment — so it can't suppress anything.
    std::string src =
        "auto s = \"hopp-analyze: allow(raw)\"; // real comment\n";
    auto comments = tokensOf(src, TokKind::Comment);
    ASSERT_EQ(comments.size(), 1u);
    EXPECT_EQ(comments[0].text, "// real comment");
    auto strings = tokensOf(src, TokKind::String);
    ASSERT_EQ(strings.size(), 1u);
    EXPECT_NE(strings[0].text.find("allow(raw)"), std::string::npos);
}

TEST(Lexer, EscapedQuoteStaysInsideString)
{
    std::string src = "auto s = \"a\\\"b\"; int x = 1;";
    EXPECT_EQ(reassemble(lex(src)), src);
    auto strings = tokensOf(src, TokKind::String);
    ASSERT_EQ(strings.size(), 1u);
    EXPECT_EQ(strings[0].text, "\"a\\\"b\"");
}

TEST(Lexer, DirectiveWithLineContinuation)
{
    std::string src = "#define PAIR(a, b) \\\n    ((a) + (b))\nint x;\n";
    auto pp = tokensOf(src, TokKind::PpDirective);
    ASSERT_EQ(pp.size(), 1u);
    // The continuation rides along inside the directive token.
    EXPECT_NE(pp[0].text.find("((a) + (b))"), std::string::npos);
    EXPECT_EQ(reassemble(lex(src)), src);
    // ppText flattens the continuation to one logical line.
    std::string flat = ppText(pp[0].text);
    EXPECT_EQ(flat.find('\n'), std::string::npos);
}

TEST(Lexer, DirectiveEndsBeforeTrailingComment)
{
    std::string src = "#include \"mod/a.hh\" // hopp-analyze: allow(x)\n";
    auto pp = tokensOf(src, TokKind::PpDirective);
    ASSERT_EQ(pp.size(), 1u);
    EXPECT_EQ(pp[0].text.find("//"), std::string::npos);
    auto comments = tokensOf(src, TokKind::Comment);
    ASSERT_EQ(comments.size(), 1u);
    EXPECT_EQ(comments[0].line, 1);
}

TEST(Lexer, HashMidLineIsNotADirective)
{
    std::string src = "int a = 1;\nauto s = 2 # 3;\n";
    EXPECT_TRUE(tokensOf(src, TokKind::PpDirective).empty());
}

TEST(Lexer, NumbersWithSeparatorsAndExponents)
{
    std::string src = "auto a = 1'000'000; auto b = 1.5e-3; auto c = 0x1p+4;";
    auto nums = tokensOf(src, TokKind::Number);
    ASSERT_EQ(nums.size(), 3u);
    EXPECT_EQ(nums[0].text, "1'000'000");
    EXPECT_EQ(nums[1].text, "1.5e-3");
    EXPECT_EQ(nums[2].text, "0x1p+4");
    // The digit separator must not open a char literal.
    EXPECT_TRUE(tokensOf(src, TokKind::CharLit).empty());
}

TEST(Lexer, LineNumbersTrackMultilineTokens)
{
    std::string src = "/* one\ntwo */\nint x; // three\n";
    auto toks = lex(src);
    ASSERT_GE(toks.size(), 3u);
    EXPECT_EQ(toks[0].kind, TokKind::Comment);
    EXPECT_EQ(toks[0].line, 1);
    auto idents = tokensOf(src, TokKind::Ident);
    ASSERT_EQ(idents.size(), 2u); // int, x
    EXPECT_EQ(idents[0].line, 3);
    auto comments = tokensOf(src, TokKind::Comment);
    ASSERT_EQ(comments.size(), 2u);
    EXPECT_EQ(comments[1].line, 3);
}

TEST(Lexer, UnterminatedLiteralStillRoundTrips)
{
    std::string src = "auto s = \"never closed\nint x;";
    EXPECT_EQ(reassemble(lex(src)), src);
    std::string raw = "auto s = R\"(never closed";
    EXPECT_EQ(reassemble(lex(raw)), raw);
    std::string block = "int y; /* never closed";
    EXPECT_EQ(reassemble(lex(block)), block);
}

TEST(Lexer, SpaceshipLexesAsThreePuncts)
{
    // Punct tokens are single characters by design; <=> must arrive
    // as "<", "=", ">" in order, never swallow a neighbor, and still
    // round-trip.
    std::string src = "auto c = a <=> b;";
    EXPECT_EQ(reassemble(lex(src)), src);
    std::vector<std::string> puncts;
    for (const auto &t : lex(src))
        if (t.kind == TokKind::Punct)
            puncts.push_back(t.text);
    ASSERT_EQ(puncts.size(), 5u); // '=' then '<' '=' '>' ';'
    EXPECT_EQ(puncts[1], "<");
    EXPECT_EQ(puncts[2], "=");
    EXPECT_EQ(puncts[3], ">");
}

TEST(Lexer, UserDefinedLiteralSuffixes)
{
    // A numeric UDL is one pp-number (the suffix is part of the
    // pp-number grammar); a string UDL is a String followed by an
    // Ident suffix token.
    std::string src = "auto d = 12.5_km; auto s = \"abc\"_sv;";
    EXPECT_EQ(reassemble(lex(src)), src);
    auto nums = tokensOf(src, TokKind::Number);
    ASSERT_EQ(nums.size(), 1u);
    EXPECT_EQ(nums[0].text, "12.5_km");
    auto strings = tokensOf(src, TokKind::String);
    ASSERT_EQ(strings.size(), 1u);
    EXPECT_EQ(strings[0].text, "\"abc\"");
    bool saw_suffix = false;
    for (const auto &t : tokensOf(src, TokKind::Ident))
        saw_suffix = saw_suffix || t.text == "_sv";
    EXPECT_TRUE(saw_suffix);
}

TEST(Lexer, AdjacentStringLiteralsStaySeparate)
{
    // Translation-phase-6 concatenation happens after lexing: the
    // lexer must produce one String token per literal, comments
    // between them included.
    std::string src = "auto s = \"one\" \"two\" /* glue */ \"three\";";
    EXPECT_EQ(reassemble(lex(src)), src);
    auto strings = tokensOf(src, TokKind::String);
    ASSERT_EQ(strings.size(), 3u);
    EXPECT_EQ(strings[0].text, "\"one\"");
    EXPECT_EQ(strings[1].text, "\"two\"");
    EXPECT_EQ(strings[2].text, "\"three\"");
    ASSERT_EQ(tokensOf(src, TokKind::Comment).size(), 1u);
}

TEST(Lexer, OperatorCallDefinition)
{
    // operator() definitions: 'operator' is an Ident, the two paren
    // pairs are separate Punct tokens, and matchForward pairs the
    // empty operator parens without sliding into the parameter list.
    std::string src = "int operator()(int v) const { return v; }";
    EXPECT_EQ(reassemble(lex(src)), src);
    TokenStream ts(src);
    auto code = ts.code();
    std::size_t op = 0;
    for (std::size_t i = 0; i < code.size(); ++i)
        if (code[i].text == "operator")
            op = i;
    ASSERT_GT(op, 0u);
    ASSERT_EQ(code[op + 1].text, "(");
    EXPECT_EQ(matchForward(code, op + 1), op + 2); // '()' pairs itself
    ASSERT_EQ(code[op + 3].text, "(");
    std::size_t close = matchForward(code, op + 3);
    EXPECT_EQ(code[close].text, ")");
    EXPECT_EQ(code[close + 1].text, "const");
}

TEST(TokenStream, CodeViewDropsCommentsKeepsLiterals)
{
    TokenStream ts("int a = 1; // note\nauto s = \"text\";\n");
    bool saw_comment = false, saw_string = false;
    for (const auto &t : ts.code()) {
        saw_comment = saw_comment || t.kind == TokKind::Comment;
        saw_string = saw_string ||
                     (t.kind == TokKind::String && t.text == "\"text\"");
    }
    EXPECT_FALSE(saw_comment);
    EXPECT_TRUE(saw_string);
}

TEST(TokenStream, StrippedLinesBlankLiteralPayloads)
{
    TokenStream ts("call(\"abc\", 'x');\n");
    auto lines = ts.strippedLines();
    ASSERT_GE(lines.size(), 1u);
    // Delimiters survive, payloads don't, columns are preserved.
    EXPECT_EQ(lines[0], "call(\"   \", ' ');");
}

TEST(TokenStream, MatchForwardBalances)
{
    TokenStream ts("f(a, g(b, h[c]), {d});");
    auto code = ts.code();
    ASSERT_GT(code.size(), 2u);
    ASSERT_EQ(code[1].text, "(");
    std::size_t close = matchForward(code, 1);
    ASSERT_LT(close, code.size());
    EXPECT_EQ(code[close].text, ")");
    EXPECT_EQ(close + 2, code.size()); // ')' then ';'
}

/**
 * Randomized round-trip: assemble programs from a fragment pool with
 * the project's deterministic PRNG; every assembly must reassemble
 * byte-for-byte and cover every byte with exactly one token.
 */
TEST(Lexer, RandomizedRoundTrip)
{
    const char *fragments[] = {
        "int x = 1;\n",
        "// line comment with \"quotes\" and (parens)\n",
        "/* block\n   comment */",
        "auto r = R\"(payload // with /* markers */)\";\n",
        "auto s = \"str with // and #define\";\n",
        "#define M(a) \\\n    (a + 1)\n",
        "#include \"mod/file.hh\"\n",
        "char c = '\\'';\n",
        "double d = 1'234.5e-6;\n",
        "f(g(h(1, 2), \"x\"), 'y');\n",
        "\t \n",
        "u8\"utf\" L\"wide\";\n",
        "auto cmp = a <=> b;\n",
        "auto w = 9.81_mps2; auto t = \"txt\"_sv;\n",
        "auto j = \"ab\" \"cd\" \"ef\";\n",
        "int operator()(int v) const { return v; }\n",
    };
    const std::size_t n = sizeof(fragments) / sizeof(fragments[0]);

    hopp::Pcg32 rng(20260809);
    for (int trial = 0; trial < 200; ++trial) {
        std::string src;
        int pieces = 1 + static_cast<int>(rng.below(12));
        for (int i = 0; i < pieces; ++i)
            src += fragments[rng.below(static_cast<std::uint32_t>(n))];

        auto toks = lex(src);
        EXPECT_EQ(reassemble(toks), src) << "trial " << trial;

        std::size_t bytes = 0;
        for (const auto &t : toks) {
            EXPECT_FALSE(t.text.empty());
            bytes += t.text.size();
        }
        EXPECT_EQ(bytes, src.size()) << "trial " << trial;
    }
}
