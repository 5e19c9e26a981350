/**
 * @file
 * The JSON writer (stats/json_writer.hh) and the parser
 * (obs/json.hh): the writer's layout, string and number rules pinned
 * byte for byte, the parser's strict number grammar, and writer
 * documents parsing back to the values they were built from.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>

#include "obs/json.hh"
#include "stats/json_writer.hh"

using namespace hopp;
using stats::JsonFields;
using stats::JsonWriter;

namespace
{

std::string
real(double v)
{
    std::string out;
    stats::appendJsonReal(out, v);
    return out;
}

obs::json::Value
parseOk(const std::string &doc)
{
    obs::json::Value v;
    std::string err;
    EXPECT_TRUE(obs::json::parse(doc, v, &err)) << err << "\n" << doc;
    return v;
}

} // namespace

TEST(JsonWriter, LayoutIsPinned)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("demo-v1");
    w.key("note").value("say \"hi\" C:\\tmp\x01\n");
    w.key("runs").beginArray();
    w.beginObject();
    w.key("tiers").value(7u);
    w.key("share").value(0.25);
    w.key("stats").fields({{"llc.hits", std::uint64_t{12}}, {"rate", 2.5}});
    w.end();
    w.beginObject();
    w.key("none").beginArray().end();
    w.key("empty").fields({});
    w.end();
    w.end();
    w.key("ratio").shortest(0.2);
    EXPECT_EQ(w.end().finish(),
              "{\n"
              "  \"schema\": \"demo-v1\",\n"
              "  \"note\": \"say \\\"hi\\\" C:\\\\tmp\\u0001\\n\",\n"
              "  \"runs\": [\n"
              "    {\n"
              "      \"tiers\": 7,\n"
              "      \"share\": 0.25,\n"
              "      \"stats\":\n"
              "      {\n"
              "        \"llc.hits\": 12,\n"
              "        \"rate\": 2.5\n"
              "      }\n"
              "    },\n"
              "    {\n"
              "      \"none\": [],\n"
              "      \"empty\":\n"
              "      {}\n"
              "    }\n"
              "  ],\n"
              "  \"ratio\": 0.2\n"
              "}\n");
}

TEST(JsonWriter, FlatDocumentIsOneMemberPerLine)
{
    EXPECT_EQ(stats::flatJson({{"a", std::uint64_t{1}}, {"b", 0.5}}),
              "{\n  \"a\": 1,\n  \"b\": 0.5\n}\n");
}

TEST(JsonWriter, EscapesEveryControlCharacter)
{
    std::string out;
    stats::appendJsonString(out, "\b\f\n\r\t\x1f\"\\/é");
    EXPECT_EQ(out, "\"\\b\\f\\n\\r\\t\\u001f\\\"\\\\/é\"");
}

TEST(JsonWriter, NumberRule)
{
    // Integral and within ±9e15: no fraction.
    EXPECT_EQ(real(0.0), "0");
    EXPECT_EQ(real(-0.0), "0");
    EXPECT_EQ(real(42.0), "42");
    EXPECT_EQ(real(-9.0e15), "-9000000000000000");
    // Everything else: %.17g.
    EXPECT_EQ(real(0.1), "0.10000000000000001");
    EXPECT_EQ(real(9.0e15 + 2), "9000000000000002");
    EXPECT_EQ(real(1e300), "1.0000000000000001e+300");
    EXPECT_EQ(real(-2.5), "-2.5");
    // Outside long long's range: no cast, no undefined behaviour.
    EXPECT_EQ(real(1e19), "1e+19");
    // No JSON spelling: null.
    EXPECT_EQ(real(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(real(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(real(-std::numeric_limits<double>::infinity()), "null");

    std::string out;
    stats::appendJsonInteger(out, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(out, "18446744073709551615");

    JsonWriter w;
    w.beginArray();
    w.shortest(0.5).shortest(0.8).shortest(1.0).shortest(1e-7);
    EXPECT_EQ(w.end().finish(), "[\n  0.5,\n  0.8,\n  1,\n  1e-07\n]\n");
}

TEST(JsonParser, RejectsNonJsonNumbers)
{
    for (const char *bad :
         {"0x10", "+1", ".5", "1.", "007", "infinity", "-nan", "1e", "-"}) {
        std::string doc = std::string("{\"v\": ") + bad + "}";
        obs::json::Value v;
        std::string err;
        EXPECT_FALSE(obs::json::parse(doc, v, &err)) << bad;
        EXPECT_NE(err.find(" at offset "), std::string::npos) << err;
    }
    obs::json::Value v;
    EXPECT_FALSE(obs::json::parse(
        "{\"b\": 0x10, \"c\": +1, \"d\": .5, \"e\": 1., \"f\": 007, "
        "\"g\": infinity, \"h\": -nan}",
        v));
}

TEST(JsonParser, AcceptsJsonNumbers)
{
    obs::json::Value v =
        parseOk("[0, -0.5e+3, 1E5, 12.345, -1, 0.000125, 9.5E-3]");
    ASSERT_EQ(v.items().size(), 7u);
    EXPECT_EQ(v.items()[0].number(), 0.0);
    EXPECT_EQ(v.items()[1].number(), -500.0);
    EXPECT_EQ(v.items()[2].number(), 1e5);
    EXPECT_EQ(v.items()[3].number(), 12.345);
    EXPECT_EQ(v.items()[4].number(), -1.0);
    EXPECT_EQ(v.items()[5].number(), 0.000125);
    EXPECT_EQ(v.items()[6].number(), 9.5e-3);
}

TEST(JsonRoundTrip, WriterDocumentsParseBack)
{
    std::string text;
    for (int c = 1; c < 0x80; ++c)
        text += static_cast<char>(c);
    const double reals[] = {0.1,   1.0 / 3, 1e-300, -2.5e100,
                            123456.789, 9007199254740992.0};
    const std::uint64_t counts[] = {0, 1, 9007199254740992ull};

    JsonWriter w;
    w.beginObject();
    w.key(text).value(text);
    w.key("reals").beginArray();
    for (double r : reals)
        w.value(r);
    w.end();
    JsonFields fields;
    for (std::uint64_t c : counts)
        fields.emplace_back("count." + std::to_string(c), c);
    w.key("nested").beginObject().key("fields").fields(fields).end();
    obs::json::Value root = parseOk(w.end().finish());

    ASSERT_TRUE(root.isObject());
    ASSERT_EQ(root.members().size(), 3u);
    EXPECT_EQ(root.members()[0].first, text);
    EXPECT_EQ(root.members()[0].second.str(), text);
    const obs::json::Value *rs = root.find("reals");
    ASSERT_TRUE(rs && rs->isArray());
    ASSERT_EQ(rs->items().size(), std::size(reals));
    for (std::size_t i = 0; i < std::size(reals); ++i)
        EXPECT_EQ(rs->items()[i].number(), reals[i]) << i;
    const obs::json::Value *f = root.find("nested")->find("fields");
    ASSERT_TRUE(f && f->isObject());
    for (std::uint64_t c : counts) {
        const obs::json::Value *n = f->find("count." + std::to_string(c));
        ASSERT_TRUE(n) << c;
        EXPECT_EQ(n->number(), static_cast<double>(c));
    }
}
