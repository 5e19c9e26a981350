/**
 * @file
 * The one JSON writer. Every document the simulator and its tools
 * write — stats, sweep and replay documents, Chrome traces, analyzer
 * findings — escapes its strings and renders its numbers here, and
 * every pretty-printed document takes its layout from JsonWriter:
 *
 *  - Strings: `"` and `\` are backslash-escaped, control characters
 *    take the short escapes `\b \f \n \r \t` or `\u00XX`, and every
 *    other byte passes through unchanged.
 *  - Numbers: integers print exactly. A double prints without a
 *    fraction when it is integral and within ±9e15 (exact in a
 *    double), else with `%.17g`, which round-trips. NaN and the
 *    infinities have no JSON spelling and print as `null`.
 *  - Layout: two-space indent, one member or element per line. An
 *    object value opens on the line after its key, at the key's
 *    indent; an array value opens on the key's line. The document
 *    ends with one newline.
 *
 * Header-only and standard-library-only, so every layer, and
 * hopp_analyze, which links no library, can use it.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace hopp::stats
{

/** One number of a flat document: an exact count or a real. */
using JsonNumber = std::variant<std::uint64_t, double>;

/** A flat document's members, in document order. */
using JsonFields = std::vector<std::pair<std::string, JsonNumber>>;

/** Append @p s to @p out as a JSON string literal, quotes included. */
inline void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Append the integer @p v exactly. */
template <std::integral T>
inline void
appendJsonInteger(std::string &out, T v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** Append @p v by the number rule above. */
inline void
appendJsonReal(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Range first: casting a double outside long long's range is
    // undefined.
    if (v >= -9.0e15 && v <= 9.0e15 && v == std::trunc(v)) {
        appendJsonInteger(out, static_cast<long long>(v));
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

/**
 * Builds one pretty-printed document by the layout rule above. Calls
 * nest like the document: beginObject()/beginArray() ... end(), with
 * key() before every value inside an object.
 */
class JsonWriter
{
  public:
    /** Name the next value; required before each value in an object. */
    JsonWriter &
    key(std::string_view name)
    {
        key_ = name;
        return *this;
    }

    JsonWriter &
    value(std::string_view s)
    {
        open(false);
        appendJsonString(out_, s);
        return *this;
    }

    JsonWriter &
    value(double v)
    {
        open(false);
        appendJsonReal(out_, v);
        return *this;
    }

    template <std::integral T>
    JsonWriter &
    value(T v)
    {
        open(false);
        appendJsonInteger(out_, v);
        return *this;
    }

    JsonWriter &
    value(const JsonNumber &v)
    {
        std::visit([this](auto x) { value(x); }, v);
        return *this;
    }

    /**
     * @p v in its shortest round-trip form (`0.5`, not
     * `0.50000000000000000`): for values a user typed, which then
     * read back as typed.
     */
    JsonWriter &
    shortest(double v)
    {
        if (!std::isfinite(v))
            return value(v);
        open(false);
        char buf[32];
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        return *this;
    }

    JsonWriter &
    beginObject()
    {
        open(true);
        out_ += '{';
        frames_.push_back({'}', 0});
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        open(false);
        out_ += '[';
        frames_.push_back({']', 0});
        return *this;
    }

    /** Close the innermost open object or array. */
    JsonWriter &
    end()
    {
        Frame f = frames_.back();
        frames_.pop_back();
        if (f.items) {
            out_ += '\n';
            pad();
        }
        out_ += f.close;
        return *this;
    }

    /** @p members as one object value. */
    JsonWriter &
    fields(const JsonFields &members)
    {
        beginObject();
        for (const auto &[name, v] : members)
            key(name).value(v);
        return end();
    }

    /** The finished document; the writer is spent. */
    std::string
    finish()
    {
        out_ += '\n';
        return std::move(out_);
    }

  private:
    struct Frame
    {
        char close;
        std::size_t items;
    };

    /** Separator, indent and key in front of the next value. */
    void
    open(bool object)
    {
        if (frames_.empty())
            return;
        Frame &f = frames_.back();
        out_ += f.items++ ? ",\n" : "\n";
        pad();
        if (f.close == '}') {
            appendJsonString(out_, key_);
            out_ += object ? ":\n" : ": ";
            if (object)
                pad();
        }
    }

    void pad() { out_.append(2 * frames_.size(), ' '); }

    std::string out_;
    std::vector<Frame> frames_;
    std::string key_;
};

/** @p fields as a whole flat-object document. */
inline std::string
flatJson(const JsonFields &fields)
{
    return JsonWriter().fields(fields).finish();
}

} // namespace hopp::stats
