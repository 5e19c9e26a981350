/**
 * @file
 * Minimal recursive-descent JSON parser for the observability tooling:
 * `hopp_trace` and the trace-emitter tests parse the writer's output
 * back with it, closing the loop without an external dependency.
 *
 * Supports the full JSON grammar the writer (stats/json_writer.hh)
 * emits (objects, arrays, strings with basic escapes, numbers,
 * booleans, null). Numbers must match the JSON number grammar
 * `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, so hex, a leading
 * `+` or `.`, a trailing `.`, leading zeros, `inf` and `nan` are parse
 * errors. Not a general-purpose validator: surrogate pairs are passed
 * through unchecked.
 */

#pragma once

#include <charconv>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hopp::obs::json
{

/** One parsed JSON value (a tagged tree node). */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type() const { return type_; }

    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Boolean payload (false unless isBool()). */
    bool boolean() const { return boolean_; }

    /** Numeric payload (0.0 unless isNumber()). */
    double number() const { return number_; }

    /** String payload (empty unless isString()). */
    const std::string &str() const { return string_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<Value> &items() const { return items_; }

    /** Object members in document order (empty unless isObject()). */
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return members_;
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : members_) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }

    // --- construction helpers used by the parser -----------------
    static Value makeNull() { return Value{}; }

    static Value
    makeBool(bool b)
    {
        Value v;
        v.type_ = Type::Bool;
        v.boolean_ = b;
        return v;
    }

    static Value
    makeNumber(double d)
    {
        Value v;
        v.type_ = Type::Number;
        v.number_ = d;
        return v;
    }

    static Value
    makeString(std::string s)
    {
        Value v;
        v.type_ = Type::String;
        v.string_ = std::move(s);
        return v;
    }

    static Value
    makeArray()
    {
        Value v;
        v.type_ = Type::Array;
        return v;
    }

    static Value
    makeObject()
    {
        Value v;
        v.type_ = Type::Object;
        return v;
    }

    std::vector<Value> &itemsMut() { return items_; }

    std::vector<std::pair<std::string, Value>> &
    membersMut()
    {
        return members_;
    }

  private:
    Type type_ = Type::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

namespace detail
{

/** Parser state: cursor over the input plus the first error. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail("bad literal");
        pos += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("dangling escape");
                char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("short \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A') + 10;
                        else
                            return fail("bad \\u digit");
                    }
                    // ASCII range only; wider code points are rendered
                    // as '?' (the writer never emits them).
                    out += code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(Value &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            ++pos;
            out = Value::makeObject();
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                if (!expect(':'))
                    return false;
                Value member;
                if (!parseValue(member))
                    return false;
                out.membersMut().emplace_back(std::move(key),
                                              std::move(member));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return expect('}');
            }
        }
        if (c == '[') {
            ++pos;
            out = Value::makeArray();
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                Value item;
                if (!parseValue(item))
                    return false;
                out.itemsMut().push_back(std::move(item));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return expect(']');
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value::makeString(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true", 4))
                return false;
            out = Value::makeBool(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false", 5))
                return false;
            out = Value::makeBool(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null", 4))
                return false;
            out = Value::makeNull();
            return true;
        }
        return parseNumber(out);
    }

    /** Step over the next character if it is one of @p set. */
    bool
    accept(std::string_view set)
    {
        if (pos >= text.size() || set.find(text[pos]) == set.npos)
            return false;
        ++pos;
        return true;
    }

    /** Step over a run of digits; false when there is none. */
    bool
    digits()
    {
        std::size_t from = pos;
        while (accept("0123456789")) {
        }
        return pos > from;
    }

    /**
     * A number must match JSON's grammar and end at a delimiter, so
     * "0x10", "007" or "1.5.2" fail instead of parsing as a prefix.
     */
    bool
    parseNumber(Value &out)
    {
        std::size_t start = pos;
        accept("-");
        if (!accept("0") && !digits())
            return fail("bad value");
        if (accept(".") && !digits())
            return fail("bad number");
        if (accept("eE")) {
            accept("+-");
            if (!digits())
                return fail("bad number");
        }
        if (pos < text.size() &&
            std::string_view(",]} \t\r\n").find(text[pos]) ==
                std::string_view::npos)
            return fail("bad number");
        double d = 0;
        const char *first = text.data() + start;
        if (std::from_chars(first, text.data() + pos, d).ec != std::errc{})
            return fail("number out of range");
        out = Value::makeNumber(d);
        return true;
    }
};

} // namespace detail

/**
 * Parse @p text as one JSON document.
 * @return true on success; on failure @p err (if non-null) gets a
 *         one-line description with the byte offset.
 */
inline bool
parse(const std::string &text, Value &out, std::string *err = nullptr)
{
    detail::Parser p{text, 0, {}};
    if (!p.parseValue(out)) {
        if (err)
            *err = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing garbage at offset " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace hopp::obs::json

