#include "common/json_reader.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"

namespace clustersim {

bool
JsonValue::asBool() const
{
    if (!isBool())
        fatal("JSON value is not a bool");
    return bool_;
}

double
JsonValue::asDouble() const
{
    if (!isNumber())
        fatal("JSON value is not a number");
    return num_;
}

double
JsonValue::numberOrNaN() const
{
    if (isNull())
        return std::numeric_limits<double>::quiet_NaN();
    if (!isNumber())
        fatal("JSON value is not a number or null");
    return num_;
}

std::int64_t
JsonValue::asInt() const
{
    if (!isIntegral())
        fatal("JSON value is not an integer");
    return int_;
}

const std::string &
JsonValue::asString() const
{
    if (!isString())
        fatal("JSON value is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (!isArray())
        fatal("JSON value is not an array");
    return arr_;
}

const std::map<std::string, JsonValue> &
JsonValue::asObject() const
{
    if (!isObject())
        fatal("JSON value is not an object");
    return obj_;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const auto &obj = asObject();
    auto it = obj.find(key);
    if (it == obj.end())
        fatal("JSON object has no member \"", key, "\"");
    return it->second;
}

bool
JsonValue::has(const std::string &key) const
{
    const auto &obj = asObject();
    return obj.find(key) != obj.end();
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

JsonValue
JsonValue::makeNumber(double v, bool integral, std::int64_t i)
{
    JsonValue j;
    j.kind_ = Kind::Number;
    j.num_ = v;
    j.integral_ = integral;
    j.int_ = i;
    return j;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue j;
    j.kind_ = Kind::String;
    j.str_ = std::move(v);
    return j;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> v)
{
    JsonValue j;
    j.kind_ = Kind::Array;
    j.arr_ = std::move(v);
    return j;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> v)
{
    JsonValue j;
    j.kind_ = Kind::Object;
    j.obj_ = std::move(v);
    return j;
}

namespace {

/** Single-pass recursive-descent parser over the document text. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            err("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    err(const std::string &what)
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); i++) {
            if (text_[i] == '\n') {
                line++;
                col = 1;
            } else {
                col++;
            }
        }
        fatal("JSON parse error at line ", line, ", column ", col, ": ",
              what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            err("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            err(detail::concat("expected '", c, "'"));
        pos_++;
    }

    bool
    consumeWord(const char *word)
    {
        std::size_t n = 0;
        while (word[n])
            n++;
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
          case '[': return parseNested();
          case '"': return JsonValue::makeString(parseString());
          case 't':
            if (!consumeWord("true"))
                err("bad literal");
            return JsonValue::makeBool(true);
          case 'f':
            if (!consumeWord("false"))
                err("bad literal");
            return JsonValue::makeBool(false);
          case 'n':
            if (!consumeWord("null"))
                err("bad literal");
            return JsonValue::makeNull();
          default:
            return parseNumber();
        }
    }

    /** An object or array, one level deeper than its parent. */
    JsonValue
    parseNested()
    {
        if (depth_ == maxJsonDepth)
            err(detail::concat("nesting deeper than ", maxJsonDepth,
                               " levels"));
        depth_++;
        JsonValue v = peek() == '{' ? parseObject() : parseArray();
        depth_--;
        return v;
    }

    JsonValue
    parseObject()
    {
        expect('{');
        std::map<std::string, JsonValue> members;
        skipWs();
        if (peek() == '}') {
            pos_++;
            return JsonValue::makeObject(std::move(members));
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            members[key] = parseValue();
            skipWs();
            char c = peek();
            pos_++;
            if (c == '}')
                break;
            if (c != ',')
                err("expected ',' or '}' in object");
        }
        return JsonValue::makeObject(std::move(members));
    }

    JsonValue
    parseArray()
    {
        expect('[');
        std::vector<JsonValue> items;
        skipWs();
        if (peek() == ']') {
            pos_++;
            return JsonValue::makeArray(std::move(items));
        }
        for (;;) {
            items.push_back(parseValue());
            skipWs();
            char c = peek();
            pos_++;
            if (c == ']')
                break;
            if (c != ',')
                err("expected ',' or ']' in array");
        }
        return JsonValue::makeArray(std::move(items));
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                err("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                err("unterminated escape");
            char e = text_[pos_++];
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
                if (pos_ + 4 > text_.size())
                    err("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; i++) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        err("bad \\u escape");
                }
                // Writer only emits \u00xx for control characters;
                // encode the general case as UTF-8 anyway.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                err("bad escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            pos_++;
        bool integral = true;
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            err("bad number");
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                pos_++;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                pos_++;
            } else {
                break;
            }
        }
        std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            err("bad number");
        std::int64_t i = 0;
        if (integral) {
            errno = 0;
            i = std::strtoll(tok.c_str(), nullptr, 10);
            if (errno == ERANGE) {
                // Out of int64 range: fall back to the double view so
                // comparisons degrade gracefully instead of saturating.
                integral = false;
                i = 0;
            }
        }
        return JsonValue::makeNumber(d, integral, i);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; ///< objects and arrays open at pos_
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace clustersim
