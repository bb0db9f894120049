/**
 * @file
 * Minimal recursive-descent JSON parser.
 *
 * The counterpart of JsonWriter, used by the golden-run differential
 * harness to load checked-in reports. Parses the full JSON grammar into
 * a small DOM (JsonValue); numbers keep both an integer and a double
 * view so golden diffs can compare counters exactly and rates within
 * tolerance. Parse errors go through fatal() (catchable SimError) with
 * a line/column position.
 */

#ifndef CLUSTERSIM_COMMON_JSON_READER_HH
#define CLUSTERSIM_COMMON_JSON_READER_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace clustersim {

/** One parsed JSON value. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; fatal() on a kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    /**
     * Number view that round-trips JsonWriter's non-finite encoding:
     * the writer serializes NaN/Inf as null (JSON has no non-finite
     * literals), so null reads back as NaN here. Any kind other than
     * Null or Number is still a fatal() mismatch.
     */
    double numberOrNaN() const;
    /** Integer view; fatal() if the number was not written as one. */
    std::int64_t asInt() const;
    /** True when the number lexed as an integer (no '.', 'e', or '-0'). */
    bool isIntegral() const { return isNumber() && integral_; }
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::map<std::string, JsonValue> &asObject() const;

    /** Object member access; fatal() when missing. */
    const JsonValue &at(const std::string &key) const;
    /** Object member presence. */
    bool has(const std::string &key) const;

    // --- construction (used by the parser) -------------------------------
    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v, bool integral, std::int64_t i);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> v);
    static JsonValue makeObject(std::map<std::string, JsonValue> v);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::int64_t int_ = 0;
    bool integral_ = false;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::map<std::string, JsonValue> obj_;
};

/**
 * Deepest nesting of arrays and objects parseJson() accepts. The
 * parser recurses once per level, so the bound keeps its stack small
 * on any input (a protocol frame of a hundred thousand '[' among
 * them). Reports nest about six deep.
 */
inline constexpr std::size_t maxJsonDepth = 512;

/** Parse a complete document; fatal() (SimError) on malformed input,
 *  including nesting deeper than maxJsonDepth. */
JsonValue parseJson(const std::string &text);

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_JSON_READER_HH
