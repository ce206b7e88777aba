/**
 * @file
 * Minimal JSON emission and parsing.
 *
 * Benches and the harness export machine-readable reports so results
 * can be post-processed without scraping text tables: the surface is
 * a small value-builder with correct escaping and deterministic key
 * order. The persistent run cache additionally needs to read its own
 * output back, so a strict recursive-descent parser and read
 * accessors round the API out. The parser accepts exactly what
 * write() emits (standard JSON); it is not a general validator for
 * hostile input beyond failing cleanly.
 */

#ifndef MMGPU_COMMON_JSON_HH
#define MMGPU_COMMON_JSON_HH

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace mmgpu
{

/** An immutable JSON value tree. */
class JsonValue
{
  public:
    /** Construct null. */
    JsonValue() : value(nullptr) {}

    /** Construct from primitives. */
    JsonValue(std::nullptr_t) : value(nullptr) {}
    JsonValue(bool b) : value(b) {}
    JsonValue(double d) : value(d) {}
    JsonValue(int i) : value(static_cast<double>(i)) {}
    JsonValue(unsigned u) : value(static_cast<double>(u)) {}
    JsonValue(long long v) : value(static_cast<double>(v)) {}
    JsonValue(unsigned long v) : value(static_cast<double>(v)) {}
    JsonValue(unsigned long long v) : value(static_cast<double>(v)) {}
    JsonValue(const char *s) : value(std::string(s)) {}
    JsonValue(std::string s) : value(std::move(s)) {}

    /** Build an object incrementally. */
    static JsonValue
    object()
    {
        JsonValue v;
        v.value = Object{};
        return v;
    }

    /** Build an array incrementally. */
    static JsonValue
    array()
    {
        JsonValue v;
        v.value = Array{};
        return v;
    }

    /** Set a key on an object (fatal on non-objects). */
    JsonValue &set(const std::string &key, JsonValue child);

    /** Append to an array (fatal on non-arrays). */
    JsonValue &push(JsonValue child);

    /** Serialize with 2-space indentation. */
    void write(std::ostream &os, int indent = 0) const;

    /** Serialize to a string. */
    std::string dump() const;

    /**
     * Serialize without any whitespace or newlines — one line no
     * matter how nested. The service socket protocol frames one JSON
     * document per line, so embedded newlines would tear a message.
     */
    void writeCompact(std::ostream &os) const;

    /** Compact serialization to a string (newline-free). */
    std::string dumpCompact() const;

    // ---- read accessors (used by the persistent run cache) ----

    bool isNull() const;
    bool isObject() const;
    bool isArray() const;
    bool isString() const;
    bool isNumber() const;

    /**
     * Member lookup on an object; nullptr when absent or when this
     * value is not an object.
     */
    const JsonValue *find(const std::string &key) const;

    /** Element count of an array (0 for non-arrays). */
    std::size_t size() const;

    /** Array element; nullptr out of range or for non-arrays. */
    const JsonValue *at(std::size_t index) const;

    /** String payload; empty for non-strings. */
    const std::string &asString() const;

    /** Numeric payload; 0.0 for non-numbers. */
    double asNumber() const;

  private:
    using Object = std::map<std::string, JsonValue>;
    using Array = std::vector<JsonValue>;
    std::variant<std::nullptr_t, bool, double, std::string, Object,
                 Array>
        value;
};

/**
 * Parse @p text as one JSON document.
 * @return the value, or std::nullopt on any syntax error (the run
 *         cache treats malformed files as a cache miss, never a
 *         crash).
 */
std::optional<JsonValue> parseJson(const std::string &text);

/**
 * Encode @p value as a C99 hexfloat string ("%a"): bit-exact through
 * decodeHexDouble(). The run cache and the serve protocol carry
 * every result double this way.
 */
std::string encodeHexDouble(double value);

/** Decode a hexfloat string; false on malformed or non-string input. */
bool decodeHexDouble(const JsonValue *value, double &out);

} // namespace mmgpu

#endif // MMGPU_COMMON_JSON_HH
