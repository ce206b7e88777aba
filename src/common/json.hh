/**
 * @file
 * JSON: one pull reader, one writer, and a small value tree on top.
 *
 * JsonWriter appends text to a std::string, either compact (one line,
 * the service socket protocol's framing) or in the 2-space indented
 * layout reports and the run-cache snapshot use. JsonReader walks a
 * document in place, one token at a time, handing out strings as
 * views into the text. Between them they are the only JSON
 * formatting and parsing code in the tree:
 *  - JsonValue (an immutable tree with deterministic, byte-sorted
 *    key order) serializes through the writer, and parseJson()
 *    builds one from the reader — the shape benches, telemetry and
 *    the serve protocol want;
 *  - the field codec (common/fields.hh) and the persistent run cache
 *    go straight between text and struct fields, with no tree.
 *
 * The reader accepts what the writer emits (standard JSON); it is
 * not a general validator for hostile input beyond failing cleanly:
 * a truncated run-cache file or a garbled request degrades to a miss
 * or a parse error, never a crash.
 */

#ifndef MMGPU_COMMON_JSON_HH
#define MMGPU_COMMON_JSON_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mmgpu
{

/**
 * Streaming JSON writer appending to a caller-owned string.
 *
 * Calls mirror the document: beginObject(), then key() + one value
 * per member, endObject(); arrays likewise without keys. Keys are
 * written in the order given — callers that want the byte-sorted
 * order JsonValue keeps must supply it. Doubles print as integers
 * when integral and below 1e15, as null when not finite, and
 * otherwise in the shortest form that reads back to the same double.
 */
class JsonWriter
{
  public:
    /**
     * @param out    text is appended here
     * @param pretty 2-space indented layout (false: compact, no
     *               whitespace at all)
     * @param indent starting indentation level of a pretty document
     */
    explicit JsonWriter(std::string &out, bool pretty = false,
                        int indent = 0)
        : out_(out), pretty_(pretty), indent_(indent)
    {
    }

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** The next object member's key; its value follows. */
    void key(std::string_view name);

    void string(std::string_view text);
    void number(double value);
    void boolean(bool value);
    void null();

  private:
    void open(char bracket);
    void close(char bracket);
    /** Separator and indentation before a member or element. */
    void item();
    void newline(std::size_t level);
    void escaped(std::string_view text);

    std::string &out_;
    bool pretty_;
    int indent_;
    bool afterKey_ = false;
    /** One byte per open container: nonzero once it holds an item. */
    std::string filled_;
};

/**
 * Pull reader over one JSON document held in memory.
 *
 * peek() names the next value's kind; the read*() calls consume one
 * value of that kind, and skipValue() consumes any value. Containers
 * are walked with beginObject() + nextKey() or beginArray() +
 * nextElement(), each of which returns false at the closing bracket;
 * after every true return the caller must consume exactly one value.
 *
 * A syntax error (or nesting deeper than 64 values) makes the reader
 * failed(): every later call returns false, so callers may check
 * failed() once at the end. A read of the wrong kind is a syntax
 * error too — decoders that meet an unexpected kind skipValue()
 * instead. Strings come back as views into the text, or into a
 * scratch buffer when they hold escapes; either is valid until the
 * next read.
 */
class JsonReader
{
  public:
    enum class Kind { Null, Bool, Number, String, Object, Array, End };

    explicit JsonReader(std::string_view text) : text_(text) {}

    /** Kind of the next value (End at end of input or after an
     *  error). Skips whitespace; consumes nothing else. */
    Kind peek();

    bool beginObject();
    /** Read the next member's key; false at '}' or on error. */
    bool nextKey(std::string_view &key);

    bool beginArray();
    /** True when another element follows; false at ']' or on
     *  error. */
    bool nextElement();

    bool readString(std::string_view &out);
    bool readNumber(double &out);
    bool readBool(bool &out);
    bool readNull();

    /** Consume one value of any kind, checking its syntax. */
    bool skipValue();

    /** True when only whitespace remains and nothing failed. */
    bool atEnd();

    bool failed() const { return failed_; }

  private:
    bool fail()
    {
        failed_ = true;
        return false;
    }
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }
    /** Position on the first byte of a value, within the depth cap. */
    bool startValue();
    bool literal(std::string_view word);
    /** Read the string at pos_ (on its opening quote). */
    bool scanString(std::string_view &out);
    void open();
    void close();

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    /** Bit d set while the container at depth d+1 has no item yet. */
    std::uint64_t fresh_ = 0;
    bool failed_ = false;
    std::string scratch_;
};

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
    std::string dumpCompact() const;

    // ---- read accessors ----

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
    void writeTo(JsonWriter &writer) const;

    using Object = std::map<std::string, JsonValue>;
    using Array = std::vector<JsonValue>;
    std::variant<std::nullptr_t, bool, double, std::string, Object,
                 Array>
        value;
};

/**
 * Parse @p text as one JSON document.
 * @return the value, or std::nullopt on any syntax error (callers
 *         treat malformed input as a miss or a parse error, never a
 *         crash).
 */
std::optional<JsonValue> parseJson(std::string_view text);

/** Buffer size that holds any encodeHexDouble() text. */
inline constexpr std::size_t hexDoubleBufferSize = 32;

/**
 * Encode @p value as a C99 hexfloat string ("%a"): bit-exact through
 * decodeHexDouble(). The run cache and the serve protocol carry
 * every result double this way.
 */
std::string encodeHexDouble(double value);

/** encodeHexDouble() into @p buffer, without allocating; returns the
 *  text, which lives in @p buffer. */
std::string_view encodeHexDouble(double value,
                                  char (&buffer)[hexDoubleBufferSize]);

/**
 * Decode a hexfloat; false on empty or malformed text. The "%a"
 * spellings encodeHexDouble() writes for finite values decode on a
 * direct path. Anything else goes through strtod whole: that covers
 * the "inf" and "nan" that "%a" prints, and keeps hand-edited files'
 * other spellings (decimals, a leading space, an underflow) decoding
 * as they always have.
 */
bool decodeHexDouble(std::string_view text, double &out);

} // namespace mmgpu

#endif // MMGPU_COMMON_JSON_HH
