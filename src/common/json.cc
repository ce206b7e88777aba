#include "common/json.hh"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace mmgpu
{

// ---- JsonWriter ----

void
JsonWriter::newline(std::size_t level)
{
    out_ += '\n';
    out_.append(2 * level, ' ');
}

void
JsonWriter::item()
{
    if (afterKey_) {
        afterKey_ = false; // a member's value follows its key
        return;
    }
    if (filled_.empty())
        return; // the document's top-level value
    if (filled_.back())
        out_ += ',';
    filled_.back() = 1;
    if (pretty_)
        newline(indent_ + filled_.size());
}

void
JsonWriter::open(char bracket)
{
    item();
    out_ += bracket;
    filled_.push_back(0);
}

void
JsonWriter::close(char bracket)
{
    const bool filled = filled_.back();
    filled_.pop_back();
    if (pretty_ && filled)
        newline(indent_ + filled_.size());
    out_ += bracket;
}

void
JsonWriter::key(std::string_view name)
{
    item();
    escaped(name);
    out_ += pretty_ ? ": " : ":";
    afterKey_ = true;
}

void
JsonWriter::string(std::string_view text)
{
    item();
    escaped(text);
}

void
JsonWriter::number(double value)
{
    item();
    if (!std::isfinite(value)) {
        out_ += "null"; // JSON has no Inf/NaN
        return;
    }
    char buffer[32];
    std::to_chars_result done;
    if (value == std::floor(value) && std::abs(value) < 1e15)
        done = std::to_chars(buffer, buffer + sizeof(buffer),
                             static_cast<long long>(value));
    else
        done = std::to_chars(buffer, buffer + sizeof(buffer), value,
                             std::chars_format::general);
    out_.append(buffer, done.ptr);
}

void
JsonWriter::boolean(bool value)
{
    item();
    out_ += value ? "true" : "false";
}

void
JsonWriter::null()
{
    item();
    out_ += "null";
}

void
JsonWriter::escaped(std::string_view text)
{
    static constexpr char hex[] = "0123456789abcdef";
    out_ += '"';
    std::size_t run = 0; // start of the pending unescaped bytes
    for (std::size_t i = 0; i < text.size(); ++i) {
        const auto ch = static_cast<unsigned char>(text[i]);
        if (ch >= 0x20 && ch != '"' && ch != '\\')
            continue;
        out_.append(text.data() + run, i - run);
        run = i + 1;
        switch (ch) {
          case '"':
            out_ += "\\\"";
            break;
          case '\\':
            out_ += "\\\\";
            break;
          case '\n':
            out_ += "\\n";
            break;
          case '\t':
            out_ += "\\t";
            break;
          case '\r':
            out_ += "\\r";
            break;
          default:
            out_ += "\\u00";
            out_ += hex[ch >> 4];
            out_ += hex[ch & 0xf];
        }
    }
    out_.append(text.data() + run, text.size() - run);
    out_ += '"';
}

// ---- JsonReader ----

namespace
{

/** Values nest at most this deep, scalars included. */
constexpr int maxDepth = 64;

int
hexDigit(char ch)
{
    if (ch >= '0' && ch <= '9')
        return ch - '0';
    if (ch >= 'a' && ch <= 'f')
        return ch - 'a' + 10;
    if (ch >= 'A' && ch <= 'F')
        return ch - 'A' + 10;
    return -1;
}

/** strtod over all of @p text; false unless it consumes every byte. */
bool
strtodWhole(std::string_view text, double &out)
{
    char small[64];
    std::string large;
    const char *begin = small;
    if (text.size() < sizeof(small)) {
        std::memcpy(small, text.data(), text.size());
        small[text.size()] = '\0';
    } else {
        large.assign(text);
        begin = large.c_str();
    }
    char *end = nullptr;
    out = std::strtod(begin, &end);
    return !text.empty() && end == begin + text.size();
}

} // namespace

bool
JsonReader::startValue()
{
    skipSpace();
    if (failed_ || depth_ >= maxDepth || pos_ >= text_.size())
        return fail();
    return true;
}

JsonReader::Kind
JsonReader::peek()
{
    skipSpace();
    if (failed_ || pos_ >= text_.size())
        return Kind::End;
    switch (text_[pos_]) {
      case '{':
        return Kind::Object;
      case '[':
        return Kind::Array;
      case '"':
        return Kind::String;
      case 'n':
        return Kind::Null;
      case 't':
      case 'f':
        return Kind::Bool;
      default:
        return Kind::Number; // or garbage, which readNumber() rejects
    }
}

void
JsonReader::open()
{
    ++pos_;
    fresh_ |= std::uint64_t{1} << depth_;
    ++depth_;
}

void
JsonReader::close()
{
    ++pos_;
    --depth_;
}

bool
JsonReader::beginObject()
{
    if (!startValue() || text_[pos_] != '{')
        return fail();
    open();
    return true;
}

bool
JsonReader::beginArray()
{
    if (!startValue() || text_[pos_] != '[')
        return fail();
    open();
    return true;
}

bool
JsonReader::nextKey(std::string_view &key)
{
    skipSpace();
    if (failed_ || depth_ == 0 || pos_ >= text_.size())
        return fail();
    const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
    const bool first = fresh_ & bit;
    fresh_ &= ~bit;
    if (text_[pos_] == '}') {
        close();
        return false;
    }
    if (!first) {
        if (text_[pos_] != ',')
            return fail();
        ++pos_;
        skipSpace();
    }
    if (pos_ >= text_.size() || text_[pos_] != '"' || !scanString(key))
        return fail();
    skipSpace();
    if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail();
    ++pos_;
    return true;
}

bool
JsonReader::nextElement()
{
    skipSpace();
    if (failed_ || depth_ == 0 || pos_ >= text_.size())
        return fail();
    const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
    const bool first = fresh_ & bit;
    fresh_ &= ~bit;
    if (text_[pos_] == ']') {
        close();
        return false;
    }
    if (first)
        return true;
    if (text_[pos_] != ',')
        return fail();
    ++pos_;
    return true;
}

bool
JsonReader::readString(std::string_view &out)
{
    if (!startValue() || text_[pos_] != '"')
        return fail();
    return scanString(out);
}

bool
JsonReader::scanString(std::string_view &out)
{
    const std::size_t begin = pos_ + 1;
    std::size_t end = begin;
    while (end < text_.size() && text_[end] != '"' && text_[end] != '\\')
        ++end;
    if (end < text_.size() && text_[end] == '"') {
        out = text_.substr(begin, end - begin);
        pos_ = end + 1;
        return true;
    }

    // Escapes: decode into the scratch buffer.
    scratch_.clear();
    std::size_t p = begin;
    while (p < text_.size()) {
        char ch = text_[p];
        if (ch == '"') {
            pos_ = p + 1;
            out = scratch_;
            return true;
        }
        if (ch != '\\') {
            scratch_ += ch;
            ++p;
            continue;
        }
        if (p + 1 >= text_.size())
            return fail();
        char esc = text_[p + 1];
        p += 2;
        switch (esc) {
          case '"': scratch_ += '"'; break;
          case '\\': scratch_ += '\\'; break;
          case '/': scratch_ += '/'; break;
          case 'n': scratch_ += '\n'; break;
          case 't': scratch_ += '\t'; break;
          case 'r': scratch_ += '\r'; break;
          case 'b': scratch_ += '\b'; break;
          case 'f': scratch_ += '\f'; break;
          case 'u': {
            if (p + 4 > text_.size())
                return fail();
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
                int digit = hexDigit(text_[p + i]);
                if (digit < 0)
                    return fail();
                code = code << 4 | static_cast<unsigned>(digit);
            }
            p += 4;
            // The writer only emits \u for control chars; decode
            // the Latin-1 subset and reject the rest.
            if (code > 0xff)
                return fail();
            scratch_ += static_cast<char>(code);
            break;
          }
          default:
            return fail();
        }
    }
    return fail(); // unterminated
}

bool
JsonReader::readNumber(double &out)
{
    if (!startValue())
        return false;
    std::size_t p = pos_;
    if (text_[p] == '-')
        ++p;
    // JSON numbers start with a digit after the optional minus;
    // without this check strtod would also accept "+1", ".5" and
    // the NaN/Infinity spellings.
    if (p >= text_.size() || text_[p] < '0' || text_[p] > '9')
        return fail();
    while (p < text_.size() &&
           ((text_[p] >= '0' && text_[p] <= '9') || text_[p] == '.' ||
            text_[p] == 'e' || text_[p] == 'E' || text_[p] == '+' ||
            text_[p] == '-'))
        ++p;
    // Overflowed literals ("1e999999") come back infinite; JSON has
    // no way to round-trip them, so reject.
    if (!strtodWhole(text_.substr(pos_, p - pos_), out) ||
        !std::isfinite(out))
        return fail();
    pos_ = p;
    return true;
}

bool
JsonReader::literal(std::string_view word)
{
    if (!startValue() || text_.substr(pos_, word.size()) != word)
        return fail();
    pos_ += word.size();
    return true;
}

bool
JsonReader::readBool(bool &out)
{
    if (!startValue())
        return false;
    out = text_[pos_] == 't';
    return literal(out ? "true" : "false");
}

bool
JsonReader::readNull()
{
    return literal("null");
}

bool
JsonReader::skipValue()
{
    switch (peek()) {
      case Kind::Object: {
        std::string_view key;
        if (!beginObject())
            return false;
        while (nextKey(key)) {
            if (!skipValue())
                return false;
        }
        return !failed_;
      }
      case Kind::Array:
        if (!beginArray())
            return false;
        while (nextElement()) {
            if (!skipValue())
                return false;
        }
        return !failed_;
      case Kind::String: {
        std::string_view text;
        return readString(text);
      }
      case Kind::Bool: {
        bool flag;
        return readBool(flag);
      }
      case Kind::Null:
        return readNull();
      case Kind::Number: {
        double number;
        return readNumber(number);
      }
      case Kind::End:
        break;
    }
    return fail();
}

bool
JsonReader::atEnd()
{
    skipSpace();
    return !failed_ && pos_ == text_.size();
}

// ---- JsonValue ----

JsonValue &
JsonValue::set(const std::string &key, JsonValue child)
{
    auto *object = std::get_if<Object>(&value);
    mmgpu_assert(object != nullptr, "set() on a non-object JSON value");
    (*object)[key] = std::move(child);
    return *this;
}

JsonValue &
JsonValue::push(JsonValue child)
{
    auto *array = std::get_if<Array>(&value);
    mmgpu_assert(array != nullptr, "push() on a non-array JSON value");
    array->push_back(std::move(child));
    return *this;
}

void
JsonValue::writeTo(JsonWriter &writer) const
{
    if (std::holds_alternative<std::nullptr_t>(value)) {
        writer.null();
    } else if (auto *b = std::get_if<bool>(&value)) {
        writer.boolean(*b);
    } else if (auto *d = std::get_if<double>(&value)) {
        writer.number(*d);
    } else if (auto *s = std::get_if<std::string>(&value)) {
        writer.string(*s);
    } else if (auto *object = std::get_if<Object>(&value)) {
        writer.beginObject();
        for (const auto &[key, child] : *object) {
            writer.key(key);
            child.writeTo(writer);
        }
        writer.endObject();
    } else if (auto *array = std::get_if<Array>(&value)) {
        writer.beginArray();
        for (const auto &child : *array)
            child.writeTo(writer);
        writer.endArray();
    }
}

void
JsonValue::write(std::ostream &os, int indent) const
{
    std::string text;
    JsonWriter writer(text, true, indent);
    writeTo(writer);
    os << text;
}

std::string
JsonValue::dump() const
{
    std::string text;
    JsonWriter writer(text, true);
    writeTo(writer);
    return text;
}

std::string
JsonValue::dumpCompact() const
{
    std::string text;
    JsonWriter writer(text);
    writeTo(writer);
    return text;
}

bool
JsonValue::isNull() const
{
    return std::holds_alternative<std::nullptr_t>(value);
}

bool
JsonValue::isObject() const
{
    return std::holds_alternative<Object>(value);
}

bool
JsonValue::isArray() const
{
    return std::holds_alternative<Array>(value);
}

bool
JsonValue::isString() const
{
    return std::holds_alternative<std::string>(value);
}

bool
JsonValue::isNumber() const
{
    return std::holds_alternative<double>(value);
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    const auto *object = std::get_if<Object>(&value);
    if (object == nullptr)
        return nullptr;
    auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
}

std::size_t
JsonValue::size() const
{
    const auto *array = std::get_if<Array>(&value);
    return array ? array->size() : 0;
}

const JsonValue *
JsonValue::at(std::size_t index) const
{
    const auto *array = std::get_if<Array>(&value);
    if (array == nullptr || index >= array->size())
        return nullptr;
    return &(*array)[index];
}

const std::string &
JsonValue::asString() const
{
    static const std::string empty;
    const auto *s = std::get_if<std::string>(&value);
    return s ? *s : empty;
}

double
JsonValue::asNumber() const
{
    const auto *d = std::get_if<double>(&value);
    return d ? *d : 0.0;
}

namespace
{

/** One value of @p reader as a tree; nullopt on a syntax error. */
std::optional<JsonValue>
readTree(JsonReader &reader)
{
    switch (reader.peek()) {
      case JsonReader::Kind::Object: {
        JsonValue object = JsonValue::object();
        std::string_view key;
        if (!reader.beginObject())
            return std::nullopt;
        while (reader.nextKey(key)) {
            std::string name(key); // the child's strings reuse `key`
            std::optional<JsonValue> child = readTree(reader);
            if (!child)
                return std::nullopt;
            object.set(name, std::move(*child));
        }
        if (reader.failed())
            return std::nullopt;
        return object;
      }
      case JsonReader::Kind::Array: {
        JsonValue array = JsonValue::array();
        if (!reader.beginArray())
            return std::nullopt;
        while (reader.nextElement()) {
            std::optional<JsonValue> child = readTree(reader);
            if (!child)
                return std::nullopt;
            array.push(std::move(*child));
        }
        if (reader.failed())
            return std::nullopt;
        return array;
      }
      case JsonReader::Kind::String: {
        std::string_view text;
        if (!reader.readString(text))
            return std::nullopt;
        return JsonValue(std::string(text));
      }
      case JsonReader::Kind::Bool: {
        bool flag = false;
        if (!reader.readBool(flag))
            return std::nullopt;
        return JsonValue(flag);
      }
      case JsonReader::Kind::Null:
        if (!reader.readNull())
            return std::nullopt;
        return JsonValue(nullptr);
      case JsonReader::Kind::Number: {
        double number = 0.0;
        if (!reader.readNumber(number))
            return std::nullopt;
        return JsonValue(number);
      }
      case JsonReader::Kind::End:
        break;
    }
    return std::nullopt;
}

/**
 * The exact value of a hexfloat in the form "%a" prints —
 * [-]0x1.<up to 13 hex digits>p<signed exponent> for normal numbers,
 * [-]0x0.<digits>p-1022 for subnormals, [-]0x0p+0 for zero — without
 * strtod's general parse. False for any other spelling.
 */
bool
canonicalHexDouble(std::string_view text, double &out)
{
    std::size_t i = 0;
    const bool negative = !text.empty() && text[0] == '-';
    i += negative;
    if (text.size() < i + 6 || text[i] != '0' || text[i + 1] != 'x' ||
        (text[i + 2] != '0' && text[i + 2] != '1'))
        return false;
    const bool normal = text[i + 2] == '1';
    i += 3;
    std::uint64_t fraction = 0;
    int digits = 0;
    if (text[i] == '.') {
        for (++i; i < text.size() && digits < 13; ++i, ++digits) {
            const int digit = hexDigit(text[i]);
            if (digit < 0)
                break;
            fraction = fraction << 4 | static_cast<unsigned>(digit);
        }
        if (digits == 0)
            return false;
    }
    if (i + 2 >= text.size() || text[i] != 'p' ||
        (text[i + 1] != '+' && text[i + 1] != '-'))
        return false;
    const bool negativeExponent = text[i + 1] == '-';
    int exponent = 0;
    auto [end, ec] = std::from_chars(text.data() + i + 2,
                                     text.data() + text.size(), exponent);
    if (ec != std::errc() || end != text.data() + text.size() ||
        text[i + 2] == '-' || exponent > 1023)
        return false;
    if (negativeExponent)
        exponent = -exponent;
    fraction <<= 4 * (13 - digits);
    std::uint64_t bits;
    if (normal) {
        if (exponent < -1022)
            return false;
        bits = static_cast<std::uint64_t>(exponent + 1023) << 52 |
               fraction;
    } else {
        if (exponent != (fraction == 0 ? 0 : -1022))
            return false;
        bits = fraction;
    }
    out = std::bit_cast<double>(bits | std::uint64_t{negative} << 63);
    return true;
}

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text)
{
    JsonReader reader(text);
    std::optional<JsonValue> value = readTree(reader);
    if (!value || !reader.atEnd())
        return std::nullopt; // malformed, or trailing garbage
    return value;
}

std::string
encodeHexDouble(double value)
{
    char buffer[hexDoubleBufferSize];
    return std::string(encodeHexDouble(value, buffer));
}

std::string_view
encodeHexDouble(double value, char (&buffer)[hexDoubleBufferSize])
{
    const int size = std::snprintf(buffer, hexDoubleBufferSize, "%a", value);
    return std::string_view(buffer, static_cast<std::size_t>(size));
}

bool
decodeHexDouble(std::string_view text, double &out)
{
    return canonicalHexDouble(text, out) || strtodWhole(text, out);
}

} // namespace mmgpu
