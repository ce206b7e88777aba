#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace mmgpu
{

namespace
{

void
writeEscaped(std::ostream &os, const std::string &text)
{
    os << '"';
    for (char ch : text) {
        switch (ch) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          case '\r':
            os << "\\r";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                os << "\\u" << std::hex << std::setw(4)
                   << std::setfill('0') << static_cast<int>(ch)
                   << std::dec << std::setfill(' ');
            } else {
                os << ch;
            }
        }
    }
    os << '"';
}

void
indentTo(std::ostream &os, int level)
{
    for (int i = 0; i < level; ++i)
        os << "  ";
}

} // namespace

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
JsonValue::write(std::ostream &os, int indent) const
{
    if (std::holds_alternative<std::nullptr_t>(value)) {
        os << "null";
    } else if (auto *b = std::get_if<bool>(&value)) {
        os << (*b ? "true" : "false");
    } else if (auto *d = std::get_if<double>(&value)) {
        if (!std::isfinite(*d)) {
            os << "null"; // JSON has no Inf/NaN
        } else if (*d == std::floor(*d) && std::abs(*d) < 1e15) {
            os << static_cast<long long>(*d);
        } else {
            std::ostringstream tmp;
            tmp << std::setprecision(12) << *d;
            os << tmp.str();
        }
    } else if (auto *s = std::get_if<std::string>(&value)) {
        writeEscaped(os, *s);
    } else if (auto *object = std::get_if<Object>(&value)) {
        if (object->empty()) {
            os << "{}";
            return;
        }
        os << "{\n";
        bool first = true;
        for (const auto &[key, child] : *object) {
            if (!first)
                os << ",\n";
            first = false;
            indentTo(os, indent + 1);
            writeEscaped(os, key);
            os << ": ";
            child.write(os, indent + 1);
        }
        os << "\n";
        indentTo(os, indent);
        os << "}";
    } else if (auto *array = std::get_if<Array>(&value)) {
        if (array->empty()) {
            os << "[]";
            return;
        }
        os << "[\n";
        bool first = true;
        for (const auto &child : *array) {
            if (!first)
                os << ",\n";
            first = false;
            indentTo(os, indent + 1);
            child.write(os, indent + 1);
        }
        os << "\n";
        indentTo(os, indent);
        os << "]";
    }
}

std::string
JsonValue::dump() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

void
JsonValue::writeCompact(std::ostream &os) const
{
    if (std::holds_alternative<std::nullptr_t>(value)) {
        os << "null";
    } else if (auto *b = std::get_if<bool>(&value)) {
        os << (*b ? "true" : "false");
    } else if (auto *d = std::get_if<double>(&value)) {
        if (!std::isfinite(*d)) {
            os << "null"; // JSON has no Inf/NaN
        } else if (*d == std::floor(*d) && std::abs(*d) < 1e15) {
            os << static_cast<long long>(*d);
        } else {
            std::ostringstream tmp;
            tmp << std::setprecision(12) << *d;
            os << tmp.str();
        }
    } else if (auto *s = std::get_if<std::string>(&value)) {
        writeEscaped(os, *s);
    } else if (auto *object = std::get_if<Object>(&value)) {
        os << '{';
        bool first = true;
        for (const auto &[key, child] : *object) {
            if (!first)
                os << ',';
            first = false;
            writeEscaped(os, key);
            os << ':';
            child.writeCompact(os);
        }
        os << '}';
    } else if (auto *array = std::get_if<Array>(&value)) {
        os << '[';
        bool first = true;
        for (const auto &child : *array) {
            if (!first)
                os << ',';
            first = false;
            child.writeCompact(os);
        }
        os << ']';
    }
}

std::string
JsonValue::dumpCompact() const
{
    std::ostringstream os;
    writeCompact(os);
    return os.str();
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

/** Strict recursive-descent JSON parser over a string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text(text) {}

    std::optional<JsonValue>
    document()
    {
        auto value = parseValue();
        if (!value)
            return std::nullopt;
        skipSpace();
        if (pos != text.size())
            return std::nullopt; // trailing garbage
        return value;
    }

  private:
    static constexpr int maxDepth = 64;

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::string::traits_type::length(word);
        if (text.compare(pos, len, word) != 0)
            return false;
        pos += len;
        return true;
    }

    std::optional<JsonValue>
    parseValue()
    {
        if (++depth > maxDepth)
            return std::nullopt;
        skipSpace();
        std::optional<JsonValue> result;
        if (pos >= text.size()) {
            result = std::nullopt;
        } else if (text[pos] == '{') {
            result = parseObject();
        } else if (text[pos] == '[') {
            result = parseArray();
        } else if (text[pos] == '"') {
            auto s = parseString();
            if (s)
                result = JsonValue(std::move(*s));
        } else if (literal("null")) {
            result = JsonValue(nullptr);
        } else if (literal("true")) {
            result = JsonValue(true);
        } else if (literal("false")) {
            result = JsonValue(false);
        } else {
            result = parseNumber();
        }
        --depth;
        return result;
    }

    std::optional<JsonValue>
    parseObject()
    {
        ++pos; // '{'
        JsonValue object = JsonValue::object();
        skipSpace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return object;
        }
        while (true) {
            skipSpace();
            if (pos >= text.size() || text[pos] != '"')
                return std::nullopt;
            auto key = parseString();
            if (!key)
                return std::nullopt;
            skipSpace();
            if (pos >= text.size() || text[pos] != ':')
                return std::nullopt;
            ++pos;
            auto child = parseValue();
            if (!child)
                return std::nullopt;
            object.set(*key, std::move(*child));
            skipSpace();
            if (pos >= text.size())
                return std::nullopt;
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return object;
            }
            return std::nullopt;
        }
    }

    std::optional<JsonValue>
    parseArray()
    {
        ++pos; // '['
        JsonValue array = JsonValue::array();
        skipSpace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return array;
        }
        while (true) {
            auto child = parseValue();
            if (!child)
                return std::nullopt;
            array.push(std::move(*child));
            skipSpace();
            if (pos >= text.size())
                return std::nullopt;
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return array;
            }
            return std::nullopt;
        }
    }

    std::optional<std::string>
    parseString()
    {
        ++pos; // '"'
        std::string out;
        while (pos < text.size()) {
            char ch = text[pos];
            if (ch == '"') {
                ++pos;
                return out;
            }
            if (ch == '\\') {
                if (pos + 1 >= text.size())
                    return std::nullopt;
                char esc = text[pos + 1];
                pos += 2;
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return std::nullopt;
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            code |= h - 'A' + 10;
                        else
                            return std::nullopt;
                    }
                    pos += 4;
                    // The writer only emits \u for control chars;
                    // decode the Latin-1 subset and reject the rest.
                    if (code > 0xff)
                        return std::nullopt;
                    out += static_cast<char>(code);
                    break;
                  }
                  default:
                    return std::nullopt;
                }
                continue;
            }
            out += ch;
            ++pos;
        }
        return std::nullopt; // unterminated
    }

    std::optional<JsonValue>
    parseNumber()
    {
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        // JSON numbers start with a digit after the optional minus;
        // without this check strtod would also accept "+1", ".5" and
        // the NaN/Infinity spellings.
        if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
            pos = start;
            return std::nullopt;
        }
        while (pos < text.size() &&
               ((text[pos] >= '0' && text[pos] <= '9') ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        std::string token = text.substr(start, pos - start);
        char *end = nullptr;
        double parsed = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return std::nullopt;
        // Overflowed literals ("1e999999") come back infinite;
        // JSON has no way to round-trip them, so reject.
        if (!std::isfinite(parsed))
            return std::nullopt;
        return JsonValue(parsed);
    }

    const std::string &text;
    std::size_t pos = 0;
    int depth = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text)
{
    return Parser(text).document();
}

std::string
encodeHexDouble(double value)
{
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return buffer;
}

bool
decodeHexDouble(const JsonValue *value, double &out)
{
    if (value == nullptr || !value->isString())
        return false;
    const std::string &text = value->asString();
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size();
}

} // namespace mmgpu
