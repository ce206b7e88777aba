/**
 * @file
 * One field list per struct, and the generic hashing and JSON codec
 * built on it.
 *
 * Every identity-bearing struct (configurations, workload profiles,
 * run results) names its fields exactly once, in a `forEachField`
 * visitor found by argument-dependent lookup:
 *
 *     template <FieldsOf<MemConfig> S, typename Visit>
 *     constexpr void
 *     forEachField(S &self, Visit &&visit)
 *     {
 *         auto &[gpmCount, smsPerGpm, ...] = self;
 *         visit("gpmCount", gpmCount);
 *         visit("smsPerGpm", smsPerGpm);
 *         ...
 *     }
 *
 * The structured binding of the whole struct is the guard: adding a
 * field without listing it is a compile error. The same visitor
 * serves const access (hashing, encoding) and mutable access
 * (decoding, tests that perturb one field at a time).
 *
 * The functions below recurse through visited structs, std::vector,
 * std::array, strings and scalars:
 *  - hashFields() folds every field into an Fnv1a digest (vectors
 *    and strings contribute their length, so element boundaries
 *    cannot alias; integers and enums hash at their own width);
 *  - fieldsToJson()/fieldsFromJson() are an exact JSON codec: doubles
 *    as C99 hexfloat strings, integers and enums as decimal strings
 *    (64-bit counters survive), structs as objects keyed by field
 *    name. They stream between text and fields through JsonWriter
 *    and JsonReader, with no JsonValue tree in between; members come
 *    out in byte-sorted name order (the order a JsonValue object
 *    keeps), so the text does not depend on the visit order.
 */

#ifndef MMGPU_COMMON_FIELDS_HH
#define MMGPU_COMMON_FIELDS_HH

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace mmgpu
{

/** Constrains a visitor's self parameter to @p T or const @p T. */
template <typename S, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

namespace fields_detail
{

/** A visitor accepting any field; probes for a forEachField. */
struct AnyField
{
    template <typename F>
    void operator()(const char *, F &) const
    {
    }
};

template <typename T>
struct IsVector : std::false_type
{
};
template <typename T, typename A>
struct IsVector<std::vector<T, A>> : std::true_type
{
};

template <typename T>
struct IsArray : std::false_type
{
};
template <typename T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type
{
};

/** Scalars the codec stores as decimal strings. */
template <typename T>
concept Integer = std::is_integral_v<T> || std::is_enum_v<T>;

} // namespace fields_detail

/** True for structs that declare a forEachField visitor. */
template <typename T>
concept Visited = requires(T &value) {
    forEachField(value, fields_detail::AnyField{});
};

/** Fold every field of @p value into @p hash. */
template <typename T>
void
hashFields(Fnv1a &hash, const T &value)
{
    if constexpr (Visited<T>) {
        forEachField(value, [&hash](const char *, const auto &field) {
            hashFields(hash, field);
        });
    } else if constexpr (fields_detail::IsVector<T>::value) {
        hash.add(static_cast<std::uint64_t>(value.size()));
        for (const auto &element : value)
            hashFields(hash, element);
    } else if constexpr (fields_detail::IsArray<T>::value) {
        for (const auto &element : value)
            hashFields(hash, element);
    } else if constexpr (fields_detail::Integer<T>) {
        // Little-endian bytes at the field's own width: the same
        // information as a widened word, in fewer FNV rounds.
        const auto word = static_cast<std::uint64_t>(value);
        unsigned char bytes[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            bytes[i] = static_cast<unsigned char>(word >> (8 * i));
        hash.addBytes(bytes, sizeof(T));
    } else {
        hash.add(value);
    }
}

namespace fields_detail
{

/** Most fields one visited struct may list (the decoder keeps one
 *  bit per field in a 64-bit word). */
constexpr std::size_t maxFields = 64;

/** A visited struct's field names and their byte-sorted order. */
struct FieldTable
{
    std::vector<std::string_view> names; //!< in visit order
    std::vector<std::uint8_t> sorted;    //!< visit indices, by name
    std::uint64_t all = 0;               //!< one bit per field

    /**
     * Visit index of @p name, or -1 when no field has it. Text
     * written by fieldsToJson() lists the fields in sorted order, so
     * the one after the last match (@p cursor) is tried first.
     */
    int
    find(std::string_view name, std::size_t &cursor) const
    {
        if (cursor < sorted.size() && names[sorted[cursor]] == name)
            return sorted[cursor++];
        auto it = std::lower_bound(
            sorted.begin(), sorted.end(), name,
            [this](std::uint8_t index, std::string_view key) {
                return names[index] < key;
            });
        if (it == sorted.end() || names[*it] != name)
            return -1;
        cursor = static_cast<std::size_t>(it - sorted.begin()) + 1;
        return *it;
    }
};

/** The field table of @p T (built once; names do not depend on the
 *  instance). */
template <typename T>
const FieldTable &
fieldTable(const T &value)
{
    static const FieldTable table = [&value] {
        FieldTable t;
        forEachField(value, [&t](const char *name, const auto &) {
            t.names.emplace_back(name);
        });
        mmgpu_assert(t.names.size() <= maxFields,
                     "too many fields for the JSON codec");
        for (std::size_t i = 0; i < t.names.size(); ++i) {
            t.sorted.push_back(static_cast<std::uint8_t>(i));
            t.all |= std::uint64_t{1} << i;
        }
        // Byte order, as a std::map<std::string, ...> keeps keys.
        std::sort(t.sorted.begin(), t.sorted.end(),
                  [&t](std::uint8_t a, std::uint8_t b) {
                      return t.names[a] < t.names[b];
                  });
        mmgpu_assert(std::adjacent_find(
                         t.sorted.begin(), t.sorted.end(),
                         [&t](std::uint8_t a, std::uint8_t b) {
                             return t.names[a] == t.names[b];
                         }) == t.sorted.end(),
                     "duplicate field name");
        return t;
    }();
    return table;
}

/** True when the next value is a @p kind; otherwise skip it. */
inline bool
expect(JsonReader &reader, JsonReader::Kind kind)
{
    if (reader.peek() == kind)
        return true;
    reader.skipValue();
    return false;
}

} // namespace fields_detail

/** Encode @p value exactly (see the file comment for the format). */
template <typename T>
void
fieldsToJson(JsonWriter &writer, const T &value)
{
    if constexpr (Visited<T>) {
        // Visit once to find every field, then write them by name.
        struct Slot
        {
            const void *field;
            void (*write)(JsonWriter &, const void *);
        };
        const fields_detail::FieldTable &table =
            fields_detail::fieldTable(value);
        std::array<Slot, fields_detail::maxFields> slots{};
        std::size_t count = 0;
        forEachField(value, [&](const char *, const auto &field) {
            using F = std::remove_cvref_t<decltype(field)>;
            slots[count++] = {&field, [](JsonWriter &w, const void *f) {
                                  fieldsToJson(w, *static_cast<const F *>(f));
                              }};
        });
        writer.beginObject();
        for (std::uint8_t index : table.sorted) {
            writer.key(table.names[index]);
            slots[index].write(writer, slots[index].field);
        }
        writer.endObject();
    } else if constexpr (fields_detail::IsVector<T>::value ||
                         fields_detail::IsArray<T>::value) {
        writer.beginArray();
        for (const auto &element : value)
            fieldsToJson(writer, element);
        writer.endArray();
    } else if constexpr (std::is_same_v<T, std::string>) {
        writer.string(value);
    } else if constexpr (std::is_same_v<T, double>) {
        char text[hexDoubleBufferSize];
        writer.string(encodeHexDouble(value, text));
    } else {
        static_assert(fields_detail::Integer<T>,
                      "field type has no exact JSON encoding");
        if constexpr (std::is_enum_v<T>) {
            fieldsToJson(writer,
                         static_cast<std::underlying_type_t<T>>(value));
        } else {
            char text[24];
            auto done = std::to_chars(text, text + sizeof(text), value);
            writer.string(std::string_view(
                text, static_cast<std::size_t>(done.ptr - text)));
        }
    }
}

/**
 * Decode one value of @p reader, as fieldsToJson() wrote it, into
 * @p out. Unknown object members are skipped, the last of duplicate
 * members wins, and every listed field is required.
 * @return false on a missing field, a kind mismatch, an out-of-range
 *         integer, a wrong array length or a syntax error; @p out is
 *         then partially written. The value is consumed either way
 *         (unless the syntax error stopped the reader).
 */
template <typename T>
bool
fieldsFromJson(JsonReader &reader, T &out)
{
    using Kind = JsonReader::Kind;
    using fields_detail::expect;
    if constexpr (Visited<T>) {
        if (!expect(reader, Kind::Object))
            return false;
        struct Slot
        {
            void *field;
            bool (*read)(JsonReader &, void *);
        };
        const fields_detail::FieldTable &table =
            fields_detail::fieldTable(out);
        std::array<Slot, fields_detail::maxFields> slots{};
        std::size_t count = 0;
        forEachField(out, [&](const char *, auto &field) {
            using F = std::remove_cvref_t<decltype(field)>;
            slots[count++] = {&field, [](JsonReader &r, void *f) {
                                  return fieldsFromJson(
                                      r, *static_cast<F *>(f));
                              }};
        });
        std::uint64_t decoded = 0; // a bit per field whose last
                                   // occurrence decoded
        std::size_t cursor = 0;
        std::string_view name;
        reader.beginObject();
        while (reader.nextKey(name)) {
            const int index = table.find(name, cursor);
            if (index < 0) {
                reader.skipValue();
                continue;
            }
            const std::uint64_t bit = std::uint64_t{1} << index;
            if (slots[index].read(reader, slots[index].field))
                decoded |= bit;
            else
                decoded &= ~bit;
        }
        return !reader.failed() && decoded == table.all;
    } else if constexpr (fields_detail::IsVector<T>::value ||
                         fields_detail::IsArray<T>::value) {
        if (!expect(reader, Kind::Array))
            return false;
        reader.beginArray();
        if constexpr (fields_detail::IsVector<T>::value)
            out.clear();
        std::size_t count = 0;
        bool ok = true;
        while (reader.nextElement()) {
            typename T::value_type *slot = nullptr;
            if constexpr (fields_detail::IsVector<T>::value)
                slot = ok ? &out.emplace_back() : nullptr;
            else
                slot = ok && count < out.size() ? &out[count] : nullptr;
            if (slot != nullptr) {
                ok = fieldsFromJson(reader, *slot);
            } else {
                ok = false; // refused already, or one too many
                reader.skipValue();
            }
            ++count;
        }
        return ok && !reader.failed() && count == out.size();
    } else if constexpr (std::is_enum_v<T>) {
        std::underlying_type_t<T> raw{};
        if (!fieldsFromJson(reader, raw))
            return false;
        out = static_cast<T>(raw);
        return true;
    } else {
        static_assert(std::is_same_v<T, std::string> ||
                          std::is_same_v<T, double> ||
                          fields_detail::Integer<T>,
                      "field type has no exact JSON encoding");
        std::string_view text;
        if (!expect(reader, Kind::String) || !reader.readString(text))
            return false;
        if constexpr (std::is_same_v<T, std::string>) {
            out.assign(text);
            return true;
        } else if constexpr (std::is_same_v<T, double>) {
            return decodeHexDouble(text, out);
        } else {
            const char *end = text.data() + text.size();
            auto [ptr, ec] = std::from_chars(text.data(), end, out);
            return ec == std::errc() && ptr == end && !text.empty();
        }
    }
}

} // namespace mmgpu

#endif // MMGPU_COMMON_FIELDS_HH
