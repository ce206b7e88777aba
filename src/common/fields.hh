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
 *    name.
 */

#ifndef MMGPU_COMMON_FIELDS_HH
#define MMGPU_COMMON_FIELDS_HH

#include <array>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/hash.hh"
#include "common/json.hh"

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

/** Encode @p value exactly (see the file comment for the format). */
template <typename T>
JsonValue
fieldsToJson(const T &value)
{
    if constexpr (Visited<T>) {
        JsonValue object = JsonValue::object();
        forEachField(value, [&object](const char *name,
                                      const auto &field) {
            object.set(name, fieldsToJson(field));
        });
        return object;
    } else if constexpr (fields_detail::IsVector<T>::value ||
                         fields_detail::IsArray<T>::value) {
        JsonValue array = JsonValue::array();
        for (const auto &element : value)
            array.push(fieldsToJson(element));
        return array;
    } else if constexpr (std::is_same_v<T, std::string>) {
        return JsonValue(value);
    } else if constexpr (std::is_same_v<T, double>) {
        return JsonValue(encodeHexDouble(value));
    } else {
        static_assert(fields_detail::Integer<T>,
                      "field type has no exact JSON encoding");
        if constexpr (std::is_enum_v<T>)
            return fieldsToJson(static_cast<std::underlying_type_t<T>>(
                value));
        else
            return JsonValue(std::to_string(value));
    }
}

/**
 * Decode what fieldsToJson() wrote into @p out.
 * @return false on a missing field, a type mismatch, an
 *         out-of-range integer or a wrong array length; @p out is
 *         then partially written.
 */
template <typename T>
bool
fieldsFromJson(const JsonValue *json, T &out)
{
    if (json == nullptr)
        return false;
    if constexpr (Visited<T>) {
        if (!json->isObject())
            return false;
        bool ok = true;
        forEachField(out, [json, &ok](const char *name, auto &field) {
            ok = ok && fieldsFromJson(json->find(name), field);
        });
        return ok;
    } else if constexpr (fields_detail::IsVector<T>::value ||
                         fields_detail::IsArray<T>::value) {
        if (!json->isArray())
            return false;
        if constexpr (fields_detail::IsVector<T>::value)
            out.resize(json->size());
        else if (json->size() != out.size())
            return false;
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (!fieldsFromJson(json->at(i), out[i]))
                return false;
        }
        return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!json->isString())
            return false;
        out = json->asString();
        return true;
    } else if constexpr (std::is_same_v<T, double>) {
        return decodeHexDouble(json, out);
    } else if constexpr (std::is_enum_v<T>) {
        std::underlying_type_t<T> raw{};
        if (!fieldsFromJson(json, raw))
            return false;
        out = static_cast<T>(raw);
        return true;
    } else {
        static_assert(fields_detail::Integer<T>,
                      "field type has no exact JSON encoding");
        if (!json->isString())
            return false;
        const std::string &text = json->asString();
        const char *end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), end, out);
        return ec == std::errc() && ptr == end && !text.empty();
    }
}

} // namespace mmgpu

#endif // MMGPU_COMMON_FIELDS_HH
