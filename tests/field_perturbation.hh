/**
 * @file
 * One-leaf perturbations driven by forEachField, shared by the tests
 * that prove an identity or a fingerprint covers every field.
 *
 * perturbations(base) walks a visited struct through its own field
 * list and returns one copy per leaf with just that leaf changed, so
 * a field added to any struct is covered without editing the tests.
 */

#ifndef MMGPU_TESTS_FIELD_PERTURBATION_HH
#define MMGPU_TESTS_FIELD_PERTURBATION_HH

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fields.hh"

namespace mmgpu::test
{

template <typename T>
concept Resizable = requires(T &value) { value.emplace_back(); };

template <typename T>
concept Indexed = requires(T &value) {
    value.size();
    value[0];
} && !std::is_same_v<T, std::string>;

template <typename T>
void
perturbScalar(T &value)
{
    if constexpr (std::is_same_v<T, std::string>)
        value += "~";
    else if constexpr (std::is_same_v<T, double>)
        value = value == 0.0 ? 1.0 : value * 2.0;
    else if constexpr (std::is_same_v<T, bool>)
        value = !value;
    else if constexpr (std::is_enum_v<T>)
        value = static_cast<T>(
            static_cast<std::underlying_type_t<T>>(value) + 1);
    else
        value = static_cast<T>(value + 1);
}

/**
 * Change leaf number @p n of @p value (depth first, in field-list
 * order; a vector's length counts as one more leaf after its
 * elements). Appends the leaf's path to @p path.
 * @return true when leaf @p n existed; otherwise @p n has been
 *         reduced by the number of leaves in @p value.
 */
template <typename T>
bool
perturbLeaf(T &value, std::size_t &n, std::string &path)
{
    if constexpr (Visited<T>) {
        bool done = false;
        forEachField(value, [&](const char *name, auto &field) {
            if (done)
                return;
            const std::size_t mark = path.size();
            path += std::string(".") + name;
            done = perturbLeaf(field, n, path);
            if (!done)
                path.resize(mark);
        });
        return done;
    } else if constexpr (Indexed<T>) {
        for (std::size_t i = 0; i < value.size(); ++i) {
            const std::size_t mark = path.size();
            path += "[" + std::to_string(i) + "]";
            if (perturbLeaf(value[i], n, path))
                return true;
            path.resize(mark);
        }
        if constexpr (Resizable<T>) {
            if (n == 0) {
                path += ".size";
                value.emplace_back();
                return true;
            }
            --n;
        }
        return false;
    } else {
        if (n > 0) {
            --n;
            return false;
        }
        perturbScalar(value);
        return true;
    }
}

/** Every one-leaf variant of @p base, with its field path. */
template <typename T>
std::vector<std::pair<std::string, T>>
perturbations(const T &base)
{
    std::vector<std::pair<std::string, T>> variants;
    for (std::size_t leaf = 0;; ++leaf) {
        T variant = base;
        std::size_t n = leaf;
        std::string path;
        if (!perturbLeaf(variant, n, path))
            return variants;
        variants.emplace_back(path, std::move(variant));
    }
}

} // namespace mmgpu::test

#endif // MMGPU_TESTS_FIELD_PERTURBATION_HH
