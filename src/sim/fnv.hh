/**
 * @file
 * FNV-1a-64, the one hash behind every identity the project stores:
 * campaign and config hashes, journal line checksums, per-job seeds
 * and trace content hashes. Changing it invalidates every campaign
 * on disk, so the standard test vectors are pinned in tier-1.
 */

#ifndef CRITMEM_SIM_FNV_HH
#define CRITMEM_SIM_FNV_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace critmem
{

/** Incremental FNV-1a-64. */
struct Fnv1a
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    byte(std::uint8_t b)
    {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }

    void
    bytes(const std::uint8_t *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i)
            byte(data[i]);
    }

    void
    bytes(std::string_view text)
    {
        for (const char c : text)
            byte(static_cast<std::uint8_t>(c));
    }

    /** @p text then a 0x1f separator, so "ab","c" != "a","bc". */
    void
    field(std::string_view text)
    {
        bytes(text);
        byte(0x1f);
    }

    /** The eight bytes of @p v, least significant first. */
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (i * 8)));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

/** FNV-1a-64 of @p text. */
inline std::uint64_t
fnv1a(std::string_view text)
{
    Fnv1a fnv;
    fnv.bytes(text);
    return fnv.hash;
}

} // namespace critmem

#endif // CRITMEM_SIM_FNV_HH
