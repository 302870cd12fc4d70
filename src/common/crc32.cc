/**
 * @file
 * Slicing-by-8 CRC-32: eight 256-entry tables, built at compile time,
 * fold eight input bytes per step. The value is the bytewise
 * table-driven CRC's, bit for bit.
 */

#include "common/crc32.hh"

#include <array>

namespace dmdc
{

namespace
{

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * tables[0] is the classic bytewise table; tables[k][b] is the CRC
 * state after byte b is followed by k zero bytes, so one lookup per
 * byte position folds a whole 8-byte word.
 */
constexpr CrcTables
makeTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c >> 1) ^ ((c & 1u) ? 0xedb88320u : 0u);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

constexpr CrcTables kTables = makeTables();

static_assert(kTables[0][1] == 0x77073096u, "reflected 0xEDB88320 table");

/** Little-endian 32-bit word at @p p, assembled byte by byte (no
 *  alignment requirement; compilers fuse it into one load). */
inline std::uint32_t
load32le(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto &t = kTables;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = c ^ load32le(p);
        const std::uint32_t hi = load32le(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace dmdc
