#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace rdv::support {

/// dst[i] = table[src[i]] for i < count, byte cells and a table of at
/// most 16 entries: one 16-byte shuffle per 16 cells where the CPU has
/// one (x86 SSSE3), one lookup per cell elsewhere.
void map_small_bytes(const std::uint8_t* src, std::uint8_t* dst,
                     std::size_t count, std::span<const std::uint8_t> table);

/// dst[i] = table[src[i]] for i < count.
template <class Cell>
void map_cells(const Cell* src, Cell* dst, std::size_t count,
               std::span<const Cell> table) {
  if constexpr (std::is_same_v<Cell, std::uint8_t>) {
    if (table.size() <= 16) return map_small_bytes(src, dst, count, table);
  }
  for (std::size_t i = 0; i < count; ++i) dst[i] = table[src[i]];
}

}  // namespace rdv::support
