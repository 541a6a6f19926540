#include "support/map_cells.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RDV_SHUFFLE_BYTES 1
#endif

namespace rdv::support {

#ifdef RDV_SHUFFLE_BYTES
namespace {

/// The whole 16-cell blocks of map_small_bytes; returns the cells done.
__attribute__((target("ssse3"))) std::size_t shuffle_blocks(
    const std::uint8_t* src, std::uint8_t* dst, std::size_t count,
    const std::uint8_t* table16) {
  const __m128i table =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(table16));
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m128i cells =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_shuffle_epi8(table, cells));
  }
  return i;
}

}  // namespace
#endif

void map_small_bytes(const std::uint8_t* src, std::uint8_t* dst,
                     std::size_t count, std::span<const std::uint8_t> table) {
  std::size_t i = 0;
#ifdef RDV_SHUFFLE_BYTES
  static const bool shuffles =
      (__builtin_cpu_init(), __builtin_cpu_supports("ssse3"));
  if (shuffles) {
    std::uint8_t table16[16] = {};
    std::copy(table.begin(), table.end(), table16);
    i = shuffle_blocks(src, dst, count, table16);
  }
#endif
  for (; i < count; ++i) dst[i] = table[src[i]];
}

}  // namespace rdv::support
