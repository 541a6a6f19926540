#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "uxs/uxs.hpp"
#include "views/quotient.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

/// Deterministic binary codec for the persistent artifact store
/// (ISSUE 4 tentpole).
///
/// Every integer is encoded little-endian at a fixed width and every
/// container is length-prefixed (the Shrink table by its n), so the
/// byte stream for a given artifact is identical across platforms,
/// runs, and process images — the property the disk store's content
/// checksums and the warm-run byte-identity CI job rely on. Decoding is
/// strict: trailing bytes, truncation, and out-of-range lengths all
/// raise CodecError, which the disk store maps to "corrupt, fall back
/// to recompute".
namespace rdv::store {

/// Decode-side failure (truncation, bad length, trailing garbage).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Fixed-width little-endian loads and stores. On little-endian hosts
/// the in-memory representation already is the wire format, so one
/// memcpy moves a value (or a whole vector); other hosts assemble the
/// bytes one at a time. `src` and `dst` need no alignment.
namespace le {

inline constexpr bool kNative = std::endian::native == std::endian::little;

template <typename T>
[[nodiscard]] T load(const char* src) noexcept {
  T v = 0;
  if constexpr (kNative) {
    std::memcpy(&v, src, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(src[i])) << (8 * i);
    }
  }
  return v;
}

template <typename T>
void store(T v, char* dst) noexcept {
  if constexpr (kNative) {
    std::memcpy(dst, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      dst[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  }
}

}  // namespace le

/// Appends fixed-width little-endian primitives to a byte string.
class Encoder {
 public:
  Encoder() = default;
  /// Reserves `size` bytes: an encoder told its exact output size
  /// allocates once and never regrows.
  explicit Encoder(std::size_t size) { out_.reserve(size); }

  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  /// Bytes as they are, without a length prefix.
  void raw(std::string_view s) { out_.append(s.data(), s.size()); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s);
  }
  void u32_vec(const std::vector<std::uint32_t>& v) {
    array(std::span<const std::uint32_t>(v));
  }
  void u64_vec(std::span<const std::uint64_t> v) { array(v); }
  /// Each value truncated to T, little-endian, without a length
  /// prefix, written in place at the end of the buffer.
  template <typename T>
  void narrow(std::span<const std::uint32_t> v) {
    const std::size_t at = out_.size();
    out_.resize(at + v.size() * sizeof(T));
    char* dst = out_.data() + at;
    for (std::size_t i = 0; i < v.size(); ++i) {
      le::store(static_cast<T>(v[i]), dst + i * sizeof(T));
    }
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  template <typename T>
  void fixed(T v) {
    char b[sizeof v];
    le::store(v, b);
    out_.append(b, sizeof b);
  }

  template <typename T>
  void array(std::span<const T> v) {
    u64(v.size());
    if constexpr (le::kNative) {
      out_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
    } else {
      for (const T x : v) fixed(x);
    }
  }

  std::string out_;
};

/// Reads the Encoder format back; every accessor throws CodecError on
/// truncation. Call finish() after the last field to reject trailing
/// garbage.
class Decoder {
 public:
  explicit Decoder(std::string_view in) : in_(in) {}

  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }

  std::string str() { return std::string(str_view()); }
  /// A length-prefixed string as a view into the input.
  std::string_view str_view() { return view(u64()); }

  /// Exactly n raw bytes (length-framed payloads), as a view into the
  /// input.
  std::string_view view(std::uint64_t n) {
    if (n > remaining()) throw CodecError("span past end");
    const std::string_view s = in_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint32_t> u32_vec() {
    return array<std::uint32_t>("u32 vector length past end");
  }
  std::vector<std::uint64_t> u64_vec() {
    return array<std::uint64_t>("u64 vector length past end");
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }
  void finish() const {
    if (pos_ != in_.size()) throw CodecError("trailing bytes after payload");
  }

 private:
  template <typename T>
  T fixed() {
    if (remaining() < sizeof(T)) throw CodecError("truncated integer");
    const T v = le::load<T>(in_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> array(const char* past_end) {
    const std::uint64_t size = u64();
    if (size > remaining() / sizeof(T)) throw CodecError(past_end);
    std::vector<T> v(size);
    if constexpr (le::kNative) {
      const std::string_view bytes = view(size * sizeof(T));
      if (size != 0) std::memcpy(v.data(), bytes.data(), bytes.size());
    } else {
      for (T& x : v) x = fixed<T>();
    }
    return v;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

/// SplitMix-scrambled position-salted checksum over a byte string; the
/// integrity check of the disk store and the result log. Each full
/// 8-byte word is one little-endian load; a short tail is zero-padded.
[[nodiscard]] std::uint64_t checksum(std::string_view bytes) noexcept;

/// The artifact kinds the store persists; each gets its own
/// subdirectory and its own stats counters.
enum class Kind {
  kViewClasses = 0,
  kQuotients = 1,
  kUxs = 2,
  kShrinkAllPairs = 3,
};
inline constexpr std::size_t kKindCount = 4;

/// Stable directory / stats name ("view_classes", "quotients", "uxs",
/// "shrink_all_pairs"). The store persists kinds by this name, never by
/// enumerator value.
[[nodiscard]] const char* kind_name(Kind kind) noexcept;

/// Artifact serializers: deterministic byte renderings of the four
/// cached artifact kinds. decode_* throws CodecError on any malformed
/// input and rejects trailing bytes.
[[nodiscard]] std::string encode_uxs(const uxs::Uxs& y);
[[nodiscard]] uxs::Uxs decode_uxs(std::string_view bytes);

[[nodiscard]] std::string encode_view_classes(const views::ViewClasses& c);
[[nodiscard]] views::ViewClasses decode_view_classes(std::string_view bytes);

[[nodiscard]] std::string encode_quotient(const views::QuotientGraph& q);
[[nodiscard]] views::QuotientGraph decode_quotient(std::string_view bytes);

/// The Shrink table is stored at the narrowest cell width w in {1, 2,
/// 4} bytes whose all-ones value lies above every finite entry; all-ones
/// stands for graph::kUnreachable. Payload: u32 n, u32 w, n*n cells of
/// w bytes, u64 pairs_explored. The decoder widens back to u32 and
/// rejects any other width, so an accepted payload is canonical.
[[nodiscard]] std::string encode_all_pairs_shrink(
    const views::AllPairsShrink& a);
[[nodiscard]] views::AllPairsShrink decode_all_pairs_shrink(
    std::string_view bytes);

}  // namespace rdv::store
