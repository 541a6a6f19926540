#pragma once

#include <cstdint>
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
/// container is length-prefixed, so the byte stream for a given
/// artifact is identical across platforms, runs, and process images —
/// the property the disk store's content checksums and the warm-run
/// byte-identity CI job rely on. Decoding is strict: trailing bytes,
/// truncation, and out-of-range lengths all raise CodecError, which the
/// disk store maps to "corrupt, fall back to recompute".
namespace rdv::store {

/// Decode-side failure (truncation, bad length, trailing garbage).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fixed-width little-endian primitives to a byte string.
class Encoder {
 public:
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(byte_of(v, i));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(byte_of(v, i));
  }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s.data(), s.size());
  }
  void u32_vec(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (std::uint32_t x : v) u32(x);
  }
  void u64_vec(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  static char byte_of(std::uint64_t v, int i) noexcept {
    return static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  std::string out_;
};

/// Reads the Encoder format back; every accessor throws CodecError on
/// truncation. Call finish() after the last field to reject trailing
/// garbage.
class Decoder {
 public:
  explicit Decoder(std::string_view in) : in_(in) {}

  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed(4)); }
  std::uint64_t u64() { return fixed(8); }

  std::string str() {
    const std::uint64_t size = u64();
    if (size > remaining()) throw CodecError("string length past end");
    std::string s(in_.substr(pos_, size));
    pos_ += size;
    return s;
  }

  std::vector<std::uint32_t> u32_vec() {
    const std::uint64_t size = u64();
    if (size > remaining() / 4) throw CodecError("u32 vector length past end");
    std::vector<std::uint32_t> v(size);
    for (std::uint64_t i = 0; i < size; ++i) v[i] = u32();
    return v;
  }

  std::vector<std::uint64_t> u64_vec() {
    const std::uint64_t size = u64();
    if (size > remaining() / 8) throw CodecError("u64 vector length past end");
    std::vector<std::uint64_t> v(size);
    for (std::uint64_t i = 0; i < size; ++i) v[i] = u64();
    return v;
  }

  /// Consumes exactly n raw bytes (length-framed payloads).
  std::string bytes(std::size_t n) {
    if (n > remaining()) throw CodecError("raw span past end");
    std::string s(in_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// Consumes and returns everything left (raw trailing payloads).
  std::string rest() {
    std::string s(in_.substr(pos_));
    pos_ = in_.size();
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }
  void finish() const {
    if (pos_ != in_.size()) throw CodecError("trailing bytes after payload");
  }

 private:
  std::uint64_t fixed(int width) {
    if (remaining() < static_cast<std::size_t>(width)) {
      throw CodecError("truncated integer");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(in_[pos_ + i]))
           << (8 * i);
    }
    pos_ += width;
    return v;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

/// SplitMix-scrambled position-salted checksum over a byte string; the
/// integrity check of the disk store and the result log.
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

[[nodiscard]] std::string encode_all_pairs_shrink(
    const views::AllPairsShrink& a);
[[nodiscard]] views::AllPairsShrink decode_all_pairs_shrink(
    std::string_view bytes);

}  // namespace rdv::store
