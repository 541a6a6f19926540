#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

/// Exact-size file reads for the store layer: the size comes from the
/// open handle, and every read lands in a buffer sized to it up front,
/// with no stream buffer regrowing in between.
namespace rdv::store {

/// A file opened for reading from its first byte onwards.
class InputFile {
 public:
  explicit InputFile(const std::string& path);

  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }
  /// Bytes in the file when it was opened (0 when not open).
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  /// Bytes not read yet.
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return size_ - offset_;
  }

  /// Appends the next `n` bytes to `out`; false (with `out` unchanged)
  /// on a short read or an I/O error.
  bool read_into(std::string& out, std::uint64_t n);

 private:
  struct Close {
    void operator()(std::FILE* f) const noexcept { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Close> file_;
  std::uint64_t size_ = 0;
  std::uint64_t offset_ = 0;
};

/// The whole file in one exact-size buffer; nullopt when it cannot be
/// opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace rdv::store
