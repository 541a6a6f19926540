#include "store/input_file.hpp"

namespace rdv::store {

InputFile::InputFile(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")) {
  if (file_ == nullptr) return;
  const bool sized = std::fseek(file_.get(), 0, SEEK_END) == 0;
  const long end = sized ? std::ftell(file_.get()) : -1;
  if (end < 0 || std::fseek(file_.get(), 0, SEEK_SET) != 0) {
    file_.reset();
    return;
  }
  size_ = static_cast<std::uint64_t>(end);
}

bool InputFile::read_into(std::string& out, std::uint64_t n) {
  if (!is_open() || n > remaining()) return false;
  const std::size_t at = out.size();
  out.resize(at + n);
  if (std::fread(out.data() + at, 1, n, file_.get()) != n) {
    out.resize(at);
    return false;
  }
  offset_ += n;
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  InputFile file(path);
  std::string bytes;
  if (!file.read_into(bytes, file.size())) return std::nullopt;
  return bytes;
}

}  // namespace rdv::store
