#include "core/bytes.hpp"

#include <cstdio>

#include <sys/stat.h>
#include <unistd.h>

namespace photon {

bool read_file(const std::string& path, Bytes& out) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in) return false;
  struct stat st {};
  out.clear();
  if (fstat(fileno(in), &st) == 0 && st.st_size > 0) {
    out.resize(static_cast<std::size_t>(st.st_size));
    out.resize(std::fread(out.data(), 1, out.size(), in));
  }
  std::fclose(in);
  return true;
}

bool write_file(const std::string& path, const Bytes& bytes, bool sync) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (!out) return false;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  if (sync) ok = ok && std::fflush(out) == 0 && fsync(fileno(out)) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace photon
