// Little-endian byte codec for the serialized sketches (QSketch) and the
// campaign checkpoint, which embeds them. Fixed-width integers go out low
// byte first, doubles as their IEEE-754 bit pattern, strings as a u64
// length and the raw bytes. Each get_* reads at `*cursor` and advances it,
// and returns false instead of reading past `end`, so a parser can chain
// reads and fail on truncated input.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace mpr::analysis {

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_i32(std::string& out, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((u >> (8 * i)) & 0xff));
}

inline void put_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

inline void put_str(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out.append(s);
}

inline bool get_u64(const char** cursor, const char* end, std::uint64_t* v) {
  if (end - *cursor < 8) return false;
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(static_cast<unsigned char>((*cursor)[i])) << (8 * i);
  }
  *cursor += 8;
  *v = out;
  return true;
}

inline bool get_i32(const char** cursor, const char* end, std::int32_t* v) {
  if (end - *cursor < 4) return false;
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(static_cast<unsigned char>((*cursor)[i])) << (8 * i);
  }
  *cursor += 4;
  *v = static_cast<std::int32_t>(out);
  return true;
}

inline bool get_double(const char** cursor, const char* end, double* v) {
  std::uint64_t bits = 0;
  if (!get_u64(cursor, end, &bits)) return false;
  std::memcpy(v, &bits, sizeof *v);
  return true;
}

inline bool get_str(const char** cursor, const char* end, std::string* s) {
  std::uint64_t len = 0;
  if (!get_u64(cursor, end, &len)) return false;
  if (len > static_cast<std::uint64_t>(end - *cursor)) return false;
  s->assign(*cursor, static_cast<std::size_t>(len));
  *cursor += len;
  return true;
}

}  // namespace mpr::analysis
