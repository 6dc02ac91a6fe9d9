#include "util/bytes.h"

namespace sc {

// From same-type pointers the vector copies with one memmove; from char
// iterators it was a byte loop whose speed followed its code alignment.
Bytes toBytes(std::string_view s) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  return Bytes(p, p + s.size());
}

std::string toString(ByteView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::string toHex(ByteView b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t c : b) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

namespace {
int hexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Bytes fromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) return {};
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const int hi = hexVal(hex[i]);
    const int lo = hexVal(hex[i + 1]);
    if (hi < 0 || lo < 0) return {};
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

void appendBytes(Bytes& out, ByteView more) {
  out.insert(out.end(), more.begin(), more.end());
}

void appendU8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void appendU16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void appendU32(Bytes& out, std::uint32_t v) {
  appendU16(out, static_cast<std::uint16_t>(v >> 16));
  appendU16(out, static_cast<std::uint16_t>(v));
}

void appendU64(Bytes& out, std::uint64_t v) {
  appendU32(out, static_cast<std::uint32_t>(v >> 32));
  appendU32(out, static_cast<std::uint32_t>(v));
}

bool readU8(ByteView in, std::size_t& off, std::uint8_t& v) {
  if (off + 1 > in.size()) return false;
  v = in[off++];
  return true;
}

bool readU16(ByteView in, std::size_t& off, std::uint16_t& v) {
  if (off + 2 > in.size()) return false;
  v = static_cast<std::uint16_t>(in[off] << 8 | in[off + 1]);
  off += 2;
  return true;
}

bool readU32(ByteView in, std::size_t& off, std::uint32_t& v) {
  std::uint16_t hi = 0, lo = 0;
  if (!readU16(in, off, hi) || !readU16(in, off, lo)) return false;
  v = static_cast<std::uint32_t>(hi) << 16 | lo;
  return true;
}

bool readU64(ByteView in, std::size_t& off, std::uint64_t& v) {
  std::uint32_t hi = 0, lo = 0;
  if (!readU32(in, off, hi) || !readU32(in, off, lo)) return false;
  v = static_cast<std::uint64_t>(hi) << 32 | lo;
  return true;
}

bool readBytes(ByteView in, std::size_t& off, std::size_t n, Bytes& v) {
  if (off + n > in.size()) return false;
  v.assign(in.begin() + static_cast<std::ptrdiff_t>(off),
           in.begin() + static_cast<std::ptrdiff_t>(off + n));
  off += n;
  return true;
}

bool ctEqual(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace sc
