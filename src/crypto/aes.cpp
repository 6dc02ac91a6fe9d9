#include "crypto/aes.h"

#include <cstring>

namespace sc::crypto {

namespace {
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

// Te[k][x] is the MixColumns column of SubBytes(x) placed in state row k,
// i.e. Te[0][x] = (2·S[x], S[x], S[x], 3·S[x]) as a big-endian word and
// Te[k] = Te[0] rotated right by 8k bits. One table round is then four
// lookups and four XORs per column.
using TeTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr TeTables makeTeTables() noexcept {
  TeTables te{};
  for (std::size_t x = 0; x < 256; ++x) {
    const std::uint32_t s1 = kSbox[x];
    const std::uint32_t s2 = ((s1 << 1) ^ ((s1 >> 7) * 0x1b)) & 0xff;
    const std::uint32_t s3 = s2 ^ s1;
    const std::uint32_t w = (s2 << 24) | (s1 << 16) | (s1 << 8) | s3;
    te[0][x] = w;
    te[1][x] = (w >> 8) | (w << 24);
    te[2][x] = (w >> 16) | (w << 16);
    te[3][x] = (w >> 24) | (w << 8);
  }
  return te;
}

constexpr TeTables kTe = makeTeTables();

std::uint32_t loadBe32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void storeBe32(std::uint8_t* p, std::uint32_t w) noexcept {
  p[0] = static_cast<std::uint8_t>(w >> 24);
  p[1] = static_cast<std::uint8_t>(w >> 16);
  p[2] = static_cast<std::uint8_t>(w >> 8);
  p[3] = static_cast<std::uint8_t>(w);
}

std::uint32_t subWord(std::uint32_t w) noexcept {
  return (std::uint32_t{kSbox[w >> 24]} << 24) |
         (std::uint32_t{kSbox[(w >> 16) & 0xff]} << 16) |
         (std::uint32_t{kSbox[(w >> 8) & 0xff]} << 8) |
         std::uint32_t{kSbox[w & 0xff]};
}

// One full round for the output column whose row-0 byte comes from `a`; the
// ShiftRows offsets pick rows 1..3 from the next three columns in turn.
std::uint32_t tableRound(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                         std::uint32_t d, std::uint32_t rk) noexcept {
  return kTe[0][a >> 24] ^ kTe[1][(b >> 16) & 0xff] ^ kTe[2][(c >> 8) & 0xff] ^
         kTe[3][d & 0xff] ^ rk;
}

// The last round has no MixColumns: plain S-box bytes, shifted the same way.
std::uint32_t finalRound(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                         std::uint32_t d, std::uint32_t rk) noexcept {
  return subWord((a & 0xff000000) | (b & 0x00ff0000) | (c & 0x0000ff00) |
                 (d & 0x000000ff)) ^
         rk;
}
}  // namespace

Aes256::Aes256(ByteView key) noexcept {
  std::uint8_t k[kAes256KeySize] = {};
  std::memcpy(k, key.data(), std::min(key.size(), kAes256KeySize));

  // Key expansion (FIPS 197 §5.2): 60 big-endian words for AES-256.
  constexpr std::size_t kNk = 8;
  for (std::size_t i = 0; i < kNk; ++i) round_keys_[i] = loadBe32(&k[4 * i]);
  for (std::size_t i = kNk; i < round_keys_.size(); ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    // Rcon[j] = x^(j-1) in GF(2^8); AES-256 needs only j <= 7, so it is a
    // plain shift with no reduction.
    if (i % kNk == 0)
      temp = subWord((temp << 8) | (temp >> 24)) ^
             (std::uint32_t{0x01000000} << (i / kNk - 1));
    else if (i % kNk == 4)
      temp = subWord(temp);
    round_keys_[i] = round_keys_[i - kNk] ^ temp;
  }
}

void Aes256::encryptBlock(const std::uint8_t in[16],
                          std::uint8_t out[16]) const noexcept {
  constexpr std::size_t kRounds = 14;
  const std::uint32_t* rk = round_keys_.data();
  // Column c of the state is the big-endian word s_c (row 0 in the top byte).
  std::uint32_t s0 = loadBe32(in) ^ rk[0];
  std::uint32_t s1 = loadBe32(in + 4) ^ rk[1];
  std::uint32_t s2 = loadBe32(in + 8) ^ rk[2];
  std::uint32_t s3 = loadBe32(in + 12) ^ rk[3];
  for (std::size_t round = 1; round < kRounds; ++round) {
    rk += 4;
    const std::uint32_t t0 = tableRound(s0, s1, s2, s3, rk[0]);
    const std::uint32_t t1 = tableRound(s1, s2, s3, s0, rk[1]);
    const std::uint32_t t2 = tableRound(s2, s3, s0, s1, rk[2]);
    const std::uint32_t t3 = tableRound(s3, s0, s1, s2, rk[3]);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  storeBe32(out, finalRound(s0, s1, s2, s3, rk[0]));
  storeBe32(out + 4, finalRound(s1, s2, s3, s0, rk[1]));
  storeBe32(out + 8, finalRound(s2, s3, s0, s1, rk[2]));
  storeBe32(out + 12, finalRound(s3, s0, s1, s2, rk[3]));
}

AesCfbStream::AesCfbStream(ByteView key, ByteView iv) noexcept : cipher_(key) {
  std::memset(feedback_, 0, sizeof(feedback_));
  std::memcpy(feedback_, iv.data(), std::min(iv.size(), kAesBlockSize));
  std::memset(keystream_, 0, sizeof(keystream_));
}

void AesCfbStream::crypt(const std::uint8_t* in, std::uint8_t* out,
                         std::size_t n, bool decrypt) noexcept {
  // A local position: stores through `out` may alias any member, so a member
  // counter would be reloaded after every byte.
  std::size_t used = used_;
  for (std::size_t i = 0; i < n; ++i) {
    if (used == kAesBlockSize) {
      cipher_.encryptBlock(feedback_, keystream_);
      used = 0;
    }
    // Read the input byte before writing the output so in == out works.
    const std::uint8_t x = in[i];
    const auto y = static_cast<std::uint8_t>(x ^ keystream_[used]);
    out[i] = y;
    feedback_[used] = decrypt ? x : y;  // the ciphertext byte feeds back
    ++used;
  }
  used_ = used;
}

Bytes AesCfbStream::encrypt(ByteView plaintext) {
  Bytes out(plaintext.size());
  crypt(plaintext.data(), out.data(), out.size(), /*decrypt=*/false);
  return out;
}

Bytes AesCfbStream::decrypt(ByteView ciphertext) {
  Bytes out(ciphertext.size());
  crypt(ciphertext.data(), out.data(), out.size(), /*decrypt=*/true);
  return out;
}

void AesCfbStream::encryptInPlace(Bytes& data) {
  crypt(data.data(), data.data(), data.size(), /*decrypt=*/false);
}

void AesCfbStream::decryptInPlace(Bytes& data) {
  crypt(data.data(), data.data(), data.size(), /*decrypt=*/true);
}

Bytes aes256CfbEncrypt(ByteView key, ByteView iv, ByteView plaintext) {
  return AesCfbStream(key, iv).encrypt(plaintext);
}

Bytes aes256CfbDecrypt(ByteView key, ByteView iv, ByteView ciphertext) {
  return AesCfbStream(key, iv).decrypt(ciphertext);
}

void aes256CfbEncryptInPlace(ByteView key, ByteView iv, Bytes& data) {
  AesCfbStream(key, iv).encryptInPlace(data);
}

void aes256CfbDecryptInPlace(ByteView key, ByteView iv, Bytes& data) {
  AesCfbStream(key, iv).decryptInPlace(data);
}

}  // namespace sc::crypto
