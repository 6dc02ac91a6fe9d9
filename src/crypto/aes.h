// AES-256 (FIPS 197) block cipher and CFB-128 stream mode, from scratch.
//
// Shadowsocks in the paper's testbed uses AES-256-CFB; the simulated TLS
// record layer and the ScholarCloud inner tunnel reuse the same primitive.
// The block cipher is the standard 32-bit T-table form: the round keys are
// big-endian words expanded once per key, and each of the 13 middle rounds
// is 16 lookups into four 1 KiB tables built at compile time from the S-box,
// followed by a plain S-box final round. Table lookups index by secret bytes,
// so on real hardware they leak through cache timing; that does not matter
// here, where keys and traffic are simulated and only the ciphertext bytes
// (what the GFW's entropy classifier sees) and the host cost are observed.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace sc::crypto {

constexpr std::size_t kAesBlockSize = 16;
constexpr std::size_t kAes256KeySize = 32;

class Aes256 {
 public:
  // Key must be exactly kAes256KeySize bytes; shorter keys are zero-padded,
  // longer keys truncated (callers should always pass 32 bytes).
  explicit Aes256(ByteView key) noexcept;

  void encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const noexcept;

 private:
  // 15 round keys of four big-endian words each (14 rounds + initial).
  std::array<std::uint32_t, 60> round_keys_{};
};

// CFB-128 segment mode. Encryption and decryption are stateful streams so a
// long-lived proxy connection can push data incrementally.
class AesCfbStream {
 public:
  AesCfbStream(ByteView key, ByteView iv) noexcept;

  Bytes encrypt(ByteView plaintext);
  Bytes decrypt(ByteView ciphertext);

  // In-place variants: transform the buffer without allocating an output.
  // CFB is a stream mode, so ciphertext can overwrite plaintext byte by
  // byte — the VPN encap/decap hot paths use these to reuse one buffer.
  void encryptInPlace(Bytes& data);
  void decryptInPlace(Bytes& data);

 private:
  // The one CFB loop behind all four entry points; in may equal out.
  void crypt(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
             bool decrypt) noexcept;

  Aes256 cipher_;
  std::uint8_t feedback_[16];
  std::uint8_t keystream_[16];
  std::size_t used_ = kAesBlockSize;  // forces keystream refill on first byte
};

// One-shot helpers (fresh stream per call).
Bytes aes256CfbEncrypt(ByteView key, ByteView iv, ByteView plaintext);
Bytes aes256CfbDecrypt(ByteView key, ByteView iv, ByteView ciphertext);
void aes256CfbEncryptInPlace(ByteView key, ByteView iv, Bytes& data);
void aes256CfbDecryptInPlace(ByteView key, ByteView iv, Bytes& data);

}  // namespace sc::crypto
