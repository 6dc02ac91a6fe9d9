#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>

#include "crypto/aes.h"
#include "crypto/blinding.h"
#include "crypto/entropy.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sc::crypto {
namespace {

// ---- SHA-256 (FIPS 180-4 vectors) ----

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(toHex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(toHex(sha256(toBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      toHex(sha256(toBytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finish();
  EXPECT_EQ(toHex(ByteView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = toBytes("The quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); ++i)
    h.update(ByteView(data.data() + i, 1));
  const auto digest = h.finish();
  EXPECT_EQ(Bytes(digest.begin(), digest.end()), sha256(data));
}

// ---- HMAC-SHA256 (RFC 4231 vectors) ----

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(toHex(hmacSha256(key, toBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      toHex(hmacSha256(toBytes("Jefe"),
                       toBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(toHex(hmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(toHex(hmacSha256(key, toBytes("Test Using Larger Than Block-Size "
                                          "Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(DeriveKey, DeterministicAndLabelSeparated) {
  const Bytes secret = toBytes("secret");
  EXPECT_EQ(deriveKey(secret, "label-a", 32), deriveKey(secret, "label-a", 32));
  EXPECT_NE(deriveKey(secret, "label-a", 32), deriveKey(secret, "label-b", 32));
  EXPECT_EQ(deriveKey(secret, "x", 100).size(), 100u);
  // Prefix property: a longer derivation starts with the shorter one.
  const Bytes long_key = deriveKey(secret, "x", 64);
  const Bytes short_key = deriveKey(secret, "x", 32);
  EXPECT_TRUE(std::equal(short_key.begin(), short_key.end(), long_key.begin()));
}

// ---- AES-256 (FIPS 197 / NIST SP 800-38A vectors) ----

// Byte-serial FIPS 197 reference: SubBytes/ShiftRows/MixColumns on a byte
// state, with the S-box derived from its definition (GF(2^8) inverse, then
// the affine map). It shares no table or code with crypto/aes.cpp.
class ReferenceAes256 {
 public:
  explicit ReferenceAes256(const std::uint8_t key[32]) : sbox_(sbox()) {
    std::uint8_t* w = round_keys_.data();  // word i is w[4*i .. 4*i + 3]
    std::copy(key, key + 32, w);
    std::uint8_t rcon = 0x01;
    for (std::size_t i = 8; i < 60; ++i) {
      std::uint8_t t[4];
      std::copy(w + 4 * (i - 1), w + 4 * i, t);
      if (i % 8 == 0) {
        const std::uint8_t t0 = t[0];
        t[0] = static_cast<std::uint8_t>(sbox_[t[1]] ^ rcon);
        t[1] = sbox_[t[2]];
        t[2] = sbox_[t[3]];
        t[3] = sbox_[t0];
        rcon = xtime(rcon);
      } else if (i % 8 == 4) {
        for (auto& b : t) b = sbox_[b];
      }
      for (std::size_t j = 0; j < 4; ++j)
        w[4 * i + j] = static_cast<std::uint8_t>(w[4 * (i - 8) + j] ^ t[j]);
    }
  }

  void encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const {
    // s[4*c + r] is row r, column c.
    std::uint8_t s[16];
    for (std::size_t i = 0; i < 16; ++i)
      s[i] = static_cast<std::uint8_t>(in[i] ^ round_keys_[i]);
    for (std::size_t round = 1; round <= 14; ++round) {
      for (auto& b : s) b = sbox_[b];
      std::uint8_t t;
      t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
      t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
      t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
      if (round != 14) {
        for (std::size_t c = 0; c < 4; ++c) {
          std::uint8_t* col = &s[4 * c];
          const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
          const auto all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
          col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(a0 ^ a1));
          col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(a1 ^ a2));
          col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(a2 ^ a3));
          col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(a3 ^ a0));
        }
      }
      for (std::size_t i = 0; i < 16; ++i)
        s[i] = static_cast<std::uint8_t>(s[i] ^ round_keys_[16 * round + i]);
    }
    std::copy(s, s + 16, out);
  }

 private:
  static std::uint8_t xtime(int x) {
    return static_cast<std::uint8_t>((x << 1) ^ (((x >> 7) & 1) * 0x1b));
  }

  static std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
    std::uint8_t p = 0;
    for (; b != 0; b = static_cast<std::uint8_t>(b >> 1)) {
      if (b & 1) p = static_cast<std::uint8_t>(p ^ a);
      a = xtime(a);
    }
    return p;
  }

  static const std::array<std::uint8_t, 256>& sbox() {
    static const std::array<std::uint8_t, 256> table = makeSbox();
    return table;
  }

  static std::array<std::uint8_t, 256> makeSbox() {
    std::array<std::uint8_t, 256> sbox{};
    for (int x = 0; x < 256; ++x) {
      std::uint8_t inv = 0;
      for (int y = 1; y < 256 && x != 0; ++y) {
        if (gmul(static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(y)) ==
            1) {
          inv = static_cast<std::uint8_t>(y);
          break;
        }
      }
      int b = inv;
      int r = b;
      for (int k = 1; k <= 4; ++k) r ^= ((b << k) | (b >> (8 - k))) & 0xff;
      sbox[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(r ^ 0x63);
    }
    return sbox;
  }

  const std::array<std::uint8_t, 256>& sbox_;
  std::array<std::uint8_t, 16 * 15> round_keys_{};
};

TEST(Aes256, Fips197AppendixC3) {
  const Bytes key = fromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes plain = fromHex("00112233445566778899aabbccddeeff");
  std::uint8_t out[16], ref[16];
  Aes256(key).encryptBlock(plain.data(), out);
  ReferenceAes256(key.data()).encryptBlock(plain.data(), ref);
  EXPECT_EQ(toHex(ByteView(out, 16)), "8ea2b7ca516745bfeafc49904b496089");
  EXPECT_EQ(toHex(ByteView(ref, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

// F.3.13 CFB128-AES256.Encrypt and F.3.14 .Decrypt: all four segments.
constexpr const char* kCfb256Key =
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4";
constexpr const char* kCfb256Iv = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kCfb256Plain =
    "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710";
constexpr const char* kCfb256Cipher =
    "dc7e84bfda79164b7ecd8486985d3860" "39ffed143b28b1c832113c6331e5407b"
    "df10132415e54b92a13ed0a8267ae2f9" "75a385741ab9cef82031623d55b1e471";

TEST(Aes256, NistSp80038aCfb128AllSegmentsEncrypt) {
  EXPECT_EQ(toHex(aes256CfbEncrypt(fromHex(kCfb256Key), fromHex(kCfb256Iv),
                                   fromHex(kCfb256Plain))),
            kCfb256Cipher);
}

TEST(Aes256, NistSp80038aCfb128AllSegmentsDecrypt) {
  EXPECT_EQ(toHex(aes256CfbDecrypt(fromHex(kCfb256Key), fromHex(kCfb256Iv),
                                   fromHex(kCfb256Cipher))),
            kCfb256Plain);
}

TEST(Aes256, TableCipherMatchesByteSerialReference) {
  std::uint64_t x = 0x5eed5eed5eed5eedULL;  // splitmix64 stream
  const auto next = [&x] {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const auto fill = [&next](std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      p[i] = static_cast<std::uint8_t>(next() >> 56);
  };
  int mismatches = 0;
  for (int trial = 0; trial < 4096; ++trial) {
    std::uint8_t key[32], block[16], got[16], want[16];
    fill(key, sizeof(key));
    fill(block, sizeof(block));
    Aes256(ByteView(key, sizeof(key))).encryptBlock(block, got);
    ReferenceAes256(key).encryptBlock(block, want);
    if (!std::equal(got, got + 16, want) && ++mismatches <= 3)
      ADD_FAILURE() << "trial " << trial << " key " << toHex(ByteView(key, 32))
                    << " block " << toHex(ByteView(block, 16));
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(AesCfb, RoundTripsArbitraryLengths) {
  const Bytes key(32, 0x42);
  const Bytes iv(16, 0x24);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{100}, std::size_t{4096}}) {
    Bytes plain(n);
    for (std::size_t i = 0; i < n; ++i)
      plain[i] = static_cast<std::uint8_t>(i);
    EXPECT_EQ(aes256CfbDecrypt(key, iv, aes256CfbEncrypt(key, iv, plain)),
              plain)
        << "n=" << n;
  }
}

TEST(AesCfb, StreamingMatchesOneShot) {
  const Bytes key = fromHex(kCfb256Key);
  const Bytes iv = fromHex(kCfb256Iv);
  Bytes plain(600);
  for (std::size_t i = 0; i < plain.size(); ++i)
    plain[i] = static_cast<std::uint8_t>(i * 29 + 5);
  const Bytes cipher = aes256CfbEncrypt(key, iv, plain);
  // Chunk sizes that start, end and straddle block boundaries.
  const std::size_t chunks[] = {1, 15, 16, 17, 31, 33, 0, 5, 11, 64, 3, 48};

  for (const bool in_place : {false, true}) {
    AesCfbStream enc(key, iv), dec(key, iv);
    Bytes enc_out, dec_out;
    std::size_t off = 0;
    for (std::size_t k = 0; off < plain.size(); ++k) {
      const std::size_t n =
          std::min(chunks[k % std::size(chunks)], plain.size() - off);
      Bytes p(plain.begin() + static_cast<std::ptrdiff_t>(off),
              plain.begin() + static_cast<std::ptrdiff_t>(off + n));
      Bytes c(cipher.begin() + static_cast<std::ptrdiff_t>(off),
              cipher.begin() + static_cast<std::ptrdiff_t>(off + n));
      if (in_place) {
        enc.encryptInPlace(p);
        dec.decryptInPlace(c);
        appendBytes(enc_out, p);
        appendBytes(dec_out, c);
      } else {
        appendBytes(enc_out, enc.encrypt(p));
        appendBytes(dec_out, dec.decrypt(c));
      }
      off += n;
    }
    EXPECT_EQ(enc_out, cipher) << "in_place=" << in_place;
    EXPECT_EQ(dec_out, plain) << "in_place=" << in_place;
  }
}

TEST(AesCfb, CiphertextOfConstantInputIsHighEntropy) {
  const Bytes ct =
      aes256CfbEncrypt(Bytes(32, 1), Bytes(16, 2), Bytes(8192, 'A'));
  EXPECT_GT(shannonEntropy(ct), 7.5);
}

TEST(AesCfb, DifferentIvsDifferentCiphertext) {
  const Bytes plain = toBytes("same plaintext");
  EXPECT_NE(aes256CfbEncrypt(Bytes(32, 1), Bytes(16, 1), plain),
            aes256CfbEncrypt(Bytes(32, 1), Bytes(16, 2), plain));
}

// ---- Blinding: the paper's f : [0,2^8) -> [0,2^8) byte mapping ----

TEST(Blinding, ByteMapRoundTrips) {
  BlindingCodec codec(toBytes("operator-secret"));
  Bytes data(999);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31);
  EXPECT_EQ(codec.unblind(codec.blind(data)), data);
}

TEST(Blinding, ByteMapIsAPermutation) {
  BlindingCodec codec(toBytes("operator-secret"));
  Bytes all(256);
  for (int i = 0; i < 256; ++i)
    all[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes mapped = codec.blind(all);
  std::array<bool, 256> seen{};
  for (auto b : mapped) {
    EXPECT_FALSE(seen[b]) << "duplicate output byte";
    seen[b] = true;
  }
}

TEST(Blinding, MappingActuallyChangesProtocolBytes) {
  BlindingCodec codec(toBytes("operator-secret"));
  const Bytes data = toBytes("GET / HTTP/1.1");
  EXPECT_NE(codec.blind(data), data);
}

TEST(Blinding, EpochsAreIndependentButConsistentAcrossEndpoints) {
  const Bytes secret = toBytes("operator-secret");
  BlindingCodec e0(secret, 0), e1(secret, 1), e1_peer(secret, 1);
  const Bytes data = toBytes("some tunnel frame");
  EXPECT_NE(e0.blind(data), e1.blind(data));
  EXPECT_EQ(e1_peer.unblind(e1.blind(data)), data);
}

TEST(Blinding, RotateReKeysInPlace) {
  BlindingCodec codec(toBytes("operator-secret"), 0);
  const Bytes data = toBytes("payload");
  const Bytes before = codec.blind(data);
  codec.rotate(7);
  EXPECT_EQ(codec.epoch(), 7u);
  EXPECT_NE(codec.blind(data), before);
  EXPECT_EQ(codec.unblind(codec.blind(data)), data);
}

TEST(Blinding, DifferentSecretsDifferentMappings) {
  const Bytes data = toBytes("frame");
  EXPECT_NE(BlindingCodec(toBytes("secret-a")).blind(data),
            BlindingCodec(toBytes("secret-b")).blind(data));
}

TEST(Blinding, PrintableModeLooksLikeTextAndRoundTrips) {
  BlindingCodec codec(toBytes("s"), 0, BlindingMode::kPrintable);
  Bytes random(4096);
  std::uint32_t x = 99;
  for (auto& b : random) {
    x = x * 1664525 + 1013904223;
    b = static_cast<std::uint8_t>(x >> 16);
  }
  const Bytes blinded = codec.blind(random);
  EXPECT_GT(printableFraction(blinded), 0.99);
  EXPECT_LT(shannonEntropy(blinded), 6.5);
  EXPECT_EQ(codec.unblind(blinded), random);
}

TEST(Blinding, PrintableModeRoundTripsAllRemainders) {
  BlindingCodec codec(toBytes("s"), 3, BlindingMode::kPrintable);
  static constexpr std::array<std::uint8_t, 10> kHigh = {
      200, 201, 202, 203, 204, 205, 206, 207, 208, 209};
  for (std::size_t n = 0; n <= kHigh.size(); ++n) {
    const Bytes data(kHigh.begin(),
                     kHigh.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(codec.unblind(codec.blind(data)), data) << "n=" << n;
  }
}

TEST(Blinding, ExpansionFactors) {
  EXPECT_DOUBLE_EQ(BlindingCodec(toBytes("s")).expansionFactor(), 1.0);
  EXPECT_GT(BlindingCodec(toBytes("s"), 0, BlindingMode::kPrintable)
                .expansionFactor(),
            1.3);
}

// ---- entropy utilities (what the GFW's DPI computes) ----

TEST(Entropy, KnownValues) {
  EXPECT_DOUBLE_EQ(shannonEntropy(Bytes(100, 0x41)), 0.0);
  Bytes two(100);
  for (std::size_t i = 0; i < two.size(); ++i)
    two[i] = i % 2 ? 0x41 : 0x42;
  EXPECT_NEAR(shannonEntropy(two), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(shannonEntropy({}), 0.0);
}

TEST(Entropy, PrintableFraction) {
  EXPECT_DOUBLE_EQ(printableFraction(toBytes("hello")), 1.0);
  EXPECT_DOUBLE_EQ(printableFraction(Bytes{0x00, 0x01, 0x02, 0x03}), 0.0);
  EXPECT_NEAR(printableFraction(Bytes{'a', 0x00}), 0.5, 1e-9);
}

TEST(Entropy, ChiSquaredSeparatesTextFromCiphertext) {
  Bytes text;
  while (text.size() < 4096)
    appendBytes(text, toBytes("the quick brown fox "));
  const Bytes random =
      aes256CfbEncrypt(Bytes(32, 3), Bytes(16, 4), Bytes(4096, 0));
  EXPECT_GT(chiSquaredUniform(text), 10.0 * chiSquaredUniform(random));
}

}  // namespace
}  // namespace sc::crypto
