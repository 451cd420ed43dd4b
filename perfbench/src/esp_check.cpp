#include "esp_check.hpp"

#include <openssl/evp.h>

#include <cstring>
#include <memory>
#include <vector>

namespace perfbench {
namespace {

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

struct CtxFree {
  void operator()(EVP_CIPHER_CTX* ctx) const { EVP_CIPHER_CTX_free(ctx); }
};

/// AES-128-GCM open with a 12-byte IV and a 16-byte tag. False on any
/// OpenSSL error or tag mismatch.
bool gcm_open(const std::uint8_t key[16], const std::uint8_t iv[12],
              std::span<const std::uint8_t> aad,
              std::span<const std::uint8_t> ct, const std::uint8_t tag[16],
              std::uint8_t* pt) {
  std::unique_ptr<EVP_CIPHER_CTX, CtxFree> ctx(EVP_CIPHER_CTX_new());
  if (!ctx) return false;
  int len = 0;
  if (EVP_DecryptInit_ex(ctx.get(), EVP_aes_128_gcm(), nullptr, nullptr,
                         nullptr) != 1 ||
      EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_SET_IVLEN, 12, nullptr) !=
          1 ||
      EVP_DecryptInit_ex(ctx.get(), nullptr, nullptr, key, iv) != 1) {
    return false;
  }
  if (!aad.empty() &&
      EVP_DecryptUpdate(ctx.get(), nullptr, &len, aad.data(),
                        static_cast<int>(aad.size())) != 1) {
    return false;
  }
  if (!ct.empty() &&
      EVP_DecryptUpdate(ctx.get(), pt, &len, ct.data(),
                        static_cast<int>(ct.size())) != 1) {
    return false;
  }
  std::uint8_t tag_copy[16];
  std::memcpy(tag_copy, tag, 16);
  if (EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_SET_TAG, 16, tag_copy) !=
      1) {
    return false;
  }
  std::uint8_t final_block[16];
  return EVP_DecryptFinal_ex(ctx.get(), final_block, &len) == 1;
}

std::vector<std::uint8_t> unhex(const char* hex) {
  std::vector<std::uint8_t> out;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (std::size_t i = 0; hex[i] != '\0' && hex[i + 1] != '\0'; i += 2) {
    out.push_back(
        static_cast<std::uint8_t>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace

EspView parse_esp_frame(std::span<const std::uint8_t> frame) {
  EspView view;
  if (frame.size() < 14) return view;
  std::size_t l3 = 14;
  std::uint16_t ether_type = be16(frame.data() + 12);
  if (ether_type == 0x8100) {
    if (frame.size() < 18) return view;
    view.tagged = true;
    view.vlan = be16(frame.data() + 14) & 0x0FFF;
    ether_type = be16(frame.data() + 16);
    l3 = 18;
  }
  if (ether_type != 0x0800 || frame.size() < l3 + 20) return view;
  const std::uint8_t* ip = frame.data() + l3;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
  const std::size_t total = be16(ip + 2);
  if ((ip[0] >> 4) != 4 || ihl < 20 || ip[9] != 50 || total < ihl + 8 ||
      l3 + total > frame.size()) {
    return view;
  }
  view.esp_offset = l3 + ihl;
  view.esp_length = total - ihl;
  view.spi = be32(frame.data() + view.esp_offset);
  view.seq = be32(frame.data() + view.esp_offset + 4);
  view.ok = true;
  return view;
}

std::string check_esp_frame(std::span<const std::uint8_t> frame,
                            const TunnelKey& key,
                            std::span<const std::uint8_t> expected_inner) {
  const EspView view = parse_esp_frame(frame);
  if (!view.ok) return "not an Ethernet/IPv4/ESP frame";
  // SPI(4) | seq(4) | IV(8) | ciphertext | ICV(16)
  constexpr std::size_t kHeader = 8;
  constexpr std::size_t kIv = 8;
  constexpr std::size_t kTag = 16;
  if (view.esp_length < kHeader + kIv + 2 + kTag) return "ESP too short";
  const std::uint8_t* esp = frame.data() + view.esp_offset;
  const std::size_t ct_len = view.esp_length - kHeader - kIv - kTag;

  std::uint8_t nonce[12];
  const std::uint32_t salt = be32(key.salt.data()) ^ view.spi;
  nonce[0] = static_cast<std::uint8_t>(salt >> 24);
  nonce[1] = static_cast<std::uint8_t>(salt >> 16);
  nonce[2] = static_cast<std::uint8_t>(salt >> 8);
  nonce[3] = static_cast<std::uint8_t>(salt);
  std::memcpy(nonce + 4, esp + kHeader, kIv);

  std::vector<std::uint8_t> plain(ct_len);
  if (!gcm_open(key.key.data(), nonce, {esp, kHeader},
                {esp + kHeader + kIv, ct_len}, esp + kHeader + kIv + ct_len,
                plain.data())) {
    return "GCM tag does not verify";
  }
  const std::uint8_t next_header = plain[ct_len - 1];
  const std::size_t pad_len = plain[ct_len - 2];
  if (next_header != 4) return "ESP next header is not IPv4";
  if (pad_len + 2 > ct_len) return "ESP pad length exceeds payload";
  const std::size_t inner_len = ct_len - 2 - pad_len;
  for (std::size_t i = 0; i < pad_len; ++i) {
    if (plain[inner_len + i] != static_cast<std::uint8_t>(i + 1)) {
      return "ESP padding bytes are not 1..n";
    }
  }
  if ((inner_len + pad_len + 2) % 4 != 0) return "ESP payload misaligned";
  if (inner_len != expected_inner.size() ||
      std::memcmp(plain.data(), expected_inner.data(), inner_len) != 0) {
    return "decrypted inner packet differs from the submitted one";
  }
  return {};
}

std::string gcm_known_answer_tests() {
  struct Vector {
    const char* key;
    const char* iv;
    const char* aad;
    const char* plain;
    const char* cipher;
    const char* tag;
  };
  static const Vector kVectors[] = {
      {"00000000000000000000000000000000", "000000000000000000000000", "",
       "", "", "58e2fccefa7e3061367f1d57a4e7455a"},
      {"00000000000000000000000000000000", "000000000000000000000000", "",
       "00000000000000000000000000000000", "0388dace60b6a392f328c2b971b2fe78",
       "ab6e47d42cec13bdf53a67b21257bddf"},
      {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888", "",
       "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
       "4d5c2af327cd64a62cf35abd2ba6fab4"},
      {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
       "feedfacedeadbeeffeedfacedeadbeefabaddad2",
       "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
       "5bc94fbc3221a5db94fae95ae7121a47"},
  };
  int index = 1;
  for (const Vector& v : kVectors) {
    const auto key = unhex(v.key);
    const auto iv = unhex(v.iv);
    const auto aad = unhex(v.aad);
    const auto plain = unhex(v.plain);
    const auto cipher = unhex(v.cipher);
    auto tag = unhex(v.tag);
    std::vector<std::uint8_t> out(cipher.size() + 1);
    if (!gcm_open(key.data(), iv.data(), aad, cipher, tag.data(),
                  out.data()) ||
        !std::equal(plain.begin(), plain.end(), out.begin())) {
      return "GCM known-answer test case " + std::to_string(index) +
             " failed";
    }
    tag[0] ^= 0x01;
    if (gcm_open(key.data(), iv.data(), aad, cipher, tag.data(),
                 out.data())) {
      return "GCM known-answer test case " + std::to_string(index) +
             " accepted a forged tag";
    }
    ++index;
  }
  return {};
}

}  // namespace perfbench
