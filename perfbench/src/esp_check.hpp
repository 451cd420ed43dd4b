// ESP checker that shares no code with the node under test: it parses an
// egress frame by hand and opens its ESP payload with OpenSSL's EVP
// AES-128-GCM, using the tunnel's keying as the benchmark configured it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace perfbench {

/// Keying of one tunnel as written into its `enc_key` config: AES-128 key
/// followed by the 4-byte RFC 4106 salt.
struct TunnelKey {
  std::array<std::uint8_t, 16> key{};
  std::array<std::uint8_t, 4> salt{};
};

/// Header fields read from an egress frame without decrypting it.
struct EspView {
  bool ok = false;
  bool tagged = false;
  std::uint16_t vlan = 0;
  std::uint32_t spi = 0;
  std::uint32_t seq = 0;
  std::size_t esp_offset = 0;  ///< first byte of the ESP header
  std::size_t esp_length = 0;  ///< ESP header .. end of ICV
};

/// Parses Ethernet (optionally 802.1Q) | IPv4 (proto 50) | ESP headers.
EspView parse_esp_frame(std::span<const std::uint8_t> frame);

/// Opens the ESP payload of `frame` and compares it with `expected_inner`
/// (the inner IPv4 packet as submitted). Checks: the GCM tag with nonce =
/// (salt xor SPI) || IV and AAD = SPI || seq, the ESP trailer (pad bytes
/// 1..n, pad length, next header 4) and the inner packet byte for byte.
/// Returns an empty string on success, else the reason.
std::string check_esp_frame(std::span<const std::uint8_t> frame,
                            const TunnelKey& key,
                            std::span<const std::uint8_t> expected_inner);

/// Runs the checker's GCM primitive against published AES-128-GCM
/// known-answer vectors (McGrew & Viega test cases 1-4), including a
/// forged tag that must be rejected. Empty string on success.
std::string gcm_known_answer_tests();

}  // namespace perfbench
