// ESP wire-level tests for the IpsecEndpoint pipeline:
//
//  * Known-answer frames. One encapsulated frame per transform, ESN off
//    and on, pinned byte for byte, through process() and as lane 0 of a
//    process_burst() batch. The expected bytes were produced by the
//    earlier per-transform encap bodies (CBC then staged through vectors
//    rather than rebuilt in place), so they prove the one pipeline kept
//    the wire format.
//  * A deterministic mutation harness. Genuine frames are mutated (bit
//    flips at every byte, truncations, extensions, plus the
//    traffic::EspAdversary generators) and offered alone or as one lane
//    of an 8-frame burst. Every mutant must either decapsulate to
//    exactly its original inner packet or be dropped under exactly one
//    counted reason, and a drop must leave the SA's replay window,
//    lifetime usage and state untouched. Bursts are also checked
//    against a twin responder fed the same frames one at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "packet/headers.hpp"
#include "traffic/adversary.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {
namespace {

constexpr const char* kEncKeyWithSalt =
    "000102030405060708090a0b0c0d0e0fa0a1a2a3";
constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";

NfConfig tunnel_config(bool initiator, const std::string& transform,
                       bool esn) {
  return {{"local_ip", initiator ? "198.51.100.1" : "198.51.100.2"},
          {"peer_ip", initiator ? "198.51.100.2" : "198.51.100.1"},
          {"spi_out", initiator ? "1001" : "2002"},
          {"spi_in", initiator ? "2002" : "1001"},
          {"enc_key", kEncKeyWithSalt},
          {"auth_key", kAuthKey},
          {"esp_transform", transform},
          {"esn", esn ? "on" : "off"}};
}

packet::PacketBuffer udp_frame(std::vector<std::uint8_t> payload) {
  static std::vector<std::uint8_t> storage;
  storage = std::move(payload);
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(1);
  spec.eth_dst = packet::MacAddress::from_id(2);
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.5");
  spec.src_port = 5001;
  spec.dst_port = 5001;
  spec.payload = storage;
  return packet::build_udp_frame(spec);
}

/// Everything after the Ethernet header: the inner IP packet a tunnel
/// must deliver unchanged (the red-side Ethernet header is rebuilt from
/// tunnel config on decap).
std::vector<std::uint8_t> l3_of(const packet::PacketBuffer& frame) {
  auto data = frame.data();
  return {data.begin() + packet::kEthernetHeaderSize, data.end()};
}

// ---------------------------------------------------------------------------
// Known-answer frames
// ---------------------------------------------------------------------------

struct KnownAnswer {
  const char* transform;
  bool esn;
  const char* wire_hex;
};

// 45-byte payload (i * 7 + 3), 40-hex enc_key (GCM salt a0a1a2a3). ESN
// frames carry seq 2^32 + 16, so seq-hi = 1 feeds the AAD / ICV input.
constexpr KnownAnswer kKnownAnswers[] = {
    {"gcm", false,
     "0200000000e10200000000e0080045000080000140004032e5e0c6336401c6336402"
     "000003e9000000010000000000000001a768d22f72bb4fb11174a70f060a9c2a19c8"
     "644614f4e2101622f282ed7172b86b890418074682799442f581ef2384fc53359872"
     "6250d14a2fa6120c1a004a1afe3b5a9bd0263c0416cc0ded6a022cdfa16cee344c78"
     "ab12c1f8a389"},
    {"gcm", true,
     "0200000000e10200000000e0080045000080001040004032e5d1c6336401c6336402"
     "000003e9000000100000000100000010d36fe635f20a63ab0bda048384b7a7fee009"
     "8bbab25b5559e151b08836ba7aa53bf274ec57bcf70687ede70581008d46ababbad5"
     "59bcb9180429d3ffcc5ccca8d7ac440d2cf0c7faa7db21816f635b67158afb125f28"
     "d366dedeacf4"},
    {"cbc-hmac", false,
     "0200000000e10200000000e008004500008c000140004032e5d4c6336401c6336402"
     "000003e90000000184c658734057ef609da5c83235b4920d695b13ed4510e4af0315"
     "331eac5238589614dc2ebd506948729305360f00bfdf2f4f9b97d12b6efd8fd3739e"
     "ca54c40a297c580042199690677f029fe871356677aa95fd079a67eed55818671fdf"
     "9518193aaf2900653dd04d561726be83d1c8"},
    {"cbc-hmac", true,
     "0200000000e10200000000e008004500008c001040004032e5c5c6336401c6336402"
     "000003e900000010c344505b6d992089c2682779adc7eac1d9a955ace85f58993a4f"
     "5ba1012efd021359cb89e224653d72fb2133d7fa86318aef2e3bb50e781bf1d7447e"
     "b667cf754a78075a15d8baa9b2229fc0554a2986599ee52b7f53219b4be23964aa4d"
     "85de805757eb37d941bf683de190b02539c8"},
};

packet::PacketBuffer known_answer_plaintext() {
  std::vector<std::uint8_t> payload(45);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return udp_frame(std::move(payload));
}

IpsecEndpoint known_answer_initiator(const KnownAnswer& ka) {
  IpsecEndpoint endpoint;
  EXPECT_TRUE(endpoint
                  .configure(kDefaultContext,
                             tunnel_config(true, ka.transform, ka.esn))
                  .is_ok());
  if (ka.esn) endpoint.outbound_sa(kDefaultContext)->seq = (1ULL << 32) + 15;
  return endpoint;
}

TEST(EspKnownAnswer, SingleFrameWireBytesArePinned) {
  for (const KnownAnswer& ka : kKnownAnswers) {
    IpsecEndpoint initiator = known_answer_initiator(ka);
    auto out = initiator.process(kDefaultContext, 0, 0,
                                 known_answer_plaintext());
    ASSERT_EQ(out.size(), 1u) << ka.transform << " esn=" << ka.esn;
    EXPECT_EQ(util::hex_encode(out[0].frame.data()), ka.wire_hex)
        << ka.transform << " esn=" << ka.esn;
  }
}

TEST(EspKnownAnswer, BurstLaneZeroMatchesAndDecapsToOriginal) {
  for (const KnownAnswer& ka : kKnownAnswers) {
    IpsecEndpoint initiator = known_answer_initiator(ka);
    packet::PacketBurst burst;
    for (int i = 0; i < 8; ++i) burst.push_back(known_answer_plaintext());
    auto out = initiator.process_burst(kDefaultContext, 0, 0,
                                       std::move(burst));
    ASSERT_EQ(out.size(), 8u) << ka.transform << " esn=" << ka.esn;
    EXPECT_EQ(util::hex_encode(out[0].frame.data()), ka.wire_hex)
        << ka.transform << " esn=" << ka.esn;

    IpsecEndpoint responder;
    ASSERT_TRUE(responder
                    .configure(kDefaultContext,
                               tunnel_config(false, ka.transform, ka.esn))
                    .is_ok());
    if (ka.esn) {
      responder.inbound_sa(kDefaultContext)->replay_top = (1ULL << 32) + 15;
    }
    packet::PacketBurst black;
    for (NfOutput& o : out) black.push_back(std::move(o.frame));
    auto dec = responder.process_burst(kDefaultContext, 1, 0,
                                       std::move(black));
    ASSERT_EQ(dec.size(), 8u) << ka.transform << " esn=" << ka.esn;
    for (const NfOutput& o : dec) {
      EXPECT_EQ(l3_of(o.frame), l3_of(known_answer_plaintext()));
    }
  }
}

// ---------------------------------------------------------------------------
// Batch boundaries: state an earlier lane changes
// ---------------------------------------------------------------------------

/// Black-side frames from an initiator whose next sequence numbers are
/// `seqs` (set one by one through the outbound SA hook).
packet::PacketBurst frames_at(const std::string& transform, bool esn,
                              std::initializer_list<std::uint64_t> seqs) {
  IpsecEndpoint initiator;
  EXPECT_TRUE(initiator
                  .configure(kDefaultContext,
                             tunnel_config(true, transform, esn))
                  .is_ok());
  packet::PacketBurst black;
  std::uint64_t seed = 0;
  for (std::uint64_t seq : seqs) {
    initiator.outbound_sa(kDefaultContext)->seq = seq - 1;
    util::Rng rng(++seed);
    auto out = initiator.process(kDefaultContext, 0, 0,
                                 udp_frame(rng.bytes(60)));
    EXPECT_EQ(out.size(), 1u);
    black.push_back(std::move(out[0].frame));
  }
  return black;
}

/// Runs `black` through one responder as a burst and through a twin one
/// frame at a time; both must end with the same outputs and counters.
IpsecStats expect_burst_matches_serial(const NfConfig& config,
                                       std::uint64_t replay_top,
                                       packet::PacketBurst black) {
  IpsecEndpoint burst_rx;
  IpsecEndpoint serial_rx;
  for (IpsecEndpoint* rx : {&burst_rx, &serial_rx}) {
    EXPECT_TRUE(rx->configure(kDefaultContext, config).is_ok());
    rx->inbound_sa(kDefaultContext)->replay_top = replay_top;
  }
  std::vector<std::vector<std::uint8_t>> serial;
  for (const packet::PacketBuffer& frame : black) {
    for (NfOutput& o : serial_rx.process(kDefaultContext, 1, 0, frame.copy())) {
      serial.push_back(l3_of(o.frame));
    }
  }
  auto out = burst_rx.process_burst(kDefaultContext, 1, 0, std::move(black));
  EXPECT_EQ(out.size(), serial.size());
  for (std::size_t i = 0; i < std::min(out.size(), serial.size()); ++i) {
    EXPECT_EQ(l3_of(out[i].frame), serial[i]) << "output " << i;
  }
  const IpsecStats b = burst_rx.stats();
  const IpsecStats s = serial_rx.stats();
  EXPECT_EQ(b.decapsulated, s.decapsulated);
  EXPECT_EQ(b.auth_failures, s.auth_failures);
  EXPECT_EQ(b.replay_drops, s.replay_drops);
  EXPECT_EQ(b.lifetime_drops, s.lifetime_drops);
  EXPECT_EQ(burst_rx.inbound_sa(kDefaultContext)->replay_top.load(),
            serial_rx.inbound_sa(kDefaultContext)->replay_top.load());
  EXPECT_EQ(burst_rx.inbound_sa(kDefaultContext)->state.load(),
            serial_rx.inbound_sa(kDefaultContext)->state.load());
  return b;
}

TEST(EspPipeline, EsnInferenceSeesTheWindowEarlierLanesMoved) {
  // The window top sits 100 below a seq-lo wrap. Lane 0 (2^32 + 200)
  // moves it past the wrap; lane 1's seq-lo (0xFFFFFFF0) then infers
  // seq-hi 1, not the 0 the untouched window would give — so the serial
  // order fails it on authentication. The batch must agree.
  const std::uint64_t wrap = 1ULL << 32;
  for (const char* transform : {"gcm", "cbc-hmac"}) {
    const IpsecStats stats = expect_burst_matches_serial(
        tunnel_config(false, transform, true), wrap - 100,
        frames_at(transform, true, {wrap + 200, wrap - 16, wrap + 201}));
    EXPECT_EQ(stats.decapsulated, 2u) << transform;
    EXPECT_EQ(stats.auth_failures, 1u) << transform;
  }
}

TEST(EspPipeline, VolumeLifetimesCutABurstWhereSerialDoes) {
  for (const char* transform : {"gcm", "cbc-hmac"}) {
    // Outbound: the sixth packet meets the hard packet limit.
    NfConfig init = tunnel_config(true, transform, false);
    init["life_hard_packets"] = "5";
    IpsecEndpoint initiator;
    ASSERT_TRUE(initiator.configure(kDefaultContext, init).is_ok());
    packet::PacketBurst burst;
    for (int i = 0; i < 8; ++i) burst.push_back(known_answer_plaintext());
    auto enc = initiator.process_burst(kDefaultContext, 0, 0,
                                       std::move(burst));
    EXPECT_EQ(enc.size(), 5u) << transform;
    EXPECT_EQ(initiator.stats().lifetime_drops, 3u) << transform;

    // Inbound: the same limit on the responder stops the burst midway.
    NfConfig resp = tunnel_config(false, transform, false);
    resp["life_hard_packets"] = "3";
    const IpsecStats stats = expect_burst_matches_serial(
        resp, 0, frames_at(transform, false, {1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(stats.decapsulated, 3u) << transform;
    EXPECT_EQ(stats.lifetime_drops, 3u) << transform;
  }
}

// ---------------------------------------------------------------------------
// Mutation harness
// ---------------------------------------------------------------------------

/// One SA's drop-relevant state, compared whole.
struct SaSnapshot {
  std::uint64_t replay_top = 0;
  std::uint64_t replay_bitmap = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  SaState state = SaState::kActive;

  explicit SaSnapshot(const SecurityAssociation& sa)
      : replay_top(sa.replay_top),
        replay_bitmap(sa.replay_bitmap),
        packets(sa.packets),
        bytes(sa.bytes),
        state(sa.state) {}
  bool operator==(const SaSnapshot&) const = default;
};

std::uint64_t drops(const IpsecEndpoint& ep) {
  const IpsecStats s = ep.stats();
  return s.auth_failures + s.replay_drops + s.malformed + s.no_sa +
         s.lifetime_drops;
}

/// Rewrites the outer IPv4 total_length to cover the whole frame.
void cover_whole_frame(packet::PacketBuffer& frame) {
  auto l3 = frame.data().subspan(packet::kEthernetHeaderSize);
  packet::Ipv4Header hdr = *packet::parse_ipv4(l3);
  hdr.total_length = static_cast<std::uint16_t>(l3.size());
  packet::write_ipv4(hdr, l3.subspan(0, hdr.header_size()));
}

/// The mutations applied to a genuine frame, by index. Every index below
/// count() names one deterministic mutant.
class Mutator {
 public:
  Mutator(std::size_t frame_size, std::size_t iv_size, std::size_t icv_size)
      : frame_size_(frame_size), iv_size_(iv_size), icv_size_(icv_size) {}

  // Bit flips at every byte, a raw cut at every 3rd length, extensions
  // (Ethernet padding and length-covered), then the adversary's own
  // generators (ciphertext, ICV, the truncation sweep, garbage ESP).
  [[nodiscard]] std::size_t count() const {
    return frame_size_ + cuts() + kExtensions + kAdversarial;
  }

  packet::PacketBuffer apply(std::size_t index,
                             const packet::PacketBuffer& genuine,
                             util::Rng& rng,
                             traffic::EspAdversary& adversary) const {
    packet::PacketBuffer out = genuine.copy();
    if (index < frame_size_) {
      out[index] ^= static_cast<std::uint8_t>(1U << rng.uniform(0, 7));
      return out;
    }
    index -= frame_size_;
    if (index < cuts()) {
      out.trim(index * 3);
      return out;
    }
    index -= cuts();
    if (index < kExtensions) {
      const std::size_t grow = index % 2 == 0 ? 1 : 16;
      const auto junk = rng.bytes(grow);
      std::copy(junk.begin(), junk.end(), out.push_back(grow).begin());
      if (index >= 2) cover_whole_frame(out);
      return out;
    }
    index -= kExtensions;
    switch (index) {
      case 0:
        return adversary.corrupt_ciphertext(genuine, icv_size_);
      case 1:
        return adversary.corrupt_icv(genuine, icv_size_);
      case 2:
        return adversary.garbage_esp(genuine, 40);
      default: {
        auto sweep = adversary.truncation_sweep(genuine, iv_size_);
        return std::move(sweep[(index - 3) % sweep.size()]);
      }
    }
  }

 private:
  static constexpr std::size_t kExtensions = 4;
  static constexpr std::size_t kAdversarial = 8;
  [[nodiscard]] std::size_t cuts() const { return frame_size_ / 3; }

  std::size_t frame_size_;
  std::size_t iv_size_;
  std::size_t icv_size_;
};

struct MutationCase {
  std::string transform;
  bool esn;
};

void PrintTo(const MutationCase& c, std::ostream* os) {
  *os << c.transform << (c.esn ? " esn" : "");
}

class EspMutation : public ::testing::TestWithParam<MutationCase> {
 protected:
  void SetUp() override {
    const MutationCase& c = GetParam();
    ASSERT_TRUE(initiator_
                    .configure(kDefaultContext,
                               tunnel_config(true, c.transform, c.esn))
                    .is_ok());
    for (IpsecEndpoint* rx : {&responder_, &twin_, &reference_}) {
      ASSERT_TRUE(rx->configure(kDefaultContext,
                                tunnel_config(false, c.transform, c.esn))
                      .is_ok());
    }
    if (c.esn) {
      // Start just below a seq-lo wrap so the run crosses seq-hi 0 -> 1.
      const std::uint64_t start = (1ULL << 32) - 200;
      initiator_.outbound_sa(kDefaultContext)->seq = start;
      for (IpsecEndpoint* rx : {&responder_, &twin_, &reference_}) {
        rx->inbound_sa(kDefaultContext)->replay_top = start;
        rx->inbound_sa(kDefaultContext)->replay_bitmap = 1;
      }
    }
  }

  /// A fresh genuine frame (new sequence number) and its inner packet.
  std::pair<packet::PacketBuffer, std::vector<std::uint8_t>> genuine() {
    util::Rng rng(++seed_);
    packet::PacketBuffer plain = udp_frame(rng.bytes(40 + seed_ % 23));
    std::vector<std::uint8_t> inner = l3_of(plain);
    auto out = initiator_.process(kDefaultContext, 0, 0, std::move(plain));
    EXPECT_EQ(out.size(), 1u);
    return {std::move(out[0].frame), std::move(inner)};
  }

  Mutator mutator() {
    const bool gcm = GetParam().transform == "gcm";
    return Mutator(genuine().first.size(),
                   gcm ? IpsecEndpoint::kGcmIvSize : IpsecEndpoint::kIvSize,
                   gcm ? IpsecEndpoint::kGcmIcvSize : IpsecEndpoint::kIcvSize);
  }

  static SaSnapshot in_sa(IpsecEndpoint& ep) {
    return SaSnapshot(*ep.inbound_sa(kDefaultContext));
  }

  IpsecEndpoint initiator_;
  IpsecEndpoint responder_;  ///< receives the mutants
  IpsecEndpoint twin_;       ///< same frames, one process() call each
  IpsecEndpoint reference_;  ///< only the frames that were delivered
  std::uint64_t seed_ = 0;
};

TEST_P(EspMutation, SingleFrameMutantsDecapExactlyOrDropOnce) {
  const Mutator m = mutator();
  util::Rng rng(7);
  traffic::EspAdversary adversary(11);
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < m.count(); ++i) {
    auto [frame, inner] = genuine();
    packet::PacketBuffer mutant = m.apply(i, frame, rng, adversary);
    const SaSnapshot before = in_sa(responder_);
    const std::uint64_t drops_before = drops(responder_);
    auto out = responder_.process(kDefaultContext, 1, 0, std::move(mutant));
    if (out.empty()) {
      EXPECT_EQ(drops(responder_), drops_before + 1) << "mutant " << i;
      EXPECT_EQ(in_sa(responder_), before) << "mutant " << i;
    } else {
      ASSERT_EQ(out.size(), 1u) << "mutant " << i;
      EXPECT_EQ(l3_of(out[0].frame), inner) << "mutant " << i;
      EXPECT_EQ(drops(responder_), drops_before) << "mutant " << i;
      ++delivered;
    }
  }
  // A replay of a delivered frame is one more single-reason drop.
  auto [frame, inner] = genuine();
  ASSERT_EQ(responder_.process(kDefaultContext, 1, 0, frame.copy()).size(),
            1u);
  const SaSnapshot before = in_sa(responder_);
  EXPECT_TRUE(
      responder_.process(kDefaultContext, 1, 0, std::move(frame)).empty());
  EXPECT_EQ(in_sa(responder_), before);
  // Mutations outside the authenticated bytes (outer MACs, IP TTL and
  // identification, Ethernet padding) survive; everything else drops.
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(responder_.stats().decapsulated, delivered + 1);
}

TEST_P(EspMutation, BurstMutantsMatchSerialAndLeaveStateUntouched) {
  constexpr std::size_t kBurst = 8;
  const Mutator m = mutator();
  util::Rng rng(13);
  traffic::EspAdversary adversary(17);
  for (std::size_t i = 0; i < m.count(); ++i) {
    const std::size_t lane = i % kBurst;
    std::vector<packet::PacketBuffer> frames;
    std::vector<std::vector<std::uint8_t>> inners;
    for (std::size_t k = 0; k < kBurst; ++k) {
      auto [frame, inner] = genuine();
      frames.push_back(std::move(frame));
      inners.push_back(std::move(inner));
    }
    packet::PacketBuffer original = std::move(frames[lane]);
    frames[lane] = m.apply(i, original, rng, adversary);

    packet::PacketBurst burst;
    for (const auto& f : frames) burst.push_back(f.copy());
    const std::uint64_t drops_before = drops(responder_);
    auto out = responder_.process_burst(kDefaultContext, 1, 0,
                                        std::move(burst));
    const bool mutant_delivered = out.size() == kBurst;
    ASSERT_GE(out.size(), kBurst - 1) << "mutant " << i;
    EXPECT_EQ(drops(responder_), drops_before + kBurst - out.size())
        << "mutant " << i;
    for (std::size_t k = 0, o = 0; k < kBurst; ++k) {
      if (k == lane && !mutant_delivered) continue;
      EXPECT_EQ(l3_of(out[o++].frame), inners[k])
          << "mutant " << i << " lane " << k;
    }

    // Twin: the same eight frames one process() at a time.
    std::vector<std::vector<std::uint8_t>> serial;
    for (const auto& f : frames) {
      for (NfOutput& o : twin_.process(kDefaultContext, 1, 0, f.copy())) {
        serial.push_back(l3_of(o.frame));
      }
    }
    ASSERT_EQ(serial.size(), out.size()) << "mutant " << i;
    for (std::size_t k = 0; k < out.size(); ++k) {
      EXPECT_EQ(serial[k], l3_of(out[k].frame)) << "mutant " << i;
    }
    EXPECT_EQ(in_sa(twin_), in_sa(responder_)) << "mutant " << i;

    // Reference: only the frames that got through. A dropped mutant must
    // have left no trace in the SA the others updated.
    for (std::size_t k = 0; k < kBurst; ++k) {
      if (k == lane && !mutant_delivered) continue;
      EXPECT_EQ(reference_
                    .process(kDefaultContext, 1, 0,
                             k == lane ? original.copy() : frames[k].copy())
                    .size(),
                1u);
    }
    EXPECT_EQ(in_sa(reference_), in_sa(responder_)) << "mutant " << i;
  }
  const IpsecStats burst_stats = responder_.stats();
  const IpsecStats serial_stats = twin_.stats();
  EXPECT_EQ(burst_stats.decapsulated, serial_stats.decapsulated);
  EXPECT_EQ(burst_stats.auth_failures, serial_stats.auth_failures);
  EXPECT_EQ(burst_stats.replay_drops, serial_stats.replay_drops);
  EXPECT_EQ(burst_stats.malformed, serial_stats.malformed);
  EXPECT_EQ(burst_stats.no_sa, serial_stats.no_sa);
}

INSTANTIATE_TEST_SUITE_P(
    Transforms, EspMutation,
    ::testing::Values(MutationCase{"gcm", false}, MutationCase{"gcm", true},
                      MutationCase{"cbc-hmac", false},
                      MutationCase{"cbc-hmac", true}),
    [](const ::testing::TestParamInfo<MutationCase>& info) {
      std::string name = info.param.transform == "gcm" ? "Gcm" : "CbcHmac";
      return name + (info.param.esn ? "Esn" : "");
    });

}  // namespace
}  // namespace nnfv::nnf
