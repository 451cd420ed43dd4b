#include "nnf/ipsec.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "crypto/backend.hpp"
#include "crypto/cipher_modes.hpp"
#include "crypto/hmac.hpp"
#include "exec/priority.hpp"
#include "packet/checksum.hpp"
#include "util/byteorder.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {

namespace {

util::Status parse_key(const std::string& hex, std::span<std::uint8_t> out) {
  std::vector<std::uint8_t> bytes;
  if (!util::hex_decode(hex, bytes) || bytes.size() != out.size()) {
    return util::invalid_argument("ipsec: key must be " +
                                  std::to_string(out.size() * 2) +
                                  " hex chars");
  }
  std::copy(bytes.begin(), bytes.end(), out.begin());
  return util::Status::ok();
}

/// 32 hex chars = AES-128 key; 40 = key + 4-byte GCM salt (the RFC 4106
/// §8.1 keying-material order). cbc-hmac ignores the salt.
util::Status parse_enc_key(const std::string& hex,
                           std::array<std::uint8_t, 16>& key,
                           std::array<std::uint8_t, 4>& salt) {
  std::vector<std::uint8_t> bytes;
  if (!util::hex_decode(hex, bytes) ||
      (bytes.size() != 16 && bytes.size() != 20)) {
    return util::invalid_argument(
        "ipsec: enc_key must be 32 hex chars (AES-128) or 40 (AES-128 "
        "+ GCM salt)");
  }
  std::copy_n(bytes.begin(), 16, key.begin());
  if (bytes.size() == 20) {
    std::copy_n(bytes.begin() + 16, 4, salt.begin());
  } else {
    salt.fill(0);
  }
  return util::Status::ok();
}

util::Status parse_spi(const std::string& key, const std::string& value,
                       std::uint32_t& out) {
  std::uint64_t spi = 0;
  if (!util::parse_u64(value, spi) || spi == 0 || spi > 0xFFFFFFFFULL) {
    return util::invalid_argument("ipsec: bad " + key + " '" + value + "'");
  }
  out = static_cast<std::uint32_t>(spi);
  return util::Status::ok();
}

util::Status parse_mac(const std::string& text, packet::MacAddress& out) {
  auto mac = packet::MacAddress::parse(text);
  if (!mac.has_value()) {
    return util::invalid_argument("ipsec: bad MAC '" + text + "'");
  }
  out = *mac;
  return util::Status::ok();
}

util::Status parse_count(const std::string& key, const std::string& value,
                         std::uint64_t& out) {
  if (!util::parse_u64(value, out)) {
    return util::invalid_argument("ipsec: bad " + key + " '" + value + "'");
  }
  return util::Status::ok();
}

/// Deterministic unpredictable IV: AES-encrypt the (SPI, seq) block.
std::array<std::uint8_t, 16> derive_iv(const crypto::Aes& aes,
                                       std::uint32_t spi, std::uint64_t seq) {
  std::uint8_t block[16] = {};
  util::store_be32(block, spi);
  util::store_be64(block + 8, seq);
  std::array<std::uint8_t, 16> iv{};
  aes.encrypt_block(block, iv.data());
  return iv;
}

/// RFC 4304 Appendix A seq-hi recovery: given the 32-bit seq-lo off the
/// wire and the highest authenticated sequence (the replay window's
/// `top`), infer the high half that places the packet inside or above
/// the window. The result feeds the integrity check, so a wrong
/// inference (a seq-lo replayed from another 2^32 cycle) fails
/// authentication rather than advancing the window — recovery itself
/// never trusts the wire.
std::uint64_t esn_recover_seq(std::uint64_t top, std::uint32_t seql) {
  constexpr std::uint32_t kWindow = IpsecEndpoint::kReplayWindow;
  const auto tl = static_cast<std::uint32_t>(top);
  const auto th = static_cast<std::uint32_t>(top >> 32);
  std::uint32_t seqh;
  if (tl >= kWindow - 1) {
    // Window lies within one seq-lo cycle: a seq-lo below the window's
    // bottom can only be the *next* cycle.
    seqh = seql >= tl - (kWindow - 1) ? th : th + 1;
  } else {
    // Window straddles a seq-lo wrap: large seq-lo values belong to the
    // previous cycle (the subtraction wraps mod 2^32 on purpose).
    seqh = seql >= tl - (kWindow - 1) ? th - 1 : th;
  }
  return (static_cast<std::uint64_t>(seqh) << 32) | seql;
}

/// Integrity-check sequence material. Without ESN this reproduces the
/// 8-byte wire ESP header (SPI || seq-lo); with ESN it is
/// SPI || seq-hi || seq-lo (12 bytes, RFC 4106 §5) — seq-hi never
/// appears on the wire, which is exactly what binds the receiver's
/// recovered value into the tag. Returns the AAD length.
std::size_t esp_aad(const SecurityAssociation& sa, std::uint64_t seq,
                    std::uint8_t aad[12]) {
  util::store_be32(aad, sa.spi);
  if (sa.esn) {
    util::store_be64(aad + 4, seq);
    return 12;
  }
  util::store_be32(aad + 4, static_cast<std::uint32_t>(seq));
  return 8;
}

/// GCM nonce: (salt ^ SPI) || explicit IV. The two directions of a
/// tunnel share one enc_key + salt here (single `enc_key` config), so
/// the per-direction SPI MUST feed the nonce — otherwise the initiator's
/// packet N and the responder's packet N would encrypt under the same
/// (key, nonce) pair, which for GCM leaks plaintext XORs and the GHASH
/// subkey. This is the GCM analogue of derive_iv() mixing the SPI into
/// the CBC IV; configure() enforces spi_out != spi_in.
void gcm_nonce(const SecurityAssociation& sa,
               const std::array<std::uint8_t, 4>& salt,
               const std::uint8_t iv[8],
               std::uint8_t nonce[crypto::GcmContext::kIvSize]) {
  util::store_be32(nonce, util::load_be32(salt.data()) ^ sa.spi);
  std::memcpy(nonce + 4, iv, 8);
}

/// HMAC-SHA256-128 ICV input (RFC 4303 §2.8): ESP header | IV |
/// ciphertext, from the cached ipad midstate; with ESN the 32-bit seq-hi
/// is appended to the authenticated data but never transmitted (RFC 4303
/// §2.2.1). The first kIcvSize bytes of the result are the ICV.
std::array<std::uint8_t, crypto::HmacSha256::kDigestSize> cbc_icv(
    const crypto::HmacSha256& tmpl, std::span<const std::uint8_t> authed,
    const SecurityAssociation& sa, std::uint64_t seq) {
  crypto::HmacSha256 hmac = tmpl;
  hmac.update(authed);
  if (sa.esn) {
    std::uint8_t hi[4];
    util::store_be32(hi, static_cast<std::uint32_t>(seq >> 32));
    hmac.update(hi);
  }
  return hmac.final();
}

/// What the pipeline needs to know about a transform's wire layout.
struct EspLayout {
  std::size_t iv_size;
  std::size_t icv_size;
  std::size_t pad_align;  ///< (payload | pad_len | next_header) alignment
  std::size_t min_ct;     ///< smallest well-formed ciphertext
};

/// Indexed by EspTransform. GCM is a stream mode, so its trailer only
/// needs RFC 4303's 4-byte alignment; CBC works in whole AES blocks.
constexpr EspLayout kEspLayouts[] = {
    {IpsecEndpoint::kGcmIvSize, IpsecEndpoint::kGcmIcvSize, 4, 2},
    {IpsecEndpoint::kIvSize, IpsecEndpoint::kIcvSize, crypto::Aes::kBlockSize,
     crypto::Aes::kBlockSize},
};

static_assert(static_cast<int>(EspTransform::kGcm) == 0 &&
              static_cast<int>(EspTransform::kCbcHmac) == 1);

const EspLayout& esp_layout(EspTransform transform) {
  return kEspLayouts[static_cast<std::size_t>(transform)];
}

bool has_volume_lifetime(const SaLifetime& lt) {
  return lt.soft_packets != 0 || lt.hard_packets != 0 || lt.soft_bytes != 0 ||
         lt.hard_bytes != 0;
}

bool soft_expired(const SaLifetime& lt, const SecurityAssociation& sa) {
  if (lt.soft_packets != 0 && sa.packets >= lt.soft_packets) return true;
  if (lt.soft_bytes != 0 && sa.bytes >= lt.soft_bytes) return true;
  // Sequence headroom: soft-trigger before the sequence space runs out.
  const std::uint64_t ceiling = sa.seq_ceiling();
  if (lt.seq_headroom != 0 && ceiling - sa.seq <= lt.seq_headroom) {
    return true;
  }
  return false;
}

bool hard_expired(const SaLifetime& lt, const SecurityAssociation& sa) {
  if (lt.hard_packets != 0 && sa.packets >= lt.hard_packets) return true;
  if (lt.hard_bytes != 0 && sa.bytes >= lt.hard_bytes) return true;
  return false;
}

json::Value sa_to_json(const SecurityAssociation& sa) {
  json::Object doc;
  doc["spi"] = static_cast<std::uint64_t>(sa.spi);
  doc["state"] = std::string(sa_state_name(sa.state));
  doc["esn"] = sa.esn;
  doc["seq"] = sa.seq.load();
  doc["replay_top"] = sa.replay_top.load();
  doc["packets"] = sa.packets.load();
  doc["bytes"] = sa.bytes.load();
  doc["auth_fail"] = sa.auth_fail.load();
  doc["replay_drops"] = sa.replay_drops.load();
  doc["lifetime_drops"] = sa.lifetime_drops.load();
  doc["malformed"] = sa.malformed.load();
  return doc;
}

}  // namespace

std::string_view sa_state_name(SaState state) {
  switch (state) {
    case SaState::kActive:
      return "active";
    case SaState::kRekeying:
      return "rekeying";
    case SaState::kDraining:
      return "draining";
    case SaState::kDead:
      return "dead";
  }
  return "?";
}

util::Status IpsecEndpoint::Keymat::prepare() {
  if (have_enc_key) {
    auto aes = crypto::Aes::create(enc_key);
    if (!aes) return aes.status();
    cipher = aes.value();
    auto g = crypto::GcmContext::create(enc_key);
    if (!g) return g.status();
    gcm = std::move(g).value();
  }
  hmac_tmpl.emplace(auth_key);
  return util::Status::ok();
}

void IpsecEndpoint::sad_insert(ContextId ctx, std::uint32_t spi,
                               SadSlot slot) {
  sad_[sad_key(ctx, spi)] = slot;
}

void IpsecEndpoint::sad_erase(ContextId ctx, std::uint32_t spi) {
  sad_.erase(sad_key(ctx, spi));
}

void IpsecEndpoint::register_control_spis(
    Tunnel& tunnel, std::initializer_list<std::uint32_t> spis) {
  unregister_control_spis(tunnel);
  for (std::uint32_t spi : spis) {
    exec::ControlSpiRegistry::instance().add(spi);
    tunnel.control_spis.push_back(spi);
  }
}

void IpsecEndpoint::unregister_control_spis(Tunnel& tunnel) {
  for (std::uint32_t spi : tunnel.control_spis) {
    exec::ControlSpiRegistry::instance().remove(spi);
  }
  tunnel.control_spis.clear();
}

util::Status IpsecEndpoint::configure(ContextId ctx, const NfConfig& config) {
  // Lifecycle mutation: exclusive vs. in-flight worker bursts.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  Tunnel& tunnel = tunnels_[ctx];
  if (!tunnel.keymat) tunnel.keymat = std::make_shared<Keymat>();
  const std::uint32_t prev_in_spi = tunnel.in_sa.spi;
  const bool was_configured = tunnel.configured;
  NfConfig rekey;
  for (const auto& [key, value] : config) {
    if (key == "local_ip" || key == "peer_ip") {
      auto addr = packet::Ipv4Address::parse(value);
      if (!addr.has_value()) {
        return util::invalid_argument("ipsec: bad " + key + " '" + value +
                                      "'");
      }
      (key == "local_ip" ? tunnel.local_ip : tunnel.peer_ip) = *addr;
    } else if (key == "spi_out") {
      NNFV_RETURN_IF_ERROR(parse_spi(key, value, tunnel.out_sa.spi));
    } else if (key == "spi_in") {
      NNFV_RETURN_IF_ERROR(parse_spi(key, value, tunnel.in_sa.spi));
    } else if (key == "enc_key") {
      NNFV_RETURN_IF_ERROR(parse_enc_key(value, tunnel.keymat->enc_key,
                                         tunnel.keymat->salt));
      tunnel.out_sa.enc_key = tunnel.keymat->enc_key;
      tunnel.out_sa.salt = tunnel.keymat->salt;
      tunnel.in_sa.enc_key = tunnel.keymat->enc_key;
      tunnel.in_sa.salt = tunnel.keymat->salt;
      tunnel.keymat->have_enc_key = true;
    } else if (key == "esp_transform") {
      if (value == "gcm") {
        tunnel.transform = EspTransform::kGcm;
      } else if (value == "cbc-hmac") {
        tunnel.transform = EspTransform::kCbcHmac;
      } else {
        return util::invalid_argument(
            "ipsec: esp_transform must be 'gcm' or 'cbc-hmac', got '" +
            value + "'");
      }
    } else if (key == "esn") {
      if (value != "on" && value != "off") {
        return util::invalid_argument(
            "ipsec: esn must be 'on' or 'off', got '" + value + "'");
      }
      tunnel.out_sa.esn = value == "on";
      tunnel.in_sa.esn = tunnel.out_sa.esn;
    } else if (key == "auth_key") {
      NNFV_RETURN_IF_ERROR(parse_key(value, tunnel.keymat->auth_key));
      tunnel.out_sa.auth_key = tunnel.keymat->auth_key;
      tunnel.in_sa.auth_key = tunnel.keymat->auth_key;
    } else if (key == "life_soft_packets") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.soft_packets));
    } else if (key == "life_hard_packets") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.hard_packets));
    } else if (key == "life_soft_bytes") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.soft_bytes));
    } else if (key == "life_hard_bytes") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.hard_bytes));
    } else if (key == "seq_headroom") {
      NNFV_RETURN_IF_ERROR(
          parse_count(key, value, tunnel.lifetime.seq_headroom));
    } else if (key == "drain_ns") {
      std::uint64_t ns = 0;
      NNFV_RETURN_IF_ERROR(parse_count(key, value, ns));
      tunnel.drain_ns = static_cast<sim::SimTime>(ns);
    } else if (key == "rekey_spi_out" || key == "rekey_spi_in" ||
               key == "rekey_enc_key" || key == "rekey_auth_key" ||
               key == "rekey_cutover") {
      rekey[key] = value;
    } else if (key == "outer_src_mac") {
      NNFV_RETURN_IF_ERROR(parse_mac(value, tunnel.outer_src_mac));
    } else if (key == "outer_dst_mac") {
      NNFV_RETURN_IF_ERROR(parse_mac(value, tunnel.outer_dst_mac));
    } else if (key == "inner_src_mac") {
      NNFV_RETURN_IF_ERROR(parse_mac(value, tunnel.inner_src_mac));
    } else if (key == "inner_dst_mac") {
      NNFV_RETURN_IF_ERROR(parse_mac(value, tunnel.inner_dst_mac));
    } else {
      return util::invalid_argument("ipsec: unknown config key '" + key +
                                    "'");
    }
  }
  // Key-schedule work that must not happen per packet: the AES schedule
  // and GCM GHASH table are expanded here once, and the HMAC ipad is
  // absorbed once; the per-packet paths only copy midstates. Both
  // transforms' state is kept ready so esp_transform can be flipped by a
  // later configure() without re-sending keys (config keys arrive in map
  // order, so esp_transform may follow enc_key).
  NNFV_RETURN_IF_ERROR(tunnel.keymat->prepare());
  // Both directions share one enc_key/salt, so the SPI is the only
  // per-direction component of the GCM nonce (see gcm_nonce()): equal
  // SPIs would reuse (key, nonce) pairs across directions.
  if (tunnel.out_sa.spi != 0 && tunnel.out_sa.spi == tunnel.in_sa.spi) {
    return util::invalid_argument(
        "ipsec: spi_out and spi_in must differ (the SPI keys the "
        "per-direction IV/nonce derivation)");
  }
  tunnel.configured = tunnel.keymat->have_enc_key &&
                      tunnel.out_sa.spi != 0 && tunnel.in_sa.spi != 0;
  // SAD sync for the current-generation inbound SA.
  if (was_configured && prev_in_spi != 0 &&
      prev_in_spi != tunnel.in_sa.spi) {
    sad_erase(ctx, prev_in_spi);
  }
  if (tunnel.configured) {
    sad_insert(ctx, tunnel.in_sa.spi, SadSlot::kCurrent);
  }
  if (!rekey.empty()) {
    NNFV_RETURN_IF_ERROR(stage_rekey(ctx, tunnel, rekey));
  }
  return util::Status::ok();
}

util::Status IpsecEndpoint::stage_rekey(ContextId ctx, Tunnel& tunnel,
                                        const NfConfig& rekey) {
  if (!tunnel.configured) {
    return util::failed_precondition(
        "ipsec: rekey_* keys require a configured tunnel");
  }
  auto get = [&rekey](const char* key) -> const std::string* {
    auto it = rekey.find(key);
    return it == rekey.end() ? nullptr : &it->second;
  };
  const std::string* spi_out = get("rekey_spi_out");
  const std::string* spi_in = get("rekey_spi_in");
  const std::string* enc_key = get("rekey_enc_key");
  if (spi_out == nullptr || spi_in == nullptr || enc_key == nullptr) {
    return util::invalid_argument(
        "ipsec: a rekey needs rekey_spi_out, rekey_spi_in and "
        "rekey_enc_key together (fresh SPIs + fresh keymat)");
  }
  StagedRekey staged;
  staged.keymat = std::make_shared<Keymat>();
  NNFV_RETURN_IF_ERROR(parse_spi("rekey_spi_out", *spi_out,
                                 staged.out_sa.spi));
  NNFV_RETURN_IF_ERROR(parse_spi("rekey_spi_in", *spi_in,
                                 staged.in_sa.spi));
  NNFV_RETURN_IF_ERROR(parse_enc_key(*enc_key, staged.keymat->enc_key,
                                     staged.keymat->salt));
  staged.keymat->have_enc_key = true;
  if (const std::string* auth_key = get("rekey_auth_key")) {
    NNFV_RETURN_IF_ERROR(parse_key(*auth_key, staged.keymat->auth_key));
  } else {
    staged.keymat->auth_key = tunnel.keymat->auth_key;
  }
  if (const std::string* cutover_mode = get("rekey_cutover")) {
    if (*cutover_mode == "now") {
      staged.immediate = true;
    } else if (*cutover_mode != "soft") {
      return util::invalid_argument(
          "ipsec: rekey_cutover must be 'soft' or 'now', got '" +
          *cutover_mode + "'");
    }
  }
  if (staged.out_sa.spi == staged.in_sa.spi) {
    return util::invalid_argument(
        "ipsec: rekey_spi_out and rekey_spi_in must differ");
  }
  // The staged inbound SPI joins the SAD immediately, so it must not
  // collide with an inbound SPI this context already answers to — except
  // the previously staged one, which a restage replaces.
  const bool replaces_staged =
      tunnel.staged && tunnel.staged->in_sa.spi == staged.in_sa.spi;
  if (!replaces_staged &&
      sad_.count(sad_key(ctx, staged.in_sa.spi)) != 0) {
    return util::invalid_argument(
        "ipsec: rekey_spi_in " + *spi_in +
        " collides with a live inbound SA of this tunnel");
  }
  NNFV_RETURN_IF_ERROR(staged.keymat->prepare());
  staged.out_sa.esn = tunnel.out_sa.esn;
  staged.in_sa.esn = tunnel.in_sa.esn;
  staged.out_sa.enc_key = staged.keymat->enc_key;
  staged.out_sa.salt = staged.keymat->salt;
  staged.out_sa.auth_key = staged.keymat->auth_key;
  staged.in_sa.enc_key = staged.keymat->enc_key;
  staged.in_sa.salt = staged.keymat->salt;
  staged.in_sa.auth_key = staged.keymat->auth_key;
  // Restaging replaces a pending (not yet cut over) rekey.
  if (tunnel.staged) sad_erase(ctx, tunnel.staged->in_sa.spi);
  sad_insert(ctx, staged.in_sa.spi, SadSlot::kStaged);
  // The new generation's ESP traffic is control priority until the
  // superseded SA retires: overload shedding must not starve a rekey
  // into a dead tunnel. (Replaces any previous registration — a restage
  // or back-to-back rekey moves the protection to the newest SPIs.)
  register_control_spis(tunnel, {staged.out_sa.spi, staged.in_sa.spi});
  tunnel.staged = std::move(staged);
  ++stats_shard().rekeys_started;
  return util::Status::ok();
}

void IpsecEndpoint::expire_draining(ContextId ctx, Tunnel& tunnel,
                                    sim::SimTime now) {
  if (tunnel.draining && now >= tunnel.draining->deadline) {
    tunnel.draining->sa.state = SaState::kDead;
    sad_erase(ctx, tunnel.draining->sa.spi);
    tunnel.draining.reset();
    // Rekey fully complete (old generation gone): the new SPIs carry
    // ordinary traffic now, so they lose control priority — unless a
    // newer rekey already re-registered its own SPIs.
    if (!tunnel.staged) unregister_control_spis(tunnel);
    ++stats_shard().sas_retired;
  }
}

void IpsecEndpoint::cutover(ContextId ctx, Tunnel& tunnel,
                            sim::SimTime now) {
  // A previous generation still draining is force-retired: at most two
  // inbound generations (current + one draining) are live per tunnel.
  if (tunnel.draining) {
    sad_erase(ctx, tunnel.draining->sa.spi);
    tunnel.draining.reset();
    ++stats_shard().sas_retired;
  }
  DrainingSa draining;
  draining.sa = tunnel.in_sa;
  draining.sa.state = SaState::kDraining;
  draining.keymat = tunnel.keymat;
  draining.deadline = now + tunnel.drain_ns;
  sad_insert(ctx, draining.sa.spi, SadSlot::kDraining);
  tunnel.draining = std::move(draining);

  tunnel.out_sa = tunnel.staged->out_sa;
  tunnel.in_sa = tunnel.staged->in_sa;
  tunnel.keymat = tunnel.staged->keymat;
  tunnel.staged.reset();
  sad_insert(ctx, tunnel.in_sa.spi, SadSlot::kCurrent);
  ++stats_shard().rekeys_completed;
}

SecurityAssociation* IpsecEndpoint::outbound_gate(ContextId ctx,
                                                  Tunnel& tunnel,
                                                  sim::SimTime now) {
  SecurityAssociation* sa = &tunnel.out_sa;
  const bool seq_exhausted = sa->seq >= sa->seq_ceiling();
  const bool hard = hard_expired(tunnel.lifetime, *sa) || seq_exhausted;
  const bool soft = soft_expired(tunnel.lifetime, *sa);
  if (tunnel.staged &&
      (tunnel.staged->immediate || soft || hard ||
       sa->state == SaState::kDead)) {
    // Make-before-break: with staged keymat present, every expiry
    // condition resolves into a cutover instead of a drop.
    cutover(ctx, tunnel, now);
    return &tunnel.out_sa;
  }
  if (sa->state == SaState::kDead || hard) {
    // RFC 4303 §3.3.3: the sequence counter must not cycle, and a hard
    // lifetime is a hard stop — drop with a counted reason rather than
    // emit a packet the SA is no longer allowed to send.
    sa->state = SaState::kDead;
    ++sa->lifetime_drops;
    ++stats_shard().lifetime_drops;
    return nullptr;
  }
  if (soft && sa->state == SaState::kActive) {
    // Soft expiry without staged keymat: keep sending, flag the SA so
    // the controller (REST stats) sees the rekey request.
    sa->state = SaState::kRekeying;
  }
  return sa;
}

bool IpsecEndpoint::fast_path_ok(const Tunnel& tunnel, NfPortIndex in_port,
                                 std::size_t frames) {
  if (tunnel.staged || tunnel.draining) return false;
  const SaLifetime& lt = tunnel.lifetime;
  if (has_volume_lifetime(lt)) return false;
  if (in_port == 0) {
    const SecurityAssociation& sa = tunnel.out_sa;
    if (sa.state != SaState::kActive) return false;
    // Neither sequence exhaustion nor the soft headroom trigger may
    // become reachable within this burst (conservative by one frame).
    const std::uint64_t remaining = sa.seq_ceiling() - sa.seq;
    if (remaining < frames) return false;
    if (lt.seq_headroom != 0 && remaining - frames <= lt.seq_headroom) {
      return false;
    }
  } else {
    if (tunnel.in_sa.state != SaState::kActive) return false;
  }
  return true;
}

std::vector<NfOutput> IpsecEndpoint::process(ContextId ctx,
                                             NfPortIndex in_port,
                                             sim::SimTime now,
                                             packet::PacketBuffer&& frame) {
  // A burst of one through the same pipeline.
  std::vector<NfOutput> out;
  run(ctx, in_port, now, {&frame, 1}, out);
  return out;
}

std::vector<NfOutput> IpsecEndpoint::process_burst(
    ContextId ctx, NfPortIndex in_port, sim::SimTime now,
    packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  run(ctx, in_port, now, burst, out);
  burst.clear();
  return out;
}

void IpsecEndpoint::run(ContextId ctx, NfPortIndex in_port, sim::SimTime now,
                        std::span<packet::PacketBuffer> frames,
                        std::vector<NfOutput>& out) {
  if (frames.empty()) return;
  const std::size_t slot = exec::current_worker_slot();
  {
    // Steady-state fast path for the whole burst under the shared lock:
    // counters are atomic, a replay window is written only by its owner
    // slot, and fast_path_ok is sized by the burst so no frame inside it
    // can trip a lifecycle transition.
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (!has_context(ctx) || in_port >= 2) {
      stats_shard().malformed += frames.size();
      return;
    }
    auto it = tunnels_.find(ctx);
    if (it == tunnels_.end() || !it->second.configured) {
      stats_shard().no_sa += frames.size();
      return;
    }
    Tunnel& tunnel = it->second;
    if (fast_path_ok(tunnel, in_port, frames.size())) {
      out.reserve(frames.size());
      if (in_port == 0) {
        encap(ctx, tunnel, now, frames, false, out);
        return;
      }
      const std::size_t owner = tunnel.in_sa.replay_owner;
      if (owner == slot) {
        decap(ctx, tunnel, frames, false, out);
        return;
      }
      // The window belongs to another slot (or to none yet); ownership
      // only changes hands under the exclusive lock below.
      if (owner != SecurityAssociation::kNoOwner) {
        stats_shard().cross_slot_frames += frames.size();
      }
    }
  }
  // Lifecycle path (staged/draining generations, lifetimes, hard stops,
  // replay-window handover): exclusive lock, exact single-threaded
  // semantics.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = tunnels_.find(ctx);
  if (it == tunnels_.end() || !it->second.configured) {
    stats_shard().no_sa += frames.size();
    return;
  }
  Tunnel& tunnel = it->second;
  // The drain deadline cannot re-arm mid-burst (a cutover inside the
  // burst sets a deadline >= now), so one sweep covers every frame.
  expire_draining(ctx, tunnel, now);
  out.reserve(frames.size());
  if (in_port == 0) {
    encap(ctx, tunnel, now, frames, true, out);
    return;
  }
  tunnel.in_sa.replay_owner = slot;
  decap(ctx, tunnel, frames, true, out);
}

std::optional<std::span<const std::uint8_t>> IpsecEndpoint::parse_inner_ipv4(
    const packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  if (!eth || eth->ether_type != packet::kEtherTypeIpv4) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  // Inner packet = everything after the Ethernet header, trimmed to the IP
  // total length (drops any Ethernet padding).
  auto l3 = frame.data().subspan(eth->wire_size());
  auto inner_ip = packet::parse_ipv4(l3);
  if (!inner_ip || inner_ip->total_length > l3.size()) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  return std::span<const std::uint8_t>{l3.data(), inner_ip->total_length};
}

void IpsecEndpoint::write_outer_headers(const Tunnel& tunnel,
                                        const SecurityAssociation& sa,
                                        std::uint64_t seq,
                                        std::size_t esp_payload,
                                        std::span<std::uint8_t> buf) {
  packet::EthernetHeader outer_eth{.dst = tunnel.outer_dst_mac,
                                   .src = tunnel.outer_src_mac,
                                   .ether_type = packet::kEtherTypeIpv4,
                                   .vlan = std::nullopt};
  packet::write_ethernet(outer_eth,
                         buf.subspan(0, packet::kEthernetHeaderSize));

  packet::Ipv4Header outer_ip;
  outer_ip.protocol = packet::kIpProtoEsp;
  outer_ip.ttl = 64;
  outer_ip.src = tunnel.local_ip;
  outer_ip.dst = tunnel.peer_ip;
  outer_ip.total_length =
      static_cast<std::uint16_t>(packet::kIpv4MinHeaderSize + esp_payload);
  outer_ip.identification = static_cast<std::uint16_t>(seq);
  packet::write_ipv4(outer_ip, buf.subspan(packet::kEthernetHeaderSize,
                                           packet::kIpv4MinHeaderSize));

  packet::EspHeader esp{sa.spi, static_cast<std::uint32_t>(seq)};
  packet::write_esp(esp, buf.subspan(kEspOffset, packet::kEspHeaderSize));
}

std::optional<IpsecEndpoint::EspIngress> IpsecEndpoint::parse_esp_ingress(
    ContextId ctx, Tunnel& tunnel, const packet::PacketBuffer& frame,
    std::size_t min_esp_payload) {
  auto eth = packet::parse_ethernet(frame.data());
  if (!eth || eth->ether_type != packet::kEtherTypeIpv4) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  auto l3 = frame.data().subspan(eth->wire_size());
  auto ip = packet::parse_ipv4(l3);
  if (!ip || ip->protocol != packet::kIpProtoEsp ||
      ip->total_length > l3.size()) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  if (!(ip->dst == tunnel.local_ip)) {
    ++stats_shard().no_sa;
    return std::nullopt;
  }
  // parse_ipv4 guarantees total_length >= header_size, so this span is
  // in-bounds even for truncated garbage.
  auto esp_area = l3.subspan(ip->header_size(),
                             ip->total_length - ip->header_size());
  if (esp_area.size() < min_esp_payload) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  auto esp = packet::parse_esp(esp_area);
  if (!esp) {
    ++stats_shard().malformed;
    return std::nullopt;
  }
  // O(1) SAD resolution: (ctx, SPI) -> generation. Current, staged and
  // draining inbound SAs all answer here, which is what lets in-flight
  // packets of the superseded generation drain during a rekey.
  auto sad_it = sad_.find(sad_key(ctx, esp->spi));
  if (sad_it == sad_.end()) {
    ++stats_shard().no_sa;
    return std::nullopt;
  }
  EspIngress ingress{esp_area,
                     static_cast<std::size_t>(esp_area.data() -
                                              frame.data().data()),
                     esp->sequence};
  switch (sad_it->second) {
    case SadSlot::kCurrent:
      ingress.sa = &tunnel.in_sa;
      ingress.keymat = tunnel.keymat.get();
      break;
    case SadSlot::kStaged:
      ingress.sa = &tunnel.staged->in_sa;
      ingress.keymat = tunnel.staged->keymat.get();
      break;
    case SadSlot::kDraining:
      ingress.sa = &tunnel.draining->sa;
      ingress.keymat = tunnel.draining->keymat.get();
      break;
  }
  return ingress;
}

void IpsecEndpoint::emit_inner(const Tunnel& tunnel, SecurityAssociation& sa,
                               packet::PacketBuffer&& inner,
                               std::vector<NfOutput>& out) {
  const auto plaintext = inner.data();
  if (plaintext.size() < 2) {
    ++sa.malformed;
    ++stats_shard().malformed;
    return;
  }
  const std::uint8_t next_header = plaintext.back();
  const std::uint8_t pad_len = plaintext[plaintext.size() - 2];
  // pad_len is bounded by what the payload can hold (RFC 4303 §2.4); a
  // larger value is forgery debris that must not underflow the trim.
  if (next_header != 4 || plaintext.size() < 2u + pad_len) {
    ++sa.malformed;
    ++stats_shard().malformed;
    return;
  }
  // Validate the monotonic pad bytes (cheap corruption check).
  for (std::size_t i = 0; i < pad_len; ++i) {
    const std::size_t idx = plaintext.size() - 2 - pad_len + i;
    if (plaintext[idx] != i + 1) {
      ++sa.malformed;
      ++stats_shard().malformed;
      return;
    }
  }
  // Strip the trailer and rebuild the Ethernet header in the headroom
  // the outer headers vacated — pure offset adjustments, no copy.
  inner.trim(plaintext.size() - 2 - pad_len);
  auto ethspan = inner.push_front(packet::kEthernetHeaderSize);
  packet::EthernetHeader inner_eth{.dst = tunnel.inner_dst_mac,
                                   .src = tunnel.inner_src_mac,
                                   .ether_type = packet::kEtherTypeIpv4,
                                   .vlan = std::nullopt};
  packet::write_ethernet(inner_eth, ethspan);

  ++sa.packets;
  sa.bytes += inner.size();
  ++stats_shard().decapsulated;
  out.push_back(NfOutput{0, std::move(inner)});
}

// Wire format of both transforms: Eth | outer IPv4 | ESP (SPI, seq-lo) |
// IV | ciphertext | ICV, with the ESP trailer (pad 1,2,3..., pad_len,
// next_header) inside the ciphertext.
//
//   gcm       RFC 4106 shape. IV(8) is the 64-bit sequence counter; the
//             nonce is (salt ^ SPI)(4) || IV(8) — a deliberate deviation
//             from RFC 4106's plain salt||IV, needed because both
//             directions share one enc_key here (see gcm_nonce(); a
//             conforming peer with per-SA keymat would not
//             interoperate). AAD is the ESP header, widened by seq-hi
//             under ESN. ICV(16) is the full tag.
//   cbc-hmac  RFC 3602 + 4868. IV(16) is derive_iv(SPI, seq); ICV(16)
//             is HMAC-SHA256-128 over ESP header | IV | ciphertext.
void IpsecEndpoint::encap(ContextId ctx, Tunnel& tunnel, sim::SimTime now,
                          std::span<packet::PacketBuffer> frames,
                          bool lifecycle, std::vector<NfOutput>& out) {
  const EspLayout& layout = esp_layout(tunnel.transform);
  EspBatch batch;
  for (packet::PacketBuffer& frame : frames) {
    SecurityAssociation* sa = &tunnel.out_sa;
    if (lifecycle) {
      // The gate reads packet/byte usage the pending lanes only account
      // at emit, and a cutover swaps the SA and keymat they point at:
      // land them first whenever either can matter.
      if (batch.size > 0 &&
          (tunnel.staged || has_volume_lifetime(tunnel.lifetime))) {
        flush_encap(tunnel, batch, out);
      }
      sa = outbound_gate(ctx, tunnel, now);
      if (sa == nullptr) continue;
    }
    // Gather. Headroom prepend + trailer append rebuild the frame where
    // it sits; a flooded replica must go private first.
    frame.unshare();
    auto inner = parse_inner_ipv4(frame);
    if (!inner) continue;
    EspLane& lane = batch.lanes[batch.size];
    lane.sa = sa;
    // Claim this packet's sequence number atomically: workers sharing
    // the SA each get a unique value, in frame order within the burst.
    lane.seq = ++sa->seq;
    lane.inner_size = inner->size();

    // Reduce the view to the inner IP packet: drop the red-side Ethernet
    // header and any Ethernet padding past total_length — pure offset
    // adjustments on the pooled segment, the payload never moves.
    frame.pull_front(
        static_cast<std::size_t>(inner->data() - frame.data().data()));
    frame.trim(lane.inner_size);

    // ESP trailer into the tailroom: pad so (payload | pad_len |
    // next_header) meets the transform's alignment.
    const std::size_t align = layout.pad_align;
    const std::size_t pad = (align - (lane.inner_size + 2) % align) % align;
    std::uint8_t* trailer = frame.push_back(pad + 2).data();
    for (std::size_t i = 1; i <= pad; ++i) {
      trailer[i - 1] = static_cast<std::uint8_t>(i);
    }
    trailer[pad] = static_cast<std::uint8_t>(pad);
    trailer[pad + 1] = 4;  // next header: IPv4 (tunnel mode)
    lane.ct_len = lane.inner_size + pad + 2;

    // Claim the headroom for Eth | outer IPv4 | ESP | IV (the red-side
    // Ethernet header plus default headroom always covers it) and the
    // tailroom for the ICV; the payload now sits where the crypt step
    // encrypts it in place.
    lane.esp_off = kEspOffset;
    lane.ct_off = kEspOffset + packet::kEspHeaderSize + layout.iv_size;
    frame.push_front(lane.ct_off);
    frame.push_back(layout.icv_size);
    write_outer_headers(tunnel, *sa, lane.seq,
                        packet::kEspHeaderSize + layout.iv_size +
                            lane.ct_len + layout.icv_size,
                        frame.data());
    lane.frame = std::move(frame);
    batch.keymat = tunnel.keymat.get();
    if (++batch.size == batch.lanes.size()) flush_encap(tunnel, batch, out);
  }
  if (batch.size > 0) flush_encap(tunnel, batch, out);
}

void IpsecEndpoint::flush_encap(const Tunnel& tunnel, EspBatch& batch,
                                std::vector<NfOutput>& out) {
  constexpr std::size_t kLanes = crypto::CryptoBackend::kMaxMbLanes;
  const Keymat& keymat = *batch.keymat;
  const std::size_t n = std::exchange(batch.size, 0);
  // Crypt: write the IV, encrypt in place, write the ICV behind it.
  bool sealed = true;
  if (tunnel.transform == EspTransform::kGcm) {
    // Independent seal_mb lanes: each packet keeps its own nonce/AAD,
    // while the batched kernel interleaves their AES streams — short
    // packets no longer serialise on AESENC latency.
    std::uint8_t nonce[kLanes][crypto::GcmContext::kIvSize];
    std::uint8_t aad[kLanes][12];
    crypto::GcmMbOp ops[kLanes];
    for (std::size_t i = 0; i < n; ++i) {
      EspLane& lane = batch.lanes[i];
      std::uint8_t* buf = lane.frame.data().data();
      std::uint8_t* iv = buf + lane.esp_off + packet::kEspHeaderSize;
      util::store_be64(iv, lane.seq);
      gcm_nonce(*lane.sa, keymat.salt, iv, nonce[i]);
      ops[i] = crypto::GcmMbOp{{nonce[i], sizeof(nonce[i])},
                               {aad[i], esp_aad(*lane.sa, lane.seq, aad[i])},
                               {buf + lane.ct_off, lane.ct_len},
                               buf + lane.ct_off,
                               buf + lane.ct_off + lane.ct_len};
    }
    sealed = keymat.gcm->seal_mb(ops, n).is_ok();
  } else {
    // CBC is chain-serial, so its lanes run one at a time: in-place CBC,
    // then the HMAC from the cached ipad midstate.
    for (std::size_t i = 0; i < n; ++i) {
      EspLane& lane = batch.lanes[i];
      std::uint8_t* buf = lane.frame.data().data();
      const auto iv = derive_iv(*keymat.cipher, lane.sa->spi, lane.seq);
      std::memcpy(buf + lane.esp_off + packet::kEspHeaderSize, iv.data(),
                  kIvSize);
      crypto::active_backend().cbc_encrypt(*keymat.cipher, iv.data(),
                                           buf + lane.ct_off,
                                           buf + lane.ct_off, lane.ct_len);
      const auto icv = cbc_icv(*keymat.hmac_tmpl,
                               {buf + lane.esp_off,
                                lane.ct_off + lane.ct_len - lane.esp_off},
                               *lane.sa, lane.seq);
      std::memcpy(buf + lane.ct_off + lane.ct_len, icv.data(), kIcvSize);
    }
  }
  // Ordered emit.
  if (!sealed) {
    stats_shard().malformed += n;
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EspLane& lane = batch.lanes[i];
    ++lane.sa->packets;
    lane.sa->bytes += lane.inner_size;
    ++stats_shard().encapsulated;
    out.push_back(NfOutput{1, std::move(lane.frame)});
  }
}

bool IpsecEndpoint::esn_settled(const EspBatch& batch,
                                const SecurityAssociation& sa,
                                std::uint32_t seq_lo) {
  if (!sa.esn) return true;
  const std::uint64_t top = sa.replay_top;
  const std::uint64_t seq = esn_recover_seq(top, seq_lo);
  for (std::size_t i = 0; i < batch.size; ++i) {
    const EspLane& lane = batch.lanes[i];
    if (lane.sa == &sa && lane.seq > top &&
        esn_recover_seq(lane.seq, seq_lo) != seq) {
      return false;
    }
  }
  return true;
}

void IpsecEndpoint::decap(ContextId ctx, Tunnel& tunnel,
                          std::span<packet::PacketBuffer> frames,
                          bool lifecycle, std::vector<NfOutput>& out) {
  const EspLayout& layout = esp_layout(tunnel.transform);
  const std::size_t min_esp_payload = packet::kEspHeaderSize +
                                      layout.iv_size + layout.min_ct +
                                      layout.icv_size;
  EspBatch batch;
  for (packet::PacketBuffer& frame : frames) {
    // Decryption happens in place over the ciphertext region, so the
    // frame must own its segment.
    frame.unshare();
    auto ingress = parse_esp_ingress(ctx, tunnel, frame, min_esp_payload);
    if (!ingress) continue;
    SecurityAssociation& sa = *ingress->sa;
    if (lifecycle) {
      // Hard expiry reads the usage pending lanes only account at emit.
      if (batch.size > 0 && has_volume_lifetime(tunnel.lifetime)) {
        flush_decap(tunnel, batch, out);
      }
      if (sa.state == SaState::kDead || hard_expired(tunnel.lifetime, sa)) {
        sa.state = SaState::kDead;
        ++sa.lifetime_drops;
        ++stats_shard().lifetime_drops;
        continue;
      }
    }
    // A batch shares one keymat (a control SPI mid-burst starts the next
    // one), and its ESN sequences must not depend on how its own emit
    // moves the window.
    if (batch.size > 0 && (ingress->keymat != batch.keymat ||
                           !esn_settled(batch, sa, ingress->seq_lo))) {
      flush_decap(tunnel, batch, out);
    }
    EspLane& lane = batch.lanes[batch.size];
    lane.sa = &sa;
    // The 64-bit sequence is recovered once, here, and reused for the
    // AAD/ICV input and the replay update.
    lane.seq = sa.esn ? esn_recover_seq(sa.replay_top, ingress->seq_lo)
                      : ingress->seq_lo;
    lane.esp_off = ingress->esp_off;
    lane.ct_off = lane.esp_off + packet::kEspHeaderSize + layout.iv_size;
    lane.ct_len = ingress->esp_area.size() - packet::kEspHeaderSize -
                  layout.iv_size - layout.icv_size;
    lane.frame = std::move(frame);
    batch.keymat = ingress->keymat;
    if (++batch.size == batch.lanes.size()) flush_decap(tunnel, batch, out);
  }
  if (batch.size > 0) flush_decap(tunnel, batch, out);
}

void IpsecEndpoint::flush_decap(const Tunnel& tunnel, EspBatch& batch,
                                std::vector<NfOutput>& out) {
  constexpr std::size_t kLanes = crypto::CryptoBackend::kMaxMbLanes;
  const Keymat& keymat = *batch.keymat;
  const std::size_t n = std::exchange(batch.size, 0);
  // Crypt: authenticate, then decrypt in place. Nothing here touches SA
  // state, so the verdicts wait for the ordered emit; a forged lane's
  // plaintext is never released.
  if (tunnel.transform == EspTransform::kGcm) {
    // One batched open_mb: tag over SPI || [recovered seq-hi ||] seq-lo
    // + ciphertext and CTR decryption in one pass per lane; forged lanes
    // come back wiped and flagged.
    std::uint8_t nonce[kLanes][crypto::GcmContext::kIvSize];
    std::uint8_t aad[kLanes][12];
    crypto::GcmMbOp ops[kLanes];
    bool ok[kLanes];
    for (std::size_t i = 0; i < n; ++i) {
      EspLane& lane = batch.lanes[i];
      std::uint8_t* buf = lane.frame.data().data();
      gcm_nonce(*lane.sa, keymat.salt,
                buf + lane.esp_off + packet::kEspHeaderSize, nonce[i]);
      ops[i] = crypto::GcmMbOp{{nonce[i], sizeof(nonce[i])},
                               {aad[i], esp_aad(*lane.sa, lane.seq, aad[i])},
                               {buf + lane.ct_off, lane.ct_len},
                               buf + lane.ct_off,
                               buf + lane.ct_off + lane.ct_len};
    }
    (void)keymat.gcm->open_mb(ops, n, ok);
    for (std::size_t i = 0; i < n; ++i) batch.lanes[i].ok = ok[i];
  } else {
    // ICV first (constant time, seq-hi folded in under ESN), then
    // in-place CBC over the authenticated ciphertext.
    for (std::size_t i = 0; i < n; ++i) {
      EspLane& lane = batch.lanes[i];
      std::uint8_t* buf = lane.frame.data().data();
      const std::uint8_t* icv = buf + lane.ct_off + lane.ct_len;
      const auto expected = cbc_icv(
          *keymat.hmac_tmpl,
          {buf + lane.esp_off, lane.ct_off + lane.ct_len - lane.esp_off},
          *lane.sa, lane.seq);
      lane.ok = crypto::constant_time_equal({expected.data(), kIcvSize},
                                            {icv, kIcvSize});
      if (!lane.ok) continue;
      if (lane.ct_len % crypto::Aes::kBlockSize != 0) {
        // Authentic but not whole blocks: it decrypts to nothing, which
        // the emit counts malformed after the replay update.
        lane.ct_len = 0;
        continue;
      }
      crypto::active_backend().cbc_decrypt(
          *keymat.cipher, buf + lane.esp_off + packet::kEspHeaderSize,
          buf + lane.ct_off, buf + lane.ct_off, lane.ct_len);
    }
  }
  // Ordered emit: verdict, replay window, trailer — the only state
  // mutations, in frame order, so every frame meets the window exactly
  // as the lanes before it left it.
  for (std::size_t i = 0; i < n; ++i) {
    EspLane& lane = batch.lanes[i];
    SecurityAssociation& sa = *lane.sa;
    if (!lane.ok) {
      ++sa.auth_fail;
      ++stats_shard().auth_failures;
      continue;
    }
    if (!replay_check_and_update(sa, lane.seq)) {
      ++sa.replay_drops;
      ++stats_shard().replay_drops;
      continue;
    }
    // Decap is a pure view adjustment: the outer headers + ESP + IV
    // become headroom, the ICV falls off the tail.
    lane.frame.pull_front(lane.ct_off);
    lane.frame.trim(lane.ct_len);
    emit_inner(tunnel, sa, std::move(lane.frame), out);
  }
}

bool IpsecEndpoint::replay_check_and_update(SecurityAssociation& sa,
                                            std::uint64_t seq) {
  if (seq == 0) return false;  // seq 0 is never valid
  constexpr std::uint64_t kWindow = kReplayWindow;
  if (seq > sa.replay_top) {
    const std::uint64_t shift = seq - sa.replay_top;
    sa.replay_bitmap = shift >= kWindow ? 0 : sa.replay_bitmap << shift;
    sa.replay_bitmap |= 1;  // bit 0 = replay_top (the new seq)
    sa.replay_top = seq;
    return true;
  }
  const std::uint64_t offset = sa.replay_top - seq;
  if (offset >= kWindow) return false;  // too old
  const std::uint64_t bit = 1ULL << offset;
  if ((sa.replay_bitmap & bit) != 0) return false;  // duplicate
  sa.replay_bitmap |= bit;
  return true;
}

util::Status IpsecEndpoint::remove_context(ContextId ctx) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  NNFV_RETURN_IF_ERROR(NetworkFunction::remove_context(ctx));
  auto it = tunnels_.find(ctx);
  if (it != tunnels_.end()) {
    Tunnel& tunnel = it->second;
    if (tunnel.configured) sad_erase(ctx, tunnel.in_sa.spi);
    if (tunnel.staged) sad_erase(ctx, tunnel.staged->in_sa.spi);
    if (tunnel.draining) sad_erase(ctx, tunnel.draining->sa.spi);
    unregister_control_spis(tunnel);
    tunnels_.erase(it);
  }
  return util::Status::ok();
}

IpsecStats IpsecEndpoint::stats() const {
  // Aggregates the per-worker shards; counters are relaxed, so the sum
  // is a point-in-time snapshot, exact once the datapath is quiesced.
  IpsecStats totals;
  for (const StatsShard& shard : stats_shards_) {
    const IpsecStats& s = shard.stats;
    totals.encapsulated += s.encapsulated;
    totals.decapsulated += s.decapsulated;
    totals.auth_failures += s.auth_failures;
    totals.replay_drops += s.replay_drops;
    totals.malformed += s.malformed;
    totals.no_sa += s.no_sa;
    totals.lifetime_drops += s.lifetime_drops;
    totals.rekeys_started += s.rekeys_started;
    totals.rekeys_completed += s.rekeys_completed;
    totals.sas_retired += s.sas_retired;
    totals.cross_slot_frames += s.cross_slot_frames;
  }
  return totals;
}

json::Value IpsecEndpoint::describe_stats(ContextId ctx) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const IpsecStats totals = stats();
  json::Object doc;
  json::Object endpoint;
  endpoint["encapsulated"] = totals.encapsulated.load();
  endpoint["decapsulated"] = totals.decapsulated.load();
  endpoint["auth_failures"] = totals.auth_failures.load();
  endpoint["replay_drops"] = totals.replay_drops.load();
  endpoint["malformed"] = totals.malformed.load();
  endpoint["no_sa"] = totals.no_sa.load();
  endpoint["lifetime_drops"] = totals.lifetime_drops.load();
  endpoint["rekeys_started"] = totals.rekeys_started.load();
  endpoint["rekeys_completed"] = totals.rekeys_completed.load();
  endpoint["sas_retired"] = totals.sas_retired.load();
  endpoint["cross_slot_frames"] = totals.cross_slot_frames.load();
  doc["endpoint"] = std::move(endpoint);
  doc["sad_size"] = static_cast<std::uint64_t>(sad_.size());
  auto it = tunnels_.find(ctx);
  if (it != tunnels_.end() && it->second.configured) {
    const Tunnel& tunnel = it->second;
    json::Object t;
    t["transform"] =
        std::string(tunnel.transform == EspTransform::kGcm ? "gcm"
                                                           : "cbc-hmac");
    t["out_sa"] = sa_to_json(tunnel.out_sa);
    t["in_sa"] = sa_to_json(tunnel.in_sa);
    t["rekey_pending"] = tunnel.out_sa.state == SaState::kRekeying &&
                         !tunnel.staged.has_value();
    if (tunnel.staged) {
      json::Object staged;
      staged["out_sa"] = sa_to_json(tunnel.staged->out_sa);
      staged["in_sa"] = sa_to_json(tunnel.staged->in_sa);
      t["staged"] = std::move(staged);
    }
    if (tunnel.draining) {
      json::Object draining;
      draining["sa"] = sa_to_json(tunnel.draining->sa);
      draining["deadline_ns"] =
          static_cast<std::uint64_t>(tunnel.draining->deadline);
      t["draining"] = std::move(draining);
    }
    doc["tunnel"] = std::move(t);
  }
  return doc;
}

SecurityAssociation* IpsecEndpoint::inbound_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() ? nullptr : &it->second.in_sa;
}

SecurityAssociation* IpsecEndpoint::outbound_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() ? nullptr : &it->second.out_sa;
}

SecurityAssociation* IpsecEndpoint::staged_outbound_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() || !it->second.staged
             ? nullptr
             : &it->second.staged->out_sa;
}

SecurityAssociation* IpsecEndpoint::staged_inbound_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() || !it->second.staged
             ? nullptr
             : &it->second.staged->in_sa;
}

SecurityAssociation* IpsecEndpoint::draining_sa(ContextId ctx) {
  auto it = tunnels_.find(ctx);
  return it == tunnels_.end() || !it->second.draining
             ? nullptr
             : &it->second.draining->sa;
}

}  // namespace nnfv::nnf
