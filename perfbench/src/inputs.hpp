// Workload definitions and the seeded inputs the benchmark feeds the
// node: per-tenant keying, VLAN/SPI plan, pre-built frame templates and
// the per-frame tenant/flow schedule. Everything here is a pure function
// of (workload, seed); the node receives only these generated inputs.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "esp_check.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  std::size_t tenants;      ///< resident tenants (one IPsec CPE graph each)
  std::size_t payload;      ///< UDP payload bytes per frame
  bool vlan;                ///< VLAN-tagged endpoints (one pair per tenant)
  std::size_t flows;        ///< flows per tenant
  bool zipf;                ///< tenant per frame: Zipf(1) or round-robin
  std::size_t workers;      ///< UniversalNodeConfig::datapath_workers
  double paced_pps;         ///< open-loop latency phase rate
  double background_pps;    ///< traffic beside the churn cycles
  std::size_t max_inflight; ///< closed-loop bound on frames in flight
  double share_saturate;    ///< shares of --seconds per phase
  double share_paced;
  double share_churn;
  int setup_reps;           ///< set-ups per round (median of all reported)
};

// 1 Gb/s of inner payload at 1408 B is 1e9 / (1408 * 8) = 88778 frames/s.
inline constexpr Workload kWorkloads[] = {
    {"cpe_1408", 1, 1408, false, 32, false, 0, 88778.0, 20000.0, 32, 0.35,
     0.35, 0.3, 5},
    {"tenants_64b", 64, 18, true, 1, true, 0, 100000.0, 20000.0, 384, 0.35,
     0.35, 0.3, 1},
    {"tenant_churn", 256, 18, true, 1, false, 0, 20000.0, 20000.0, 32, 0.2,
     0.2, 0.6, 1},
};

inline const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline void put_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

inline void put_be32(std::uint8_t* p, std::uint32_t v) {
  put_be16(p, static_cast<std::uint16_t>(v >> 16));
  put_be16(p + 2, static_cast<std::uint16_t>(v));
}

// SPI plan: tenant i sends on 0x1000 + i and receives on 0x8000 + i.
// The churn tenant gets a fresh SPI pair per cycle (0x100000 + cycle /
// 0x200000 + cycle); graphs deployed by direct orchestrator calls use
// 0x300000 + n / 0x400000 + n. VLAN plan: tenant i's LAN side is VLAN
// 100 + i on eth0, its WAN side VLAN 1100 + i on eth1.
inline constexpr std::uint32_t kSpiOutBase = 0x1000;
inline constexpr std::uint32_t kSpiInBase = 0x8000;
inline constexpr std::uint32_t kChurnSpiOut = 0x100000;
inline constexpr std::uint32_t kChurnSpiIn = 0x200000;
inline constexpr std::uint32_t kDirectSpiOut = 0x300000;
inline constexpr std::uint32_t kDirectSpiIn = 0x400000;

struct Tenant {
  std::uint32_t index = 0;
  std::optional<std::uint16_t> lan_vlan;
  std::optional<std::uint16_t> wan_vlan;
  TunnelKey key;
  std::string enc_key_hex;  ///< 40 hex chars: AES-128 key | salt
  std::size_t l2 = 14;      ///< Ethernet header bytes of the LAN frames
  /// Pre-built LAN-side frames, one per flow; the frame id is stamped
  /// into the first 8 payload bytes when a frame is sent.
  std::vector<std::vector<std::uint8_t>> templates;

  [[nodiscard]] std::size_t id_offset() const { return l2 + 20 + 8; }
  [[nodiscard]] std::string graph_id() const {
    return "t" + std::to_string(index);
  }
};

/// Frame ids: a plain counter for data frames; probes of the churn
/// tenant carry kProbeFlag | cycle << 20 | attempt.
inline constexpr std::uint64_t kProbeFlag = 1ULL << 62;

struct Inputs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  /// Residents, then the churn tenant at index workload->tenants.
  std::vector<Tenant> tenants;
  static constexpr std::size_t kSchedule = 1u << 16;
  std::vector<std::uint16_t> sched_tenant;
  std::vector<std::uint8_t> sched_flow;

  [[nodiscard]] const Tenant& churn_tenant() const { return tenants.back(); }

  /// The inner IPv4 packet a frame of (tenant, flow) with `id` carried
  /// (what decryption must reproduce), written into `out`.
  void expected_inner(std::uint32_t tenant, std::uint32_t flow,
                      std::uint64_t id, std::vector<std::uint8_t>& out) const {
    const Tenant& t = tenants[tenant];
    const std::vector<std::uint8_t>& tpl = t.templates[flow];
    out.assign(tpl.begin() + static_cast<std::ptrdiff_t>(t.l2), tpl.end());
    std::memcpy(out.data() + (t.id_offset() - t.l2), &id, sizeof(id));
  }
};

/// Ethernet [802.1Q] | IPv4 | UDP (checksum 0) | payload.
inline std::vector<std::uint8_t> build_template(
    std::optional<std::uint16_t> vlan, std::uint32_t src_ip,
    std::uint32_t dst_ip, std::uint16_t sport, std::uint16_t dport,
    std::size_t payload, std::uint64_t& rng) {
  const std::size_t l2 = vlan ? 18 : 14;
  std::vector<std::uint8_t> f(l2 + 20 + 8 + payload);
  const std::uint8_t dst_mac[6] = {0x02, 0, 0, 0, 0, 0x01};
  const std::uint8_t src_mac[6] = {0x02, 0, 0, 0, 0, 0x02};
  std::memcpy(f.data(), dst_mac, 6);
  std::memcpy(f.data() + 6, src_mac, 6);
  if (vlan) {
    put_be16(f.data() + 12, 0x8100);
    put_be16(f.data() + 14, *vlan);
    put_be16(f.data() + 16, 0x0800);
  } else {
    put_be16(f.data() + 12, 0x0800);
  }
  std::uint8_t* ip = f.data() + l2;
  ip[0] = 0x45;
  put_be16(ip + 2, static_cast<std::uint16_t>(20 + 8 + payload));
  put_be16(ip + 4, static_cast<std::uint16_t>(splitmix64(rng)));
  ip[8] = 64;
  ip[9] = 17;
  put_be32(ip + 12, src_ip);
  put_be32(ip + 16, dst_ip);
  std::uint32_t sum = 0;
  for (int i = 0; i < 20; i += 2) sum += (ip[i] << 8) | ip[i + 1];
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  put_be16(ip + 10, static_cast<std::uint16_t>(~sum));
  std::uint8_t* udp = ip + 20;
  put_be16(udp, sport);
  put_be16(udp + 2, dport);
  put_be16(udp + 4, static_cast<std::uint16_t>(8 + payload));
  for (std::size_t i = 0; i < payload; ++i) {
    udp[8 + i] = static_cast<std::uint8_t>(splitmix64(rng));
  }
  return f;
}

/// `w` must outlive the returned inputs.
inline Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.workload = &w;
  in.seed = seed;
  std::uint64_t rng = seed * 0x2545F4914F6CDD1DULL + 1;
  const std::size_t total = w.tenants + 1;  // + the churn tenant
  for (std::size_t i = 0; i < total; ++i) {
    Tenant t;
    t.index = static_cast<std::uint32_t>(i);
    // The cpe_1408 resident is the paper's untagged CPE; every other
    // tenant (and the churn tenant everywhere) is VLAN-separated.
    const bool tagged = w.vlan || i == w.tenants;
    if (tagged) {
      t.lan_vlan = static_cast<std::uint16_t>(100 + i);
      t.wan_vlan = static_cast<std::uint16_t>(1100 + i);
      t.l2 = 18;
    }
    static const char* kHex = "0123456789abcdef";
    for (int b = 0; b < 20; ++b) {
      const auto byte = static_cast<std::uint8_t>(splitmix64(rng));
      if (b < 16) {
        t.key.key[static_cast<std::size_t>(b)] = byte;
      } else {
        t.key.salt[static_cast<std::size_t>(b - 16)] = byte;
      }
      t.enc_key_hex += kHex[byte >> 4];
      t.enc_key_hex += kHex[byte & 0xF];
    }
    const std::size_t flows = i == w.tenants ? 1 : w.flows;
    for (std::size_t f = 0; f < flows; ++f) {
      // 10.(1 + i / 256).(i % 256).2 -> 172.16.(i % 256).1, one UDP port
      // pair per flow.
      const std::uint32_t src = (10u << 24) |
                                static_cast<std::uint32_t>((1 + i / 256) << 16) |
                                static_cast<std::uint32_t>((i % 256) << 8) | 2u;
      const std::uint32_t dst = (172u << 24) | (16u << 16) |
                                static_cast<std::uint32_t>((i % 256) << 8) | 1u;
      t.templates.push_back(build_template(
          t.lan_vlan, src, dst, static_cast<std::uint16_t>(10000 + f), 5001,
          w.payload, rng));
    }
    in.tenants.push_back(std::move(t));
  }

  // Per-frame schedule: tenant from Zipf(s = 1) over the residents (or
  // round-robin), flow uniform over the tenant's flows.
  std::vector<double> cdf(w.tenants);
  double norm = 0.0;
  for (std::size_t i = 0; i < w.tenants; ++i) norm += 1.0 / double(i + 1);
  double acc = 0.0;
  for (std::size_t i = 0; i < w.tenants; ++i) {
    acc += 1.0 / double(i + 1) / norm;
    cdf[i] = acc;
  }
  in.sched_tenant.resize(Inputs::kSchedule);
  in.sched_flow.resize(Inputs::kSchedule);
  for (std::size_t k = 0; k < Inputs::kSchedule; ++k) {
    std::size_t tenant = k % w.tenants;
    if (w.zipf) {
      const double u = double(splitmix64(rng) >> 11) * 0x1.0p-53;
      tenant = 0;
      while (tenant + 1 < w.tenants && cdf[tenant] < u) ++tenant;
    }
    in.sched_tenant[k] = static_cast<std::uint16_t>(tenant);
    in.sched_flow[k] = static_cast<std::uint8_t>(splitmix64(rng) % w.flows);
  }
  return in;
}

/// NF-FG JSON for one tenant's IPsec CPE graph (what the REST PUT sends).
inline std::string tenant_graph_json(const Tenant& t, std::uint32_t spi_out,
                                     std::uint32_t spi_in) {
  auto vlan = [](std::optional<std::uint16_t> v) {
    return v ? ", \"vlan\": " + std::to_string(*v) : std::string();
  };
  return "{\"forwarding-graph\": {\"id\": \"" + t.graph_id() +
         "\", \"name\": \"tenant " + std::to_string(t.index) +
         " IPsec CPE\", \"VNFs\": [{\"id\": \"vpn\", \"functional_type\": "
         "\"ipsec\", \"ports\": 2, \"backend\": \"native\", \"config\": {"
         "\"local_ip\": \"198.51.100.1\", \"peer_ip\": \"198.51.100.2\", "
         "\"spi_out\": \"" +
         std::to_string(spi_out) + "\", \"spi_in\": \"" +
         std::to_string(spi_in) + "\", \"enc_key\": \"" + t.enc_key_hex +
         "\", \"esp_transform\": \"gcm\"}}], \"end-points\": ["
         "{\"id\": \"lan\", \"interface\": \"eth0\"" +
         vlan(t.lan_vlan) +
         "}, {\"id\": \"wan\", \"interface\": \"eth1\"" + vlan(t.wan_vlan) +
         "}], \"flow-rules\": ["
         "{\"id\": \"r1\", \"match\": {\"port_in\": \"endpoint:lan\"}, "
         "\"action\": {\"output\": \"vnf:vpn:0\"}}, "
         "{\"id\": \"r2\", \"match\": {\"port_in\": \"vnf:vpn:1\"}, "
         "\"action\": {\"output\": \"endpoint:wan\"}}, "
         "{\"id\": \"r3\", \"match\": {\"port_in\": \"endpoint:wan\"}, "
         "\"action\": {\"output\": \"vnf:vpn:1\"}}, "
         "{\"id\": \"r4\", \"match\": {\"port_in\": \"vnf:vpn:0\"}, "
         "\"action\": {\"output\": \"endpoint:lan\"}}]}}";
}

}  // namespace perfbench
