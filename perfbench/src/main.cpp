// perfbench_node: wall-clock benchmark of a deployed Native-NF node.
//
// Builds core::UniversalNode, deploys one IPsec CPE NF-FG per tenant over
// the node's loopback REST API, then drives pre-built frames into eth0
// and reads them back at eth1, in three phases:
//   saturate  closed loop, bounded frames in flight, zero loss
//   paced     open loop at a fixed rate; latency from each frame's due
//             time to its egress
//   churn     PUT / probe / DELETE / probe cycles of one extra tenant over
//             REST beside paced background traffic
// Every egress frame is mapped back by VLAN + SPI + ESP sequence number,
// and sampled frames are decrypted by an OpenSSL checker that shares no
// code with the node. Data-plane frames never leave the process; only the
// REST requests cross loopback TCP.
//
//   perfbench_node --workload cpe_1408 --seed 1 --seconds 10 --trace 0
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "core/node.hpp"
#include "crypto/cipher_modes.hpp"
#include "esp_check.hpp"
#include "inputs.hpp"
#include "nffg/nffg_json.hpp"
#include "nffg/validate.hpp"
#include "nnf/ipsec.hpp"
#include "nnf/plugin.hpp"
#include "packet/mbuf.hpp"
#include "rest/api.hpp"
#include "rest/server.hpp"
#include "trace.hpp"
#include "http_client.hpp"

#if defined(__OPTIMIZE__) && defined(NDEBUG) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

namespace perfbench {
namespace {

using nnfv::packet::PacketBuffer;
using nnfv::packet::PacketBurst;

constexpr std::size_t kBurst = 32;
constexpr double kPaperGoodputMbps = 1094.0;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Fixed-capacity sample store, committed (touched) at construction so
/// filling it later does not show up as node memory.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : data_(capacity) {}
  void push(double value) {
    if (n_ < data_.size()) data_[n_++] = value;
  }
  [[nodiscard]] std::size_t size() const { return n_; }
  /// Nearest-rank percentile; reorders the samples.
  double percentile(double q) {
    if (n_ == 0) return 0.0;
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * double(n_)));
    rank = std::clamp<std::size_t>(rank, 1, n_) - 1;
    std::nth_element(data_.begin(), data_.begin() + static_cast<long>(rank),
                     data_.begin() + static_cast<long>(n_));
    return data_[rank];
  }
  /// Median, over consecutive windows of about `window` samples (in the
  /// order they were pushed), of each window's q-quantile: a tail figure
  /// that one burst of interference from outside the node cannot move.
  double windowed(std::size_t window, double q) {
    const std::size_t count = std::max<std::size_t>(1, n_ / window);
    std::vector<double> per_window;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t lo = k * n_ / count;
      const std::size_t hi = (k + 1) * n_ / count;
      if (hi == lo) continue;
      std::size_t rank = static_cast<std::size_t>(std::ceil(q * double(hi - lo)));
      rank = lo + std::clamp<std::size_t>(rank, 1, hi - lo) - 1;
      std::nth_element(data_.begin() + static_cast<long>(lo),
                       data_.begin() + static_cast<long>(rank),
                       data_.begin() + static_cast<long>(hi));
      per_window.push_back(data_[rank]);
    }
    return median_of(std::move(per_window));
  }

 private:
  std::vector<double> data_;
  std::size_t n_ = 0;
};

/// VmRSS / VmHWM of this process in MiB.
double status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::atof(line.c_str() + key_len + 1) / 1024.0;
    }
  }
  return 0.0;
}

class Bench;

/// The IPsec NNF as the node sees it, wrapped so the benchmark observes
/// each process_burst call: frame ids on entry, the span around the call.
class ObservedIpsec final : public nnfv::nnf::NetworkFunction {
 public:
  ObservedIpsec(std::unique_ptr<nnfv::nnf::NetworkFunction> inner,
                Bench* bench)
      : inner_(std::move(inner)), bench_(bench) {}

  std::string_view type() const override { return inner_->type(); }
  std::size_t num_ports() const override { return inner_->num_ports(); }
  nnfv::util::Status add_context(nnfv::nnf::ContextId ctx) override {
    return inner_->add_context(ctx);
  }
  nnfv::util::Status remove_context(nnfv::nnf::ContextId ctx) override {
    return inner_->remove_context(ctx);
  }
  bool has_context(nnfv::nnf::ContextId ctx) const override {
    return inner_->has_context(ctx);
  }
  nnfv::util::Status configure(nnfv::nnf::ContextId ctx,
                               const nnfv::nnf::NfConfig& config) override {
    return inner_->configure(ctx, config);
  }
  std::vector<nnfv::nnf::NfOutput> process(
      nnfv::nnf::ContextId ctx, nnfv::nnf::NfPortIndex in_port,
      nnfv::sim::SimTime now, PacketBuffer&& frame) override {
    // NfInstance always enters through process_burst(); this stays a
    // plain delegation.
    return inner_->process(ctx, in_port, now, std::move(frame));
  }
  std::vector<nnfv::nnf::NfOutput> process_burst(
      nnfv::nnf::ContextId ctx, nnfv::nnf::NfPortIndex in_port,
      nnfv::sim::SimTime now, PacketBurst&& burst) override;
  nnfv::json::Value describe_stats(nnfv::nnf::ContextId ctx) const override {
    return inner_->describe_stats(ctx);
  }

 private:
  std::unique_ptr<nnfv::nnf::NetworkFunction> inner_;
  Bench* bench_;
};

/// Wraps nnf::make_ipsec_plugin(): same descriptor and lifecycle, but the
/// function it creates is an ObservedIpsec.
class ObservedIpsecPlugin final : public nnfv::nnf::NnfPlugin {
 public:
  explicit ObservedIpsecPlugin(Bench* bench)
      : inner_(nnfv::nnf::make_ipsec_plugin()), bench_(bench) {}
  const nnfv::nnf::NnfDescriptor& descriptor() const override {
    return inner_->descriptor();
  }
  nnfv::util::Result<std::unique_ptr<nnfv::nnf::NetworkFunction>>
  create_function() override {
    auto function = inner_->create_function();
    if (!function) return function.status();
    return nnfv::util::Result<std::unique_ptr<nnfv::nnf::NetworkFunction>>(
        std::make_unique<ObservedIpsec>(std::move(function.value()), bench_));
  }
  nnfv::util::Status update(nnfv::nnf::NetworkFunction& nf,
                            nnfv::nnf::ContextId ctx,
                            const nnfv::nnf::NfConfig& config) override {
    return inner_->update(nf, ctx, config);
  }
  nnfv::util::Status on_start(nnfv::nnf::NetworkFunction& nf) override {
    return inner_->on_start(nf);
  }
  nnfv::util::Status on_stop(nnfv::nnf::NetworkFunction& nf) override {
    return inner_->on_stop(nf);
  }

 private:
  std::shared_ptr<nnfv::nnf::NnfPlugin> inner_;
  Bench* bench_;
};

/// Counters and timestamps bracketing one measurement phase.
struct Phase {
  std::int64_t t0 = 0, t1 = 0;
  std::uint64_t tick0 = 0;
  std::uint64_t offered = 0, delivered = 0, events = 0;
  std::uint64_t heap = 0;
  std::uint64_t nf_calls = 0, nf_frames = 0;
  nnfv::packet::MbufPoolStats pool{};
  std::vector<std::uint64_t> worker_processed;
  nnfv::sim::SimTime sim_time = 0;
  /// Traced run: wall time and frames of the alternating slices.
  double traced_ns = 0, untraced_ns = 0;
  std::uint64_t traced_frames = 0, untraced_frames = 0;
  /// Untraced run: delivered frames/s of each 100 ms slice.
  std::vector<double> slice_rates;
  double duration_s = 0;  ///< set by end_phase; summed by merge
  [[nodiscard]] double seconds() const { return duration_s; }

  /// Adds another round of the same phase.
  void merge(const Phase& o) {
    if (tick0 == 0) tick0 = o.tick0;
    offered += o.offered;
    delivered += o.delivered;
    events += o.events;
    heap += o.heap;
    nf_calls += o.nf_calls;
    nf_frames += o.nf_frames;
    pool.segment_allocs += o.pool.segment_allocs;
    pool.cross_worker_frees += o.pool.cross_worker_frees;
    pool.slab_allocs = o.pool.slab_allocs;
    worker_processed.resize(o.worker_processed.size());
    for (std::size_t i = 0; i < o.worker_processed.size(); ++i) {
      worker_processed[i] += o.worker_processed[i];
    }
    sim_time += o.sim_time;
    traced_ns += o.traced_ns;
    untraced_ns += o.untraced_ns;
    traced_frames += o.traced_frames;
    untraced_frames += o.untraced_frames;
    slice_rates.insert(slice_rates.end(), o.slice_rates.begin(),
                       o.slice_rates.end());
    duration_s += o.duration_s;
  }
};

class Bench {
 public:
  Bench(const Inputs& inputs, bool trace)
      : in_(inputs),
        w_(*inputs.workload),
        trace_(trace),
        fifo_(inputs.tenants.size()),
        stamps_(kStampRing),
        latency_us_(4u << 20),
        lateness_us_(4u << 20),
        activate_ms_(1u << 18),
        teardown_ms_(1u << 18),
        first_frame_us_(1u << 18),
        rest_roundtrip_us_(1u << 18),
        rest_handle_us_(1u << 18),
        wait_to_nf_us_(1u << 20),
        to_nf_us_(1u << 20) {
    for (Fifo& f : fifo_) f.ring.resize(kFifoCap);
    expected_.reserve(2048);
    bench_thread_ = std::this_thread::get_id();
  }

  ~Bench() { destroy_node(); }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int run(double seconds, const char* spans_path);

  // --- hooks called by the node ------------------------------------------
  void on_nf_enter(const PacketBurst& burst, std::uint64_t t);
  void on_nf_exit(std::uint64_t t) { mark_ = t; }
  Tracer& tracer() { return tracer_; }
  void count_nf_call(std::size_t frames) {
    ++nf_calls_;
    nf_frames_ += frames;
  }

 private:
  /// Per-tenant FIFO slots; above any workload's frames in flight.
  static constexpr std::size_t kFifoCap = 1024;
  static constexpr std::size_t kStampRing = 1u << 16;

  struct Pending {
    std::uint64_t id = 0;
    std::int64_t t = 0;  ///< due time (paced) or 0
    std::uint32_t flow = 0;
  };
  struct Fifo {
    std::vector<Pending> ring;
    std::uint64_t head = 0, tail = 0;
    std::uint32_t last_seq = 0;
  };
  struct Stamp {  // tracer ticks
    std::uint64_t id = ~0ULL;
    std::uint64_t submit = 0;    ///< inject_burst call
    std::uint64_t returned = 0;  ///< inject_burst return
  };
  struct Next {
    std::uint32_t tenant, flow;
    std::int64_t due;
  };
  struct Pacer {
    std::int64_t start = 0;
    double period_ns = 0;
    std::uint64_t k = 0;
    bool record_lateness = false;
  };

  // --- node lifecycle ----------------------------------------------------
  double setup_node();
  void destroy_node();
  nnfv::rest::HttpResponse handle_rest(const nnfv::rest::HttpRequest& req);

  /// Takes the node lock without sleeping: both the traffic loop and the
  /// REST handler spin for it, since waking a thread that slept on a
  /// futex costs a host-dependent delay on a VM that the control-plane
  /// timings would then measure.
  void lock_node() {
    while (!node_mutex_.try_lock()) std::this_thread::yield();
  }

  /// Runs `fn` holding the node lock, then yields to a waiting REST
  /// handler so control requests are not starved by the traffic loop.
  template <typename Fn>
  void locked(Fn&& fn) {
    lock_node();
    {
      std::lock_guard<std::mutex> guard(node_mutex_, std::adopt_lock);
      fn();
    }
    while (control_waiting_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }

  // --- data plane ----------------------------------------------------------
  void emit(const Next* next, std::size_t n, bool record_lateness);
  void step_sim();
  void quiesce() {
    locked([&] {
      node_->drain_datapath();
      step_sim();
    });
  }
  [[nodiscard]] std::uint64_t inflight() const { return offered_ - delivered_; }
  Next next_scheduled(std::int64_t due) {
    const std::size_t k = sched_pos_++ % Inputs::kSchedule;
    return Next{in_.sched_tenant[k], in_.sched_flow[k], due};
  }
  bool pace_step(Pacer& pacer, std::int64_t now);
  void send_probe(std::uint64_t cycle, std::uint64_t attempt);
  void on_egress(PacketBuffer&& frame);
  void check_egress(std::span<const std::uint8_t> data);
  void verify_frame(std::uint64_t id, std::uint32_t tenant, std::uint32_t flow,
                    std::span<const std::uint8_t> data);
  void wrong(const std::string& what);

  // --- phases --------------------------------------------------------------
  Phase begin_phase();
  void end_phase(Phase& phase);
  Phase saturate(double seconds, bool alternate_tracing);
  Phase paced(double seconds, bool record_latency);
  Phase churn(double seconds);
  void churn_cycle(std::uint64_t cycle, Pacer& background);
  void verify_all_tenants();
  void check_resident_list();
  void direct_calls();
  void direct_executor();

  const Inputs& in_;
  const Workload& w_;
  const bool trace_;
  Tracer tracer_;

  std::unique_ptr<nnfv::core::UniversalNode> node_;
  std::unique_ptr<nnfv::rest::RestApi> api_;
  std::unique_ptr<nnfv::rest::HttpServer> server_;
  std::mutex node_mutex_;
  std::atomic<int> control_waiting_{0};
  std::thread::id bench_thread_;

  // frame accounting
  std::vector<Fifo> fifo_;
  std::uint64_t next_id_ = 0;
  std::uint64_t sched_pos_ = 0;
  std::uint64_t offered_ = 0, delivered_ = 0, events_ = 0;
  bool record_latency_ = false;
  std::uint64_t sample_mask_ = 1023;
  std::vector<Stamp> stamps_;
  bool stamping_ = false;

  // churn probe state
  std::uint32_t probe_spi_ = 0;
  bool probe_armed_ = false, probe_seen_ = false, after_delete_ = false;
  std::uint64_t probe_id_ = 0;
  std::int64_t probe_sent_ns_ = 0, probe_egress_ns_ = 0;

  // NF observation
  std::uint64_t nf_calls_ = 0, nf_frames_ = 0;
  std::uint64_t mark_ = 0;  ///< tick of the last NF exit / egress end
  std::uint64_t egress_gap_ = 0;  ///< ticks from NF exit to egress peers
  std::uint64_t egress_gap_frames_ = 0;

  // samples
  Samples latency_us_, lateness_us_, activate_ms_, teardown_ms_,
      first_frame_us_, rest_roundtrip_us_, rest_handle_us_, wait_to_nf_us_,
      to_nf_us_;
  std::atomic<bool> record_rest_{false};  ///< read by the REST thread
  std::vector<std::uint8_t> expected_;  ///< verify_frame's scratch

  // outcome
  std::uint64_t attempted_ = 0, failed_ = 0, wrong_ = 0;
  std::vector<std::string> wrong_msgs_;
  std::vector<std::pair<std::string, double>> per_layer_;
  std::vector<std::pair<std::string, double>> extra_layer_;
};

std::vector<nnfv::nnf::NfOutput> ObservedIpsec::process_burst(
    nnfv::nnf::ContextId ctx, nnfv::nnf::NfPortIndex in_port,
    nnfv::sim::SimTime now, PacketBurst&& burst) {
  const std::size_t frames = burst.size();
  bench_->count_nf_call(frames);
  Tracer& tracer = bench_->tracer();
  if (!tracer.enabled()) {
    return inner_->process_burst(ctx, in_port, now, std::move(burst));
  }
  bench_->on_nf_enter(burst, tracer.begin(Layer::kNf));
  auto out = inner_->process_burst(ctx, in_port, now, std::move(burst));
  bench_->on_nf_exit(tracer.end(frames));
  return out;
}

void Bench::on_nf_enter(const PacketBurst& burst, std::uint64_t t) {
  if (!stamping_) return;
  for (const PacketBuffer& frame : burst) {
    const auto d = frame.data();
    if (d.size() < 14) continue;
    std::size_t l2 = 14;
    if (d[12] == 0x81 && d[13] == 0x00) l2 = 18;
    if (d.size() < l2 + 36) continue;
    std::uint64_t id = 0;
    std::memcpy(&id, d.data() + l2 + 28, sizeof(id));
    const Stamp& s = stamps_[id % kStampRing];
    if (s.id != id || t < s.returned) continue;
    wait_to_nf_us_.push(tracer_.to_ns(t - s.returned) / 1e3);
    to_nf_us_.push(tracer_.to_ns(t - s.submit) / 1e3);
  }
}

void Bench::wrong(const std::string& what) {
  ++wrong_;
  if (wrong_msgs_.size() < 8) wrong_msgs_.push_back(what);
}

// --- node lifecycle ---------------------------------------------------------

nnfv::rest::HttpResponse Bench::handle_rest(
    const nnfv::rest::HttpRequest& req) {
  control_waiting_.fetch_add(1, std::memory_order_acq_rel);
  lock_node();
  std::lock_guard<std::mutex> guard(node_mutex_, std::adopt_lock);
  control_waiting_.fetch_sub(1, std::memory_order_acq_rel);
  // The control plane mutates LSI port maps that datapath workers read:
  // let in-flight frames leave the workers first (docs/datapath.md,
  // quiesce contract).
  node_->drain_datapath();
  const std::int64_t t0 = now_ns();
  nnfv::rest::HttpResponse response = api_->handle(req);
  if (record_rest_ && req.method == "PUT") {
    rest_handle_us_.push(double(now_ns() - t0) / 1e3);
  }
  return response;
}

double Bench::setup_node() {
  const std::int64_t t0 = now_ns();
  nnfv::core::UniversalNodeConfig config;
  config.builtin_nnf_plugins = false;
  config.datapath_workers = w_.workers;
  node_ = std::make_unique<nnfv::core::UniversalNode>(config);
  if (!node_->catalog()
           .register_plugin(std::make_shared<ObservedIpsecPlugin>(this))
           .is_ok()) {
    wrong("could not register the IPsec plugin");
    return 0.0;
  }
  (void)node_->set_egress("eth1",
                          [this](PacketBuffer&& f) { on_egress(std::move(f)); });
  (void)node_->set_egress("eth0", [this](PacketBuffer&&) {
    wrong("a frame left through eth0");
  });
  api_ = std::make_unique<nnfv::rest::RestApi>(node_.get());
  server_ = std::make_unique<nnfv::rest::HttpServer>(
      [this](const nnfv::rest::HttpRequest& req) { return handle_rest(req); });
  if (!server_->start(0).is_ok()) {
    wrong("REST server did not start");
    return 0.0;
  }
  for (Fifo& f : fifo_) f.head = f.tail = f.last_seq = 0;
  offered_ = delivered_ = 0;

  for (std::size_t i = 0; i < w_.tenants; ++i) {
    const Tenant& t = in_.tenants[i];
    const auto index = static_cast<std::uint32_t>(i);
    const int status =
        http_blocking(server_->port(), "PUT", "/NF-FG/" + t.graph_id(),
                      tenant_graph_json(t, kSpiOutBase + index,
                                        kSpiInBase + index));
    if (status != 201) {
      wrong("set-up PUT of " + t.graph_id() + " returned " +
            std::to_string(status));
      return 0.0;
    }
  }
  // The deployed graphs deliver their first frame: one per tenant.
  std::vector<Next> first;
  for (std::size_t i = 0; i < w_.tenants; ++i) {
    first.push_back(Next{static_cast<std::uint32_t>(i), 0, 0});
  }
  for (std::size_t i = 0; i < first.size(); i += kBurst) {
    const std::size_t n = std::min(kBurst, first.size() - i);
    locked([&] {
      emit(first.data() + i, n, false);
      step_sim();
    });
  }
  quiesce();
  if (delivered_ != offered_) {
    wrong("set-up: first frames were not all delivered");
  }
  return double(now_ns() - t0) / 1e9;
}

void Bench::destroy_node() {
  if (server_) server_->stop();
  server_.reset();
  api_.reset();
  node_.reset();
}

// --- data plane ---------------------------------------------------------------

void Bench::emit(const Next* next, std::size_t n, bool record_lateness) {
  const bool tracing = tracer_.enabled();
  if (tracing) tracer_.begin(Layer::kGen);
  PacketBurst burst;
  burst.reserve(n);
  std::uint64_t first_id = next_id_;
  for (std::size_t i = 0; i < n; ++i) {
    const Tenant& t = in_.tenants[next[i].tenant];
    const std::vector<std::uint8_t>& tpl = t.templates[next[i].flow];
    const std::uint64_t id = next_id_++;
    PacketBuffer frame = PacketBuffer::alloc(tpl.size());
    std::uint8_t* d = frame.data().data();
    std::memcpy(d, tpl.data(), tpl.size());
    std::memcpy(d + t.id_offset(), &id, sizeof(id));
    burst.push_back(std::move(frame));
    Fifo& q = fifo_[next[i].tenant];
    q.ring[q.tail++ % kFifoCap] = Pending{id, next[i].due, next[i].flow};
  }
  offered_ += n;
  if (tracing) tracer_.end(n);

  const std::int64_t submit = now_ns();
  const std::uint64_t submit_tick = tracing ? tracer_.begin(Layer::kInject) : 0;
  (void)node_->inject_burst("eth0", std::move(burst));
  if (tracing) {
    const std::uint64_t returned = tracer_.end(n);
    if (stamping_) {
      for (std::uint64_t id = first_id; id < next_id_; ++id) {
        stamps_[id % kStampRing] = Stamp{id, submit_tick, returned};
      }
    }
  }
  if (record_lateness) {
    for (std::size_t i = 0; i < n; ++i) {
      lateness_us_.push(double(submit - next[i].due) / 1e3);
    }
  }
}

void Bench::step_sim() {
  if (!tracer_.enabled()) {
    events_ += node_->simulator().run();
    return;
  }
  tracer_.begin(Layer::kSimRun);
  const std::uint64_t events = node_->simulator().run();
  tracer_.end(events);
  events_ += events;
}

bool Bench::pace_step(Pacer& pacer, std::int64_t now) {
  Next due[kBurst];
  std::size_t n = 0;
  while (n < kBurst && inflight() + n < std::max(w_.max_inflight, kBurst)) {
    const std::int64_t at =
        pacer.start + std::llround(double(pacer.k) * pacer.period_ns);
    if (at > now) break;
    due[n++] = next_scheduled(at);
    ++pacer.k;
  }
  if (n == 0) return false;
  locked([&] {
    emit(due, n, pacer.record_lateness);
    step_sim();
  });
  return true;
}

void Bench::send_probe(std::uint64_t cycle, std::uint64_t attempt) {
  const Tenant& t = in_.churn_tenant();
  const std::vector<std::uint8_t>& tpl = t.templates[0];
  probe_id_ = kProbeFlag | (cycle << 20) | (attempt & 0xFFFFF);
  PacketBuffer frame = PacketBuffer::alloc(tpl.size());
  std::memcpy(frame.data().data(), tpl.data(), tpl.size());
  std::memcpy(frame.data().data() + t.id_offset(), &probe_id_,
              sizeof(probe_id_));
  locked([&] {
    probe_sent_ns_ = now_ns();
    PacketBurst burst;
    burst.push_back(std::move(frame));
    (void)node_->inject_burst("eth0", std::move(burst));
    node_->drain_datapath();
    step_sim();
  });
}

void Bench::on_egress(PacketBuffer&& frame) {
  if (std::this_thread::get_id() != bench_thread_) {
    // Egress off the simulator thread would race with the accounting.
    std::fprintf(stderr, "perfbench: eth1 egress ran off the simulator "
                         "thread\n");
    std::abort();
  }
  if (!tracer_.enabled()) {
    check_egress(frame.data());
    return;
  }
  egress_gap_ += tracer_.begin(Layer::kEgress) - mark_;
  ++egress_gap_frames_;
  check_egress(frame.data());
  mark_ = tracer_.end(1);
}

void Bench::check_egress(std::span<const std::uint8_t> data) {
  const EspView v = parse_esp_frame(data);
  if (!v.ok) {
    wrong("egress frame is not Ethernet/IPv4/ESP");
    return;
  }
  if (v.spi >= kSpiOutBase && v.spi < kSpiOutBase + w_.tenants) {
    const std::uint32_t tenant = v.spi - kSpiOutBase;
    const Tenant& t = in_.tenants[tenant];
    if (v.tagged != t.wan_vlan.has_value() ||
        (v.tagged && v.vlan != *t.wan_vlan)) {
      wrong("egress VLAN does not match the tenant of SPI " +
            std::to_string(v.spi));
    }
    Fifo& q = fifo_[tenant];
    if (v.seq != q.last_seq + 1) {
      wrong("ESP sequence gap on SPI " + std::to_string(v.spi) + ": " +
            std::to_string(q.last_seq) + " -> " + std::to_string(v.seq));
    }
    q.last_seq = v.seq;
    if (q.head == q.tail) {
      wrong("egress frame of tenant " + std::to_string(tenant) +
            " with none in flight");
      return;
    }
    const Pending p = q.ring[q.head++ % kFifoCap];
    ++delivered_;
    if (record_latency_) latency_us_.push(double(now_ns() - p.t) / 1e3);
    if ((p.id & sample_mask_) == 0) verify_frame(p.id, tenant, p.flow, data);
    return;
  }
  if (probe_armed_ && v.spi == probe_spi_) {
    if (after_delete_) {
      ++failed_;
      wrong("a probe egressed after its graph was deleted");
      return;
    }
    if (probe_seen_) wrong("more than one probe egressed in a cycle");
    const Tenant& t = in_.churn_tenant();
    if (!v.tagged || v.vlan != *t.wan_vlan || v.seq != 1) {
      wrong("probe egressed with the wrong VLAN or a sequence other than 1");
    }
    probe_seen_ = true;
    probe_egress_ns_ = now_ns();
    verify_frame(probe_id_, static_cast<std::uint32_t>(w_.tenants), 0, data);
    return;
  }
  wrong("egress frame with unknown SPI " + std::to_string(v.spi));
}

/// Decrypts one egress frame with the OpenSSL checker as it leaves eth1
/// (a few microseconds; nothing is stored for later, so no frame that
/// should be checked can go unchecked).
void Bench::verify_frame(std::uint64_t id, std::uint32_t tenant,
                         std::uint32_t flow,
                         std::span<const std::uint8_t> data) {
  in_.expected_inner(tenant, flow, id, expected_);
  ++attempted_;
  const std::string why =
      check_esp_frame(data, in_.tenants[tenant].key, expected_);
  if (!why.empty()) {
    ++failed_;
    wrong("OpenSSL check of frame " + std::to_string(id) + ": " + why);
  }
}

// --- phases -----------------------------------------------------------------------

Phase Bench::begin_phase() {
  quiesce();
  Phase p;
  p.offered = offered_;
  p.delivered = delivered_;
  p.events = events_;
  p.heap = heap_new_calls();
  p.pool = nnfv::packet::MbufPool::global_stats();
  p.nf_calls = nf_calls_;
  p.nf_frames = nf_frames_;
  p.sim_time = node_->simulator().now();
  if (auto* dp = node_->datapath()) {
    for (std::size_t i = 0; i < dp->worker_count(); ++i) {
      p.worker_processed.push_back(dp->worker_stats(i).processed);
    }
  }
  p.tick0 = ticks();
  p.t0 = now_ns();
  return p;
}

void Bench::end_phase(Phase& p) {
  quiesce();
  p.t1 = now_ns();
  p.duration_s = double(p.t1 - p.t0) / 1e9;
  p.offered = offered_ - p.offered;
  p.delivered = delivered_ - p.delivered;
  p.events = events_ - p.events;
  p.heap = heap_new_calls() - p.heap;
  const nnfv::packet::MbufPoolStats pool = nnfv::packet::MbufPool::global_stats();
  p.pool.segment_allocs = pool.segment_allocs - p.pool.segment_allocs;
  p.pool.cross_worker_frees = pool.cross_worker_frees - p.pool.cross_worker_frees;
  p.pool.slab_allocs = pool.slab_allocs;
  p.nf_calls = nf_calls_ - p.nf_calls;
  p.nf_frames = nf_frames_ - p.nf_frames;
  p.sim_time = node_->simulator().now() - p.sim_time;
  if (auto* dp = node_->datapath()) {
    for (std::size_t i = 0; i < dp->worker_count(); ++i) {
      p.worker_processed[i] = dp->worker_stats(i).processed -
                              p.worker_processed[i];
    }
  }
  attempted_ += p.offered;
  if (inflight() != 0) {
    // Lost frames: count them and forget what they left in the FIFOs.
    failed_ += inflight();
    wrong(std::to_string(inflight()) + " frames were never delivered");
    for (Fifo& f : fifo_) f.head = f.tail;
    delivered_ = offered_;
  }
}

/// Closed loop, in slices: 100 ms ones whose delivered rates are kept
/// (their median is the phase's throughput), or, with
/// `alternate_tracing`, 20 ms ones that switch the tracer on and off, so
/// traced and untraced wall time per frame come from the same stretch of
/// time and machine state.
Phase Bench::saturate(double seconds, bool alternate_tracing) {
  Phase p = begin_phase();
  const std::int64_t end = p.t0 + std::llround(seconds * 1e9);
  const std::int64_t slice_ns = alternate_tracing ? 20'000'000 : 100'000'000;
  bool traced = false;
  std::int64_t slice_start = p.t0;
  std::uint64_t slice_delivered = delivered_;
  Next next[kBurst];
  while (true) {
    const std::int64_t now = now_ns();
    if (now - slice_start >= slice_ns || now >= end) {
      const std::uint64_t frames = delivered_ - slice_delivered;
      if (alternate_tracing) {
        (traced ? p.traced_ns : p.untraced_ns) += double(now - slice_start);
        (traced ? p.traced_frames : p.untraced_frames) += frames;
        traced = !traced && now < end;
        tracer_.set_enabled(traced);
      } else if (now - slice_start >= slice_ns / 2) {
        p.slice_rates.push_back(double(frames) * 1e9 /
                                double(now - slice_start));
      }
      slice_start = now;
      slice_delivered = delivered_;
    }
    if (now >= end) break;
    locked([&] {
      while (inflight() + kBurst <= w_.max_inflight) {
        for (Next& n : next) n = next_scheduled(0);
        emit(next, kBurst, false);
      }
      step_sim();
    });
  }
  end_phase(p);
  return p;
}

Phase Bench::paced(double seconds, bool record_latency) {
  Phase p = begin_phase();
  Pacer pacer{p.t0, 1e9 / w_.paced_pps, 0, true};
  const std::int64_t end = p.t0 + std::llround(seconds * 1e9);
  record_latency_ = record_latency;
  while (true) {
    const std::int64_t now = now_ns();
    if (now >= end) break;
    if (!pace_step(pacer, now) && inflight() > 0) locked([&] { step_sim(); });
  }
  end_phase(p);
  record_latency_ = false;
  return p;
}

Phase Bench::churn(double seconds) {
  Phase p = begin_phase();
  Pacer background{p.t0, 1e9 / w_.background_pps, 0, false};
  const std::int64_t end = p.t0 + std::llround(seconds * 1e9);
  std::uint64_t cycle = 0;
  while (now_ns() < end && wrong_ == 0) churn_cycle(cycle++, background);
  end_phase(p);
  return p;
}

void Bench::churn_cycle(std::uint64_t cycle, Pacer& background) {
  const Tenant& t = in_.churn_tenant();
  const auto c = static_cast<std::uint32_t>(cycle % 0xFFFFF);
  const std::string target = "/NF-FG/" + t.graph_id();
  const std::string put_request = http_request(
      "PUT", target, tenant_graph_json(t, kChurnSpiOut + c, kChurnSpiIn + c));
  const std::string delete_request = http_request("DELETE", target, "");
  constexpr std::int64_t kProbeGapNs = 10'000;
  constexpr std::int64_t kTimeoutNs = 5'000'000'000;

  probe_spi_ = kChurnSpiOut + c;
  probe_armed_ = true;
  probe_seen_ = false;
  after_delete_ = false;

  // PUT, probing until the tenant's first frame leaves eth1 encrypted.
  attempted_ += 1;
  HttpCall put;
  const std::int64_t t_put = now_ns();
  if (!put.start(server_->port(), put_request)) {
    ++failed_;
    wrong("PUT: connect/send failed");
    return;
  }
  std::uint64_t attempt = 0;
  std::int64_t next_probe = t_put;
  std::int64_t first_probe_sent = 0;
  while (!(put.poll() && probe_seen_)) {
    const std::int64_t now = now_ns();
    if (now - t_put > kTimeoutNs || (put.done() && put.status() != 201)) {
      ++failed_;
      wrong("PUT " + target + ": status " + std::to_string(put.status()) +
            (probe_seen_ ? "" : ", no probe egressed"));
      probe_armed_ = false;
      return;
    }
    pace_step(background, now);
    if (!probe_seen_ && now >= next_probe) {
      send_probe(cycle, attempt++);
      if (probe_seen_) first_probe_sent = probe_sent_ns_;
      next_probe = now + kProbeGapNs;
    }
  }
  activate_ms_.push(double(probe_egress_ns_ - t_put) / 1e6);
  first_frame_us_.push(double(probe_egress_ns_ - first_probe_sent) / 1e3);
  if (record_rest_) rest_roundtrip_us_.push(double(put.done_ns() - t_put) / 1e3);

  // DELETE round trip, traffic continuing beside it.
  attempted_ += 1;
  HttpCall del;
  const std::int64_t t_del = now_ns();
  if (!del.start(server_->port(), delete_request)) {
    ++failed_;
    wrong("DELETE: connect/send failed");
    return;
  }
  while (!del.poll()) {
    const std::int64_t now = now_ns();
    if (now - t_del > kTimeoutNs) break;
    pace_step(background, now);
  }
  if (del.status() != 204) {
    ++failed_;
    wrong("DELETE " + target + ": status " + std::to_string(del.status()));
  } else {
    teardown_ms_.push(double(del.done_ns() - t_del) / 1e6);
  }

  // One more probe, which must not egress.
  attempted_ += 1;
  after_delete_ = true;
  send_probe(cycle, attempt++);
  probe_armed_ = false;
}

/// A phase of fixed size in which every frame is decrypted by the checker:
/// each tenant's templates in turn, in bursts.
void Bench::verify_all_tenants() {
  Phase p = begin_phase();
  sample_mask_ = 0;
  std::vector<Next> frames;
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::uint32_t t = 0; t < w_.tenants; ++t) {
      for (std::uint32_t f = 0; f < in_.tenants[t].templates.size(); ++f) {
        frames.push_back(Next{t, f, 0});
      }
    }
  }
  for (std::size_t i = 0; i < frames.size(); i += kBurst) {
    const std::size_t n = std::min(kBurst, frames.size() - i);
    locked([&] {
      emit(frames.data() + i, n, false);
      node_->drain_datapath();
      step_sim();
    });
  }
  end_phase(p);
  sample_mask_ = 1023;
}

void Bench::check_resident_list() {
  attempted_ += 1;
  std::string body;
  const int status = http_blocking(server_->port(), "GET", "/NF-FG", "", &body);
  std::vector<std::string> listed;
  for (std::size_t pos = body.find('"'); pos != std::string::npos;) {
    const std::size_t close = body.find('"', pos + 1);
    if (close == std::string::npos) break;
    listed.push_back(body.substr(pos + 1, close - pos - 1));
    pos = body.find('"', close + 1);
  }
  std::vector<std::string> want = {"graphs"};
  for (std::size_t i = 0; i < w_.tenants; ++i) {
    want.push_back(in_.tenants[i].graph_id());
  }
  std::sort(listed.begin(), listed.end());
  std::sort(want.begin(), want.end());
  if (status != 200 || listed != want) {
    ++failed_;
    wrong("GET /NF-FG does not list exactly the resident tenants");
  }
}

template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn(r);
    v.push_back(double(now_ns() - t0));
  }
  return median_of(std::move(v));
}

/// Per-layer costs measured by calling single layers directly on the
/// workload's inputs.
void Bench::direct_calls() {
  const Tenant& t = in_.tenants[0];
  const std::size_t inner = t.templates[0].size() - t.l2;
  const std::size_t pt_len = inner + (4 - (inner + 2) % 4) % 4 + 2;

  // crypto: GcmContext::seal and 8-lane seal_mb at the workload's size.
  auto gcm = nnfv::crypto::GcmContext::create(t.key.key);
  if (gcm) {
    constexpr int kLanes = 8;
    std::vector<std::uint8_t> buf(pt_len * kLanes, 0xA5);
    std::uint8_t tags[kLanes][16];
    std::uint8_t nonce[kLanes][12] = {};
    std::uint8_t aad[kLanes][8] = {};
    for (int l = 0; l < kLanes; ++l) nonce[l][11] = static_cast<std::uint8_t>(l);
    constexpr int kCalls = 512;
    const double seal = median_ns(15, [&](int) {
      for (int i = 0; i < kCalls; ++i) {
        (void)gcm->seal({nonce[0], 12}, {aad[0], 8}, {buf.data(), pt_len},
                        buf.data(), tags[0]);
      }
    });
    nnfv::crypto::GcmMbOp ops[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      std::uint8_t* p = buf.data() + std::size_t(l) * pt_len;
      ops[l] = nnfv::crypto::GcmMbOp{{nonce[l], 12}, {aad[l], 8}, {p, pt_len},
                                     p, tags[l]};
    }
    const double seal_mb = median_ns(15, [&](int) {
      for (int i = 0; i < kCalls / kLanes; ++i) (void)gcm->seal_mb(ops, kLanes);
    });
    per_layer_.emplace_back("crypto.seal_ns_per_frame", seal / kCalls);
    per_layer_.emplace_back("crypto.seal_mb8_ns_per_frame", seal_mb / kCalls);
  } else {
    wrong("GcmContext::create failed");
  }

  // nffg: parse + validate the churn tenant's PUT body.
  const Tenant& spare = in_.churn_tenant();
  const std::string body = tenant_graph_json(spare, kDirectSpiOut, kDirectSpiIn);
  per_layer_.emplace_back("nffg.parse_us", median_ns(201, [&](int) {
    auto graph = nnfv::nffg::from_json_text(body);
    if (!graph || !nnfv::nffg::validate(graph.value()).is_ok()) {
      wrong("NF-FG parse/validate failed");
    }
  }) / 1e3);

  // nnf: IpsecEndpoint::configure with a tenant's configuration.
  nnfv::nnf::IpsecEndpoint endpoint;
  const nnfv::nnf::NfConfig config = {
      {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
      {"spi_out", std::to_string(kDirectSpiOut)},
      {"spi_in", std::to_string(kDirectSpiIn)},
      {"enc_key", spare.enc_key_hex}, {"esp_transform", "gcm"}};
  per_layer_.emplace_back("nnf.configure_us", median_ns(201, [&](int) {
    if (!endpoint.configure(0, config).is_ok()) wrong("configure failed");
  }) / 1e3);

  // core: LocalOrchestrator::deploy / remove of one more tenant graph
  // beside the residents.
  auto graph = nnfv::nffg::from_json_text(body);
  std::vector<double> deploy_ns, remove_ns;
  locked([&] {
    node_->drain_datapath();
    for (int r = 0; r < 101 && graph; ++r) {
      std::int64_t t0 = now_ns();
      const bool deployed = node_->orchestrator().deploy(graph.value()).is_ok();
      deploy_ns.push_back(double(now_ns() - t0));
      t0 = now_ns();
      const bool removed =
          node_->orchestrator().remove(graph.value().id).is_ok();
      remove_ns.push_back(double(now_ns() - t0));
      if (!deployed || !removed) {
        wrong("direct deploy/remove failed");
        break;
      }
    }
  });
  per_layer_.emplace_back("core.deploy_us_p50",
                          median_of(std::move(deploy_ns)) / 1e3);
  per_layer_.emplace_back("core.remove_us_p50",
                          median_of(std::move(remove_ns)) / 1e3);
}

/// exec: a DatapathExecutor with two workers, driven directly with the
/// workload's frames. The deployed node runs inline on every workload
/// (with workers its cross-thread figures spread more from run to run
/// than any bound of 25 % can hold), so the executor is measured here:
/// submit cost per frame, submit -> pipeline entry with the executor
/// otherwise idle, and how evenly its RSS spreads the workload's frames.
void Bench::direct_executor() {
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kBursts = 4096;
  const std::size_t frames = kBursts * kBurst;
  std::vector<std::int64_t> submitted(frames, 0);
  std::array<std::vector<double>, kWorkers> entry_us;
  for (auto& v : entry_us) v.reserve(frames);
  nnfv::exec::DatapathExecutorConfig config;
  config.workers = kWorkers;
  nnfv::exec::DatapathExecutor executor(
      config, [&](nnfv::exec::WorkerContext& ctx, std::uint32_t,
                  PacketBurst&& burst) {
        const std::int64_t now = now_ns();
        for (const PacketBuffer& frame : burst) {
          const auto d = frame.data();
          const std::size_t l2 = (d[12] == 0x81 && d[13] == 0x00) ? 18 : 14;
          std::uint64_t id = 0;
          std::memcpy(&id, d.data() + l2 + 28, sizeof(id));
          entry_us[ctx.index()].push_back(double(now - submitted[id]) / 1e3);
        }
      });
  double submit_ns = 0.0;
  for (std::size_t b = 0; b < kBursts; ++b) {
    PacketBurst burst;
    burst.reserve(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) {
      const std::uint64_t id = b * kBurst + i;
      const std::size_t k = id % Inputs::kSchedule;
      const Tenant& t = in_.tenants[in_.sched_tenant[k]];
      const std::vector<std::uint8_t>& tpl = t.templates[in_.sched_flow[k]];
      PacketBuffer frame = PacketBuffer::alloc(tpl.size());
      std::memcpy(frame.data().data(), tpl.data(), tpl.size());
      std::memcpy(frame.data().data() + t.id_offset(), &id, sizeof(id));
      burst.push_back(std::move(frame));
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kBurst; ++i) submitted[b * kBurst + i] = t0;
    (void)executor.submit_burst(0, std::move(burst));
    submit_ns += double(now_ns() - t0);
    executor.drain();
  }
  executor.stop();
  std::vector<double> all;
  double least = 1e300;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    all.insert(all.end(), entry_us[w].begin(), entry_us[w].end());
    least = std::min(least, double(executor.worker_stats(w).processed));
  }
  if (all.size() != frames) wrong("the executor lost frames");
  per_layer_.emplace_back("exec.submit_ns_per_frame", submit_ns / double(frames));
  per_layer_.emplace_back("exec.to_nf_us_p50", median_of(std::move(all)));
  per_layer_.emplace_back("exec.worker_min_share", least / double(frames));
}

// --- the run ------------------------------------------------------------------------

void print_metric_json(std::string& out, const std::string& name, double value,
                       const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name.c_str(), value, unit.c_str());
  out += buf;
}

const char* unit_of(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ns_per_frame")) return "ns";
  if (ends("_us") || ends("_us_p50") || ends("_us_p99")) return "us";
  if (ends("_ratio") || ends("_share") || ends("_error")) return "ratio";
  return "count";
}

int Bench::run(double seconds, const char* spans_path) {
  const Workload& w = w_;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(in_.seed), seconds, trace_ ? 1 : 0);
  std::printf("perfbench: data plane is in-process (frames are handed to "
              "eth0 and taken from eth1; no link or loopback device); the "
              "REST control plane crosses loopback TCP\n");

  attempted_ += 1;
  if (const std::string kat = gcm_known_answer_tests(); !kat.empty()) {
    std::printf("perfbench: checker self-test failed: %s\n", kat.c_str());
    return 3;
  }

  // Everything the benchmark itself allocates is committed by now.
  const double rss_before = status_mib("VmRSS:");

  // The phases run in rounds, so each metric samples the whole run rather
  // than one stretch of it: the host's load drifts over seconds. Each
  // round starts on a node set up afresh, several times over; set-up
  // time is the median of all of them. A node's figures also vary from
  // one node to the next (paced latency with datapath workers by ±15 %
  // on a 4-core VM), so a run measures many nodes, and the medians over
  // windows take the typical one.
  constexpr int kRounds = 20;
  std::vector<double> setups;
  double node_rss_mb = 0.0;
  Phase sat, pac, chu;
  // Self times of the saturating phases only.
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> self{};
  double egress_gap_sum_ns = 0.0;
  std::uint64_t egress_gap_frames = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int r = 0; r < w.setup_reps && wrong_ == 0; ++r) {
      destroy_node();
      setups.push_back(setup_node());
    }
    if (wrong_ != 0) {
      std::printf("perfbench: set-up failed: %s\n", wrong_msgs_[0].c_str());
      return 1;
    }
    saturate(0.1, false);  // warm-up: lazy set-up finishes, caches fill
    tracer_.reset_totals();
    egress_gap_ = 0;
    egress_gap_frames_ = 0;
    sat.merge(saturate(seconds * w.share_saturate / kRounds, trace_));
    for (std::size_t l = 0; l < self.size(); ++l) {
      const LayerTotals t = tracer_.totals(static_cast<Layer>(l));
      self[l].total_ns += t.total_ns;
      self[l].self_ns += t.self_ns;
      self[l].spans += t.spans;
      self[l].items += t.items;
    }
    egress_gap_sum_ns += tracer_.to_ns(egress_gap_);
    egress_gap_frames += egress_gap_frames_;
    tracer_.set_enabled(trace_);
    stamping_ = trace_;
    pac.merge(paced(seconds * w.share_paced / kRounds, true));
    stamping_ = false;
    tracer_.set_enabled(false);
    record_rest_ = trace_;
    chu.merge(churn(seconds * w.share_churn / kRounds));
    record_rest_ = false;
    // Peak memory of the first round's node, through every phase: later
    // rounds build nodes again, and the heap left by earlier ones (malloc
    // arenas of exited worker threads) would move the peak by megabytes.
    if (round == 0) node_rss_mb = status_mib("VmHWM:") - rss_before;
  }
  const double setup_s = median_of(setups);
  std::printf("perfbench: set-up (node + REST server + %zu PUTs + first "
              "frames) median %.6f s over %zu, spread over the rounds\n",
              w.tenants, setup_s, setups.size());
  const double egress_gap_ns =
      egress_gap_frames ? egress_gap_sum_ns / double(egress_gap_frames) : 0.0;
  verify_all_tenants();
  check_resident_list();
  if (trace_) {
    direct_calls();
    direct_executor();
  }

  // --- end-to-end figures ------------------------------------------------
  // Robust to interference from outside the node: throughput is the
  // median 100 ms slice; latency and activation figures are medians over
  // windows of 100 ms of paced frames / 1000 churn cycles.
  const double fps = sat.slice_rates.empty()
                         ? double(sat.delivered) / sat.seconds()
                         : median_of(sat.slice_rates);
  const double goodput = fps * double(w.payload) * 8.0 / 1e6;
  const auto latency_window = static_cast<std::size_t>(w.paced_pps / 10);
  const double lat50 = latency_us_.windowed(latency_window, 0.50);
  const double lat90 = latency_us_.windowed(latency_window, 0.90);
  const double lat99 = latency_us_.windowed(latency_window, 0.99);
  const std::size_t n_act = activate_ms_.size();
  const double act50 = activate_ms_.windowed(1000, 0.50);
  const double act90 = activate_ms_.windowed(1000, 0.90);
  const double act99 = activate_ms_.windowed(1000, 0.99);
  const double tear50 = teardown_ms_.windowed(1000, 0.50);
  const double sim_goodput = double(sat.delivered) * double(w.payload) * 8.0 /
                             (double(sat.sim_time) / 1e9) / 1e6;
  std::printf("phase saturate: %.3f s, offered %llu, delivered %llu, "
              "%.0f frames/s, %.1f Mb/s inner payload (measured)\n",
              sat.seconds(), static_cast<unsigned long long>(sat.offered),
              static_cast<unsigned long long>(sat.delivered), fps, goodput);
  std::printf("phase saturate: simulated-time goodput %.1f Mb/s (model, "
              "cost calibrated to the paper's Table 1: %.0f Mb/s)\n",
              sim_goodput, kPaperGoodputMbps);
  std::printf("phase paced: %.3f s at %.0f frames/s, %zu latency samples, "
              "p50 %.2f us, p90 %.2f us, p99 %.2f us\n",
              pac.seconds(), w.paced_pps, latency_us_.size(), lat50, lat90,
              lat99);
  std::printf("phase churn: %.3f s, %zu cycles beside %.0f frames/s, "
              "activate p50 %.3f ms p90 %.3f ms p99 %.3f ms, teardown p50 "
              "%.3f ms\n",
              chu.seconds(), n_act, w.background_pps, act50, act90, act99,
              tear50);
  std::printf("perfbench: the p90/p99 figures are reported here only: their "
              "run-to-run spread on a shared host is too wide to bound\n");
  if (std::strcmp(w.name, "cpe_1408") == 0) {
    attempted_ += 1;
    if (std::fabs(sim_goodput / kPaperGoodputMbps - 1.0) > 0.02) {
      ++failed_;
      wrong("simulated goodput is not within 2% of the paper's 1094 Mb/s");
    }
  }

  // --- per-layer figures (traced run) -------------------------------------
  if (trace_) {
    const double frames = double(sat.delivered);
    const double traced_frames = double(sat.traced_frames);
    auto per_frame = [&](Layer l) {
      return self[static_cast<std::size_t>(l)].self_ns / traced_frames;
    };
    const double gen = per_frame(Layer::kGen);
    const double ingress = per_frame(Layer::kInject);
    const double sim_self = per_frame(Layer::kSimRun);
    const double nf = per_frame(Layer::kNf);
    const double egress_peer = per_frame(Layer::kEgress);
    const double egress_gap = egress_gap_ns;
    const double traced_wall = sat.traced_ns / traced_frames;
    const double untraced_wall = sat.untraced_ns / double(sat.untraced_frames);
    const double self_sum = gen + ingress + sim_self + nf + egress_peer;
    const LayerTotals& nf_totals = self[static_cast<std::size_t>(Layer::kNf)];

    per_layer_.emplace_back("switch.ingress_ns_per_frame", ingress);
    per_layer_.emplace_back("switch.egress_ns_per_frame", egress_gap);
    per_layer_.emplace_back("switch.first_frame_us", first_frame_us_.percentile(0.5));
    per_layer_.emplace_back("compute.wait_to_nf_us_p50", wait_to_nf_us_.percentile(0.5));
    per_layer_.emplace_back("sim.events_per_frame", double(sat.events) / frames);
    per_layer_.emplace_back("nnf.ipsec_ns_per_frame",
                            nf_totals.self_ns / double(nf_totals.items));
    per_layer_.emplace_back("nnf.frames_per_call",
                            double(sat.nf_frames) / double(sat.nf_calls));
    per_layer_.emplace_back("packet.heap_allocs_per_frame", double(sat.heap) / frames);
    per_layer_.emplace_back("packet.mbuf_allocs_per_frame",
                            double(sat.pool.segment_allocs) / frames);
    per_layer_.emplace_back("packet.cross_worker_frees_per_frame",
                            double(sat.pool.cross_worker_frees) / frames);
    per_layer_.emplace_back("packet.pool_slabs", double(sat.pool.slab_allocs));
    per_layer_.emplace_back("rest.roundtrip_us_p50", rest_roundtrip_us_.percentile(0.5));
    per_layer_.emplace_back("rest.handle_us_p50", rest_handle_us_.percentile(0.5));
    per_layer_.emplace_back("gen.lateness_us_p99", lateness_us_.percentile(0.99));
    per_layer_.emplace_back("trace.self_sum_error",
                            std::fabs(self_sum / untraced_wall - 1.0));
    per_layer_.emplace_back("trace.overhead_ns_per_frame", traced_wall - untraced_wall);

    // Breakdown of the saturating phase's wall time per frame.
    extra_layer_.emplace_back("gen.build_ns_per_frame", gen);
    extra_layer_.emplace_back("sim.dispatch_ns_per_frame", sim_self - egress_gap);
    extra_layer_.emplace_back("bench.egress_check_ns_per_frame", egress_peer);
    extra_layer_.emplace_back("trace.self_sum_ns_per_frame", self_sum);
    extra_layer_.emplace_back("trace.wall_ns_per_frame", traced_wall);
    extra_layer_.emplace_back("trace.untraced_wall_ns_per_frame", untraced_wall);
    if (node_->datapath() != nullptr) {
      // --workers runs: the deployed node's own executor.
      double worker_total = 0.0, worker_least = 1e300;
      for (std::uint64_t v : sat.worker_processed) {
        worker_total += double(v);
        worker_least = std::min(worker_least, double(v));
      }
      extra_layer_.emplace_back("node.exec_to_nf_us_p50",
                                to_nf_us_.percentile(0.5));
      extra_layer_.emplace_back("node.exec_worker_min_share",
                                worker_least / worker_total);
    }
    if (spans_path != nullptr) {
      if (!tracer_.write(spans_path, sat.tick0)) {
        std::printf("perfbench: could not write spans to %s\n", spans_path);
      } else {
        std::printf("perfbench: spans written to %s\n", spans_path);
      }
    }
    std::printf("per-layer (traced run; self times from the saturating "
                "phase):\n");
    for (const auto& [name, value] : per_layer_) {
      std::printf("  %-38s %14.4f %s\n", name.c_str(), value, unit_of(name));
    }
    for (const auto& [name, value] : extra_layer_) {
      std::printf("  %-38s %14.4f %s\n", name.c_str(), value, unit_of(name));
    }
    const bool inline_path = node_->datapath() == nullptr;
    if (inline_path) {
      std::printf("per-layer self times sum to %.1f%% of the untraced wall "
                  "time per frame (%.1f of %.1f ns)\n",
                  100.0 * self_sum / untraced_wall, self_sum, untraced_wall);
    }
  }

  quiesce();
  const bool correct = wrong_ == 0;
  for (const std::string& msg : wrong_msgs_) {
    std::printf("perfbench: WRONG: %s\n", msg.c_str());
  }
  std::printf("perfbench: attempted %llu operations (frames offered, REST "
              "requests, probes, checks), failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  std::string metrics;
  if (trace_) {
    for (const auto& [name, value] : per_layer_) {
      print_metric_json(metrics, name, value, unit_of(name));
    }
  } else {
    print_metric_json(metrics, "setup_s", setup_s, "s");
    print_metric_json(metrics, "frames_per_s", fps, "frames/s");
    print_metric_json(metrics, "goodput_mbps", goodput, "Mb/s");
    print_metric_json(metrics, "latency_p50_us", lat50, "us");
    print_metric_json(metrics, "activate_p50_ms", act50, "ms");

    print_metric_json(metrics, "teardown_p50_ms", tear50, "ms");
    print_metric_json(metrics, "node_rss_mb", node_rss_mb, "MB");
  }
  std::fflush(stdout);
  destroy_node();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (!kOptimizedBuild) {
    std::fprintf(stderr, "perfbench_node: refusing to report numbers from an "
                         "unoptimised or sanitizer build\n");
    return 2;
  }
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  const char* spans = nullptr;
  long tenants = -1;
  long workers = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--spans") {
      spans = value;
    } else if (key == "--tenants") {
      tenants = std::atol(value);
    } else if (key == "--workers") {
      workers = std::atol(value);
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }
  const perfbench::Workload* found = perfbench::find_workload(workload);
  if (found == nullptr || seconds <= 0.0 || tenants == 0 || tenants > 2048 ||
      workers > 8) {
    std::fprintf(stderr,
                 "usage: perfbench_node --workload cpe_1408|tenants_64b|"
                 "tenant_churn --seed N --seconds S --trace 0|1 [--spans F]\n"
                 "       [--tenants 1..2048] [--workers 0..8]  (exploration "
                 "overrides; the benchmark's workloads do not use them)\n");
    return 2;
  }
  perfbench::Workload w = *found;
  if (tenants > 0) w.tenants = static_cast<std::size_t>(tenants);
  if (workers >= 0) w.workers = static_cast<std::size_t>(workers);
  if (w.workers > 0 && w.flows > 1) {
    // Workers reorder frames of different flows within one SA, and the
    // egress-to-submission mapping needs one flow per SA.
    std::fprintf(stderr, "perfbench_node: --workers > 0 needs one flow per "
                         "SA; %s has %zu\n", w.name, w.flows);
    return 2;
  }
  if (w.workers > 0) w.max_inflight = std::max<std::size_t>(w.max_inflight, 384);
  const perfbench::Inputs inputs = perfbench::make_inputs(w, seed);
  auto bench = std::make_unique<perfbench::Bench>(inputs, trace != 0);
  return bench->run(seconds, spans);
}
