// Span recorder for the traced run. Spans are opened and closed around
// public calls into the node from the benchmark's own code; each closed
// span adds its duration to its parent's child time, so a layer's self
// time is its duration minus what its children covered. Aggregates are
// kept for every span; raw spans are kept in a preallocated buffer (the
// first kRawCapacity of the run) and written out when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span timestamps: the TSC where there is one (a steady_clock read
/// costs ~40 ns on a TSC clocksource, rdtsc a fraction of that), else
/// steady_clock nanoseconds.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(now_ns());
#endif
}

enum class Layer : std::uint8_t {
  kGen,          ///< benchmark: copy a pre-built frame into an mbuf
  kInject,       ///< UniversalNode::inject_burst
  kSimRun,       ///< Simulator::run
  kNf,           ///< plugin process_burst (IpsecEndpoint)
  kEgress,       ///< eth1 egress peer (benchmark's egress check)
  kCount
};

inline const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kGen: return "gen.build";
    case Layer::kInject: return "node.inject_burst";
    case Layer::kSimRun: return "sim.run";
    case Layer::kNf: return "nnf.process_burst";
    case Layer::kEgress: return "egress.peer";
    case Layer::kCount: break;
  }
  return "?";
}

struct LayerTotals {
  double total_ns = 0;
  double self_ns = 0;
  std::uint64_t spans = 0;
  std::uint64_t items = 0;  ///< frames (or events for sim.run)
};

class Tracer {
 public:
  static constexpr std::size_t kRawCapacity = 1u << 17;

  struct RawSpan {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t parent = 0;  ///< index + 1 of the parent span; 0 = root
    std::uint32_t items = 0;
    Layer layer = Layer::kGen;
  };

  Tracer() {
    raw_.resize(kRawCapacity);
    // Tick rate against steady_clock over ~20 ms.
    const std::int64_t n0 = now_ns();
    const std::uint64_t t0 = ticks();
    while (now_ns() - n0 < 20'000'000) {
    }
    ns_per_tick_ = double(now_ns() - n0) / double(ticks() - t0);
  }

  [[nodiscard]] double to_ns(std::uint64_t tick_delta) const {
    return double(tick_delta) * ns_per_tick_;
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its start tick.
  std::uint64_t begin(Layer layer) {
    Open& open = stack_[depth_++];
    open.layer = layer;
    open.child = 0;
    open.raw = raw_used_ < raw_.size() ? static_cast<std::uint32_t>(
                                             ++raw_used_)
                                       : 0;
    open.start = ticks();
    return open.start;
  }

  /// Closes the innermost span; returns its end tick.
  std::uint64_t end(std::uint64_t items) {
    const std::uint64_t t = ticks();
    Open& open = stack_[--depth_];
    const std::uint64_t duration = t - open.start;
    Totals& totals = totals_[static_cast<std::size_t>(open.layer)];
    totals.total += duration;
    totals.self += duration - open.child;
    totals.spans += 1;
    totals.items += items;
    std::uint32_t parent = 0;
    if (depth_ > 0) {
      stack_[depth_ - 1].child += duration;
      parent = stack_[depth_ - 1].raw;
    }
    if (open.raw != 0) {
      raw_[open.raw - 1] = RawSpan{open.start, t, parent,
                                   static_cast<std::uint32_t>(items),
                                   open.layer};
    }
    return t;
  }

  [[nodiscard]] LayerTotals totals(Layer layer) const {
    const Totals& t = totals_[static_cast<std::size_t>(layer)];
    return LayerTotals{to_ns(t.total), to_ns(t.self), t.spans, t.items};
  }
  void reset_totals() { totals_ = {}; }

  /// Writes the raw spans as one JSON object per line, times in ns from
  /// `origin` (a tick).
  bool write(const char* path, std::uint64_t origin) const {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < raw_used_; ++i) {
      const RawSpan& s = raw_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                   "\"start_ns\":%.0f,\"end_ns\":%.0f,\"items\":%u}\n",
                   i + 1, s.parent, layer_name(s.layer),
                   to_ns(s.start - origin), to_ns(s.end - origin), s.items);
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Open {
    std::uint64_t start = 0;
    std::uint64_t child = 0;
    std::uint32_t raw = 0;
    Layer layer = Layer::kGen;
  };

  struct Totals {
    std::uint64_t total = 0;
    std::uint64_t self = 0;
    std::uint64_t spans = 0;
    std::uint64_t items = 0;
  };

  bool enabled_ = false;
  double ns_per_tick_ = 1.0;
  std::array<Open, 16> stack_{};
  int depth_ = 0;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::vector<RawSpan> raw_;
  std::size_t raw_used_ = 0;
};

}  // namespace perfbench
