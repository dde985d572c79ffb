#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "mem/diff.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace hostbench {
namespace {

using Clock = std::chrono::steady_clock;

// Each probe repeats its trial and reports the median, so one descheduled
// trial on a shared host does not set the unit cost.
constexpr int kTrials = 5;
// Messages each node of the send probe sends.
constexpr int kPerNode = 100000 / 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Trial>
double median_trial(Trial trial) {
  std::vector<double> v;
  for (int i = 0; i < kTrials; ++i) v.push_back(trial());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

dsm::sim::Engine::Options engine_opts(const ProbeShape& s) {
  dsm::sim::Engine::Options o;
  o.nodes = s.nodes;
  o.quantum = s.quantum;
  o.stack_bytes = 64 * 1024;
  o.max_events = ~0ull;
  return o;
}

// Hold model: every dispatched handler posts exactly one successor, so the
// queue stays at the prefilled depth until the budget runs out.
struct Hold {
  dsm::sim::Engine* eng = nullptr;
  dsm::Rng rng;
  std::uint64_t remaining = 0;
  std::uint64_t fired = 0;
  dsm::SimTime spread = 1;
  int nodes = 1;
};

struct HoldEvent {
  Hold* h;
  void operator()() const {
    ++h->fired;
    if (h->remaining == 0) return;
    --h->remaining;
    const dsm::SimTime at =
        h->eng->event_time() + 1 +
        static_cast<dsm::SimTime>(
            h->rng.next_below(static_cast<std::uint64_t>(h->spread)));
    h->eng->post(at, static_cast<dsm::NodeId>(h->fired % h->nodes),
                 HoldEvent{h});
  }
};

}  // namespace

double probe_switch_ns(const ProbeShape& s) {
  constexpr int kYieldsPerNode = 200000 / 16;
  return median_trial([&] {
    dsm::sim::Engine e(engine_opts(s));
    std::uint64_t sum = 0;
    for (int n = 0; n < s.nodes; ++n) {
      e.spawn(n, [&e, &sum, &s] {
        for (int i = 0; i < kYieldsPerNode; ++i) {
          e.charge(s.quantum);
          e.yield();
          sum += static_cast<std::uint64_t>(i);
        }
      });
    }
    const auto t0 = Clock::now();
    e.run();
    const double secs = seconds_since(t0);
    const std::uint64_t yields =
        static_cast<std::uint64_t>(s.nodes) * kYieldsPerNode;
    DSM_CHECK(e.yields() == yields);
    DSM_CHECK(sum == static_cast<std::uint64_t>(s.nodes) * kYieldsPerNode *
                         (kYieldsPerNode - 1) / 2);
    return secs * 1e9 / static_cast<double>(yields);
  });
}

double probe_event_ns(const ProbeShape& s) {
  constexpr std::uint64_t kEvents = 400000;
  return median_trial([&] {
    dsm::sim::Engine e(engine_opts(s));
    for (int n = 0; n < s.nodes; ++n) e.spawn(n, [] {});
    Hold h;
    h.eng = &e;
    h.rng.reseed(0x5eed);
    h.remaining = kEvents;
    // Successors land uniformly within twice the mean delay, so the mean
    // post-to-run delay matches the workload's.
    h.spread = std::max<dsm::SimTime>(1, 2 * s.event_delay);
    h.nodes = s.nodes;
    for (std::size_t i = 0; i < s.queue_depth; ++i) {
      e.post(static_cast<dsm::SimTime>(
                 h.rng.next_below(static_cast<std::uint64_t>(h.spread))),
             static_cast<dsm::NodeId>(i % static_cast<std::size_t>(s.nodes)),
             HoldEvent{&h});
    }
    const auto t0 = Clock::now();
    e.run();
    const double secs = seconds_since(t0);
    const std::uint64_t total = kEvents + s.queue_depth;
    DSM_CHECK(h.fired == total);
    DSM_CHECK(e.events_executed() == total);
    return secs * 1e9 / static_cast<double>(total);
  });
}

double probe_send_ns(const ProbeShape& s, double event_ns, double switch_ns) {
  return median_trial([&] {
    dsm::sim::Engine e(engine_opts(s));
    dsm::net::Network net(e, dsm::net::NetParams{},
                          dsm::net::NotifyMode::kPolling);
    std::vector<int> got(static_cast<std::size_t>(s.nodes), 0);
    std::uint64_t sum = 0;
    net.set_handler([&](dsm::net::Message& m) {
      ++got[static_cast<std::size_t>(m.dst)];
      sum += m.arg[0] + m.payload.size();
      e.notify(m.dst);
    });
    for (int n = 0; n < s.nodes; ++n) {
      e.spawn(n, [&, n] {
        for (int i = 0; i < kPerNode; ++i) {
          const int dst = (n + 1 + i % (s.nodes - 1)) % s.nodes;
          net.send(dst, 1, static_cast<std::uint64_t>(i), 0, 0, 0,
                   dsm::Bytes(s.payload));
          e.maybe_yield();
        }
        e.block([&got, n] { return got[static_cast<std::size_t>(n)] ==
                                   kPerNode; },
                "send probe drain");
      });
    }
    const auto t0 = Clock::now();
    e.run();
    const double secs = seconds_since(t0);
    const std::uint64_t msgs = static_cast<std::uint64_t>(s.nodes) * kPerNode;
    DSM_CHECK(net.total_traffic().messages_sent == msgs);
    DSM_CHECK(sum == static_cast<std::uint64_t>(s.nodes) *
                         (static_cast<std::uint64_t>(kPerNode) *
                              (kPerNode - 1) / 2 +
                          static_cast<std::uint64_t>(kPerNode) * s.payload));
    const double other_ns =
        static_cast<double>(e.events_executed()) * event_ns +
        static_cast<double>(e.yields()) * switch_ns;
    return (secs * 1e9 - other_ns) / static_cast<double>(msgs);
  });
}

double probe_diff_ns(const ProbeShape& s) {
  // A pool of distinct blocks, so the loop does not run out of one cache
  // line set.
  constexpr std::size_t kBlocks = 64;
  constexpr int kRounds = 2000;
  const std::size_t grain = s.grain;
  const std::size_t words = grain / 4;
  // Encoded size is 4 + 12 per single-word run, 12 + 4 per word of one
  // contiguous run.  Spread single-word runs (every other word) while they
  // can reach the target size; fill one run from the start beyond that.
  const std::size_t target = std::max<std::size_t>(s.diff_bytes, 16);
  const std::size_t spread_runs = (target - 4) / 12;
  const bool spread = spread_runs >= 1 && spread_runs <= words / 2;
  const std::size_t dirty_words =
      spread ? spread_runs : std::min(words, (target - 12) / 4);

  std::vector<std::byte> twin(kBlocks * grain);
  std::vector<std::byte> dirty;
  dsm::Rng rng(0xd1ff);
  for (auto& b : twin) b = std::byte(rng.next_u64());
  dirty = twin;
  const std::size_t chunks_per_block = (words + 63) / 64;
  std::vector<std::uint64_t> bits(kBlocks * chunks_per_block, 0);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t k = 0; k < dirty_words; ++k) {
      const std::size_t w = spread ? 2 * k : k;
      std::byte* p = dirty.data() + b * grain + 4 * w;
      p[0] = ~p[0];
      bits[b * chunks_per_block + w / 64] |= 1ull << (w % 64);
    }
  }
  std::vector<std::byte> dst = twin;
  std::vector<std::byte> out;
  return median_trial([&] {
    std::uint64_t encoded = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t b = 0; b < kBlocks; ++b) {
        const std::span<const std::byte> d(dirty.data() + b * grain, grain);
        const std::span<const std::byte> t(twin.data() + b * grain, grain);
        encoded += dsm::mem::make_diff_from_bitmap(
            d, t, bits.data() + b * chunks_per_block, 0, out);
        dsm::mem::apply_diff(std::span<std::byte>(dst.data() + b * grain,
                                                  grain),
                             out);
      }
    }
    const double secs = seconds_since(t0);
    const std::uint64_t ops = static_cast<std::uint64_t>(kRounds) * kBlocks;
    DSM_CHECK(encoded ==
              ops * (spread ? 4 + 12 * dirty_words : 12 + 4 * dirty_words));
    DSM_CHECK(std::memcmp(dst.data(), dirty.data(), dst.size()) == 0);
    return secs * 1e9 / static_cast<double>(ops);
  });
}

}  // namespace hostbench
