// Host-time benchmark of the DSM simulator.
//
// Runs one workload (a fixed matrix of simulations) serially in this
// process, checks every simulation's result, and prints the metrics as one
// JSON object on the last line of stdout.  See README.md beside this file
// for the workloads, the metrics and what each layer metric should move.
//
//   hostbench --workload splash-coarse --seed 0x19970616 --seconds 30
//             --trace 0|1 [--scale small|tiny] [--digests FILE]
//             [--spans FILE]
//
// --trace 0 measures the end-to-end metrics with no timing inside a pass.
// --trace 1 records spans around every call the benchmark makes into a
// layer, times the layer probes and prints the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_base.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "net/network.hpp"
#include "probes.hpp"
#include "runtime/runtime.hpp"

namespace hostbench {
namespace {

using namespace dsm;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 0x1997'0616ULL;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// Workloads.

struct SimSpec {
  std::string app;
  apps::AppArgs args;
  ProtocolKind proto = ProtocolKind::kSC;
  std::size_t gran = 4096;
  /// The app's 1-node sequential reference run (Harness::sequential_time's
  /// configuration: SC, 4096 B, interrupt notification, no polling tax).
  bool baseline = false;

  std::string label() const {
    if (baseline) return app + "/seq";
    return app + "/" + to_string(proto) + "/" + std::to_string(gran);
  }
};

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kSC, ProtocolKind::kSWLRC, ProtocolKind::kHLRC,
    ProtocolKind::kMWLRC};

void add_matrix(std::vector<SimSpec>& out, const std::string& app,
                const apps::AppArgs& args, std::size_t gran,
                bool with_baseline) {
  for (ProtocolKind p : kAllProtocols) {
    out.push_back(SimSpec{app, args, p, gran, false});
  }
  if (with_baseline) out.push_back(SimSpec{app, args, ProtocolKind::kSC,
                                           4096, true});
}

// The three workloads separate the simulator's layers (README.md says why
// each was chosen and what it is predicted to move).
bool make_workload(const std::string& name, std::vector<SimSpec>* out) {
  out->clear();
  if (name == "splash-coarse") {
    for (const char* app : {"LU", "Water-Spatial", "Raytrace"}) {
      add_matrix(*out, app, {}, 4096, true);
    }
  } else if (name == "svc-mixed") {
    apps::AppArgs kv;
    kv.set_double("read-frac", 0.9);
    apps::AppArgs queue;
    queue.set_double("read-frac", 0.0);
    add_matrix(*out, "SvcKV", kv, 4096, false);
    add_matrix(*out, "SvcQueue", queue, 4096, false);
  } else if (name == "splash-fine") {
    for (const char* app : {"FFT", "Ocean-Original"}) {
      add_matrix(*out, app, {}, 64, true);
    }
  } else {
    return false;
  }
  return true;
}

// Harness::make_config's mapping, so the simulated numbers are the ones
// the published figures print.
DsmConfig make_config(const SimSpec& s, const apps::AppInfo& info,
                      apps::Scale scale, std::uint64_t seed) {
  DsmConfig c;
  c.nodes = s.baseline ? 1 : 16;
  c.protocol = s.proto;
  c.granularity = s.gran;
  c.notify = s.baseline ? net::NotifyMode::kInterrupt
                        : net::NotifyMode::kPolling;
  c.seed = seed;
  c.poll_dilation = info.poll_dilation;
  switch (scale) {
    case apps::Scale::kTiny: c.shared_bytes = 8u << 20; break;
    case apps::Scale::kSmall: c.shared_bytes = 16u << 20; break;
    case apps::Scale::kDefault: c.shared_bytes = 32u << 20; break;
  }
  return c;
}

// ---------------------------------------------------------------------
// Result digest: every deterministic RunStats/NodeStats field, the
// parallel time and the service latency digest.  Host telemetry (arena,
// event-queue, block-table and parallel-DES counters) is left out — it is
// allowed to change with a host-side optimisation.

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

std::uint64_t digest(const RunResult& r, const LatencySummary* lat) {
  Fnv f;
  for (const NodeStats& n : r.stats.node) {
    for (std::uint64_t v :
         {n.read_faults, n.write_faults, n.remote_read_faults,
          n.remote_write_faults, n.invalidations, n.block_fetches,
          n.writebacks, n.twins, n.diffs, n.diff_bytes, n.notices_processed,
          n.bitmap_words_compared, n.bitmap_scan_bytes_avoided,
          n.lock_acquires, n.remote_lock_ops, n.barriers, u(n.compute_ns),
          u(n.read_stall_ns), u(n.write_stall_ns), u(n.lock_stall_ns),
          u(n.barrier_stall_ns)}) {
      f.add(v);
    }
  }
  const RunStats& s = r.stats;
  for (std::uint64_t v :
       {s.messages, s.traffic_bytes, s.payload_bytes, u(s.parallel_time_ns),
        s.sim_events, s.sim_yields, s.used_block_bytes, s.fetched_block_bytes,
        s.replicated_bytes, s.protocol_meta_bytes, s.peak_twin_bytes,
        s.peak_bitmap_bytes, s.diff_archive_bytes, s.peak_diff_archive_bytes,
        s.gc_passes, s.gc_diffs_freed, s.gc_bytes_reclaimed,
        s.gc_notices_pruned, u(s.max_page_writers), u(s.max_fine_writers),
        u(r.parallel_time)}) {
    f.add(v);
  }
  f.add(s.single_fine_frac);
  if (lat != nullptr) {
    for (std::uint64_t v : {lat->requests, u(lat->p50_ns), u(lat->p99_ns),
                            u(lat->p999_ns), u(lat->max_ns), lat->checksum}) {
      f.add(v);
    }
    f.add(lat->offered_rps);
    f.add(lat->achieved_rps);
  }
  return f.value();
}

// ---------------------------------------------------------------------
// Spans, recorded from the benchmark's own code around each call into a
// layer.  Thread rusage rides along so a span also carries its kernel time
// and minor faults.

struct Span {
  std::string name;
  int parent = -1;
  int sim = -1;
  double t0 = 0, t1 = 0;
  double sys0 = 0, sys1 = 0;
  long minflt0 = 0, minflt1 = 0;

  double dur() const { return t1 - t0; }
  double sys() const { return sys1 - sys0; }
  double minflt() const { return static_cast<double>(minflt1 - minflt0); }
};

class Spans {
 public:
  int open(const std::string& name, int sim) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.sim = sim;
    sample(&s.sys0, &s.minflt0);
    s.t0 = now_s();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    DSM_CHECK(!stack_.empty() && stack_.back() == id);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_s();
    sample(&s.sys1, &s.minflt1);
    stack_.pop_back();
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  static void sample(double* sys, long* minflt) {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    *sys = static_cast<double>(ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    *minflt = ru.ru_minflt;
  }
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span on construction and closes it on destruction; does nothing
/// when the run is untraced.
class SpanScope {
 public:
  SpanScope(Spans* sp, const std::string& name, int sim)
      : sp_(sp), id_(sp != nullptr ? sp->open(name, sim) : -1) {}
  ~SpanScope() {
    if (sp_ != nullptr) sp_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* sp_;
  int id_;
};

/// Forwarding App that times setup() and verify() of the app it wraps.
class TimedApp final : public App {
 public:
  TimedApp(App& inner, Spans* sp, int sim)
      : inner_(inner), sp_(sp), sim_(sim) {}
  std::string name() const override { return inner_.name(); }
  void setup(SetupCtx& s) override {
    SpanScope span(sp_, "app.setup", sim_);
    inner_.setup(s);
  }
  void node_main(Context& ctx) override { inner_.node_main(ctx); }
  std::string verify() override {
    SpanScope span(sp_, "app.verify", sim_);
    return inner_.verify();
  }
  const LatencySummary* latency() const override { return inner_.latency(); }

 private:
  App& inner_;
  Spans* sp_;
  int sim_;
};

// ---------------------------------------------------------------------
// One simulation.

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30;
  bool trace = false;
  apps::Scale scale = apps::Scale::kSmall;
  std::string digests_path;
  std::string spans_path;
};

struct SimOutcome {
  bool verified = false;
  std::uint64_t digest = 0;
  RunResult result;
  std::uint64_t requests = 0;
};

const apps::AppInfo& app_info(const std::string& name) {
  const apps::AppInfo* info = apps::find_app(name);
  DSM_CHECK_MSG(info != nullptr, "unknown application");
  return *info;
}

std::unique_ptr<App> make_app(const SimSpec& s, const Options& o) {
  std::string err;
  auto inst = app_info(s.app).make_checked(o.scale, s.args, &err);
  DSM_CHECK_MSG(inst != nullptr, err.c_str());
  return inst;
}

// Drives Runtime directly (Harness::run aborts on a verification failure;
// the benchmark counts failures instead).
SimOutcome run_sim(const SimSpec& s, int sim, const Options& o, Spans* sp) {
  SpanScope top(sp, s.baseline ? "seq_baseline" : "sim", sim);
  auto inst = make_app(s, o);
  TimedApp app(*inst, sp, sim);
  const DsmConfig c = make_config(s, app_info(s.app), o.scale, o.seed);
  SimOutcome out;
  {
    std::unique_ptr<Runtime> rt;
    {
      SpanScope span(sp, "construct", sim);
      rt = std::make_unique<Runtime>(c);
    }
    {
      SpanScope span(sp, "run", sim);
      out.result = rt->run(app);
    }
    SpanScope span(sp, "teardown", sim);
    rt.reset();
    // Every arena-backed buffer died with the Runtime; rewind the arena as
    // the Harness does between runs.
    Arena::reset_current();
  }
  out.verified = app.verify().empty();
  const LatencySummary* lat = app.latency();
  if (lat != nullptr) out.requests = lat->requests;
  out.digest = digest(out.result, lat);
  SpanScope span(sp, "teardown", sim);
  inst.reset();
  return out;
}

/// Runtime construction plus App::setup, without running: one sample of
/// the workload's set-up cost.
double setup_once(const std::vector<SimSpec>& specs, const Options& o) {
  double total = 0;
  for (const SimSpec& s : specs) {
    auto inst = make_app(s, o);
    const DsmConfig c = make_config(s, app_info(s.app), o.scale, o.seed);
    const double t0 = now_s();
    auto rt = std::make_unique<Runtime>(c);
    SetupCtx ctx(rt->space(), rt->config());
    inst->setup(ctx);
    total += now_s() - t0;
    rt.reset();
    Arena::reset_current();
  }
  return total;
}

// ---------------------------------------------------------------------
// Expected digests: "scale seed workload label digest" per line.

const char* scale_name(apps::Scale s) {
  switch (s) {
    case apps::Scale::kTiny: return "tiny";
    case apps::Scale::kSmall: return "small";
    case apps::Scale::kDefault: return "default";
  }
  return "?";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::map<std::string, std::uint64_t> load_digests(const Options& o) {
  std::map<std::string, std::uint64_t> out;
  if (o.digests_path.empty()) return out;
  std::ifstream in(o.digests_path);
  DSM_CHECK_MSG(in.good(), "cannot read the expected-digest file");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string scale, seed, workload, label, dig;
    if (!(ls >> scale >> seed >> workload >> label >> dig)) continue;
    if (scale != scale_name(o.scale) || workload != o.workload ||
        std::strtoull(seed.c_str(), nullptr, 0) != o.seed) {
      continue;
    }
    out[label] = std::strtoull(dig.c_str(), nullptr, 0);
  }
  return out;
}

// ---------------------------------------------------------------------
// Passes and metrics.

struct Pass {
  double wall = 0;
  std::vector<SimOutcome> sims;
};

struct Tally {
  std::map<std::string, std::uint64_t> expected;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
};

Pass run_pass(const std::vector<SimSpec>& specs, const Options& o, Spans* sp,
              Tally* tally, int pass_no) {
  Pass p;
  const double t0 = now_s();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // A simulation that aborts kills the process; the "start" line lets
    // the wrapper count it as attempted and not ok.
    std::printf("start %d %s\n", pass_no, specs[i].label().c_str());
    std::fflush(stdout);
    p.sims.push_back(run_sim(specs[i], static_cast<int>(i), o, sp));
    const SimOutcome& r = p.sims.back();
    const auto it = tally->expected.find(specs[i].label());
    const bool digest_ok =
        tally->expected.empty() ||
        (it != tally->expected.end() && it->second == r.digest);
    const bool ok = r.verified && digest_ok;
    ++tally->attempted;
    if (ok) ++tally->ok;
    std::printf("sim %d %s verified=%d digest=%s ok=%d\n", pass_no,
                specs[i].label().c_str(), r.verified ? 1 : 0,
                hex(r.digest).c_str(), ok ? 1 : 0);
    std::fflush(stdout);
  }
  p.wall = now_s() - t0;
  return p;
}

double median(std::vector<double> v) {
  DSM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& t,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.attempted - t.ok));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Probe sizes read from the traced pass of the workload.
ProbeShape shape_from(const std::vector<SimSpec>& specs, const Pass& p) {
  std::uint64_t events = 0, messages = 0, payload = 0, diffs = 0,
                diff_bytes = 0;
  double vtime = 0;
  ProbeShape s;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].baseline) continue;
    const RunResult& r = p.sims[i].result;
    const NodeStats t = r.stats.total();
    s.nodes = static_cast<int>(r.stats.node.size());
    s.grain = specs[i].gran;
    events += r.stats.sim_events;
    messages += r.stats.messages;
    payload += r.stats.payload_bytes;
    diffs += t.diffs;
    diff_bytes += t.diff_bytes;
    vtime += static_cast<double>(r.total_time);
  }
  s.quantum = DsmConfig{}.quantum;
  s.payload = messages == 0 ? 0 : static_cast<std::size_t>(payload / messages);
  s.diff_bytes = diffs == 0 ? 0 : static_cast<std::size_t>(diff_bytes / diffs);
  // Most events are message deliveries, posted one-way latency ahead; by
  // Little's law the mean pending count is arrival rate times that delay.
  sim::Engine::Options eo;
  eo.nodes = 1;
  sim::Engine e(eo);
  net::Network net(e, net::NetParams{}, net::NotifyMode::kPolling);
  s.event_delay = net.oneway_latency(s.payload);
  const double depth = vtime > 0 ? static_cast<double>(events) *
                                       static_cast<double>(s.event_delay) /
                                       vtime
                                 : 1.0;
  s.queue_depth = static_cast<std::size_t>(
      std::clamp(std::llround(depth), 1LL, 1LL << 20));
  return s;
}

std::vector<Metric> layer_metrics(const std::vector<SimSpec>& specs,
                                  const Pass& p, const Spans& sp,
                                  double overhead_frac) {
  std::uint64_t yields = 0, events = 0, messages = 0, traffic = 0, twins = 0,
                diffs = 0, diff_bytes = 0, rfaults = 0, wfaults = 0,
                remote = 0, inval = 0, fetches = 0, notices = 0, locks = 0,
                remote_locks = 0, barriers = 0, requests = 0, fallbacks = 0,
                recycled = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].baseline) continue;
    const RunStats& s = p.sims[i].result.stats;
    const NodeStats t = s.total();
    yields += s.sim_yields;
    events += s.sim_events;
    messages += s.messages;
    traffic += s.traffic_bytes;
    twins += t.twins;
    diffs += t.diffs;
    diff_bytes += t.diff_bytes;
    rfaults += t.read_faults;
    wfaults += t.write_faults;
    remote += t.remote_read_faults + t.remote_write_faults;
    inval += t.invalidations;
    fetches += t.block_fetches;
    notices += t.notices_processed;
    locks += t.lock_acquires;
    remote_locks += t.remote_lock_ops;
    barriers += t.barriers;
    requests += p.sims[i].requests;
    fallbacks += s.heap_fallback_allocs;
    recycled += s.arena_recycled_allocs;
  }

  // Span totals over the 16-node simulations; the baselines are reported
  // whole as harness.seq_baseline_s.  The run span's self time excludes
  // the app.setup span nested inside Runtime::run.
  double construct = 0, construct_flt = 0, run = 0, run_sys = 0, run_flt = 0,
         teardown = 0, app_setup = 0, app_verify = 0, seq = 0, kv_run = 0,
         queue_run = 0;
  const auto& all = sp.all();
  std::vector<double> child_dur(all.size(), 0), child_sys(all.size(), 0),
      child_flt(all.size(), 0);
  for (const Span& s : all) {
    if (s.parent < 0) continue;
    const auto par = static_cast<std::size_t>(s.parent);
    child_dur[par] += s.dur();
    child_sys[par] += s.sys();
    child_flt[par] += s.minflt();
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const SimSpec& spec = specs[static_cast<std::size_t>(s.sim)];
    if (s.name == "seq_baseline") seq += s.dur();
    if (spec.baseline) continue;
    if (s.name == "construct") {
      construct += s.dur();
      construct_flt += s.minflt();
    } else if (s.name == "run") {
      const double self = s.dur() - child_dur[i];
      run += self;
      run_sys += s.sys() - child_sys[i];
      run_flt += s.minflt() - child_flt[i];
      if (spec.app == "SvcKV") kv_run += self;
      if (spec.app == "SvcQueue") queue_run += self;
    } else if (s.name == "teardown") {
      teardown += s.dur();
    } else if (s.name == "app.setup") {
      app_setup += s.dur();
    } else if (s.name == "app.verify") {
      app_verify += s.dur();
    }
  }

  const ProbeShape shape = shape_from(specs, p);
  const double switch_ns = probe_switch_ns(shape);
  const double event_ns = probe_event_ns(shape);
  const double send_ns = probe_send_ns(shape, event_ns, switch_ns);
  const double diff_ns = probe_diff_ns(shape);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double switch_s = d(yields) * switch_ns * 1e-9;
  const double event_s = d(events) * event_ns * 1e-9;
  const double send_s = d(messages) * send_ns * 1e-9;
  const double diff_s = d(diffs) * diff_ns * 1e-9;
  // Reported as measured, even when the probes over-attribute.
  const double unattributed = run - (switch_s + event_s + send_s + diff_s);

  std::printf("note probe shape: nodes=%d quantum=%lld queue_depth=%zu "
              "event_delay=%lld payload=%zu grain=%zu diff_bytes=%zu\n",
              shape.nodes, static_cast<long long>(shape.quantum),
              shape.queue_depth, static_cast<long long>(shape.event_delay),
              shape.payload, shape.grain, shape.diff_bytes);
  return {
      {"sim.yields", d(yields), "count"},
      {"sim.events", d(events), "count"},
      {"sim.switch_ns", switch_ns, "ns"},
      {"sim.switch_s", switch_s, "s"},
      {"sim.event_ns", event_ns, "ns"},
      {"sim.event_s", event_s, "s"},
      {"net.messages", d(messages), "count"},
      {"net.traffic_bytes", d(traffic), "bytes"},
      {"net.send_ns", send_ns, "ns"},
      {"net.send_s", send_s, "s"},
      {"mem.twins", d(twins), "count"},
      {"mem.diffs", d(diffs), "count"},
      {"mem.diff_bytes", d(diff_bytes), "bytes"},
      {"mem.diff_ns", diff_ns, "ns"},
      {"mem.diff_s", diff_s, "s"},
      {"proto.read_faults", d(rfaults), "count"},
      {"proto.write_faults", d(wfaults), "count"},
      {"proto.remote_faults", d(remote), "count"},
      {"proto.invalidations", d(inval), "count"},
      {"proto.block_fetches", d(fetches), "count"},
      {"proto.notices", d(notices), "count"},
      {"sync.lock_acquires", d(locks), "count"},
      {"sync.remote_lock_ops", d(remote_locks), "count"},
      {"sync.barriers", d(barriers), "count"},
      {"runtime.construct_s", construct, "s"},
      {"runtime.construct_minflt", construct_flt, "count"},
      {"runtime.run_s", run, "s"},
      {"runtime.run_sys_s", run_sys, "s"},
      {"runtime.run_minflt", run_flt, "count"},
      {"runtime.teardown_s", teardown, "s"},
      {"runtime.unattributed_s", unattributed, "s"},
      {"apps.setup_s", app_setup, "s"},
      {"apps.verify_s", app_verify, "s"},
      {"harness.seq_baseline_s", seq, "s"},
      {"svc.requests", d(requests), "count"},
      {"svc.kv_run_s", kv_run, "s"},
      {"svc.queue_run_s", queue_run, "s"},
      {"common.arena_heap_fallbacks", d(fallbacks), "count"},
      {"common.arena_recycled_allocs", d(recycled), "count"},
      {"bench.trace_overhead_frac", overhead_frac, "ratio"},
  };
}

void write_spans(const Options& o, const std::vector<SimSpec>& specs,
                 const Spans& sp) {
  if (o.spans_path.empty()) return;
  std::FILE* f = std::fopen(o.spans_path.c_str(), "w");
  DSM_CHECK_MSG(f != nullptr, "cannot write the span file");
  std::fprintf(f, "[\n");
  const auto& all = sp.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"sim\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"sys_s\": %.6f, \"minflt\": %ld}%s\n",
                 i, s.name.c_str(), s.parent,
                 specs[static_cast<std::size_t>(s.sim)].label().c_str(),
                 s.t0 - all[0].t0, s.t1 - all[0].t0, s.sys(),
                 s.minflt1 - s.minflt0, i + 1 == all.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

// Every pass of a run must reproduce the same simulated results.
bool same_results(const Pass& a, const Pass& b) {
  for (std::size_t i = 0; i < a.sims.size(); ++i) {
    if (a.sims[i].digest != b.sims[i].digest) return false;
  }
  return true;
}

int run(const Options& o) {
  std::vector<SimSpec> specs;
  if (!make_workload(o.workload, &specs)) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  ArenaScope arena;
  Tally tally;
  tally.expected = load_digests(o);
  if (tally.expected.empty()) {
    std::printf("note seed %s has no recorded digests at %s scale: ok_frac "
                "checks app verification only\n",
                hex(o.seed).c_str(), scale_name(o.scale));
  } else {
    std::printf("note checking %zu recorded digests for seed %s\n",
                tally.expected.size(), hex(o.seed).c_str());
  }
  const double t_start = now_s();
  const auto elapsed = [&] { return now_s() - t_start; };
  bool correct = true;

  if (!o.trace) {
    // Interleave set-up samples with whole passes while the budget allows
    // another pass; report medians.
    std::vector<double> walls, setups;
    double worst_pass = 0, worst_setup = 0, peak_rss_mb = 0;
    auto sample_setup = [&] {
      const double s = setup_once(specs, o);
      worst_setup = std::max(worst_setup, s);
      setups.push_back(s);
    };
    for (int pass = 0;; ++pass) {
      sample_setup();
      sample_setup();
      const Pass p = run_pass(specs, o, nullptr, &tally, pass);
      walls.push_back(p.wall);
      worst_pass = std::max(worst_pass, p.wall);
      // The process peak after one pass, so it does not depend on how many
      // passes fit the budget.
      if (pass == 0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
      }
      if (elapsed() + worst_pass + 3 * worst_setup > o.seconds) break;
    }
    sample_setup();
    const double ok_frac =
        static_cast<double>(tally.ok) / static_cast<double>(tally.attempted);
    correct = tally.ok == tally.attempted;
    std::printf("note %zu passes, %zu set-up samples; pass walls:",
                walls.size(), setups.size());
    for (double w : walls) std::printf(" %.3f", w);
    std::printf("\n");
    print_result(correct, tally,
                 {{"wall_s", median(walls), "s"},
                  {"setup_s", median(setups), "s"},
                  {"peak_rss_mb", peak_rss_mb, "MB"},
                  {"ok_frac", ok_frac, "ratio"}});
    return 0;
  }

  // Traced: alternate untraced and traced passes, starting and, when the
  // budget allows, ending untraced, so neither kind always runs warmer.
  // Then time the probes at the shape of the first traced pass.
  Spans spans;
  std::vector<double> plain_walls, traced_walls;
  Pass first_plain, first_traced;
  double worst = 0;
  for (int pass = 0;; ++pass) {
    const bool traced = pass % 2 == 1;
    Spans later;
    Spans* sp = traced ? (pass == 1 ? &spans : &later) : nullptr;
    Pass p = run_pass(specs, o, sp, &tally, pass);
    (traced ? traced_walls : plain_walls).push_back(p.wall);
    worst = std::max(worst, p.wall);
    if (pass == 0) {
      first_plain = std::move(p);
    } else {
      if (!same_results(first_plain, p)) {
        std::printf("note results differ between passes 0 and %d\n", pass);
        correct = false;
      }
      if (pass == 1) first_traced = std::move(p);
    }
    // Leave room for the probes (a few seconds) after the last pass.
    if (pass >= 1 && elapsed() + worst + 5 > o.seconds) break;
  }
  const double overhead = median(traced_walls) / median(plain_walls) - 1.0;
  const std::vector<Metric> metrics =
      layer_metrics(specs, first_traced, spans, overhead);
  write_spans(o, specs, spans);
  correct = correct && tally.ok == tally.attempted;
  std::printf("note %zu untraced and %zu traced passes\n", plain_walls.size(),
              traced_walls.size());
  print_result(correct, tally, metrics);
  return 0;
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      o->seed = std::strtoull(v.c_str(), &end, 0);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (a == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      o->trace = v == "1";
    } else if (a == "--scale") {
      if (v == "tiny") o->scale = apps::Scale::kTiny;
      else if (v == "small") o->scale = apps::Scale::kSmall;
      else return false;
    } else if (a == "--digests") {
      o->digests_path = v;
    } else if (a == "--spans") {
      o->spans_path = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  hostbench::Options o;
  if (!hostbench::parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scale small|tiny] [--digests FILE] "
                 "[--spans FILE]\n");
    return 2;
  }
  return hostbench::run(o);
}
