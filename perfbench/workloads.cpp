#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <utility>

#include "consultant/fault_detector.hpp"
#include "consultant/repair.hpp"
#include "des/random.hpp"
#include "experiments/runner.hpp"
#include "experiments/thread_pool.hpp"
#include "rocc/simulation.hpp"
#include "stats/sampler.hpp"

namespace perfbench {

namespace rocc = paradyn::rocc;
namespace des = paradyn::des;
namespace experiments = paradyn::experiments;
namespace consultant = paradyn::consultant;

// ---------------------------------------------------------------------------
// SpanLog

std::int32_t SpanLog::begin(std::string name) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::end(std::int32_t span) {
  if (std::find(open_.begin(), open_.end(), span) == open_.end()) {
    throw std::logic_error("SpanLog::end: span is not open");
  }
  // Spans left open inside it (an exception unwound past their end())
  // close with it.
  const std::int64_t now = now_ns();
  while (true) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    spans_[static_cast<std::size_t>(top)].end_ns = now;
    if (top == span) return;
  }
}

void SpanLog::add(const std::string& name, double total_s, std::uint64_t count) {
  Aggregate& a = aggregates_[name];
  a.count += count;
  a.total_s += total_s;
}

void SpanLog::write_json(const std::string& path, const std::string& workload) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  os << "{\"workload\": \"" << workload << "\", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"start_us\": %.3f, \"dur_us\": %.3f}",
                  i ? "," : "", i, s.name.c_str(), s.parent,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << buf;
  }
  os << "\n], \"aggregates\": {";
  bool first = true;
  for (const auto& [name, a] : aggregates_) {
    std::snprintf(buf, sizeof(buf), "%s\n  \"%s\": {\"count\": %llu, \"total_s\": %.9f}",
                  first ? "" : ",", name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_s);
    os << buf;
    first = false;
  }
  os << "\n}}\n";
}

namespace {

/// Exact (round-trippable) rendering for digests.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The headline simulated statistics of one run, exactly.
std::string result_digest(const rocc::SimulationResult& r) {
  return "ev=" + std::to_string(r.events_processed) +
         " gen=" + std::to_string(r.samples_generated) +
         " del=" + std::to_string(r.samples_delivered) +
         " drop=" + std::to_string(r.samples_dropped) + " pd=" + exact(r.pd_cpu_util_pct) +
         " main=" + exact(r.main_cpu_util_pct) + " app=" + exact(r.app_cpu_util_pct) +
         " lat=" + exact(r.latency_us.count() ? r.latency_us.mean() : 0.0) +
         " thr=" + exact(r.throughput_samples_per_sec);
}

std::string result_summary(const rocc::SimulationResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "events=%llu samples delivered/generated=%llu/%llu dropped=%llu "
                "Pd CPU=%.3f%% main CPU=%.3f%% app CPU=%.3f%% latency=%.3f ms",
                static_cast<unsigned long long>(r.events_processed),
                static_cast<unsigned long long>(r.samples_delivered),
                static_cast<unsigned long long>(r.samples_generated),
                static_cast<unsigned long long>(r.samples_dropped), r.pd_cpu_util_pct,
                r.main_cpu_util_pct, r.app_cpu_util_pct, r.latency_sec() * 1e3);
  return buf;
}

/// Mean ns per draw over every distribution the config samples, each
/// frozen the way the model freezes it and drawn standalone; the median of
/// five passes.
double sampler_draw_ns(const rocc::SystemConfig& cfg) {
  const paradyn::stats::DistributionPtr dists[] = {
      cfg.app.cpu_burst,
      cfg.app.net_burst,
      cfg.pd.collect_cpu,
      cfg.pd.forward_cpu,
      cfg.pd.net_occupancy,
      cfg.pd.merge_cpu,
      cfg.background.pvmd_cpu_length,
      cfg.background.pvmd_net_length,
      cfg.background.pvmd_interarrival,
      cfg.background.other_cpu_length,
      cfg.background.other_net_length,
      cfg.background.other_cpu_interarrival,
      cfg.background.other_net_interarrival,
      cfg.main_cpu,
  };
  std::vector<paradyn::stats::FrozenSampler> samplers;
  for (const auto& dist : dists) {
    if (!dist) continue;
    samplers.push_back(paradyn::stats::FrozenSampler::compile(dist, cfg.sampler_backend()));
  }
  constexpr std::size_t kDraws = 200'000;
  constexpr int kPasses = 5;
  des::RngStream rng(cfg.seed, 0x70657266);
  double checksum = 0.0;
  std::vector<double> pass_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::int64_t t0 = now_ns();
    for (const auto& sampler : samplers) {
      for (std::size_t i = 0; i < kDraws; ++i) checksum += sampler(rng);
    }
    pass_ns.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(kDraws * samplers.size()));
  }
  // Keeps the draws observable; a NaN sum would mean a broken sampler.
  if (!(checksum == checksum)) throw std::runtime_error("sampler produced NaN");
  std::sort(pass_ns.begin(), pass_ns.end());
  return pass_ns[kPasses / 2];
}

/// Per-layer keys every workload derives the same way from its totals.
void add_run_layers(Outcome& out, double build_s, double run_s, double events,
                    double delivered) {
  out.layers["rocc.build_s"] = build_s;
  out.layers["rocc.run_s"] = run_s;
  out.layers["des.events"] = events;
  out.layers["des.ns_per_event"] = events > 0 ? run_s * 1e9 / events : 0.0;
  out.layers["rocc.samples_delivered"] = delivered;
  out.layers["rocc.host_us_per_sample"] = delivered > 0 ? run_s * 1e6 / delivered : 0.0;
}

// ---------------------------------------------------------------------------
// table04: the paper's Table 4 / Figure 16 NOW 2^4 x 5 factorial.

class Table04 final : public Workload {
 public:
  explicit Table04(std::uint64_t seed)
      : base_(rocc::SystemConfig::now(2)),
        jobs_(std::min<std::size_t>(4, experiments::ThreadPool::hardware_jobs())) {
    base_.duration_us = 15e6;
    base_.seed = seed;
    factors_ = {
        {"nodes", "2", "32", [](rocc::SystemConfig& c, bool high) { c.nodes = high ? 32 : 2; }},
        {"sampling period", "5ms", "50ms",
         [](rocc::SystemConfig& c, bool high) {
           c.sampling_period_us = high ? 50'000.0 : 5'000.0;
         }},
        {"policy", "CF(1)", "BF(128)",
         [](rocc::SystemConfig& c, bool high) { c.batch_size = high ? 128 : 1; }},
        {"app type", "compute", "comm",
         [](rocc::SystemConfig& c, bool high) {
           c.app.net_burst =
               std::make_shared<paradyn::stats::Exponential>(high ? 2'000.0 : 200.0);
         }},
    };
  }

  /// The 16 cell models, each built once (rep 0's seed).
  double setup_only() override {
    double total = 0.0;
    for (unsigned mask = 0; mask < 16; ++mask) {
      rocc::SystemConfig c = base_;
      for (std::size_t f = 0; f < factors_.size(); ++f) factors_[f].apply(c, (mask >> f) & 1U);
      const std::int64_t t0 = now_ns();
      const rocc::Simulation sim(std::move(c));
      total += static_cast<double>(now_ns() - t0) / 1e9;
    }
    return total;
  }

  Outcome execute(SpanLog* spans) override {
    Outcome out;
    const std::int32_t build_span = spans ? spans->begin("rocc.Simulation x16 cells") : -1;
    out.setup_s = setup_only();
    if (spans) spans->end(build_span);

    const std::int32_t span = spans ? spans->begin("experiments.FactorialExperiment") : -1;
    const std::int64_t t0 = now_ns();
    const experiments::FactorialExperiment exp(base_, factors_, kReps, jobs_);
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (spans) spans->end(span);

    // Correctness: the paper's two qualitative Table 4 / Figure 16 claims.
    const auto pd = exp.analyze(experiments::pd_cpu_time_sec);
    if (pd.effects.empty() || pd.effects.front().label != "B") {
      out.failures.push_back("sampling period (B) does not explain the largest share of Pd "
                             "CPU variation");
    }
    for (unsigned mask = 0; mask < 16; ++mask) {
      if (mask & kPolicyBit) continue;
      const double cf = exp.cells()[mask].mean(experiments::pd_cpu_time_sec);
      const double bf = exp.cells()[mask | kPolicyBit].mean(experiments::pd_cpu_time_sec);
      if (!(bf < cf)) {
        out.failures.push_back("cell " + std::to_string(mask) + ": BF(128) Pd CPU " + exact(bf) +
                               " s is not below CF(1) " + exact(cf) + " s");
      }
    }

    // Digest: totals over the 80 runs plus every cell's response means.
    const auto& report = exp.report();
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    double pd_util = 0.0;
    double main_util = 0.0;
    double latency_ms = 0.0;
    for (const auto& cell : exp.cells()) {
      for (const auto& r : cell.runs) {
        generated += r.samples_generated;
        delivered += r.samples_delivered;
      }
      pd_util += cell.mean([](const rocc::SimulationResult& r) { return r.pd_cpu_util_pct; });
      main_util +=
          cell.mean([](const rocc::SimulationResult& r) { return r.main_cpu_util_pct; });
      latency_ms += cell.mean(experiments::latency_ms);
      out.digest += exact(cell.mean(experiments::pd_cpu_time_sec)) + "/" +
                    exact(cell.mean(experiments::latency_ms)) + " ";
    }
    const double n = static_cast<double>(exp.cells().size());
    out.digest += "ev=" + std::to_string(report.events) + " gen=" + std::to_string(generated) +
                  " del=" + std::to_string(delivered);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "runs=%zu events=%llu samples delivered/generated=%llu/%llu "
                  "Pd CPU=%.3f%% main CPU=%.3f%% latency=%.3f ms (means over cells)",
                  report.runs, static_cast<unsigned long long>(report.events),
                  static_cast<unsigned long long>(delivered),
                  static_cast<unsigned long long>(generated), pd_util / n, main_util / n,
                  latency_ms / n);
    out.summary.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "Pd CPU variation explained: B %.1f%% (paper 68%%), C %.1f%% (paper 19%%) "
                  "[accuracy context, not gated]",
                  100.0 * pd.effect("B").variation_fraction,
                  100.0 * pd.effect("C").variation_fraction);
    out.summary.push_back(buf);

    if (spans) {
      double cell_max = 0.0;
      for (const auto& c : report.cells) cell_max = std::max(cell_max, c.wall_sec);
      const double jobs = static_cast<double>(report.jobs);
      out.layers["experiments.runs"] = static_cast<double>(report.runs);
      out.layers["experiments.serial_s"] = report.serial_estimate_sec;
      out.layers["experiments.cell_max_s"] = cell_max;
      out.layers["experiments.lane_idle_s"] = jobs * out.wall_s - report.serial_estimate_sec;
      out.layers["experiments.parallel_eff"] =
          out.wall_s > 0 ? report.serial_estimate_sec / (jobs * out.wall_s) : 0.0;
      out.layers["experiments.cpu_s"] = report.cpu_sec;
      // The runner builds and runs each model inside one task, so run()
      // time is the per-run total less the builds (each cell built kReps
      // times, timed just above).
      const double build_s = out.setup_s * kReps;
      add_run_layers(out, build_s, report.serial_estimate_sec - build_s,
                     static_cast<double>(report.events), static_cast<double>(delivered));
    }
    return out;
  }

  double draw_ns() const override { return sampler_draw_ns(base_); }
  std::vector<std::string> bypassed_layers() const override {
    return {"des.shard", "consultant"};
  }

 private:
  static constexpr std::size_t kReps = 5;
  static constexpr unsigned kPolicyBit = 1U << 2;  // factor C
  rocc::SystemConfig base_;
  std::vector<experiments::Factor> factors_;
  std::size_t jobs_;
};

// ---------------------------------------------------------------------------
// now_pdes: one big NOW model on four PDES shards at the default lookahead.
//
// The shards run on ShardSet's serial window loop, not on a thread-pool
// executor: on a 4-vCPU virtual machine the per-window thread wake-ups of
// shard_pool_executor made the operation's wall time swing 0.8-4.5 s at
// four lanes and 0.7-2.4 s at two (host-load dependent), against
// 0.45-0.75 s serially.  The serial loop still pays every window barrier,
// mailbox gather, canonical sort and injection.

/// Outside-in timing of the shard window loop: every executor call is one
/// window, running each shard's body in index order on this thread.
struct WindowTiming {
  std::uint64_t windows = 0;
  double busy_s = 0.0;  ///< Sum over windows of the slowest body.
  double body_s = 0.0;  ///< Sum of all bodies.
  std::vector<std::int64_t> body_ns;
};

des::ShardSet::Executor timed_executor(WindowTiming& t) {
  return [&t](std::size_t count, const std::function<void(std::size_t)>& body) {
    t.body_ns.assign(count, 0);
    for (std::size_t s = 0; s < count; ++s) {
      const std::int64_t t0 = now_ns();
      body(s);
      t.body_ns[s] = now_ns() - t0;
    }
    ++t.windows;
    std::int64_t max_ns = 0;
    for (const std::int64_t ns : t.body_ns) {
      max_ns = std::max(max_ns, ns);
      t.body_s += static_cast<double>(ns) / 1e9;
    }
    t.busy_s += static_cast<double>(max_ns) / 1e9;
  };
}

/// Seconds timed_executor itself spends outside the bodies over `windows`
/// windows of `count` shards: the same executor driven with empty bodies,
/// less the time it measured inside them.  Subtracting it leaves
/// des.shard.sync_s with the window loop's own cost, not the timers'.
double executor_timer_s(std::uint64_t windows, std::size_t count) {
  WindowTiming calibration;
  const des::ShardSet::Executor executor = timed_executor(calibration);
  const std::function<void(std::size_t)> empty = [](std::size_t) {};
  const std::int64_t t0 = now_ns();
  for (std::uint64_t w = 0; w < windows; ++w) executor(count, empty);
  return static_cast<double>(now_ns() - t0) / 1e9 - calibration.body_s;
}

class NowPdes final : public Workload {
 public:
  explicit NowPdes(std::uint64_t seed) : cfg_(rocc::SystemConfig::now(128)) {
    cfg_.app_processes_per_node = 4;
    cfg_.sampling_period_us = 500.0;
    cfg_.batch_size = 32;
    cfg_.duration_us = 10e6;
    cfg_.uplink_latency_us = 500.0;  // the roccsim default under --shards
    cfg_.shards = kShards;
    cfg_.seed = seed;
    cfg_.validate();
  }

  /// The 1-shard run of the same config, untimed: the bit-identity oracle.
  void prepare() override {
    rocc::SystemConfig one = cfg_;
    one.shards = 1;
    reference_ = rocc::Simulation(one).run();
  }

  double setup_only() override {
    const std::int64_t t0 = now_ns();
    const rocc::Simulation sim(cfg_);
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  Outcome execute(SpanLog* spans) override {
    Outcome out;
    WindowTiming windows;
    const std::int32_t build_span = spans ? spans->begin("rocc.Simulation") : -1;
    std::int64_t t0 = now_ns();
    rocc::Simulation sim(cfg_);
    if (spans) sim.set_shard_executor(timed_executor(windows));
    out.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (spans) spans->end(build_span);

    const std::int32_t run_span = spans ? spans->begin("rocc.Simulation::run") : -1;
    t0 = now_ns();
    const rocc::SimulationResult r = sim.run();
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (spans) spans->end(run_span);

    // The field set bench/pdes_shards gates shard-count invariance on.
    const rocc::SimulationResult& a = reference_;
    const bool same = a.samples_generated == r.samples_generated &&
                      a.samples_delivered == r.samples_delivered &&
                      a.events_processed == r.events_processed &&
                      a.pd_cpu_util_pct == r.pd_cpu_util_pct &&
                      a.main_cpu_util_pct == r.main_cpu_util_pct &&
                      a.app_cpu_util_pct == r.app_cpu_util_pct &&
                      a.latency_us.mean() == r.latency_us.mean() &&
                      a.throughput_samples_per_sec == r.throughput_samples_per_sec;
    if (!same) out.failures.push_back("4-shard result differs from the 1-shard run");
    if (r.samples_delivered == 0) out.failures.push_back("no samples delivered");

    out.digest = result_digest(r);
    out.summary.push_back(result_summary(r));

    if (spans) {
      // With one lane the loop's time outside the bodies, less the
      // benchmark's own timers, is the barrier, mailbox and injection
      // cost; busy_s and imbalance give the critical path a parallel
      // executor would face.
      const double run_s = out.wall_s;
      const double timer_s = executor_timer_s(windows.windows, kShards);
      const double sync_s = run_s - windows.body_s - timer_s;
      const double mean_body_s = windows.body_s / static_cast<double>(kShards);
      out.layers["des.shard.windows"] = static_cast<double>(windows.windows);
      out.layers["des.shard.busy_s"] = windows.busy_s;
      out.layers["des.shard.body_s"] = windows.body_s;
      out.layers["des.shard.sync_s"] = sync_s;
      out.layers["des.shard.sync_us_per_window"] =
          windows.windows ? sync_s * 1e6 / static_cast<double>(windows.windows) : 0.0;
      out.layers["des.shard.imbalance"] = mean_body_s > 0 ? windows.busy_s / mean_body_s : 0.0;
      spans->add("perfbench window timers (calibrated, not in sync_s)", timer_s,
                 windows.windows);
      spans->add("des.ShardSet window, slowest body", windows.busy_s, windows.windows);
      spans->add("des.ShardSet window, each body", windows.body_s, windows.windows * kShards);
      add_run_layers(out, out.setup_s, run_s, static_cast<double>(r.events_processed),
                     static_cast<double>(r.samples_delivered));
    }
    return out;
  }

  double draw_ns() const override { return sampler_draw_ns(cfg_); }
  std::vector<std::string> bypassed_layers() const override {
    return {"experiments", "consultant"};
  }

 private:
  static constexpr std::int32_t kShards = 4;
  rocc::SystemConfig cfg_;
  rocc::SimulationResult reference_;
};

// ---------------------------------------------------------------------------
// mpp_tree_faults: MPP tree under faults, detection and repair.

constexpr const char* kFaults =
    "daemon_stall:daemon=3,start=exp:1s,dur=exp:300ms;"
    "daemon_crash:daemon=9,start=1500ms,dur=1s,cascade=0.5;"
    "link_slow:start=2s,dur=500ms,factor=4;"
    "pipe_backpressure:daemon=20,start=3s,dur=500ms,capacity=2";
constexpr const char* kRepairs =
    "restart_daemon:timeout=100ms,max_retries=3,backoff=exp:50ms;"
    "reroute_link:timeout=200ms;"
    "reset_pipe:timeout=100ms";

class MppTreeFaults final : public Workload {
 public:
  explicit MppTreeFaults(std::uint64_t seed)
      : cfg_(rocc::SystemConfig::mpp(64, rocc::ForwardingTopology::BinaryTree)),
        policy_(consultant::RepairPolicy::parse(kRepairs)) {
    cfg_.sampling_period_us = 1'000.0;
    cfg_.batch_size = 32;
    cfg_.duration_us = 4e6;
    cfg_.faults = rocc::FaultPlan::parse(kFaults);
    cfg_.seed = seed;
    cfg_.validate();
  }

  double setup_only() override {
    const std::int64_t t0 = now_ns();
    rocc::Simulation sim(cfg_);
    const consultant::DetectionHarness harness(sim, consultant::DetectorConfig{}, policy_);
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  Outcome execute(SpanLog* spans) override {
    Outcome out;
    const std::int32_t build_span = spans ? spans->begin("rocc.Simulation+DetectionHarness") : -1;
    std::int64_t t0 = now_ns();
    rocc::Simulation sim(cfg_);
    const consultant::DetectionHarness harness(sim, consultant::DetectorConfig{}, policy_);
    std::uint64_t observed = 0;
    std::int64_t observe_ns = 0;
    if (spans) {
      // Re-attach the harness's own sink wiring with a timer around it.
      // The detector is owned (non-const) by the harness, which only
      // exposes it read-only.
      auto* detector = const_cast<consultant::FaultDetector*>(harness.detector());
      des::Engine* engine = &sim.engine();
      sim.main_process()->set_sample_sink(
          [detector, engine, &observed, &observe_ns](const rocc::Sample& s) {
            const std::int64_t s0 = now_ns();
            detector->observe(s, engine->now());
            observe_ns += now_ns() - s0;
            ++observed;
          });
    }
    out.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (spans) spans->end(build_span);

    const std::int32_t run_span = spans ? spans->begin("rocc.Simulation::run") : -1;
    t0 = now_ns();
    rocc::SimulationResult r = sim.run();
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (spans) spans->end(run_span);
    harness.finalize(r);

    // Correctness: every planned fault is seen and handled.  Cascade-
    // induced rows are reported by the simulation but neither tracked by
    // the detector nor targeted by repairs, so they are digest-only.
    std::uint64_t detected = 0;
    std::uint64_t repaired = 0;
    for (const rocc::FaultOutcome& f : r.fault_outcomes) {
      out.digest += " [" + f.spec.describe() + " det=" + exact(f.detection_latency_us) +
                    " rep=" + std::to_string(f.repaired) + " ttr=" + exact(f.time_to_repair_us) +
                    "]";
      if (f.cascaded_from >= 0) continue;
      const std::string what = f.spec.describe();
      if (!f.injected || !f.detected) {
        out.failures.push_back(what + ": not detected");
        continue;
      }
      ++detected;
      repaired += f.repaired ? 1 : 0;
      const consultant::RepairSpec* action = policy_.match(f.spec);
      if (action == nullptr) continue;
      // A window that lifts before the first attempt resolves ends the
      // repair without an outcome (repair.hpp); anything else must end
      // repaired, never gave_up.
      const bool lifted_first =
          f.spec.end_us() <= f.spec.start_us + f.detection_latency_us + action->timeout_us;
      if (!f.repair_attempted || f.gave_up || !(f.repaired || lifted_first)) {
        out.failures.push_back(what + ": repairable fault not repaired");
      }
    }
    if (r.samples_delivered + r.samples_dropped > r.samples_generated) {
      out.failures.push_back("delivered + dropped exceeds generated");
    }

    out.digest = result_digest(r) + out.digest;
    out.summary.push_back(result_summary(r));
    out.summary.push_back("faults detected=" + std::to_string(detected) + "/" +
                          std::to_string(cfg_.faults.faults.size()) +
                          " repaired=" + std::to_string(repaired) +
                          " (plan rows incl. cascades: " +
                          std::to_string(r.fault_outcomes.size()) + ")");

    if (spans) {
      const double observe_s = static_cast<double>(observe_ns) / 1e9;
      out.layers["consultant.observe_s"] = observe_s;
      out.layers["consultant.observe_us_per_sample"] =
          observed ? observe_s * 1e6 / static_cast<double>(observed) : 0.0;
      out.layers["consultant.share"] = out.wall_s > 0 ? observe_s / out.wall_s : 0.0;
      out.layers["consultant.faults_detected"] = static_cast<double>(detected);
      out.layers["consultant.repairs"] = static_cast<double>(repaired);
      spans->add("consultant.FaultDetector::observe", observe_s, observed);
      add_run_layers(out, out.setup_s, out.wall_s, static_cast<double>(r.events_processed),
                     static_cast<double>(r.samples_delivered));
    }
    return out;
  }

  double draw_ns() const override { return sampler_draw_ns(cfg_); }
  std::vector<std::string> bypassed_layers() const override {
    return {"des.shard", "experiments"};
  }

 private:
  rocc::SystemConfig cfg_;
  consultant::RepairPolicy policy_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "table04") return std::make_unique<Table04>(seed);
  if (name == "now_pdes") return std::make_unique<NowPdes>(seed);
  if (name == "mpp_tree_faults") return std::make_unique<MppTreeFaults>(seed);
  return nullptr;
}

}  // namespace perfbench
