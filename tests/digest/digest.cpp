#include "digest.hpp"

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "consultant/fault_detector.hpp"
#include "consultant/repair.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::digest {
namespace {

using rocc::SystemConfig;

/// Appends "key value" lines; doubles print as %.17g (round-trip exact).
class Writer {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    line(key, buf);
  }
  void count(const std::string& key, unsigned long long v) { line(key, std::to_string(v)); }
  void text(const std::string& key, const std::string& v) { line(key, v); }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void line(const std::string& key, const std::string& value) {
    out_ += key;
    out_ += ' ';
    out_ += value;
    out_ += '\n';
  }
  std::string out_;
};

void write_result(Writer& w, const rocc::SimulationResult& r) {
  w.count("events", r.events_processed);
  w.count("samples_generated", r.samples_generated);
  w.count("samples_delivered", r.samples_delivered);
  w.count("samples_dropped", r.samples_dropped);
  w.count("batches_delivered", r.batches_delivered);
  w.count("barrier_rounds", r.barrier_rounds);
  w.count("throttle_adjustments", r.throttle_adjustments);
  w.num("duration_us", r.duration_us);
  w.num("app_cpu_time_per_node_us", r.app_cpu_time_per_node_us);
  w.num("pd_cpu_time_per_node_us", r.pd_cpu_time_per_node_us);
  w.num("pvmd_cpu_time_per_node_us", r.pvmd_cpu_time_per_node_us);
  w.num("other_cpu_time_per_node_us", r.other_cpu_time_per_node_us);
  w.num("main_cpu_time_us", r.main_cpu_time_us);
  w.num("app_cpu_util_pct", r.app_cpu_util_pct);
  w.num("pd_cpu_util_pct", r.pd_cpu_util_pct);
  w.num("main_cpu_util_pct", r.main_cpu_util_pct);
  w.num("is_cpu_util_pct", r.is_cpu_util_pct);
  w.num("pd_busy_share_pct", r.pd_busy_share_pct);
  w.num("network_util_pct", r.network_util_pct);
  w.count("latency_count", r.latency_us.count());
  w.num("latency_mean_us", r.latency_us.mean());
  w.num("latency_variance", r.latency_us.variance());
  w.num("latency_min_us", r.latency_us.min());
  w.num("latency_max_us", r.latency_us.max());
  w.num("throughput_samples_per_sec", r.throughput_samples_per_sec);
  w.num("barrier_wait_us", r.barrier_wait_us);
  w.num("final_sampling_period_us", r.final_sampling_period_us);
  w.num("max_throttle_factor", r.max_throttle_factor);
  for (const auto& n : r.per_node) {
    const std::string p = "node" + std::to_string(n.node) + ".";
    w.num(p + "app_cpu_us", n.app_cpu_us);
    w.num(p + "pd_cpu_us", n.pd_cpu_us);
    w.num(p + "pvmd_cpu_us", n.pvmd_cpu_us);
    w.num(p + "other_cpu_us", n.other_cpu_us);
    w.num(p + "main_cpu_us", n.main_cpu_us);
  }
  for (std::size_t i = 0; i < r.cost_adjustments.size(); ++i) {
    const auto& a = r.cost_adjustments[i];
    const std::string p = "cost" + std::to_string(i) + ".";
    w.num(p + "at_us", a.at_us);
    w.num(p + "observed_overhead_pct", a.observed_overhead_pct);
    w.num(p + "new_period_us", a.new_period_us);
  }
  for (std::size_t i = 0; i < r.throttle_factors.size(); ++i) {
    w.num("throttle" + std::to_string(i), r.throttle_factors[i]);
  }
  for (std::size_t i = 0; i < r.fault_outcomes.size(); ++i) {
    const auto& o = r.fault_outcomes[i];
    const std::string p = "fault" + std::to_string(i) + ".";
    w.text(p + "spec", o.spec.describe());
    w.count(p + "injected", o.injected ? 1 : 0);
    w.count(p + "detected", o.detected ? 1 : 0);
    w.num(p + "detection_latency_us", o.detection_latency_us);
    w.count(p + "recovered", o.recovered ? 1 : 0);
    w.num(p + "recovery_latency_us", o.recovery_latency_us);
    w.count(p + "repair_attempted", o.repair_attempted ? 1 : 0);
    w.count(p + "repair_attempts", o.repair_attempts);
    w.count(p + "repaired", o.repaired ? 1 : 0);
    w.count(p + "gave_up", o.gave_up ? 1 : 0);
    w.num(p + "time_to_repair_us", o.time_to_repair_us);
    w.num(p + "repair_backoff_us", o.repair_backoff_us);
    w.count(p + "cascaded_from", static_cast<unsigned long long>(o.cascaded_from + 1));
  }
}

void write_profile(Writer& w, const obs::ProfileReport& p) {
  w.count("profile.events", p.events);
  w.count("profile.dropped", p.dropped);
  w.count("profile.chains_complete", p.chains_complete);
  w.count("profile.chains_unmatched", p.chains_unmatched);
  w.count("profile.chains_out_of_order", p.chains_out_of_order);
  w.count("profile.dominant_hop", static_cast<unsigned long long>(p.dominant_hop + 1));
  for (int h = 0; h < obs::kHopCount; ++h) {
    const std::string k = "profile.hop" + std::to_string(h) + ".";
    w.count(k + "count", p.hops[h].count);
    w.num(k + "queue_total_us", p.hops[h].queue_total_us);
    w.num(k + "service_total_us", p.hops[h].service_total_us);
  }
  for (const auto& res : p.resources) {
    const std::string k = "profile.resource." + res.label + ".";
    w.count(k + "spans", res.spans);
    w.num(k + "busy_us", res.busy_us);
    w.count(k + "intervals", res.intervals);
    w.num(k + "util_fraction", res.util_fraction);
  }
  for (const auto& f : p.hypotheses) {
    const std::string k = "profile.hypothesis." + f.name + ".";
    w.text(k + "target", f.target.empty() ? "-" : f.target);
    w.count(k + "held", f.held ? 1 : 0);
    w.num(k + "first_held_start_us", f.first_held_start_us);
    w.num(k + "first_held_end_us", f.first_held_end_us);
    w.num(k + "peak", f.peak);
    w.count(k + "windows_held", f.windows_held);
  }
}

/// One canonical run: the config, plus how the run is observed.
struct Canonical {
  std::string name;
  std::function<SystemConfig()> config;
  std::string repair;    ///< Repair policy spec; empty = detection only.
  bool profile = false;  ///< Trace the run and digest the profiler report.
};

SystemConfig now(std::int32_t nodes, double sp_ms, std::int32_t batch, double seconds) {
  SystemConfig c = SystemConfig::now(nodes);
  c.sampling_period_us = sp_ms * 1'000.0;
  c.batch_size = batch;
  c.duration_us = seconds * 1e6;
  return c;
}

SystemConfig sharded(std::int32_t shards) {
  SystemConfig c = now(16, 10.0, 8, 2.0);
  c.shards = shards;
  c.uplink_latency_us = 500.0;
  c.faults = rocc::FaultPlan::parse("daemon_stall:daemon=5,start=300ms,dur=200ms");
  return c;
}

const std::vector<Canonical>& canonical() {
  static const std::vector<Canonical> configs = {
      {"now_cf", [] { return now(8, 5.0, 1, 4.0); }, "", false},
      {"now_bf", [] { return now(8, 5.0, 16, 4.0); }, "", false},
      {"now_pipe_block",
       [] {
         // Tiny pipes at a 1 ms period: producers block on full pipes and
         // resume through the parked continuation.
         SystemConfig c = now(4, 1.0, 4, 2.0);
         c.pipe_capacity = 2;
         return c;
       },
       "", false},
      {"smp",
       [] {
         // Shared-bus network: the single-server FIFO path.
         SystemConfig c = SystemConfig::smp(8, 16, 2);
         c.sampling_period_us = 10'000.0;
         c.duration_us = 2e6;
         return c;
       },
       "", false},
      {"mpp_direct",
       [] {
         SystemConfig c = SystemConfig::mpp(32, rocc::ForwardingTopology::Direct);
         c.sampling_period_us = 10'000.0;
         c.duration_us = 2e6;
         return c;
       },
       "", false},
      {"mpp_tree",
       [] {
         SystemConfig c = SystemConfig::mpp(32, rocc::ForwardingTopology::BinaryTree);
         c.sampling_period_us = 10'000.0;
         c.batch_size = 4;
         c.duration_us = 2e6;
         return c;
       },
       "", false},
      {"now_barrier",
       [] {
         SystemConfig c = now(8, 10.0, 1, 3.0);
         c.barrier_period_us = 50'000.0;
         return c;
       },
       "", false},
      {"now_adaptive",
       [] {
         SystemConfig c = now(8, 2.0, 1, 3.0);
         c.adaptive.enabled = true;
         c.adaptive.overhead_budget_pct = 1.0;
         c.adaptive.adjust_interval_us = 200'000.0;
         return c;
       },
       "", false},
      {"now_tracing_io",
       [] {
         // Event tracing (one record per cycle) with the Blocked I/O state.
         SystemConfig c = now(4, 10.0, 8, 2.0);
         c.instrumentation_mode = rocc::InstrumentationMode::Tracing;
         c.app.io_block_probability = 0.1;
         c.app.io_block_duration = std::make_shared<stats::Exponential>(2'000.0);
         return c;
       },
       "", false},
      {"now_fault_repair",
       [] {
         SystemConfig c = now(8, 10.0, 1, 3.0);
         c.faults = rocc::FaultPlan::parse(
             "daemon_stall:daemon=0,start=500ms,dur=500ms;"
             "link_slow:start=1s,dur=800ms,factor=16;"
             "pipe_backpressure:daemon=3,start=300ms,dur=400ms,capacity=2");
         return c;
       },
       "restart_daemon:timeout=100ms,max_retries=3,backoff=exp:50ms;"
       "reroute_link:timeout=100ms,max_retries=2,backoff=exp:50ms,penalty=1.5;"
       "reset_pipe:timeout=100ms,max_retries=2,backoff=fixed:50ms",
       false},
      {"now_profile",
       [] {
         SystemConfig c = now(2, 20.0, 1, 3.0);
         c.app_processes_per_node = 2;
         c.faults =
             rocc::FaultPlan::parse("pipe_backpressure:daemon=all,start=1s,dur=1s,capacity=1");
         return c;
       },
       "", true},
      {"now_shards1", [] { return sharded(1); }, "", false},
      {"now_shards4", [] { return sharded(4); }, "", false},
      {"mpp_tree_detect_repair",
       [] {
         // Detection + repair on a tree: the stalled subtree of daemon 1
         // joins the consultant late and out of node-id order, and the
         // crash cascades to its tree neighbours.
         SystemConfig c = SystemConfig::mpp(32, rocc::ForwardingTopology::BinaryTree);
         c.sampling_period_us = 1'000.0;
         c.batch_size = 32;
         c.duration_us = 1e6;
         c.faults = rocc::FaultPlan::parse(
             "daemon_stall:daemon=1,start=10ms,dur=150ms;"
             "daemon_crash:daemon=9,start=300ms,dur=250ms,cascade=0.9;"
             "link_slow:start=550ms,dur=150ms,factor=4;"
             "pipe_backpressure:daemon=20,start=750ms,dur=150ms,capacity=2");
         return c;
       },
       "restart_daemon:timeout=100ms,max_retries=3,backoff=exp:50ms;"
       "reroute_link:timeout=100ms;"
       "reset_pipe:timeout=100ms",
       false},
      {"now_process_refine",
       [] {
         // Two processes per node: each fault is first flagged by one
         // process of node 0 standing out from its node (SyncWaiting).
         SystemConfig c = now(4, 10.0, 1, 2.0);
         c.app_processes_per_node = 2;
         c.faults = rocc::FaultPlan::parse(
             "sample_drop:node=0,start=300ms,dur=300ms,p=0.5;"
             "pipe_backpressure:daemon=0,start=1s,dur=500ms,capacity=1");
         return c;
       },
       "", false},
  };
  return configs;
}

}  // namespace

std::vector<std::string> config_names() {
  std::vector<std::string> names;
  for (const auto& c : canonical()) names.push_back(c.name);
  return names;
}

std::string run_config(const std::string& name) {
  const Canonical* spec = nullptr;
  for (const auto& c : canonical()) {
    if (c.name == name) spec = &c;
  }
  if (spec == nullptr) throw std::invalid_argument("unknown digest config: " + name);

  SystemConfig cfg = spec->config();
  cfg.validate();
  rocc::Simulation sim(cfg);
  std::optional<obs::TraceRecorder> recorder;
  obs::Tracer tracer;
  if (spec->profile) {
    recorder.emplace(std::size_t{1} << 20);
    tracer = recorder->create_tracer();
    sim.set_tracer(&tracer);
  }
  // No-op when the fault plan is empty.
  const consultant::DetectionHarness harness(
      sim, consultant::DetectorConfig{},
      spec->repair.empty() ? consultant::RepairPolicy{}
                           : consultant::RepairPolicy::parse(spec->repair));
  rocc::SimulationResult r = sim.run();
  harness.finalize(r);

  Writer w;
  write_result(w, r);
  if (recorder) write_profile(w, obs::profile_recorder(*recorder));
  return "[" + name + "]\n" + w.take();
}

std::string toolchain_header() {
  std::string out = "# paradyn-rocc canonical-run digest (tests/digest/digest.hpp)\n";
#if defined(__clang__)
  out += "# compiler: clang " __clang_version__ "\n";
#elif defined(__GNUC__)
  out += "# compiler: g++ " __VERSION__ "\n";
#else
  out += "# compiler: unknown\n";
#endif
#if defined(__GLIBC__)
  out += std::string("# libm: glibc ") + gnu_get_libc_version() + "\n";
#else
  out += "# libm: unknown\n";
#endif
  return out;
}

}  // namespace paradyn::digest
