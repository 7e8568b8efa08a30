// Differential oracle for the consultant's incremental search.
//
// PerformanceConsultant caches each window's means, keeps dense per-node
// rows, and decides the whole-program tests from a certified bound on a
// running estimate of the global mean; FaultDetector keeps its signature
// as sorted integer keys built from the keys-only search_foci().  The
// reference below is the from-scratch formulation those replace: every
// mean re-summed on every read, every process scan over the whole
// per-process map, and every signature a sorted, ';'-joined string of
// finding labels.  Both sides are fed the same seeded sample stream and
// must agree bit for bit: the same findings in the same order with the
// same observed values after every sample, the same confirmed foci, and
// the same per-fault detection and recovery times.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "consultant/consultant.hpp"
#include "consultant/fault_detector.hpp"
#include "rocc/faults.hpp"

namespace paradyn::consultant {
namespace {

// ------------------------------------------------------------- reference

constexpr Hypothesis kHypotheses[] = {Hypothesis::CpuBound, Hypothesis::CommunicationBound,
                                      Hypothesis::SyncWaiting};

/// A signature element's label, e.g. "CPUBound@node 3 / process 1".
std::string label(Hypothesis h, const Focus& focus) {
  return std::string(to_string(h)) + "@" + focus.describe();
}

class ReferenceConsultant {
 public:
  explicit ReferenceConsultant(ConsultantConfig config) : config_(config) {}

  void observe(const rocc::Sample& sample) {
    const double cpu = std::clamp(sample.cpu_fraction, 0.0, 1.0);
    const double comm = std::clamp(sample.comm_fraction, 0.0, 1.0);
    per_node_[sample.node].push(cpu, comm, config_.window);
    per_process_[{sample.node, sample.app_index}].push(cpu, comm, config_.window);
    global_.push(cpu, comm, config_.window * std::max<std::size_t>(per_node_.size(), 1));
  }

  [[nodiscard]] double node_mean(Hypothesis h, std::int32_t node) const {
    const auto it = per_node_.find(node);
    return it == per_node_.end() ? 0.0 : metric_of(it->second, h);
  }
  [[nodiscard]] double process_mean(Hypothesis h, std::int32_t node,
                                    std::int32_t process) const {
    const auto it = per_process_.find({node, process});
    return it == per_process_.end() ? 0.0 : metric_of(it->second, h);
  }
  [[nodiscard]] double global_mean(Hypothesis h) const { return metric_of(global_, h); }

  [[nodiscard]] std::vector<Finding> search() const {
    std::vector<Finding> findings;
    if (global_.filled < config_.min_samples) return findings;
    for (const Hypothesis h : kHypotheses) {
      const double global = metric_of(global_, h);
      const double threshold = threshold_of(h);
      if (global >= threshold) {
        findings.push_back(Finding{h, Focus{true, -1}, global, threshold, global_.filled});
      }
      std::vector<Finding> refined;
      for (const auto& [node, window] : per_node_) {
        if (window.filled < config_.min_samples) continue;
        const double value = metric_of(window, h);
        // Negated >= rather than <: a NaN mean confirms nothing.
        if (!(value >= threshold && value >= global + config_.refinement_margin)) continue;
        refined.push_back(Finding{h, Focus{false, node, -1}, value, threshold, window.filled});
        std::size_t processes_on_node = 0;
        for (const auto& [key, pw] : per_process_) {
          if (key.first == node) ++processes_on_node;
        }
        if (processes_on_node <= 1) continue;
        for (const auto& [key, pw] : per_process_) {
          if (key.first != node || pw.filled < config_.min_samples) continue;
          const double pv = metric_of(pw, h);
          if (pv >= threshold && pv >= value + config_.refinement_margin) {
            refined.push_back(
                Finding{h, Focus{false, node, key.second}, pv, threshold, pw.filled});
          }
        }
      }
      // Severity first, then (node, process): a total order.
      std::sort(refined.begin(), refined.end(), [](const Finding& a, const Finding& b) {
        if (a.observed != b.observed) return a.observed > b.observed;
        return std::pair(a.focus.node, a.focus.process) <
               std::pair(b.focus.node, b.focus.process);
      });
      findings.insert(findings.end(), refined.begin(), refined.end());
    }
    return findings;
  }

 private:
  struct Window {
    std::vector<double> cpu;
    std::vector<double> comm;
    std::size_t next = 0;
    std::size_t filled = 0;

    void push(double cpu_frac, double comm_frac, std::size_t capacity) {
      if (cpu.size() < capacity) {
        cpu.push_back(cpu_frac);
        comm.push_back(comm_frac);
      } else {
        cpu[next] = cpu_frac;
        comm[next] = comm_frac;
        next = (next + 1) % capacity;
      }
      filled = cpu.size();
    }
    [[nodiscard]] static double mean(const std::vector<double>& values) {
      if (values.empty()) return 0.0;
      double acc = 0.0;
      for (const double v : values) acc += v;
      return acc / static_cast<double>(values.size());
    }
  };

  [[nodiscard]] static double metric_of(const Window& w, Hypothesis h) {
    switch (h) {
      case Hypothesis::CpuBound:
        return Window::mean(w.cpu);
      case Hypothesis::CommunicationBound:
        return Window::mean(w.comm);
      case Hypothesis::SyncWaiting:
        return std::max(0.0, 1.0 - Window::mean(w.cpu) - Window::mean(w.comm));
    }
    return 0.0;
  }
  [[nodiscard]] double threshold_of(Hypothesis h) const {
    switch (h) {
      case Hypothesis::CpuBound:
        return config_.cpu_bound_threshold;
      case Hypothesis::CommunicationBound:
        return config_.comm_bound_threshold;
      case Hypothesis::SyncWaiting:
        return config_.sync_waiting_threshold;
    }
    return 1.0;
  }

  ConsultantConfig config_;
  std::map<std::int32_t, Window> per_node_;
  std::map<std::pair<std::int32_t, std::int32_t>, Window> per_process_;
  Window global_;
};

class ReferenceDetector {
 public:
  ReferenceDetector(const rocc::FaultPlan& plan, DetectorConfig config)
      : config_(config), consultant_(config.consultant) {
    for (const rocc::FaultSpec& f : plan.faults) {
      Tracked t;
      t.spec = f;
      tracked_.push_back(t);
    }
  }

  void observe(const rocc::Sample& sample, rocc::SimTime delivered_at) {
    last_seen_[sample.node] = delivered_at;
    consultant_.observe(sample);
    findings_ = consultant_.search();
    const std::string sig = signature(delivered_at);
    for (Tracked& t : tracked_) {
      if (delivered_at < t.spec.start_us) {
        t.baseline = sig;
      } else if (!t.detected) {
        if (sig != t.baseline) {
          t.detected = true;
          t.detected_at = delivered_at;
        }
      } else if (!t.recovered && delivered_at >= t.spec.end_us() && sig == t.baseline) {
        t.recovered = true;
        t.recovered_at = delivered_at;
      }
    }
  }

  void finalize(std::vector<rocc::FaultOutcome>& outcomes) const {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Tracked& t = tracked_[i];
      outcomes[i].detected = t.detected;
      outcomes[i].detection_latency_us = t.detected ? t.detected_at - t.spec.start_us : -1.0;
      outcomes[i].recovered = t.recovered;
      outcomes[i].recovery_latency_us = t.recovered ? t.recovered_at - t.spec.end_us() : -1.0;
    }
  }

  /// search() as of the last observe().
  [[nodiscard]] const std::vector<Finding>& findings() const { return findings_; }

  struct Tracked {
    rocc::FaultSpec spec;
    std::string baseline;
    bool detected = false;
    rocc::SimTime detected_at = 0.0;
    bool recovered = false;
    rocc::SimTime recovered_at = 0.0;
  };
  [[nodiscard]] const std::vector<Tracked>& tracked() const { return tracked_; }

 private:
  [[nodiscard]] std::string signature(rocc::SimTime now) const {
    std::vector<std::string> parts;
    for (const Finding& f : findings_) parts.push_back(label(f.hypothesis, f.focus));
    const rocc::SimTime horizon = config_.starvation_factor * config_.sampling_period_us;
    for (const auto& [node, seen] : last_seen_) {
      if (now - seen > horizon) parts.push_back("starved@node " + std::to_string(node));
    }
    std::sort(parts.begin(), parts.end());
    std::string sig;
    for (const std::string& p : parts) {
      sig += p;
      sig += ';';
    }
    return sig;
  }

  DetectorConfig config_;
  ReferenceConsultant consultant_;
  std::vector<Tracked> tracked_;
  std::map<std::int32_t, rocc::SimTime> last_seen_;
  std::vector<Finding> findings_;
};

// --------------------------------------------------------------- helpers

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

rocc::Sample make_sample(std::int32_t node, std::int32_t process, double cpu, double comm) {
  rocc::Sample s;
  s.node = node;
  s.app_index = process;
  s.cpu_fraction = cpu;
  s.comm_fraction = comm;
  return s;
}

/// Same findings, same order, bitwise-equal evidence.
void expect_same_findings(const std::vector<Finding>& expected,
                          const std::vector<Finding>& actual, std::size_t step) {
  ASSERT_EQ(expected.size(), actual.size()) << "after sample " << step;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Finding& e = expected[i];
    const Finding& a = actual[i];
    EXPECT_EQ(e.hypothesis, a.hypothesis) << "sample " << step << " finding " << i;
    EXPECT_EQ(e.focus.whole_program, a.focus.whole_program) << "sample " << step;
    EXPECT_EQ(e.focus.node, a.focus.node) << "sample " << step << " finding " << i;
    EXPECT_EQ(e.focus.process, a.focus.process) << "sample " << step << " finding " << i;
    EXPECT_EQ(bits(e.observed), bits(a.observed)) << "sample " << step << " finding " << i;
    EXPECT_EQ(bits(e.threshold), bits(a.threshold)) << "sample " << step;
    EXPECT_EQ(e.samples, a.samples) << "sample " << step << " finding " << i;
  }
}

/// search_foci() holds exactly the (hypothesis, focus) pairs of `expected`.
void expect_same_foci(const std::vector<Finding>& expected, const PerformanceConsultant& pc,
                      std::size_t step) {
  std::vector<std::string> want;
  for (const Finding& f : expected) want.push_back(label(f.hypothesis, f.focus));
  std::vector<PerformanceConsultant::Confirmation> foci;
  pc.search_foci(foci);
  std::vector<std::string> got;
  for (const auto& c : foci) got.push_back(label(c.hypothesis, c.focus));
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(want, got) << "after sample " << step;
}

/// search_foci() comes out strictly increasing in signature-key order:
/// hypothesis, then the whole program before any node, then node id, then
/// a node's own focus before its processes, then process id.  (Process id
/// -1 would read as a node focus; the streams here never use it.)
void expect_foci_in_key_order(const PerformanceConsultant& pc, std::size_t step) {
  std::vector<PerformanceConsultant::Confirmation> foci;
  pc.search_foci(foci);
  const auto key = [](const PerformanceConsultant::Confirmation& c) {
    const bool node_level = c.focus.whole_program || c.focus.process == -1;
    return std::tuple(static_cast<int>(c.hypothesis), !c.focus.whole_program,
                      c.focus.whole_program ? 0 : c.focus.node, !node_level,
                      node_level ? 0 : c.focus.process);
  };
  for (std::size_t i = 1; i < foci.size(); ++i) {
    EXPECT_TRUE(key(foci[i - 1]) < key(foci[i]))
        << "after sample " << step << ": " << label(foci[i - 1].hypothesis, foci[i - 1].focus)
        << " before " << label(foci[i].hypothesis, foci[i].focus);
  }
}

void expect_same_means(const ReferenceConsultant& ref, const PerformanceConsultant& pc,
                       std::int32_t node, std::int32_t process) {
  for (const Hypothesis h : kHypotheses) {
    EXPECT_EQ(bits(ref.node_mean(h, node)), bits(pc.node_mean(h, node)))
        << to_string(h) << " node " << node;
    EXPECT_EQ(bits(ref.process_mean(h, node, process)),
              bits(pc.process_mean(h, node, process)))
        << to_string(h) << " node " << node << " process " << process;
    EXPECT_EQ(bits(ref.global_mean(h)), bits(pc.global_mean(h))) << to_string(h);
  }
}

// -------------------------------------------------------- seeded stream

/// What a node does for a stretch of ticks.  Steady modes report exact
/// grid values so that windows of different nodes tie exactly.
enum class Mode { Balanced, CpuHot, CommHot, Idle };

struct Params {
  std::uint64_t seed;
  std::size_t window;
  std::size_t min_samples;
};

class ConsultantOracle : public ::testing::TestWithParam<Params> {};

TEST_P(ConsultantOracle, IncrementalSearchMatchesFromScratchReference) {
  const Params p = GetParam();
  constexpr int kNodes = 66;  // >= 64; the last 4 join late
  constexpr int kLateNodes = 4;
  constexpr int kTicks = 240;
  constexpr double kTickUs = 10'000.0;

  DetectorConfig config;
  config.consultant.window = p.window;
  config.consultant.min_samples = p.min_samples;
  config.sampling_period_us = kTickUs;
  config.starvation_factor = 4.0;

  // Window edges only matter to the detector; the stream below decides
  // what changes when.  [1.7 s, 1.8 s) silences node 3 inside a calm
  // stretch, so that fault both diverges and returns to its baseline.
  rocc::FaultPlan plan;
  for (const auto& [start_ms, dur_ms] : std::vector<std::pair<double, double>>{
           {0, 300}, {450, 250}, {900, 100}, {1000, 400}, {1700, 100}, {2100, 800}}) {
    rocc::FaultSpec f;
    f.type = rocc::FaultType::DaemonStall;
    f.start_us = start_ms * 1000.0;
    f.duration_us = dur_ms * 1000.0;
    plan.faults.push_back(f);
  }

  FaultDetector detector(plan, config);
  ReferenceDetector reference(plan, config);
  std::vector<std::pair<std::size_t, rocc::SimTime>> detections;
  detector.set_detection_callback(
      [&detections](std::size_t i, rocc::SimTime now) { detections.emplace_back(i, now); });

  std::mt19937_64 rng(p.seed);
  const auto uniform = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  std::vector<int> processes(kNodes);
  std::vector<Mode> mode(kNodes, Mode::Balanced);
  std::vector<bool> steady(kNodes, false);
  std::vector<int> silent_until(kNodes, -1);
  for (int n = 0; n < kNodes; ++n) processes[n] = 1 + static_cast<int>(rng() % 4);

  std::size_t step = 0;
  std::size_t process_findings = 0;
  std::size_t tied_pairs = 0;
  std::size_t global_findings = 0;
  for (int tick = 0; tick < kTicks; ++tick) {
    const double now = tick * kTickUs;
    const bool all_cpu_hot = tick >= 110 && tick < 130;  // drives the global test
    const bool calm = tick >= 140 && tick < 200;          // steady, balanced, on time
    for (int n = 0; n < kNodes; ++n) {
      if (n >= kNodes - kLateNodes && tick < 90) continue;  // joins after a wrap
      if (calm) {
        mode[n] = Mode::Balanced;
        steady[n] = true;
        silent_until[n] = n == 3 && tick == 170 ? 180 : silent_until[n];
      } else {
        if (uniform() < 0.04) {
          mode[n] = static_cast<Mode>(rng() % 4);
          steady[n] = uniform() < 0.5;
        }
        if (uniform() < 0.004) silent_until[n] = tick + 3 + static_cast<int>(rng() % 10);
      }
      if (tick < silent_until[n]) continue;  // starvation once silent > 4 ticks
      for (int proc = 0; proc < processes[n]; ++proc) {
        if (!calm && uniform() < 0.1) continue;  // jittered delivery
        double cpu = 0.5;
        double comm = 0.1;
        switch (all_cpu_hot ? Mode::CpuHot : mode[n]) {
          case Mode::Balanced:
            break;
          case Mode::CpuHot:
            cpu = 0.9375;
            comm = 0.03125;
            break;
          case Mode::CommHot:
            cpu = 0.25;
            comm = 0.5;
            break;
          case Mode::Idle:
            cpu = 0.1875;
            comm = 0.0625;
            break;
        }
        if (proc == 1) cpu += 0.0625;  // a hotter sibling to refine to
        if (!steady[n]) {
          cpu += 0.3 * (uniform() - 0.5);  // crosses thresholds and the clamp
          comm += 0.2 * (uniform() - 0.5);
        }
        const rocc::Sample s = make_sample(n, proc, cpu, comm);
        detector.observe(s, now);
        reference.observe(s, now);

        const std::vector<Finding>& expected = reference.findings();
        expect_same_findings(expected, detector.consultant().search(), step);
        expect_same_foci(expected, detector.consultant(), step);
        if (HasFatalFailure()) return;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          if (expected[i].focus.whole_program) ++global_findings;
          if (expected[i].focus.process >= 0) ++process_findings;
          if (i > 0 && !expected[i].focus.whole_program &&
              !expected[i - 1].focus.whole_program &&
              expected[i].hypothesis == expected[i - 1].hypothesis &&
              expected[i].observed == expected[i - 1].observed) {
            ++tied_pairs;
          }
        }
        ++step;
      }
    }
  }

  std::vector<rocc::FaultOutcome> want(plan.faults.size());
  std::vector<rocc::FaultOutcome> got(plan.faults.size());
  reference.finalize(want);
  detector.finalize(got);
  std::size_t detected = 0;
  std::size_t recovered = 0;
  std::size_t next_detection = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].detected, got[i].detected) << "fault " << i;
    EXPECT_EQ(bits(want[i].detection_latency_us), bits(got[i].detection_latency_us))
        << "fault " << i;
    EXPECT_EQ(want[i].recovered, got[i].recovered) << "fault " << i;
    EXPECT_EQ(bits(want[i].recovery_latency_us), bits(got[i].recovery_latency_us))
        << "fault " << i;
    detected += want[i].detected ? 1 : 0;
    recovered += want[i].recovered ? 1 : 0;
  }
  // The callback fires once per detection, at the reference's detected_at.
  std::sort(detections.begin(), detections.end());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& t = reference.tracked()[i];
    if (!t.detected) continue;
    ASSERT_LT(next_detection, detections.size());
    EXPECT_EQ(detections[next_detection].first, i);
    EXPECT_EQ(bits(detections[next_detection].second), bits(t.detected_at));
    ++next_detection;
  }
  EXPECT_EQ(next_detection, detections.size());

  // The stream must exercise what the caches and keys could get wrong.
  EXPECT_GT(step, 20'000u);
  EXPECT_GT(global_findings, 0u);
  EXPECT_GT(process_findings, 0u);
  EXPECT_GT(tied_pairs, 0u);
  EXPECT_GE(detected, 3u);
  EXPECT_GE(recovered, 1u);
}

INSTANTIATE_TEST_SUITE_P(Streams, ConsultantOracle,
                         ::testing::Values(Params{1, 32, 8}, Params{7, 8, 4}),
                         [](const ::testing::TestParamInfo<Params>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_window" +
                                  std::to_string(info.param.window);
                         });

// ------------------------------------------------- cache-invalidation edges

TEST(ConsultantCache, MeansMatchFromScratchAcrossRingWrap) {
  ConsultantConfig config;
  config.window = 4;
  PerformanceConsultant pc(config);
  ReferenceConsultant ref(config);
  // Values whose partial sums round differently in any other order.
  for (int i = 0; i < 13; ++i) {
    const rocc::Sample s = make_sample(0, 0, 0.1 * i + 1.0 / 3.0, 0.7 / (i + 3));
    pc.observe(s);
    ref.observe(s);
    // Read after every push: a stale cache would show on the next one.
    expect_same_means(ref, pc, 0, 0);
  }
}

TEST(ConsultantCache, GlobalMeanMatchesAfterLateNodeGrowsCapacity) {
  ConsultantConfig config;
  config.window = 4;
  PerformanceConsultant pc(config);
  ReferenceConsultant ref(config);
  const auto feed = [&](std::int32_t node, int i) {
    const rocc::Sample s = make_sample(node, 0, 0.37 + 0.011 * i, 0.05 + 0.003 * i);
    pc.observe(s);
    ref.observe(s);
    expect_same_means(ref, pc, node, 0);
  };
  // Two nodes wrap the 8-slot global ring (next != 0), then a third node
  // appears and the ring grows to 12 slots by appending.
  for (int i = 0; i < 11; ++i) feed(i % 2, i);
  for (int i = 11; i < 30; ++i) feed(i % 3, i);
  for (const std::int32_t node : {0, 1, 2}) expect_same_means(ref, pc, node, 0);
}

TEST(ConsultantCache, ProcessRangeScanStopsAtNeighbouringNodes) {
  // Map order: node 0 (processes 0, 5), node 1 (single process), node 2
  // (processes 0, 1, 2), node 3 (single process), node 4 (processes 3, 9).
  // Every node is CPU-hot; the multi-process nodes each have one hotter
  // process.  A scan that leaked across a node boundary would count the
  // single-process nodes as multi-process or refine to a neighbour's
  // process.
  PerformanceConsultant pc;
  ReferenceConsultant ref(ConsultantConfig{});
  const std::vector<std::pair<std::int32_t, std::vector<std::pair<std::int32_t, double>>>>
      layout = {{0, {{0, 0.86}, {5, 0.99}}},
                {1, {{7, 0.99}}},
                {2, {{0, 0.86}, {1, 0.86}, {2, 0.99}}},
                {3, {{0, 0.99}}},
                {4, {{3, 0.99}, {9, 0.86}}},
                {5, {{0, 0.30}}},
                {6, {{0, 0.30}}},
                {7, {{0, 0.30}}}};
  for (int i = 0; i < 20; ++i) {
    for (const auto& [node, procs] : layout) {
      for (const auto& [proc, cpu] : procs) {
        const rocc::Sample s = make_sample(node, proc, cpu, 0.005);
        pc.observe(s);
        ref.observe(s);
      }
    }
  }
  const std::vector<Finding> findings = pc.search();
  expect_same_findings(ref.search(), findings, 0);

  std::vector<std::pair<std::int32_t, std::int32_t>> refined_processes;
  for (const Finding& f : findings) {
    if (f.hypothesis == Hypothesis::CpuBound && f.focus.process >= 0) {
      refined_processes.emplace_back(f.focus.node, f.focus.process);
    }
  }
  std::sort(refined_processes.begin(), refined_processes.end());
  const std::vector<std::pair<std::int32_t, std::int32_t>> want = {{0, 5}, {2, 2}, {4, 3}};
  EXPECT_EQ(refined_processes, want);
}

TEST(ConsultantCache, TiedSeverityOrdersByNodeThenProcess) {
  // Three nodes with identical windows tie on every metric: refined
  // findings come out in (node, process) order, the node before its
  // processes.
  PerformanceConsultant pc;
  for (int i = 0; i < 16; ++i) {
    for (const std::int32_t node : {6, 2, 4}) pc.observe(make_sample(node, 0, 0.96875, 0.0));
    pc.observe(make_sample(9, 0, 0.25, 0.0));
    pc.observe(make_sample(9, 1, 0.25, 0.0));
  }
  std::vector<std::int32_t> order;
  for (const Finding& f : pc.search()) {
    if (f.hypothesis == Hypothesis::CpuBound && !f.focus.whole_program) {
      order.push_back(f.focus.node);
    }
  }
  EXPECT_EQ(order, (std::vector<std::int32_t>{2, 4, 6}));
}

// ------------------------------------------- certified bound and fallback

double& threshold_of(ConsultantConfig& config, Hypothesis h) {
  switch (h) {
    case Hypothesis::CpuBound:
      return config.cpu_bound_threshold;
    case Hypothesis::CommunicationBound:
      return config.comm_bound_threshold;
    case Hypothesis::SyncWaiting:
      break;
  }
  return config.sync_waiting_threshold;
}

/// Three nodes x two processes of values whose sums round, so the running
/// estimate of the global mean misses the exact in-order mean in its low
/// bits.  Node 0 runs hottest.
std::vector<rocc::Sample> awkward_stream() {
  std::vector<rocc::Sample> stream;
  for (int i = 0; i < 40; ++i) {
    for (std::int32_t node = 0; node < 3; ++node) {
      for (std::int32_t proc = 0; proc < 2; ++proc) {
        const double cpu = 0.78 + ((i * 7 + node * 3 + proc) % 13) / 97.0 + (node == 0 ? 0.05 : 0);
        const double comm = 0.05 + ((i * 5 + node) % 11) / 113.0;
        stream.push_back(make_sample(node, proc, cpu, comm));
      }
    }
  }
  return stream;
}

/// Replays `stream` into a consultant and the reference under `config`,
/// checks they agree, and returns the reference's findings.
std::vector<Finding> replay_and_compare(const ConsultantConfig& config,
                                        const std::vector<rocc::Sample>& stream) {
  PerformanceConsultant pc(config);
  ReferenceConsultant ref(config);
  for (const rocc::Sample& s : stream) {
    pc.observe(s);
    ref.observe(s);
  }
  const std::vector<Finding> want = ref.search();
  // Keys first: search() would leave the exact global mean cached.
  expect_same_foci(want, pc, stream.size());
  expect_same_findings(want, pc.search(), stream.size());
  return want;
}

bool has_focus(const std::vector<Finding>& findings, Hypothesis h, const Focus& focus) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return label(f.hypothesis, f.focus) == label(h, focus);
  });
}

TEST(ConsultantBoundary, GlobalMeanOnAThresholdOrOneUlpAway) {
  const std::vector<rocc::Sample> stream = awkward_stream();
  PerformanceConsultant probe;
  for (const rocc::Sample& s : stream) probe.observe(s);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Hypothesis h : kHypotheses) {
    const double g = probe.global_mean(h);
    // Only an estimate that misses g makes these cases need the fallback.
    ASSERT_NE(probe.global_mean_bound(h).approx, g) << to_string(h);
    for (const double t : {std::nextafter(g, -kInf), g, std::nextafter(g, kInf)}) {
      ConsultantConfig config;
      threshold_of(config, h) = t;
      const std::vector<Finding> want = replay_and_compare(config, stream);
      EXPECT_EQ(has_focus(want, h, Focus{true, -1}), g >= t) << to_string(h) << " at " << t;
    }
  }
}

TEST(ConsultantBoundary, NodeMeanTyingGlobalPlusMargin) {
  const std::vector<rocc::Sample> stream = awkward_stream();
  PerformanceConsultant probe;
  for (const rocc::Sample& s : stream) probe.observe(s);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Hypothesis h : kHypotheses) {
    const double g = probe.global_mean(h);
    const double v = probe.node_mean(h, 0);
    ASSERT_NE(probe.global_mean_bound(h).approx, g) << to_string(h);
    // Margins whose cut fl(g + margin) lands just below, on, and just
    // above node 0's mean.
    double tie = v - g;
    while (g + tie < v) tie = std::nextafter(tie, kInf);
    while (g + tie > v) tie = std::nextafter(tie, -kInf);
    ASSERT_EQ(g + tie, v) << to_string(h);
    double below = tie;
    while (g + below >= v) below = std::nextafter(below, -kInf);
    double above = tie;
    while (g + above <= v) above = std::nextafter(above, kInf);
    for (const double margin : {below, tie, above}) {
      ConsultantConfig config;
      config.refinement_margin = margin;
      threshold_of(config, h) = 0.0;  // only the margin decides
      const std::vector<Finding> want = replay_and_compare(config, stream);
      EXPECT_EQ(has_focus(want, h, Focus{false, 0, -1}), margin != above)
          << to_string(h) << " margin " << margin;
    }
  }
}

/// Draws fractions the bound must hold for: exact 0 and 1, subnormals,
/// values below the fixed-point quantum, threshold neighbours, values the
/// clamp folds, and plain uniforms.
double awkward_fraction(std::mt19937_64& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double uniform = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  switch (rng() % 10) {
    case 0:
      return 0.0;
    case 1:
      return 1.0;
    case 2:
      return std::numeric_limits<double>::denorm_min() * static_cast<double>(1 + rng() % 7);
    case 3:
      return 0x1p-41 * uniform;
    case 4:
      return std::nextafter(0.85, rng() % 2 ? kInf : -kInf);
    case 5:
      return std::nextafter(rng() % 2 ? 0.30 : 0.40, rng() % 2 ? kInf : -kInf);
    case 6:
      return std::nextafter(1.0, 0.0);
    case 7:
      return rng() % 2 ? 1.5 : -0.25;
    default:
      return uniform;
  }
}

TEST(ConsultantBound, RunningEstimateStaysWithinEps) {
  struct Case {
    std::uint64_t seed;
    std::size_t window;
    int nodes;
    int steps;
  };
  // Small rings wrap many times; 64 x 32 is the 2048-slot global window.
  for (const Case c : {Case{1, 4, 16, 4000}, Case{2, 8, 24, 6000}, Case{3, 32, 64, 12000}}) {
    ConsultantConfig config;
    config.window = c.window;
    PerformanceConsultant pc(config);
    std::mt19937_64 rng(c.seed);
    double worst = 0.0;  // largest |exact - approx| / eps seen
    for (int step = 0; step < c.steps; ++step) {
      // Node n joins after step 40 * n, so late joins grow a wrapped ring.
      const int active = std::min(c.nodes, 1 + step / 40);
      const auto node = static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(active));
      pc.observe(make_sample(node, static_cast<std::int32_t>(rng() % 3), awkward_fraction(rng),
                             awkward_fraction(rng)));
      for (const Hypothesis h : kHypotheses) {
        const auto bound = pc.global_mean_bound(h);
        const double exact = pc.global_mean(h);
        ASSERT_TRUE(std::isfinite(bound.eps)) << to_string(h) << " step " << step;
        ASSERT_LE(std::abs(exact - bound.approx), bound.eps)
            << to_string(h) << " seed " << c.seed << " step " << step;
        EXPECT_LT(bound.eps, 1e-10) << to_string(h);
        worst = std::max(worst, std::abs(exact - bound.approx) / bound.eps);
      }
    }
    EXPECT_GT(worst, 0.0) << "seed " << c.seed;  // the estimate does round
    EXPECT_EQ(pc.known_nodes().size(), static_cast<std::size_t>(c.nodes));
  }
}

TEST(ConsultantNonFinite, NanSampleMatchesReference) {
  ConsultantConfig config;
  config.window = 8;
  PerformanceConsultant pc(config);
  ReferenceConsultant ref(config);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool saw_uncertified = false;
  std::size_t findings = 0;
  for (int step = 0; step < 200; ++step) {
    const auto node = static_cast<std::int32_t>(step % 4);
    double cpu = node == 1 ? 0.95 : 0.4 + 0.01 * (step % 7);
    double comm = 0.05;
    if (step == 50) cpu = kNan;   // poisons node 2's, and the global, cpu mean
    if (step == 63) comm = kNan;  // node 3's comm mean
    if (step == 72) {             // the clamp folds infinities to 1 and 0
      cpu = kInf;
      comm = -kInf;
    }
    const rocc::Sample s = make_sample(node, step % 2, cpu, comm);
    pc.observe(s);
    ref.observe(s);
    const std::vector<Finding> want = ref.search();
    expect_same_foci(want, pc, static_cast<std::size_t>(step));
    expect_same_findings(want, pc.search(), static_cast<std::size_t>(step));
    if (HasFatalFailure()) return;
    findings += want.size();
    for (const Hypothesis h : kHypotheses) {
      saw_uncertified |= !std::isfinite(pc.global_mean_bound(h).eps);
    }
  }
  EXPECT_TRUE(saw_uncertified);
  EXPECT_GT(findings, 0u);
  // Both NaN slots have been overwritten: the bound certifies again.
  for (const Hypothesis h : kHypotheses) {
    EXPECT_TRUE(std::isfinite(pc.global_mean_bound(h).eps)) << to_string(h);
  }
}

TEST(FaultDetectorSignature, DistinguishesSwappedProcessFindings) {
  // One sample swaps which process on node 1 is refined (process 3 ->
  // process 4) while every other finding stays: the finding count is
  // unchanged, so only keys that tell processes apart see the change.
  DetectorConfig config;
  config.consultant.window = 8;
  config.consultant.min_samples = 8;
  config.consultant.refinement_margin = 0.0;
  config.sampling_period_us = 1e9;  // no starvation
  rocc::FaultPlan plan;
  rocc::FaultSpec fault;
  fault.start_us = 39.0;  // the 40th sample, below, makes the swap
  fault.duration_us = 10.0;
  plan.faults = {fault};

  FaultDetector detector(plan, config);
  ReferenceDetector reference(plan, config);
  std::vector<rocc::Sample> stream;
  for (int i = 0; i < 8; ++i) {
    for (const std::int32_t node : {0, 2, 5}) stream.push_back(make_sample(node, 0, 0.3, 0.0));
  }
  for (int i = 0; i < 7; ++i) stream.push_back(make_sample(1, 4, 1.0, 0.0));
  for (int i = 0; i < 8; ++i) stream.push_back(make_sample(1, 3, 0.97, 0.0));
  stream.push_back(make_sample(1, 4, 1.0, 0.0));  // process 4 reaches min_samples
  ASSERT_EQ(stream.size(), 40u);

  std::vector<std::int32_t> refined_before;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto t = static_cast<double>(i);
    detector.observe(stream[i], t);
    reference.observe(stream[i], t);
    expect_same_findings(reference.findings(), detector.consultant().search(), i);
    expect_same_foci(reference.findings(), detector.consultant(), i);
    if (i + 2 == stream.size()) {
      for (const Finding& f : reference.findings()) {
        if (f.focus.process >= 0) refined_before.push_back(f.focus.process);
      }
    }
  }
  std::vector<std::int32_t> refined_after;
  for (const Finding& f : reference.findings()) {
    if (f.focus.process >= 0) refined_after.push_back(f.focus.process);
  }
  EXPECT_EQ(refined_before, std::vector<std::int32_t>{3});
  EXPECT_EQ(refined_after, std::vector<std::int32_t>{4});

  std::vector<rocc::FaultOutcome> want(1);
  std::vector<rocc::FaultOutcome> got(1);
  reference.finalize(want);
  detector.finalize(got);
  EXPECT_TRUE(want[0].detected);
  EXPECT_EQ(bits(want[0].detection_latency_us), bits(0.0));
  EXPECT_EQ(want[0].detected, got[0].detected);
  EXPECT_EQ(bits(want[0].detection_latency_us), bits(got[0].detection_latency_us));
}

// ------------------------------------------------ id-ordered row layout

/// A sample stream over (node, process) pairs that join at given steps and
/// then report round-robin, one per step at 1 ms, in the order they joined.
/// Each pair's values follow its own profile, so nodes and processes are
/// refined: `hot` pairs run CPU-bound, `warm` ones somewhat less (a node
/// mixing the two is CPU-bound with its hot processes standing out),
/// `comm` pairs communication-bound, `idle` pairs mostly blocked, the rest
/// balanced, all with a little noise.
struct Joiner {
  int step;
  std::int32_t node;
  std::int32_t process;
  char profile;  ///< 'h'ot, 'w'arm, 'c'omm, 'i'dle or 'b'alanced.
};

struct Delivery {
  rocc::Sample sample;
  rocc::SimTime at;
};

std::vector<Delivery> join_stream(const std::vector<Joiner>& joins, int steps,
                                  std::uint64_t seed, std::int32_t silent_node = -1,
                                  int silent_from = 0, int silent_to = 0) {
  std::mt19937_64 rng(seed);
  const auto noise = [&rng] { return 0.02 * (static_cast<double>(rng() >> 11) * 0x1.0p-53 - 0.5); };
  std::vector<Delivery> stream;
  std::vector<Joiner> active;
  std::size_t next = 0;
  for (int step = 0; step < steps; ++step) {
    for (const Joiner& j : joins) {
      if (j.step == step) active.push_back(j);
    }
    if (active.empty()) continue;
    const Joiner& j = active[next++ % active.size()];
    if (j.node == silent_node && step >= silent_from && step < silent_to) continue;
    double cpu = 0.5;
    double comm = 0.1;
    switch (j.profile) {
      case 'h':
        cpu = 0.99;
        comm = 0.005;
        break;
      case 'w':
        cpu = 0.78;
        comm = 0.02;
        break;
      case 'c':
        cpu = 0.3;
        comm = 0.55;
        break;
      case 'i':
        cpu = 0.1;
        comm = 0.05;
        break;
      default:
        break;
    }
    stream.push_back({make_sample(j.node, j.process, cpu + noise(), comm + noise()),
                      static_cast<rocc::SimTime>(step) * 1'000.0});
  }
  return stream;
}

/// Peak resident set size of this process, in bytes.
long peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss * 1024L;
}

/// Feeds `stream` to a consultant and the reference and checks, after every
/// sample, the findings, the foci and their key order, and the sampled
/// node's and process's means.  Returns the number of refined processes
/// seen over the stream.
std::size_t replay_consultants(const ConsultantConfig& config,
                               const std::vector<Delivery>& stream) {
  PerformanceConsultant pc(config);
  ReferenceConsultant ref(config);
  std::size_t process_findings = 0;
  for (std::size_t step = 0; step < stream.size(); ++step) {
    const rocc::Sample& s = stream[step].sample;
    pc.observe(s);
    ref.observe(s);
    const std::vector<Finding> want = ref.search();
    expect_same_foci(want, pc, step);
    expect_foci_in_key_order(pc, step);
    expect_same_findings(want, pc.search(), step);
    expect_same_means(ref, pc, s.node, s.app_index);
    if (::testing::Test::HasFailure()) return process_findings;
    for (const Finding& f : want) process_findings += f.focus.process >= 0 ? 1 : 0;
  }
  return process_findings;
}

TEST(ConsultantLayout, OutOfOrderJoinsMatchReference) {
  // Nodes join as 5, 2, 9, 0, 7; node 2's processes join as 3, 6, 1, 0;
  // node -4 joins last, below every id seen so far.
  const std::vector<Joiner> joins = {
      {0, 5, 0, 'c'},  {10, 2, 3, 'w'}, {20, 9, 0, 'i'},   {30, 0, 0, 'b'},
      {40, 7, 0, 'h'}, {60, 2, 6, 'h'}, {80, 2, 1, 'w'},   {100, 2, 0, 'h'},
      {160, -4, 0, 'h'}, {170, -4, 2, 'w'}};
  ConsultantConfig config;
  config.window = 8;
  config.min_samples = 4;
  const std::vector<Delivery> stream = join_stream(joins, 400, 11);
  EXPECT_GT(replay_consultants(config, stream), 0u);

  PerformanceConsultant pc(config);
  for (const Delivery& d : stream) pc.observe(d.sample);
  EXPECT_EQ(pc.known_nodes(), (std::vector<std::int32_t>{-4, 0, 2, 5, 7, 9}));
}

TEST(ConsultantLayout, ExtremeIdsMatchReferenceWithoutGrowingMemory) {
  // Ids at both ends of int32: a table indexed by id would need gigabytes.
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::vector<Joiner> joins = {
      {0, kMax, 0, 'h'},      {0, kMax, kMin, 'w'}, {5, kMin, kMax, 'c'},
      {5, kMin, 0, 'c'},      {9, -1, 7, 'i'},      {12, kMax - 1, kMax - 1, 'h'},
      {12, kMax - 1, kMax, 'w'}, {20, 0, kMin, 'b'}, {30, 3, 0, 'b'}};
  ConsultantConfig config;
  config.window = 8;
  config.min_samples = 4;
  const long before = peak_rss_bytes();
  EXPECT_GT(replay_consultants(config, join_stream(joins, 300, 12)), 0u);
  EXPECT_LT(peak_rss_bytes() - before, 64L << 20);
}

/// Feeds `stream` to a FaultDetector and the reference detector, checks
/// the findings and foci order after every sample and that both agree on
/// every outcome and detection callback, and returns the outcomes.
std::vector<rocc::FaultOutcome> replay_detectors(const rocc::FaultPlan& plan,
                                                 const DetectorConfig& config,
                                                 const std::vector<Delivery>& stream) {
  FaultDetector detector(plan, config);
  ReferenceDetector reference(plan, config);
  std::vector<std::pair<std::size_t, rocc::SimTime>> calls;
  detector.set_detection_callback(
      [&calls](std::size_t i, rocc::SimTime now) { calls.emplace_back(i, now); });
  for (std::size_t step = 0; step < stream.size(); ++step) {
    detector.observe(stream[step].sample, stream[step].at);
    reference.observe(stream[step].sample, stream[step].at);
    expect_same_findings(reference.findings(), detector.consultant().search(), step);
    expect_foci_in_key_order(detector.consultant(), step);
    if (::testing::Test::HasFailure()) return {};
  }
  std::vector<rocc::FaultOutcome> want(plan.faults.size());
  std::vector<rocc::FaultOutcome> got(plan.faults.size());
  reference.finalize(want);
  detector.finalize(got);
  std::vector<std::pair<std::size_t, rocc::SimTime>> want_calls;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].detected, got[i].detected) << "fault " << i;
    EXPECT_EQ(bits(want[i].detection_latency_us), bits(got[i].detection_latency_us))
        << "fault " << i;
    EXPECT_EQ(want[i].recovered, got[i].recovered) << "fault " << i;
    EXPECT_EQ(bits(want[i].recovery_latency_us), bits(got[i].recovery_latency_us))
        << "fault " << i;
    if (want[i].detected) want_calls.emplace_back(i, reference.tracked()[i].detected_at);
  }
  std::sort(calls.begin(), calls.end());
  EXPECT_EQ(calls, want_calls);
  return want;
}

rocc::FaultPlan window_plan(const std::vector<std::pair<rocc::SimTime, rocc::SimTime>>& windows) {
  rocc::FaultPlan plan;
  for (const auto& [start, dur] : windows) {
    rocc::FaultSpec f;
    f.type = rocc::FaultType::DaemonStall;
    f.start_us = start;
    f.duration_us = dur;
    plan.faults.push_back(f);
  }
  return plan;
}

TEST(FaultDetectorLayout, OutOfOrderJoinsAndStarvationMatchReference) {
  // Nodes join as 5, 2, 9, 1, 7, then node 0 below them all; node 9 falls
  // silent for a stretch, so starved keys follow the findings.
  const std::vector<Joiner> joins = {
      {0, 5, 0, 'c'},   {10, 2, 3, 'w'},   {20, 9, 0, 'i'},   {30, 1, 0, 'b'},
      {40, 7, 0, 'h'},  {60, 2, 6, 'h'},   {80, 2, 1, 'w'},   {100, 2, 0, 'h'},
      {220, 0, 0, 'h'}, {230, 0, 4, 'w'}};
  DetectorConfig config;
  config.consultant.window = 8;
  config.consultant.min_samples = 4;
  config.sampling_period_us = 5'000.0;  // starved after 20 ms of silence
  const rocc::FaultPlan plan = window_plan(
      {{50'000.0, 30'000.0}, {150'000.0, 60'000.0}, {215'000.0, 20'000.0}, {300'000.0, 50'000.0}});
  const auto outcomes =
      replay_detectors(plan, config, join_stream(joins, 400, 13, 9, 150, 200));
  ASSERT_EQ(outcomes.size(), plan.faults.size());
  EXPECT_TRUE(outcomes[1].detected);  // node 9 starves inside the window
}

TEST(FaultDetectorLayout, HighestValidIdsMatchReferenceWithoutGrowingMemory) {
  constexpr std::int32_t kTop = std::numeric_limits<std::int32_t>::max() - 1;
  const std::vector<Joiner> joins = {{0, kTop, kTop, 'h'}, {0, kTop, 0, 'w'},
                                     {10, 0, kTop, 'c'},   {20, 3, 1, 'b'}};
  DetectorConfig config;
  config.consultant.window = 8;
  config.consultant.min_samples = 4;
  config.sampling_period_us = 5'000.0;
  const long before = peak_rss_bytes();
  const auto outcomes = replay_detectors(window_plan({{5'000.0, 10'000.0}, {60'000.0, 40'000.0}}),
                                         config, join_stream(joins, 200, 14, kTop, 60, 90));
  EXPECT_LT(peak_rss_bytes() - before, 64L << 20);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].detected);
  EXPECT_TRUE(outcomes[1].detected);
}

TEST(FaultDetectorLayout, JoinDuringSilenceKeepsEachNodesLastDelivery) {
  // No hypothesis can hold, so the signature is the starved set alone.
  // Node 9 falls silent at 100 ms and is starved from ~120 ms; node 0 joins
  // below it at 150 ms, while it is still silent.  The fault armed at
  // 140 ms sees its first change only when node 9 speaks again at 200 ms:
  // the join must not hand node 9's last delivery time to another node.
  const std::vector<Joiner> joins = {{0, 5, 0, 'b'}, {0, 9, 0, 'b'}, {150, 0, 0, 'b'}};
  DetectorConfig config;
  config.consultant.cpu_bound_threshold = 2.0;
  config.consultant.comm_bound_threshold = 2.0;
  config.consultant.sync_waiting_threshold = 2.0;
  config.sampling_period_us = 5'000.0;
  const auto outcomes = replay_detectors(window_plan({{140'000.0, 40'000.0}}), config,
                                         join_stream(joins, 300, 15, 9, 100, 200));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].detected);
  EXPECT_GE(outcomes[0].detection_latency_us, 60'000.0);
}

// ------------------------------------------------- baseline snapshot edges

/// One CPU-hot node delivering at t = 0, 1, 2, ...: the whole-program
/// CPUBound finding appears at the 4th sample (t = 3), the only signature
/// change of the stream.
std::vector<Delivery> hot_stream(int samples) {
  std::vector<Delivery> stream;
  for (int i = 0; i < samples; ++i) {
    stream.push_back({make_sample(0, 0, 0.95, 0.02), static_cast<rocc::SimTime>(i)});
  }
  return stream;
}

DetectorConfig snapshot_config() {
  DetectorConfig config;
  config.consultant.window = 8;
  config.consultant.min_samples = 4;
  config.sampling_period_us = 1e9;  // no starvation
  return config;
}

TEST(FaultDetectorBaseline, FaultStartingBeforeTheFirstSample) {
  // Armed at the first sample with an empty baseline.
  const auto out = replay_detectors(window_plan({{-5.0, 1.0}}), snapshot_config(), hot_stream(20));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].detected);
  EXPECT_EQ(bits(out[0].detection_latency_us), bits(8.0));
}

TEST(FaultDetectorBaseline, SampleExactlyAtStartComparesAgainstThePreviousSignature) {
  // The sample at t = 3 both arms the fault and changes the signature: the
  // baseline is the signature before it, so detection latency is 0.  One
  // sample later the change is already in the baseline.
  const auto out = replay_detectors(window_plan({{3.0, 2.0}, {4.0, 2.0}}), snapshot_config(),
                                    hot_stream(20));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].detected);
  EXPECT_EQ(bits(out[0].detection_latency_us), bits(0.0));
  EXPECT_FALSE(out[1].detected);
}

TEST(FaultDetectorBaseline, TwoFaultsWithTheSameStart) {
  const auto out = replay_detectors(window_plan({{3.0, 2.0}, {3.0, 50.0}}), snapshot_config(),
                                    hot_stream(20));
  ASSERT_EQ(out.size(), 2u);
  for (const rocc::FaultOutcome& o : out) {
    EXPECT_TRUE(o.detected);
    EXPECT_EQ(bits(o.detection_latency_us), bits(0.0));
  }
}

TEST(FaultDetectorBaseline, FaultStartingAfterTheLastSampleIsNeverArmed) {
  const auto out = replay_detectors(window_plan({{100.0, 5.0}}), snapshot_config(), hot_stream(20));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].detected);
  EXPECT_EQ(bits(out[0].detection_latency_us), bits(-1.0));
  EXPECT_FALSE(out[0].recovered);
}

TEST(FaultDetectorBaseline, DeliveryTimeSteppingBackBeforeStartRetakesTheBaseline) {
  // Detected at t = 3 against the empty signature; a delivery stamped
  // 2.5 (< start) then re-baselines to the signature with the finding, so
  // the window's end at t = 5 already counts as recovered.
  std::vector<Delivery> stream = hot_stream(5);
  stream.push_back({make_sample(0, 0, 0.95, 0.02), 2.5});
  for (int i = 5; i < 10; ++i) {
    stream.push_back({make_sample(0, 0, 0.95, 0.02), static_cast<rocc::SimTime>(i)});
  }
  const auto out = replay_detectors(window_plan({{3.0, 2.0}}), snapshot_config(), stream);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].detected);
  EXPECT_TRUE(out[0].recovered);
  EXPECT_EQ(bits(out[0].recovery_latency_us), bits(0.0));
}

TEST(FaultDetectorIds, RejectsIdsOutsideTheKeyRange) {
  FaultDetector detector(rocc::FaultPlan{}, DetectorConfig{});
  EXPECT_THROW(detector.observe(make_sample(-1, 0, 0.5, 0.1), 0.0), std::invalid_argument);
  EXPECT_THROW(detector.observe(make_sample(0, -1, 0.5, 0.1), 0.0), std::invalid_argument);
  EXPECT_THROW(detector.observe(make_sample(std::numeric_limits<std::int32_t>::max(), 0, 0.5,
                                            0.1),
                                0.0),
               std::invalid_argument);
  EXPECT_NO_THROW(detector.observe(make_sample(0, 0, 0.5, 0.1), 0.0));
}

}  // namespace
}  // namespace paradyn::consultant
