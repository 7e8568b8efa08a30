#include "consultant/fault_detector.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace paradyn::consultant {

FaultDetector::FaultDetector(rocc::FaultPlan plan, DetectorConfig config)
    : config_(config), consultant_(config.consultant) {
  tracked_.reserve(plan.faults.size());
  for (const rocc::FaultSpec& f : plan.faults) {
    Tracked t;
    t.spec = f;
    tracked_.push_back(std::move(t));
  }
}

namespace {

constexpr std::uint64_t kStarvedTag = 3;  // after the three hypotheses

// One key per signature element: two tag bits (the hypothesis, or
// kStarvedTag), then node + 1 and process + 1 in 31 bits each, where 0
// stands for the whole program or a node-level focus.  For ids in
// [0, INT32_MAX) the keys map one-to-one onto the elements' labels
// ("CPUBound@node 3 / process 1", "starved@node 5", ...), so equal key
// sets mean equal findings and starvation sets.
std::uint64_t signature_key(std::uint64_t tag, std::int32_t node, std::int32_t process) {
  return tag << 62 | static_cast<std::uint64_t>(node + 1) << 31 |
         static_cast<std::uint64_t>(process + 1);
}

bool valid_id(std::int32_t id) {
  return id >= 0 && id < std::numeric_limits<std::int32_t>::max();
}

}  // namespace

void FaultDetector::refresh_signature(rocc::SimTime now) {
  // No sort: search_foci() emits in (hypothesis, node, process) order,
  // which for ids in [0, INT32_MAX) is key order, and the starved nodes
  // follow in id order under the highest tag.
  std::swap(previous_, signature_);
  signature_.clear();
  consultant_.search_foci(foci_);
  for (const PerformanceConsultant::Confirmation& c : foci_) {
    const auto tag = static_cast<std::uint64_t>(c.hypothesis);
    signature_.push_back(c.focus.whole_program
                             ? signature_key(tag, -1, -1)
                             : signature_key(tag, c.focus.node, c.focus.process));
  }
  const rocc::SimTime horizon = config_.starvation_factor * config_.sampling_period_us;
  const std::vector<std::int32_t>& nodes = consultant_.known_nodes();
  for (std::size_t row = 0; row < nodes.size(); ++row) {
    if (now - last_seen_at_[row] > horizon) {
      signature_.push_back(signature_key(kStarvedTag, nodes[row], -1));
    }
  }
}

void FaultDetector::evaluate(rocc::SimTime now) {
  refresh_signature(now);
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    Tracked& t = tracked_[i];
    if (now < t.spec.start_us) {
      t.armed = false;
      continue;
    }
    // The previous sample came before start_us (or there was none), so
    // its signature is the last one seen before the fault.
    if (!t.armed) {
      t.baseline = previous_;
      t.armed = true;
    }
    if (!t.detected) {
      if (signature_ != t.baseline) {
        t.detected = true;
        t.detected_at = now;
        if (on_detect_) on_detect_(i, now);
      }
    } else if (!t.recovered && now >= t.spec.end_us() && signature_ == t.baseline) {
      t.recovered = true;
      t.recovered_at = now;
    }
  }
}

void FaultDetector::observe(const rocc::Sample& sample, rocc::SimTime delivered_at) {
  if (!valid_id(sample.node) || !valid_id(sample.app_index)) {
    throw std::invalid_argument("FaultDetector: sample node " + std::to_string(sample.node) +
                                " / process " + std::to_string(sample.app_index) +
                                " outside [0, INT32_MAX)");
  }
  const PerformanceConsultant::Row row = consultant_.observe(sample);
  if (row.joined) {
    last_seen_at_.insert(last_seen_at_.begin() + static_cast<std::ptrdiff_t>(row.index),
                         delivered_at);
  } else {
    last_seen_at_[row.index] = delivered_at;
  }
  evaluate(delivered_at);
}

void FaultDetector::finalize(std::vector<rocc::FaultOutcome>& outcomes) const {
  const std::size_t n = std::min(outcomes.size(), tracked_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Tracked& t = tracked_[i];
    outcomes[i].detected = t.detected;
    outcomes[i].detection_latency_us = t.detected ? t.detected_at - t.spec.start_us : -1.0;
    outcomes[i].recovered = t.recovered;
    outcomes[i].recovery_latency_us = t.recovered ? t.recovered_at - t.spec.end_us() : -1.0;
  }
}

DetectionHarness::DetectionHarness(rocc::Simulation& sim, DetectorConfig config,
                                   RepairPolicy policy) {
  const rocc::FaultPlan& plan = sim.effective_fault_plan();
  if (plan.empty() || sim.main_process() == nullptr) return;
  config.sampling_period_us = sim.config().sampling_period_us;
  detector_ = std::make_unique<FaultDetector>(plan, config);
  FaultDetector* detector = detector_.get();
  des::Engine* engine = &sim.engine();
  // Replaces any previously attached sample sink.
  sim.main_process()->set_sample_sink(
      [detector, engine](const rocc::Sample& s) { detector->observe(s, engine->now()); });
  if (!policy.empty()) {
    policy.validate();
    repair_ = std::make_unique<RepairEngine>(sim, std::move(policy));
    detector_->set_detection_callback(
        [repair = repair_.get()](std::size_t fault_index, rocc::SimTime now) {
          repair->on_detected(fault_index, now);
        });
  }
}

void DetectionHarness::finalize(rocc::SimulationResult& result) const {
  if (detector_) detector_->finalize(result.fault_outcomes);
  if (repair_) repair_->finalize(result.fault_outcomes);
}

rocc::SimulationResult run_with_detection(const rocc::SystemConfig& config,
                                          DetectorConfig detector_config,
                                          RepairPolicy repair_policy) {
  rocc::Simulation sim(config);
  const DetectionHarness harness(sim, detector_config, std::move(repair_policy));
  rocc::SimulationResult result = sim.run();
  harness.finalize(result);
  return result;
}

}  // namespace paradyn::consultant
