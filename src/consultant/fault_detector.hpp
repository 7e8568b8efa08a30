// Fault detection on top of the Performance Consultant.
//
// The fault subsystem (rocc/faults.hpp) perturbs the modeled system; this
// module measures how long the *analysis side* of the IS takes to notice.
// The detector maintains a behavioral signature of the consultant's state —
// the set of confirmed (hypothesis, focus) findings plus the set of
// sample-starved nodes, kept as a sorted set of integer keys that is only
// ever compared for equality — and compares it against the signature last
// seen before each fault's injection time (snapshotted once, at the fault's
// first sample at or after that time):
//
//   detection latency = injection time -> first signature change, and
//   recovery latency  = window end     -> first return to the baseline,
//
// both measured in *delivery* time: the detector only sees samples that
// have paid the full collection/forwarding path, so monitoring latency is
// part of detection latency by construction (the paper's motivation for
// treating latency as a first-class IS metric).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "consultant/consultant.hpp"
#include "consultant/repair.hpp"
#include "rocc/faults.hpp"
#include "rocc/metrics.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::consultant {

struct DetectorConfig {
  ConsultantConfig consultant;
  /// Nominal sampling period of the run (sets the starvation horizon).
  rocc::SimTime sampling_period_us = 40'000.0;
  /// A node counts as sample-starved when nothing arrived from it for this
  /// many sampling periods (stalls and crashes starve their whole domain).
  double starvation_factor = 4.0;
};

/// Streaming detector: feed every delivered sample, read per-fault
/// detection/recovery latencies at the end of the run.
class FaultDetector {
 public:
  FaultDetector(rocc::FaultPlan plan, DetectorConfig config);

  /// Feed one delivered sample; `delivered_at` is the simulated delivery
  /// time (wire to MainParadyn's sink with the engine clock).  Node and
  /// process ids must lie in [0, INT32_MAX); throws std::invalid_argument
  /// otherwise.
  void observe(const rocc::Sample& sample, rocc::SimTime delivered_at);

  /// Copy detection/recovery results into `outcomes` (which must be the
  /// simulation's fault_outcomes, in plan order).
  void finalize(std::vector<rocc::FaultOutcome>& outcomes) const;

  /// Invoked once per tracked fault at its first signature divergence —
  /// the hook the RepairEngine hangs its first attempt on.  Runs inside
  /// observe(), so it may schedule engine events.
  using DetectionCallback = std::function<void(std::size_t fault_index, rocc::SimTime now)>;
  void set_detection_callback(DetectionCallback cb) { on_detect_ = std::move(cb); }

  [[nodiscard]] const PerformanceConsultant& consultant() const noexcept {
    return consultant_;
  }

 private:
  /// Sorted keys, one per finding or starved node (see refresh_signature()).
  /// Built already in key order: search_foci() emits in key order, and the
  /// starved nodes follow in id order under the highest tag.
  using Signature = std::vector<std::uint64_t>;

  struct Tracked {
    rocc::FaultSpec spec;
    Signature baseline;  ///< Signature last seen before spec.start_us.
    /// Set when the baseline is taken, at the first sample at or after
    /// spec.start_us; a later sample stamped before start_us clears it.
    bool armed = false;
    bool detected = false;
    rocc::SimTime detected_at = 0.0;
    bool recovered = false;
    rocc::SimTime recovered_at = 0.0;
  };

  /// Findings fingerprint + starved-node set at `now`, into `signature_`;
  /// the previous one moves to `previous_`.
  void refresh_signature(rocc::SimTime now);
  void evaluate(rocc::SimTime now);

  DetectorConfig config_;
  PerformanceConsultant consultant_;
  std::vector<Tracked> tracked_;
  DetectionCallback on_detect_;
  /// Last delivery time per node, one entry per consultant row (same
  /// index as in consultant_.known_nodes()): starvation bookkeeping.
  std::vector<rocc::SimTime> last_seen_at_;
  /// The current and the previous sample's signatures, and the confirmed
  /// foci behind the current one; all reused across samples.
  Signature signature_;
  Signature previous_;
  std::vector<PerformanceConsultant::Confirmation> foci_;
};

/// Ties a FaultDetector to a Simulation for one run: attaches the main
/// process's sample sink before run(), arms the repair engine when a
/// policy is given, and copies the measured latencies (and repair records)
/// into the result afterwards.  Keep the harness alive across run().
class DetectionHarness {
 public:
  /// No-op when instrumentation is disabled or the fault plan is empty.
  /// A non-empty `policy` closes the loop: detections trigger repair
  /// attempts through the simulation's repair API.
  explicit DetectionHarness(rocc::Simulation& sim, DetectorConfig config = {},
                            RepairPolicy policy = {});

  /// Fill result.fault_outcomes with detection/recovery latencies plus the
  /// per-fault repair block when a policy was armed.
  void finalize(rocc::SimulationResult& result) const;

  [[nodiscard]] const FaultDetector* detector() const noexcept { return detector_.get(); }
  [[nodiscard]] const RepairEngine* repair_engine() const noexcept { return repair_.get(); }

 private:
  std::unique_ptr<FaultDetector> detector_;
  std::unique_ptr<RepairEngine> repair_;
};

/// Convenience: run one simulation with fault detection (and optionally
/// the repair loop) attached.
[[nodiscard]] rocc::SimulationResult run_with_detection(const rocc::SystemConfig& config,
                                                        DetectorConfig detector_config = {},
                                                        RepairPolicy repair_policy = {});

}  // namespace paradyn::consultant
