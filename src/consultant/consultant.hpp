// Simplified Performance Consultant — the consumer of the IS data stream.
//
// Paradyn's Performance Consultant "controls the automated search for
// performance problems, requesting and receiving performance data from the
// Data Manager" and implements the W3 search (why / where / when) for
// on-the-fly bottleneck location (Section 2 of the paper; Hollingsworth et
// al., SHPCC'94).  This module reproduces the search skeleton the IS
// exists to feed:
//
//   why:   hypotheses — CPUBound, CommunicationBound, SyncWaiting — are
//          tested against thresholds on windowed metric means;
//   where: a confirmed hypothesis is refined along the machine resource
//          hierarchy (whole program -> node -> process) to locate the
//          offending focus;
//   when:  tests run continuously over a sliding window, so conclusions
//          can appear and expire as program phases change.
//
// The consultant consumes rocc::Sample values via MainParadyn's sample
// sink, so everything it sees has paid the full collection/forwarding path
// (including monitoring latency — stale data delays diagnosis, which is
// why the paper treats latency as a first-class IS metric).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rocc/types.hpp"

namespace paradyn::consultant {

/// The "why" axis of the W3 search.
enum class Hypothesis : std::uint8_t {
  CpuBound,            ///< computation fraction above threshold
  CommunicationBound,  ///< communication fraction above threshold
  SyncWaiting,         ///< neither computing nor communicating (blocked)
};

[[nodiscard]] const char* to_string(Hypothesis h) noexcept;

/// The "where" axis of the resource hierarchy: whole program, one node, or
/// one process on a node (Paradyn refines foci along such hierarchies).
struct Focus {
  bool whole_program = true;
  std::int32_t node = -1;
  std::int32_t process = -1;  ///< -1: node-level focus.

  [[nodiscard]] std::string describe() const;
};

/// A confirmed (hypothesis, focus) pair with its supporting evidence.
struct Finding {
  Hypothesis hypothesis = Hypothesis::CpuBound;
  Focus focus;
  double observed = 0.0;   ///< Windowed metric mean that tripped the test.
  double threshold = 0.0;
  std::size_t samples = 0; ///< Evidence size.
};

struct ConsultantConfig {
  double cpu_bound_threshold = 0.85;
  double comm_bound_threshold = 0.30;
  double sync_waiting_threshold = 0.40;
  /// Sliding-window length per focus, in samples.
  std::size_t window = 32;
  /// Minimum evidence before a test may conclude.
  std::size_t min_samples = 8;
  /// Refine to per-node foci only when the node deviates from the global
  /// mean by at least this much (keeps the search from flagging everyone).
  double refinement_margin = 0.05;
};

/// Streaming W3-style search over delivered samples.
class PerformanceConsultant {
 public:
  explicit PerformanceConsultant(ConsultantConfig config = {});

  /// Where observe() filed a sample: its node's index in known_nodes(), and
  /// whether the node joined with this sample (its row was inserted at that
  /// index, moving every later row up by one).
  struct Row {
    std::size_t index = 0;
    bool joined = false;
  };
  /// Feed one delivered sample (wire this to MainParadyn::set_sample_sink).
  Row observe(const rocc::Sample& sample);

  /// Run the two-level search on the current windows.  Global findings come
  /// first, then per-node refinements ordered by metric severity (ties by
  /// node, then process, a node before its processes).
  [[nodiscard]] std::vector<Finding> search() const;

  /// A confirmed (hypothesis, focus) pair without its evidence.
  struct Confirmation {
    Hypothesis hypothesis = Hypothesis::CpuBound;
    Focus focus;
  };
  /// The pairs search() would report, written over `out` (whose capacity
  /// is reused), in (hypothesis, node, process) order: per hypothesis, the
  /// whole program first, then each node in ascending id followed by its
  /// processes in ascending id.  Cheaper than search(): no sort and no
  /// exact whole-program mean unless a decision needs one.
  void search_foci(std::vector<Confirmation>& out) const;

  /// A running approximation of global_mean(h) with a certified bound:
  /// |global_mean(h) - approx| <= eps.  eps is +inf while the running sums
  /// cannot certify anything (empty or oversized window, non-finite entry).
  struct MeanBound {
    double approx = 0.0;
    double eps = 0.0;
  };
  [[nodiscard]] MeanBound global_mean_bound(Hypothesis h) const;

  /// The "when" axis: a (hypothesis, focus) pair's confirmation episode.
  struct Episode {
    Hypothesis hypothesis = Hypothesis::CpuBound;
    Focus focus;
    rocc::SimTime first_confirmed_us = 0.0;
    rocc::SimTime last_confirmed_us = 0.0;
    std::size_t confirmations = 0;
  };

  /// Run search() and fold the confirmed findings into the episode history,
  /// timestamped with the latest sample time observed.  Call periodically
  /// (e.g. once per delivered batch) to track when conclusions appear.
  std::vector<Finding> search_and_record();

  /// Episode history in first-confirmation order.
  [[nodiscard]] const std::vector<Episode>& history() const noexcept { return history_; }
  /// Latest sample generation time seen.
  [[nodiscard]] rocc::SimTime now() const noexcept { return now_us_; }

  /// Windowed mean of a hypothesis metric for a node (NaN-free; 0 if no
  /// evidence).  Exposed for tests and reporting.
  [[nodiscard]] double node_mean(Hypothesis h, std::int32_t node) const;
  /// Same at the process level.
  [[nodiscard]] double process_mean(Hypothesis h, std::int32_t node,
                                    std::int32_t process) const;
  [[nodiscard]] double global_mean(Hypothesis h) const;
  [[nodiscard]] std::uint64_t samples_observed() const noexcept { return observed_; }
  /// Every node seen, in ascending id.
  [[nodiscard]] const std::vector<std::int32_t>& known_nodes() const noexcept {
    return node_ids_;
  }

 private:
  // The means are cached: push() marks them stale and the next read
  // re-sums the ring once, in index order, so a read after a sample costs
  // one re-sum of each window it touched.  The refresh writes through const
  // readers, so a consultant must not be read from two threads at once.
  //
  // push() also keeps exact fixed-point running sums (trunc(x * 2^40) per
  // finite entry, modulo 2^64) from which the search bounds the global
  // mean without the re-sum; see global_mean_bound().
  struct Window {
    std::vector<double> cpu;   // ring buffers of metric values
    std::vector<double> comm;
    std::size_t next = 0;
    std::size_t filled = 0;
    std::uint64_t fixed_cpu = 0;
    std::uint64_t fixed_comm = 0;
    std::size_t non_finite = 0;  ///< Entries left out of the fixed sums.

    void push(double cpu_frac, double comm_frac, std::size_t capacity);
    [[nodiscard]] double mean_cpu() const;
    [[nodiscard]] double mean_comm() const;

   private:
    void refresh() const;

    mutable bool stale_ = false;
    mutable double mean_cpu_ = 0.0;
    mutable double mean_comm_ = 0.0;
  };

  struct ProcessWindow {
    std::int32_t id = 0;
    Window window;
  };
  /// One node's windows: its own, then its processes' in ascending
  /// process id.
  struct NodeWindows {
    Window node;
    std::vector<ProcessWindow> processes;
  };

  /// The decision core behind search() and search_foci(); see consultant.cpp.
  template <typename Emit>
  void decide(Hypothesis h, Emit&& emit) const;

  /// Index of `node` in node_ids_, or node_ids_.size() when unknown.
  [[nodiscard]] std::size_t find_row(std::int32_t node) const;
  [[nodiscard]] double metric_of(const Window& w, Hypothesis h) const;
  [[nodiscard]] double threshold_of(Hypothesis h) const;

  ConsultantConfig config_;
  // One row per node seen, in ascending node id across all these columns
  // (a join inserts in place), so the search walks nodes in id order.
  std::vector<std::int32_t> node_ids_;
  std::vector<NodeWindows> windows_;
  /// metric_[h][row] is metric_of(the row's node window, h), refreshed by
  /// observe(): one contiguous column per hypothesis for the search scan.
  std::vector<double> metric_[3];
  std::size_t last_row_ = 0;  ///< Row of the previous sample's node.
  Window global_;
  std::uint64_t observed_ = 0;
  rocc::SimTime now_us_ = 0.0;
  std::vector<Episode> history_;
};

}  // namespace paradyn::consultant
