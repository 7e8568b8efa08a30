// The benchmark's workloads and the outside-in layer timing around them.
//
// Every workload drives the library through its public API only.  One
// call of Workload::execute() is one checked operation: it builds the
// model(s), runs them, verifies the outputs and reports host times.  With
// a SpanLog attached the same call also times the calls into each layer
// (construction, run(), shard-executor bodies, the consultant's sample
// sink, the factorial runner) from this side of the API, so the per-layer
// split needs no instrumentation inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder, written out once when the benchmark ends.
/// Coarse calls (one per model build, run, factorial) are kept as
/// individual spans; calls made thousands of times per run (window
/// bodies, sample observations) are folded into per-name aggregates so
/// tracing stays cheap.  Only the benchmark's own thread records spans.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< Index of the enclosing span, -1 = root.
  };
  struct Aggregate {
    std::uint64_t count = 0;
    double total_s = 0.0;
  };

  /// Open a span nested in the innermost open one; returns its index for
  /// end(), which also closes any span still open inside it.
  std::int32_t begin(std::string name);
  void end(std::int32_t span);
  /// Fold `count` calls taking `total_s` in all into aggregate `name`.
  void add(const std::string& name, double total_s, std::uint64_t count);

  /// Write every span (times relative to the first) and aggregate as JSON.
  void write_json(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, Aggregate> aggregates_;
};

/// Result of one execute() call.
struct Outcome {
  double setup_s = 0.0;  ///< Build + attach of the operation's models.
  double wall_s = 0.0;   ///< The timed operation.
  /// Exact rendering of the simulated statistics; equal across repeated
  /// operations of one seed, traced or not.
  std::string digest;
  /// Human-readable digest lines, printed once.
  std::vector<std::string> summary;
  std::vector<std::string> failures;  ///< Failed correctness checks.
  /// Per-layer metrics (traced operations only).
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Untimed preparation (e.g. a reference run); called once.
  virtual void prepare() {}
  /// Build and attach the model(s) without running them; returns seconds.
  [[nodiscard]] virtual double setup_only() = 0;
  /// One checked operation; `spans` non-null = traced.
  [[nodiscard]] virtual Outcome execute(SpanLog* spans) = 0;
  /// Mean ns per FrozenSampler draw over the workload's distributions.
  [[nodiscard]] virtual double draw_ns() const = 0;
  /// Layers (metric-name prefixes such as "consultant") the workload does
  /// not use; their per-layer metrics read 0.
  [[nodiscard]] virtual std::vector<std::string> bypassed_layers() const = 0;
};

/// "table04", "now_pdes" or "mpp_tree_faults"; nullptr for any other name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
