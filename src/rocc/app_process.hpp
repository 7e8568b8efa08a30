// Instrumented application process model.
//
// Implements the simplified two-state behavior of Figure 7: alternating
// Computation (CPU occupancy) and Communication (network occupancy) states.
// When instrumented, a wall-clock sampling timer deposits one sample per
// sampling period into the process's pipe; a full pipe blocks the process
// (it finishes its in-flight resource request, then stops progressing until
// the daemon drains the pipe).  Optionally the process joins a global
// barrier every `barrier_period` (Figure 28).
#pragma once

#include <optional>
#include <utility>

#include "des/engine.hpp"
#include "des/random.hpp"
#include "obs/trace.hpp"
#include "rocc/barrier.hpp"
#include "rocc/config.hpp"
#include "rocc/cpu.hpp"
#include "rocc/cost_model.hpp"
#include "rocc/metrics.hpp"
#include "rocc/network.hpp"
#include "rocc/pipe.hpp"

namespace paradyn::rocc {

class ApplicationProcess {
 public:
  /// `pipe` may be null (uninstrumented run); `barrier` may be null (no
  /// barrier synchronization).  `model` is this process's resolved workload
  /// (the global config's AppModel or a per-node override).  `controller`
  /// (nullable) supplies the adaptive sampling period.
  /// `batch` (default: disabled) moves the burst/IO-duration draws onto
  /// per-site prefill buffers (--batch-sampling); the I/O-branch Bernoulli
  /// stays on `rng` either way.
  ApplicationProcess(des::Engine& engine, const SystemConfig& config, AppModel model,
                     CpuResource& cpu, NetworkResource& network, Pipe* pipe,
                     BarrierManager* barrier, const SamplingController* controller,
                     MetricsCollector& metrics, des::RngStream rng, std::int32_t node,
                     std::int32_t index, stats::BatchSpec batch = {});

  ApplicationProcess(const ApplicationProcess&) = delete;
  ApplicationProcess& operator=(const ApplicationProcess&) = delete;

  /// Begin the computation/communication loop and the sampling timer.
  void start();

  /// Fault injection: samples consult `gate` at emission and may be lost
  /// before reaching the pipe.  Call before start(); may be null.
  void set_fault_gate(FaultGate* gate) noexcept { fault_gate_ = gate; }

  /// Adaptive throttle: the sampling period is multiplied by the factor of
  /// `domain` (this process's daemon).  Call before start(); may be null.
  void set_throttle(const PerDaemonThrottle* throttle, std::int32_t domain) noexcept {
    throttle_ = throttle;
    throttle_domain_ = domain;
  }

  /// Give this process a private sample-id namespace (ids become base+1,
  /// base+2, ...).  The partitioned PDES build uses disjoint bases so ids
  /// stay run-unique without a shared counter; 0 (default) keeps the legacy
  /// shared-counter numbering.  Call before start().
  void set_sample_id_base(std::uint64_t base) noexcept { sample_id_base_ = base; }

  [[nodiscard]] std::int32_t node() const noexcept { return node_; }
  [[nodiscard]] std::int32_t index() const noexcept { return index_; }
  [[nodiscard]] bool blocked_on_pipe() const noexcept { return blocked_on_pipe_; }
  /// Cumulative simulated time spent blocked on a full pipe, including the
  /// in-progress block (the throttle's perturbation input).
  [[nodiscard]] SimTime pipe_blocked_time_us(SimTime now) const noexcept {
    return blocked_total_us_ + (blocked_on_pipe_ ? now - blocked_since_ : 0.0);
  }
  /// Completed computation+communication cycles.
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

  /// Observability: sample-lifecycle begins, pipe enqueue/full instants on
  /// `track`.
  void set_tracer(obs::Tracer* tracer, std::int32_t track) noexcept {
    tracer_ = tracer;
    track_ = track;
  }

 private:
  void begin_cycle();
  void on_cpu_done();
  void on_cpu_done_resume();
  void on_net_done();
  void end_of_cycle();
  void after_io_block();

  void on_sample_timer();
  /// Read the counters and deposit one sample (blocking on a full pipe).
  void emit_sample();
  void on_pipe_space();
  /// Arm the next sampling timer using the (possibly adaptive) period.
  void schedule_next_sample();
  [[nodiscard]] SimTime sampling_period() const;

  /// True (and remembers how to resume) if the process is blocked on a full
  /// pipe and must not progress.  The resume callback is only built when
  /// the process is actually blocked.
  template <typename F>
  bool yield_if_blocked(F&& resume_point) {
    if (!blocked_on_pipe_) return false;
    resume_point_ = std::forward<F>(resume_point);
    return true;
  }

  des::Engine& engine_;
  const SystemConfig& config_;
  AppModel model_;
  // The workload distributions frozen into inline samplers (the per-cycle
  // hot path; see stats/sampler.hpp), optionally behind prefill buffers
  // (stats/variate_buffer.hpp).
  stats::BufferedSampler cpu_burst_;
  stats::BufferedSampler net_burst_;
  stats::BufferedSampler io_block_duration_;
  CpuResource& cpu_;
  NetworkResource& network_;
  Pipe* pipe_;
  BarrierManager* barrier_;
  const SamplingController* controller_;
  const PerDaemonThrottle* throttle_ = nullptr;
  std::int32_t throttle_domain_ = 0;
  FaultGate* fault_gate_ = nullptr;
  std::uint64_t sample_id_base_ = 0;
  std::uint64_t sample_seq_ = 0;
  MetricsCollector& metrics_;
  des::RngStream rng_;
  std::int32_t node_;
  std::int32_t index_;

  obs::Tracer* tracer_ = nullptr;
  std::int32_t track_ = 0;

  bool blocked_on_pipe_ = false;
  SimTime blocked_since_ = 0.0;
  SimTime blocked_total_us_ = 0.0;
  std::optional<Sample> pending_sample_;
  SmallCallback resume_point_;
  SimTime last_barrier_ = 0.0;
  std::uint64_t cycles_ = 0;

  // Metric accounting for the samples' cpu/comm fractions (the counters
  // Paradyn's instrumentation reads at each sampling tick).
  SimTime cpu_time_used_ = 0.0;
  SimTime comm_time_used_ = 0.0;
  SimTime current_burst_ = 0.0;
  SimTime last_sample_time_ = 0.0;
  SimTime last_sample_cpu_ = 0.0;
  SimTime last_sample_comm_ = 0.0;
};

}  // namespace paradyn::rocc
