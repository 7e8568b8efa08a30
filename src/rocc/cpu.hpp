// CPU resource with round-robin time slicing.
//
// Models the node CPU(s) of the ROCC model: occupancy requests from all
// process classes share one ready queue; a request runs for at most one
// scheduling quantum (Table 2: 10 ms) before being requeued at the tail,
// which is how the OS "ensures fair scheduling of multiple processes
// sharing the CPU" (Section 2.3.1).  An SMP node passes num_cpus > 1 and
// the single ready queue feeds all of them.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "des/engine.hpp"
#include "des/ring_fifo.hpp"
#include "obs/trace.hpp"
#include "rocc/types.hpp"

namespace paradyn::rocc {

/// One CPU occupancy request.
struct CpuRequest {
  SimTime duration = 0.0;
  ProcessClass pclass = ProcessClass::Application;
  /// Invoked when the request has received `duration` of CPU service.
  /// May be empty for fire-and-forget background load.
  SmallCallback on_complete;
};

class CpuResource {
 public:
  CpuResource(des::Engine& engine, std::int32_t num_cpus, SimTime quantum);

  CpuResource(const CpuResource&) = delete;
  CpuResource& operator=(const CpuResource&) = delete;

  /// Enqueue an occupancy request (FIFO behind current ready jobs).
  void submit(CpuRequest request);

  /// Total CPU busy time accumulated by a process class (microseconds,
  /// summed over all CPUs of this resource).
  [[nodiscard]] SimTime busy_time(ProcessClass c) const noexcept {
    return busy_[static_cast<std::size_t>(c)];
  }
  /// Total busy time across all classes.
  [[nodiscard]] SimTime busy_time_total() const noexcept;

  /// Zero the per-class busy-time accounting (warm-up deletion).  Jobs in
  /// flight keep running; only the counters reset.
  void reset_accounting() noexcept { busy_.fill(0.0); }

  [[nodiscard]] std::int32_t num_cpus() const noexcept { return num_cpus_; }
  /// Requests waiting or in service.
  [[nodiscard]] std::size_t backlog() const noexcept {
    return ready_.size() + static_cast<std::size_t>(num_cpus_ - idle_cpus_);
  }

  /// Observability: record every scheduled slice as a span (named by
  /// process class) on `track`.  nullptr disables (the default).
  void set_tracer(obs::Tracer* tracer, std::int32_t track) noexcept {
    tracer_ = tracer;
    track_ = track;
  }

 private:
  struct Job {
    SimTime remaining = 0.0;
    CpuRequest request;
  };

  /// Start jobs from the ready queue on idle CPUs.
  void dispatch();
  /// Take an idle CPU for a job: park it in a free running slot and return
  /// the slot.
  std::uint32_t park(SimTime remaining, CpuRequest&& request);
  /// Run the next slice of the job parked in `slot` (its CPU is held).
  void run_slice(std::uint32_t slot);
  void on_slice_done(std::uint32_t slot);

  des::Engine& engine_;
  std::int32_t num_cpus_;
  SimTime quantum_;
  std::int32_t idle_cpus_;
  des::RingFifo<Job> ready_;
  /// Jobs currently holding a CPU, in reusable slots: the slice-completion
  /// event captures only {this, slot}, so scheduling a slice never copies
  /// the job through the event queue.  Sized once at num_cpus_ + 1 and
  /// never reallocated: a finished job's completion callback runs in place
  /// in its slot, whose CPU is already idle and may start one more job.
  std::vector<Job> running_;
  std::vector<std::uint32_t> running_free_;
  std::array<SimTime, trace::kNumProcessClasses> busy_{};
  obs::Tracer* tracer_ = nullptr;
  std::int32_t track_ = 0;
};

}  // namespace paradyn::rocc
