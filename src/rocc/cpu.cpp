#include "rocc/cpu.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace paradyn::rocc {

CpuResource::CpuResource(des::Engine& engine, std::int32_t num_cpus, SimTime quantum)
    : engine_(engine), num_cpus_(num_cpus), quantum_(quantum), idle_cpus_(num_cpus) {
  if (num_cpus <= 0) throw std::invalid_argument("CpuResource: num_cpus must be > 0");
  if (!(quantum > 0.0)) throw std::invalid_argument("CpuResource: quantum must be > 0");
  running_.resize(static_cast<std::size_t>(num_cpus) + 1);
  for (auto slot = static_cast<std::uint32_t>(num_cpus) + 1; slot-- > 0;) {
    running_free_.push_back(slot);
  }
}

void CpuResource::submit(CpuRequest request) {
  if (request.duration < 0.0) throw std::invalid_argument("CpuResource: negative duration");
  if (request.duration == 0.0) {
    // Zero-length requests complete immediately without occupying a CPU.
    if (request.on_complete) {
      engine_.schedule_after(0.0, std::move(request.on_complete));
    }
    return;
  }
  // An idle CPU with nobody waiting takes the request directly — exactly
  // the job dispatch() would pop after the push.
  if (idle_cpus_ > 0 && ready_.empty()) {
    run_slice(park(request.duration, std::move(request)));
    return;
  }
  ready_.push_back(Job{request.duration, std::move(request)});
  dispatch();
}

SimTime CpuResource::busy_time_total() const noexcept {
  SimTime total = 0.0;
  for (const SimTime t : busy_) total += t;
  return total;
}

void CpuResource::dispatch() {
  while (idle_cpus_ > 0 && !ready_.empty()) {
    Job& next = ready_.front();
    const std::uint32_t slot = park(next.remaining, std::move(next.request));
    ready_.pop_front();
    run_slice(slot);
  }
}

std::uint32_t CpuResource::park(SimTime remaining, CpuRequest&& request) {
  --idle_cpus_;
  const std::uint32_t slot = running_free_.back();
  running_free_.pop_back();
  Job& job = running_[slot];
  job.remaining = remaining;
  job.request = std::move(request);
  return slot;
}

void CpuResource::run_slice(std::uint32_t slot) {
  Job& job = running_[slot];
  const SimTime slice = std::min(quantum_, job.remaining);
  job.remaining -= slice;
  busy_[static_cast<std::size_t>(job.request.pclass)] += slice;
  if (tracer_ != nullptr) {
    tracer_->complete("cpu", to_cstr(job.request.pclass), track_, engine_.now(), slice,
                      "remaining_us", job.remaining, "ready", static_cast<double>(ready_.size()));
  }
  engine_.schedule_after(slice, [this, slot] { on_slice_done(slot); });
}

void CpuResource::on_slice_done(std::uint32_t slot) {
  Job& job = running_[slot];
  if (job.remaining > 0.0) {
    ready_.push_back(std::move(job));  // preempted: back of the queue
    running_free_.push_back(slot);
    ++idle_cpus_;
  } else {
    // The CPU is idle before the callback runs, so the callback may start
    // another job on it — in another slot: this one holds the running
    // callback until it returns.
    ++idle_cpus_;
    if (job.request.on_complete) {
      job.request.on_complete();
      job.request.on_complete = nullptr;
    }
    running_free_.push_back(slot);
  }
  dispatch();
}

}  // namespace paradyn::rocc
