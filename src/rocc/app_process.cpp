#include "rocc/app_process.hpp"

#include <utility>

namespace paradyn::rocc {

ApplicationProcess::ApplicationProcess(des::Engine& engine, const SystemConfig& config,
                                       AppModel model, CpuResource& cpu,
                                       NetworkResource& network, Pipe* pipe,
                                       BarrierManager* barrier,
                                       const SamplingController* controller,
                                       MetricsCollector& metrics, des::RngStream rng,
                                       std::int32_t node, std::int32_t index,
                                       stats::BatchSpec batch)
    : engine_(engine),
      config_(config),
      model_(std::move(model)),
      cpu_burst_(stats::FrozenSampler::compile(model_.cpu_burst, config.sampler_backend()),
                 batch.at(0)),
      net_burst_(stats::FrozenSampler::compile(model_.net_burst, config.sampler_backend()),
                 batch.at(1)),
      io_block_duration_(model_.io_block_duration
                             ? stats::FrozenSampler::compile(model_.io_block_duration,
                                                             config.sampler_backend())
                             : stats::FrozenSampler{},
                         batch.at(2)),
      cpu_(cpu),
      network_(network),
      pipe_(pipe),
      barrier_(barrier),
      controller_(controller),
      metrics_(metrics),
      rng_(rng),
      node_(node),
      index_(index) {}

void ApplicationProcess::start() {
  last_barrier_ = engine_.now();
  last_sample_time_ = engine_.now();
  if (pipe_ != nullptr && config_.instrumentation_mode == InstrumentationMode::Sampling) {
    schedule_next_sample();
  }
  begin_cycle();
}

void ApplicationProcess::begin_cycle() {
  if (yield_if_blocked([this] { begin_cycle(); })) return;
  current_burst_ = cpu_burst_(rng_);
  cpu_.submit(CpuRequest{current_burst_, ProcessClass::Application, [this] { on_cpu_done(); }});
}

void ApplicationProcess::on_cpu_done() {
  cpu_time_used_ += current_burst_;
  if (yield_if_blocked([this] { on_cpu_done_resume(); })) return;
  on_cpu_done_resume();
}

void ApplicationProcess::on_cpu_done_resume() {
  current_burst_ = net_burst_(rng_);
  network_.submit(
      NetRequest{current_burst_, ProcessClass::Application, node_, [this] { on_net_done(); }});
}

void ApplicationProcess::on_net_done() {
  comm_time_used_ += current_burst_;
  ++cycles_;
  // Event tracing: each completed cycle is an "event of interest" that
  // produces one instrumentation record (Figure 6's data-collection arcs).
  if (pipe_ != nullptr && config_.instrumentation_mode == InstrumentationMode::Tracing) {
    emit_sample();
  }
  // The cycle count is incremented exactly once; if the process is blocked
  // it resumes at end_of_cycle without recounting.
  if (yield_if_blocked([this] { end_of_cycle(); })) return;
  end_of_cycle();
}

void ApplicationProcess::end_of_cycle() {
  // Figure 6's Blocked state: some cycles wait for I/O (e.g. NFS) without
  // occupying the CPU or network.
  if (model_.io_block_probability > 0.0 &&
      rng_.next_double() < model_.io_block_probability) {
    engine_.schedule_after(io_block_duration_(rng_), [this] { after_io_block(); });
    return;
  }
  after_io_block();
}

void ApplicationProcess::after_io_block() {
  const bool time_due = config_.barrier_period_us > 0.0 &&
                        engine_.now() - last_barrier_ >= config_.barrier_period_us;
  const bool work_due =
      config_.barrier_every_cycles > 0 &&
      cycles_ % static_cast<std::uint64_t>(config_.barrier_every_cycles) == 0;
  if (barrier_ != nullptr && (time_due || work_due)) {
    barrier_->arrive([this] {
      last_barrier_ = engine_.now();
      begin_cycle();
    });
    return;
  }
  begin_cycle();
}

SimTime ApplicationProcess::sampling_period() const {
  SimTime period = controller_ != nullptr ? controller_->current_period_us()
                                          : config_.sampling_period_us;
  if (throttle_ != nullptr) period *= throttle_->factor(throttle_domain_);
  return period;
}

void ApplicationProcess::schedule_next_sample() {
  engine_.schedule_after(sampling_period(), [this] { on_sample_timer(); });
}

void ApplicationProcess::on_sample_timer() {
  emit_sample();
  if (!blocked_on_pipe_) {
    schedule_next_sample();
  }
}

void ApplicationProcess::emit_sample() {
  // Read the instrumentation counters: fractions of the elapsed interval
  // spent computing / communicating since the previous sample.
  Sample sample;
  sample.generated_at = engine_.now();
  sample.node = node_;
  sample.app_index = index_;
  const SimTime interval = engine_.now() - last_sample_time_;
  if (interval > 0.0) {
    sample.cpu_fraction = (cpu_time_used_ - last_sample_cpu_) / interval;
    sample.comm_fraction = (comm_time_used_ - last_sample_comm_) / interval;
  }
  last_sample_time_ = engine_.now();
  last_sample_cpu_ = cpu_time_used_;
  last_sample_comm_ = comm_time_used_;
  ++metrics_.samples_generated;
  // Run-unique id.  The legacy path numbers samples off the shared
  // generated-counter; the partitioned path gives every process its own id
  // namespace, since shards each own a metrics collector and a shared
  // counter would order ids by shard layout.
  sample.id = sample_id_base_ != 0 ? sample_id_base_ + ++sample_seq_ : metrics_.samples_generated;
  // Fault injection: the counters were read, but the write to the pipe is
  // lost (a lossy /proc read or dropped trace record).
  if (fault_gate_ != nullptr && fault_gate_->active() && fault_gate_->should_drop(node_)) {
    ++metrics_.samples_dropped;
    return;
  }
  if (tracer_ != nullptr) {
    tracer_->async_begin("sample", "lifecycle", sample.id, track_, engine_.now());
  }
  if (pipe_->try_put(sample)) {
    if (tracer_ != nullptr) {
      tracer_->instant("pipe", "enqueue", track_, engine_.now(), "depth",
                       static_cast<double>(pipe_->size()));
      // Hop boundary for the profiler: the sample entered the pipe.
      tracer_->async_instant("sample", "lifecycle", sample.id, track_, engine_.now(), "enq",
                             static_cast<double>(pipe_->size()));
    }
    return;
  }
  // Pipe full: block.  The in-flight resource request (if any) completes,
  // then the process parks at its next step until the daemon drains the
  // pipe.  No further samples are generated while blocked (Section 4.3.3).
  if (tracer_ != nullptr) {
    tracer_->instant("pipe", "full", track_, engine_.now(), "capacity",
                     static_cast<double>(pipe_->capacity()));
  }
  blocked_on_pipe_ = true;
  blocked_since_ = engine_.now();
  pending_sample_ = sample;
  pipe_->notify_on_space([this] { on_pipe_space(); });
}

void ApplicationProcess::on_pipe_space() {
  if (!blocked_on_pipe_) return;
  if (pending_sample_) {
    // Space freed: deposit the sample that caused the block.
    if (!pipe_->try_put(*pending_sample_)) {
      // Still full (should not happen with a one-shot space callback, but
      // stay robust): keep waiting.
      pipe_->notify_on_space([this] { on_pipe_space(); });
      return;
    }
    if (tracer_ != nullptr) {
      tracer_->instant("pipe", "enqueue", track_, engine_.now(), "depth",
                       static_cast<double>(pipe_->size()));
      // Hop boundary after a pipe-full block: enq is the deposit time, so
      // the app hop absorbs the whole blocked wait.
      tracer_->async_instant("sample", "lifecycle", pending_sample_->id, track_, engine_.now(),
                             "enq", static_cast<double>(pipe_->size()));
    }
    pending_sample_.reset();
  }
  blocked_on_pipe_ = false;
  blocked_total_us_ += engine_.now() - blocked_since_;
  if (config_.instrumentation_mode == InstrumentationMode::Sampling) {
    schedule_next_sample();
  }
  if (resume_point_) {
    auto resume = std::exchange(resume_point_, nullptr);
    resume();
  }
}

}  // namespace paradyn::rocc
