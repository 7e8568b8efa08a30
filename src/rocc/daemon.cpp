#include "rocc/daemon.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rocc/main_paradyn.hpp"

namespace paradyn::rocc {

ParadynDaemon::ParadynDaemon(des::Engine& engine, const SystemConfig& config, CpuResource& cpu,
                             NetworkResource& network, MetricsCollector& metrics,
                             des::RngStream rng, std::int32_t node, stats::BatchSpec batch)
    : engine_(engine),
      config_(config),
      cpu_(cpu),
      network_(network),
      metrics_(metrics),
      collect_cpu_(stats::FrozenSampler::compile(config.pd.collect_cpu,
                                                 config.sampler_backend()),
                   batch.at(0)),
      forward_cpu_(stats::FrozenSampler::compile(config.pd.forward_cpu,
                                                 config.sampler_backend()),
                   batch.at(1)),
      net_occupancy_(stats::FrozenSampler::compile(config.pd.net_occupancy,
                                                   config.sampler_backend()),
                     batch.at(2)),
      merge_cpu_(stats::FrozenSampler::compile(config.pd.merge_cpu, config.sampler_backend()),
                 batch.at(3)),
      rng_(rng),
      node_(node) {}

void ParadynDaemon::attach_pipe(Pipe& pipe) { pipes_.push_back(&pipe); }

void ParadynDaemon::set_destination_main(MainParadyn& main) {
  main_ = &main;
  parent_ = nullptr;
}

void ParadynDaemon::set_destination_parent(ParadynDaemon& parent) {
  parent_ = &parent;
  main_ = nullptr;
}

void ParadynDaemon::start() {
  if (main_ == nullptr && parent_ == nullptr && !forward_sink_) {
    throw std::logic_error("ParadynDaemon: no forwarding destination configured");
  }
  try_start();
}

void ParadynDaemon::receive_from_child(Batch batch) {
  merge_queue_.push_back(std::move(batch));
  try_start();
}

void ParadynDaemon::stall_until(SimTime until) {
  // Overlapping windows extend, never shrink: a second stall ending before
  // an active one must not wake the daemon early (commutative overlap).
  stalled_until_ = std::max(stalled_until_, until);
  engine_.schedule_at(until, [this] { try_start(); });
}

bool ParadynDaemon::stalled() const noexcept { return engine_.now() < stalled_until_; }

std::uint64_t ParadynDaemon::kill_buffers() {
  std::uint64_t lost = pending_batch_.size() + merged_pending_.size();
  for (std::size_t i = 0; i < merge_queue_.size(); ++i) lost += merge_queue_[i].sample_count();
  metrics_.samples_dropped += lost;
  pending_batch_.clear();
  merged_pending_.clear();
  merge_queue_.clear();
  flush_due_ = false;
  engine_.cancel(flush_timer_);
  return lost;
}

void ParadynDaemon::crash_until(SimTime until) {
  kill_buffers();
  stall_until(until);
}

std::uint64_t ParadynDaemon::restart_now() {
  const std::uint64_t lost = kill_buffers();
  stalled_until_ = engine_.now();
  try_start();  // no-op if an in-flight operation still holds busy_
  return lost;
}

void ParadynDaemon::try_start() {
  if (busy_ || stalled()) return;

  // A due flush outranks new work: en-route samples must not age more than
  // one sampling period per hop waiting for the local batch to fill.
  if (flush_due_ && !(merged_pending_.empty() && pending_batch_.empty())) {
    begin_forward_local();
    return;
  }

  // Merged traffic first: en-route samples have already paid latency.
  if (!merge_queue_.empty()) {
    Batch batch = std::move(merge_queue_.front());
    merge_queue_.pop_front();
    start_merge(std::move(batch));
    return;
  }

  // Round-robin over the pipes of the local application processes.
  for (std::size_t scanned = 0; scanned < pipes_.size(); ++scanned) {
    Pipe& pipe = *pipes_[next_pipe_];
    next_pipe_ = (next_pipe_ + 1) % pipes_.size();
    if (auto sample = pipe.try_get()) {
      if (tracer_ != nullptr) {
        tracer_->instant("pipe", "dequeue", track_, engine_.now(), "depth",
                         static_cast<double>(pipe.size()));
        // Hop boundary for the profiler: the sample left the pipe.
        tracer_->async_instant("sample", "lifecycle", sample->id, track_, engine_.now(), "deq",
                               static_cast<double>(pipe.size()));
      }
      start_collect(*sample);
      return;
    }
  }

  // Nothing to do: sleep until any pipe signals data.
  for (Pipe* pipe : pipes_) {
    pipe->notify_on_data([this] { try_start(); });
  }
}

void ParadynDaemon::start_collect(const Sample& sample) {
  busy_ = true;
  const SimTime t0 = engine_.now();
  // Stash the drawn service time for the profiler marker: busy_ serializes
  // collects, so the member survives until the completion callback without
  // growing the 64-byte inline capture.  Draw order is unchanged.
  last_collect_cpu_us_ = collect_cpu_(rng_);
  cpu_.submit(CpuRequest{last_collect_cpu_us_, ProcessClass::ParadynDaemon,
                         [this, sample, t0] {
                           ++samples_collected_;
                           if (tracer_ != nullptr) {
                             tracer_->complete("daemon", "collect", track_, t0,
                                               engine_.now() - t0);
                             tracer_->async_instant("sample", "lifecycle", sample.id, track_,
                                                    engine_.now(), "collect",
                                                    last_collect_cpu_us_);
                           }
                           pending_batch_.push_back(sample);
                           if (static_cast<std::int32_t>(pending_batch_.size()) >=
                               config_.batch_size) {
                             begin_forward_local();
                           } else {
                             busy_ = false;
                             try_start();
                           }
                         }});
}

void ParadynDaemon::begin_forward_local() {
  // The outgoing unit carries the local batch plus everything merged from
  // the children since the last forward: tree aggregation keeps every
  // daemon's outgoing unit rate at its own lambda (equation (14)) instead
  // of multiplying units along the path to the root.
  Batch batch;
  batch.forward_started_at = engine_.now();
  batch.origin_node = node_;
  batch.samples = std::move(pending_batch_);
  pending_batch_.clear();
  if (!merged_pending_.empty()) {
    batch.forward_started_at = std::min(batch.forward_started_at, merged_pending_earliest_);
    batch.samples.insert(batch.samples.end(), merged_pending_.begin(), merged_pending_.end());
    merged_pending_.clear();
  }
  flush_due_ = false;
  engine_.cancel(flush_timer_);
  forward_batch(std::move(batch));
}

void ParadynDaemon::start_merge(Batch batch) {
  busy_ = true;
  const SimTime t0 = engine_.now();
  cpu_.submit(CpuRequest{merge_cpu_(rng_), ProcessClass::ParadynDaemon,
                         [this, batch = std::move(batch), t0] {
                           ++batches_merged_;
                           if (tracer_ != nullptr) {
                             tracer_->complete("daemon", "merge", track_, t0, engine_.now() - t0,
                                               "samples",
                                               static_cast<double>(batch.sample_count()));
                           }
                           // Fold the child's samples into the next local
                           // forwarding unit; keep the earliest forwarding
                           // start so monitoring latency accumulates across
                           // tree hops (equation (16)).
                           const bool was_empty = merged_pending_.empty();
                           if (was_empty ||
                               batch.forward_started_at < merged_pending_earliest_) {
                             merged_pending_earliest_ = batch.forward_started_at;
                           }
                           merged_pending_.insert(merged_pending_.end(), batch.samples.begin(),
                                                  batch.samples.end());
                           if (was_empty && !flush_timer_.pending() && !flush_due_) {
                             flush_timer_ = engine_.schedule_after(
                                 config_.sampling_period_us, [this] { on_flush_due(); });
                           }
                           busy_ = false;
                           try_start();
                         }});
}

void ParadynDaemon::forward_batch(Batch batch) {
  busy_ = true;
  const SimTime t0 = engine_.now();
  if (tracer_ != nullptr) {
    // Hop boundary for the profiler: each rider leaves the daemon stage.
    for (const Sample& s : batch.samples) {
      tracer_->async_instant("sample", "lifecycle", s.id, track_, t0, "fwd",
                             static_cast<double>(batch.sample_count()));
    }
  }
  cpu_.submit(CpuRequest{
      forward_cpu_(rng_), ProcessClass::ParadynDaemon,
      [this, batch = std::move(batch), t0]() mutable {
        // The paper assumes a merged/batched unit occupies the network like
        // a single sample; net_per_extra_sample_us generalizes that.
        // net_penalty_ is exactly 1.0 outside cascade windows, so the
        // multiply is bit-neutral for cascade-free runs.
        const double occupancy =
            (net_occupancy_(rng_) +
             config_.pd.net_per_extra_sample_us * static_cast<double>(batch.sample_count() - 1)) *
            net_penalty_;
        // One forward is in flight at a time (busy_), so the member carries
        // the occupancy to the completion callback for the profiler marker.
        last_net_occupancy_us_ = occupancy;
        network_.submit(NetRequest{occupancy, ProcessClass::ParadynDaemon, node_,
                                   [this, batch = std::move(batch), t0] {
                                     ++batches_forwarded_;
                                     if (tracer_ != nullptr) {
                                       // Spans CPU(forward) + blocking send.
                                       tracer_->complete(
                                           "daemon", "forward", track_, t0, engine_.now() - t0,
                                           "samples", static_cast<double>(batch.sample_count()));
                                       // Hop boundary: the batch cleared the
                                       // network; arg is the batch occupancy
                                       // the sample rode on.
                                       for (const Sample& s : batch.samples) {
                                         tracer_->async_instant("sample", "lifecycle", s.id,
                                                                track_, engine_.now(), "net",
                                                                last_net_occupancy_us_);
                                       }
                                     }
                                     deliver(batch);
                                     busy_ = false;
                                     try_start();
                                   }});
      }});
}

void ParadynDaemon::on_flush_due() {
  flush_due_ = true;
  try_start();
}

void ParadynDaemon::deliver(const Batch& batch) {
  if (forward_sink_) {
    // PDES: the router stamps the delivery time (now + uplink latency) and
    // injects the batch into the destination shard at a window boundary.
    forward_sink_(batch);
    return;
  }
  if (config_.uplink_latency_us > 0.0) {
    // Modeled uplink delivery latency: the batch cleared this daemon's
    // network occupancy at `now` and reaches the destination L later.  The
    // default of 0 keeps the historical synchronous hand-off bit-for-bit.
    // Init-capture: copy-capturing the const& parameter directly would give
    // the closure a const member, whose "move" is a throwing copy — and the
    // event slab requires nothrow moves.
    engine_.schedule_after(config_.uplink_latency_us,
                           [this, b = batch] { deliver_direct(b); });
    return;
  }
  deliver_direct(batch);
}

void ParadynDaemon::deliver_direct(const Batch& batch) {
  if (parent_ != nullptr) {
    parent_->receive_from_child(batch);
  } else {
    main_->receive(batch);
  }
}

}  // namespace paradyn::rocc
