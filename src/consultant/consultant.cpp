#include "consultant/consultant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace paradyn::consultant {

namespace {
constexpr Hypothesis kHypotheses[] = {Hypothesis::CpuBound, Hypothesis::CommunicationBound,
                                      Hypothesis::SyncWaiting};

// Fixed-point scale of the running sums.  Entries lie in [0, 1], so each
// contributes at most 2^40 and 2^23 entries sum below 2^63: exact, even
// though the unsigned arithmetic is only taken modulo 2^64.
constexpr double kFixedScale = 0x1p40;
constexpr std::size_t kMaxFixedEntries = std::size_t{1} << 23;
constexpr double kUnitRoundoff = 0x1p-53;

std::uint64_t to_fixed(double fraction) {
  return static_cast<std::uint64_t>(fraction * kFixedScale);
}
}  // namespace

const char* to_string(Hypothesis h) noexcept {
  switch (h) {
    case Hypothesis::CpuBound:
      return "CPUBound";
    case Hypothesis::CommunicationBound:
      return "CommunicationBound";
    case Hypothesis::SyncWaiting:
      return "SyncWaiting";
  }
  return "?";
}

std::string Focus::describe() const {
  if (whole_program) return "whole program";
  if (process < 0) return "node " + std::to_string(node);
  return "node " + std::to_string(node) + " / process " + std::to_string(process);
}

PerformanceConsultant::PerformanceConsultant(ConsultantConfig config)
    : config_(std::move(config)) {}

void PerformanceConsultant::Window::push(double cpu_frac, double comm_frac,
                                         std::size_t capacity) {
  // A slot holding a non-finite value (NaN passes the clamp) stays out of
  // the fixed sums, which then certify nothing until it is overwritten.
  if (cpu.size() < capacity) {
    cpu.push_back(cpu_frac);
    comm.push_back(comm_frac);
  } else {
    if (std::isfinite(cpu[next]) && std::isfinite(comm[next])) {
      fixed_cpu -= to_fixed(cpu[next]);
      fixed_comm -= to_fixed(comm[next]);
    } else {
      --non_finite;
    }
    cpu[next] = cpu_frac;
    comm[next] = comm_frac;
    next = (next + 1) % capacity;
  }
  if (std::isfinite(cpu_frac) && std::isfinite(comm_frac)) {
    fixed_cpu += to_fixed(cpu_frac);
    fixed_comm += to_fixed(comm_frac);
  } else {
    ++non_finite;
  }
  filled = cpu.size();
  stale_ = true;
}

void PerformanceConsultant::Window::refresh() const {
  // A plain left-to-right sum per metric: a running or compensated sum
  // would round differently and move threshold crossings.
  double acc_cpu = 0.0;
  double acc_comm = 0.0;
  for (std::size_t i = 0; i < cpu.size(); ++i) {
    acc_cpu += cpu[i];
    acc_comm += comm[i];
  }
  const auto n = static_cast<double>(cpu.size());
  mean_cpu_ = cpu.empty() ? 0.0 : acc_cpu / n;
  mean_comm_ = cpu.empty() ? 0.0 : acc_comm / n;
  stale_ = false;
}

double PerformanceConsultant::Window::mean_cpu() const {
  if (stale_) refresh();
  return mean_cpu_;
}

double PerformanceConsultant::Window::mean_comm() const {
  if (stale_) refresh();
  return mean_comm_;
}

std::vector<Finding> PerformanceConsultant::search_and_record() {
  auto findings = search();
  for (const auto& f : findings) {
    Episode* existing = nullptr;
    for (auto& e : history_) {
      if (e.hypothesis == f.hypothesis && e.focus.whole_program == f.focus.whole_program &&
          e.focus.node == f.focus.node && e.focus.process == f.focus.process) {
        existing = &e;
        break;
      }
    }
    if (existing == nullptr) {
      Episode e;
      e.hypothesis = f.hypothesis;
      e.focus = f.focus;
      e.first_confirmed_us = now_us_;
      e.last_confirmed_us = now_us_;
      e.confirmations = 1;
      history_.push_back(e);
    } else {
      existing->last_confirmed_us = now_us_;
      ++existing->confirmations;
    }
  }
  return findings;
}

PerformanceConsultant::Row PerformanceConsultant::observe(const rocc::Sample& sample) {
  now_us_ = std::max(now_us_, sample.generated_at);
  // Clamp against scheduling jitter: a burst completing right after a tick
  // can report a fraction slightly above 1.
  const double cpu = std::clamp(sample.cpu_fraction, 0.0, 1.0);
  const double comm = std::clamp(sample.comm_fraction, 0.0, 1.0);
  // Samples arrive in per-daemon runs, so the previous row usually hits.
  std::size_t slot = last_row_;
  bool joined = false;
  if (slot >= node_ids_.size() || node_ids_[slot] != sample.node) {
    const auto at = std::lower_bound(node_ids_.begin(), node_ids_.end(), sample.node);
    slot = static_cast<std::size_t>(at - node_ids_.begin());
    if (at == node_ids_.end() || *at != sample.node) {
      joined = true;
      node_ids_.insert(at, sample.node);
      windows_.insert(windows_.begin() + static_cast<std::ptrdiff_t>(slot), NodeWindows{});
      for (auto& column : metric_) {
        column.insert(column.begin() + static_cast<std::ptrdiff_t>(slot), 0.0);
      }
    }
    last_row_ = slot;
  }
  NodeWindows& windows = windows_[slot];
  windows.node.push(cpu, comm, config_.window);
  for (const Hypothesis h : kHypotheses) {
    metric_[static_cast<std::size_t>(h)][slot] = metric_of(windows.node, h);
  }
  auto& processes = windows.processes;
  auto process = std::lower_bound(
      processes.begin(), processes.end(), sample.app_index,
      [](const ProcessWindow& p, std::int32_t id) { return p.id < id; });
  if (process == processes.end() || process->id != sample.app_index) {
    process = processes.insert(process, ProcessWindow{sample.app_index, {}});
  }
  process->window.push(cpu, comm, config_.window);
  global_.push(cpu, comm, config_.window * std::max<std::size_t>(node_ids_.size(), 1));
  ++observed_;
  return {slot, joined};
}

double PerformanceConsultant::metric_of(const Window& w, Hypothesis h) const {
  switch (h) {
    case Hypothesis::CpuBound:
      return w.mean_cpu();
    case Hypothesis::CommunicationBound:
      return w.mean_comm();
    case Hypothesis::SyncWaiting:
      return std::max(0.0, 1.0 - w.mean_cpu() - w.mean_comm());
  }
  return 0.0;
}

double PerformanceConsultant::threshold_of(Hypothesis h) const {
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

std::size_t PerformanceConsultant::find_row(std::int32_t node) const {
  const auto it = std::lower_bound(node_ids_.begin(), node_ids_.end(), node);
  return it != node_ids_.end() && *it == node ? static_cast<std::size_t>(it - node_ids_.begin())
                                              : node_ids_.size();
}

double PerformanceConsultant::node_mean(Hypothesis h, std::int32_t node) const {
  const std::size_t slot = find_row(node);
  if (slot == node_ids_.size()) return 0.0;
  return metric_[static_cast<std::size_t>(h)][slot];
}

double PerformanceConsultant::process_mean(Hypothesis h, std::int32_t node,
                                           std::int32_t process) const {
  const std::size_t slot = find_row(node);
  if (slot == node_ids_.size()) return 0.0;
  const auto& processes = windows_[slot].processes;
  const auto it = std::lower_bound(
      processes.begin(), processes.end(), process,
      [](const ProcessWindow& p, std::int32_t id) { return p.id < id; });
  if (it == processes.end() || it->id != process) return 0.0;
  return metric_of(it->window, h);
}

double PerformanceConsultant::global_mean(Hypothesis h) const {
  return metric_of(global_, h);
}

PerformanceConsultant::MeanBound PerformanceConsultant::global_mean_bound(
    Hypothesis h) const {
  const std::size_t n = global_.filled;
  if (n == 0 || n > kMaxFixedEntries || global_.non_finite != 0) {
    return {0.0, std::numeric_limits<double>::infinity()};
  }
  // global_mean() is fl(s / n) for the in-order float sum s of n entries
  // in [0, 1]; the running estimate is fl(fl(S) * 2^-40 / n) for the fixed
  // sum S.  Their distance is at most gamma(n-1) (summation) + 2^-40
  // (truncation) + 4u (the divisions and the conversion of S), doubled
  // here to absorb the rounding of this bound and of approx +- eps.
  constexpr double u = kUnitRoundoff;
  const auto count = static_cast<double>(n);
  const double gamma = (count - 1.0) * u / (1.0 - (count - 1.0) * u);
  const double eps = 2.0 * (gamma + 1.0 / kFixedScale + 4.0 * u);
  const double cpu = static_cast<double>(global_.fixed_cpu) / kFixedScale / count;
  const double comm = static_cast<double>(global_.fixed_comm) / kFixedScale / count;
  switch (h) {
    case Hypothesis::CpuBound:
      return {cpu, eps};
    case Hypothesis::CommunicationBound:
      return {comm, eps};
    case Hypothesis::SyncWaiting:
      // Both means carry eps; each side rounds 1 - cpu - comm twice.
      return {std::max(0.0, 1.0 - cpu - comm), 2.0 * eps + 4.0 * u};
  }
  return {0.0, std::numeric_limits<double>::infinity()};
}

// Calls emit(focus, observed, samples) for every focus confirmed for `h`:
// the whole program first, then each refined node followed by its refined
// processes, nodes and processes in ascending id.  Node and process
// evidence is exact; the whole program's `observed` is only an estimate
// (search() reads the exact mean).
//
// The whole-program mean g enters two decisions: g >= threshold, and a
// node's value >= fl(g + margin).  Both are taken from an interval
// [lo, hi] that holds g (global_mean_bound()); fl is monotone, so
// fl(lo + margin) <= fl(g + margin) <= fl(hi + margin) and a decision the
// interval does not straddle is the exact one.  Only a straddled decision
// pays for the exact in-order re-sum, which then collapses the interval.
template <typename Emit>
void PerformanceConsultant::decide(Hypothesis h, Emit&& emit) const {
  if (global_.filled < config_.min_samples) return;
  const double threshold = threshold_of(h);
  const double margin = config_.refinement_margin;
  const MeanBound bound = global_mean_bound(h);
  double lo = bound.approx - bound.eps;
  double hi = bound.approx + bound.eps;
  bool exact = false;
  const auto pin = [&] {
    lo = hi = metric_of(global_, h);
    exact = true;
  };
  if (!(lo >= threshold) && !(hi < threshold)) pin();
  if (lo >= threshold) emit(Focus{true, -1}, lo, global_.filled);

  // "Where" refinement: per-node foci that exceed the threshold and
  // stand out from the global mean.  Run even when the global test is
  // false — a single hot node can hide in the whole-program average
  // (exactly why W3 refines along the resource hierarchy).
  double cut_lo = lo + margin;
  double cut_hi = hi + margin;
  const std::vector<double>& values = metric_[static_cast<std::size_t>(h)];
  for (std::size_t slot = 0; slot < values.size(); ++slot) {
    const double value = values[slot];
    if (!(value >= threshold) || value < cut_lo) continue;
    const NodeWindows& windows = windows_[slot];
    const std::size_t filled = windows.node.filled;
    if (filled < config_.min_samples) continue;
    if (!(value >= cut_hi)) {
      if (exact) continue;
      pin();
      cut_lo = cut_hi = lo + margin;
      if (!(value >= cut_hi)) continue;
    }
    const std::int32_t node = node_ids_[slot];
    emit(Focus{false, node, -1}, value, filled);

    // Second refinement level: processes on the flagged node that stand
    // out from their node's mean (only meaningful when the node hosts
    // more than one instrumented process).
    if (windows.processes.size() < 2) continue;
    for (const ProcessWindow& p : windows.processes) {
      if (p.window.filled < config_.min_samples) continue;
      const double pv = metric_of(p.window, h);
      if (pv >= threshold && pv >= value + margin) {
        emit(Focus{false, node, p.id}, pv, p.window.filled);
      }
    }
  }
}

std::vector<Finding> PerformanceConsultant::search() const {
  std::vector<Finding> findings;
  for (const Hypothesis h : kHypotheses) {
    const double threshold = threshold_of(h);
    const std::size_t first = findings.size();
    decide(h, [&](const Focus& focus, double observed, std::size_t samples) {
      findings.push_back(Finding{h, focus,
                                 focus.whole_program ? metric_of(global_, h) : observed,
                                 threshold, samples});
    });
    auto refined = findings.begin() + static_cast<std::ptrdiff_t>(first);
    if (refined != findings.end() && refined->focus.whole_program) ++refined;
    std::sort(refined, findings.end(), [](const Finding& a, const Finding& b) {
      if (a.observed != b.observed) return a.observed > b.observed;
      return std::pair(a.focus.node, a.focus.process) <
             std::pair(b.focus.node, b.focus.process);
    });
  }
  return findings;
}

void PerformanceConsultant::search_foci(std::vector<Confirmation>& out) const {
  out.clear();
  for (const Hypothesis h : kHypotheses) {
    decide(h, [&](const Focus& focus, double, std::size_t) { out.push_back({h, focus}); });
  }
}

}  // namespace paradyn::consultant
