// Finite-capacity sample buffer between an application process and its
// Paradyn daemon — the "instrumentation data buffers provided by the kernel
// (Unix pipes)" of Figure 2.
//
// A full pipe rejects try_put; the producer registers a space callback and
// blocks, reproducing the behavior the paper observes at small sampling
// periods: "When the pipe is full, the application process that generates a
// sample is blocked until the daemon is able to forward outstanding data
// samples" (Section 4.3.3).
#pragma once

#include <cstdint>
#include <optional>

#include "des/ring_fifo.hpp"
#include "rocc/types.hpp"

namespace paradyn::rocc {

class Pipe {
 public:
  explicit Pipe(std::int32_t capacity);

  /// Append a sample.  Returns false (and does not store) when full.
  [[nodiscard]] bool try_put(const Sample& sample);

  /// Remove the oldest sample, or nullopt when empty.  Frees space: a
  /// registered producer callback fires (once) after a successful get.
  [[nodiscard]] std::optional<Sample> try_get();

  /// Register a one-shot callback invoked the next time a sample arrives.
  /// Used by an idle daemon to sleep until data is available.
  void notify_on_data(SmallCallback cb);

  /// Register a one-shot callback invoked the next time space frees up.
  /// Used by a blocked producer.
  void notify_on_space(SmallCallback cb);

  /// Fault injection: clamp the effective capacity to `limit` samples
  /// (already-buffered samples stay; new puts see the clamp).  Raising the
  /// limit back fires a pending space callback if room appeared.
  void set_capacity_limit(std::int32_t limit);
  void clear_capacity_limit();

  /// Fault repair (reset_pipe): discard every buffered sample and fire a
  /// pending space callback — flushing a wedged kernel buffer loses its
  /// contents.  Returns the number of samples discarded so the caller can
  /// account them as dropped.
  std::size_t drain();

  [[nodiscard]] std::int32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::int32_t effective_capacity() const noexcept {
    return limit_ < capacity_ ? limit_ : capacity_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] bool empty() const noexcept { return buffer_.empty(); }
  [[nodiscard]] bool full() const noexcept {
    return buffer_.size() >= static_cast<std::size_t>(effective_capacity());
  }

  /// Total samples ever accepted (for accounting/tests).
  [[nodiscard]] std::uint64_t total_accepted() const noexcept { return accepted_; }
  /// Total put attempts rejected because the pipe was full.
  [[nodiscard]] std::uint64_t total_rejected() const noexcept { return rejected_; }

 private:
  std::int32_t capacity_;
  /// Fault clamp; effective capacity is min(capacity_, limit_).
  std::int32_t limit_ = INT32_MAX;
  des::RingFifo<Sample> buffer_;
  SmallCallback on_data_;
  SmallCallback on_space_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace paradyn::rocc
