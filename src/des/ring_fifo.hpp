// Growable ring-buffer FIFO for the model's resource queues.
//
// CPU ready queues, pipe buffers, the shared network server's queue, and
// daemon merge queues are short FIFOs pushed and popped millions of times
// per run.  std::deque allocates and frees a node block every few pushes as
// the queue slides through memory (a ~112-byte CPU job fills a 512-byte
// node in four), so each of those queues churned the allocator in steady
// state.  RingFifo keeps one power-of-two buffer that only ever grows:
// once it has reached the queue's high-water mark, push and pop never
// allocate.
//
// Elements are constructed in place and destroyed on pop_front(), clear(),
// and destruction; growth move-constructs the live elements into the new
// buffer in FIFO order.  Move-only element types are fine.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace paradyn::des {

template <typename T>
class RingFifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "RingFifo relocates elements on growth and needs nothrow moves");

 public:
  RingFifo() noexcept = default;
  RingFifo(const RingFifo&) = delete;
  RingFifo& operator=(const RingFifo&) = delete;
  ~RingFifo() {
    clear();
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, capacity_);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Elements the buffer holds before the next growth.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The oldest element (undefined on an empty FIFO).
  [[nodiscard]] T& front() noexcept { return data_[head_]; }

  /// The i-th oldest element, 0 = front (undefined for i >= size()).
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[(head_ + i) & (capacity_ - 1)];
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (size_ == capacity_) grow();
    ::new (static_cast<void*>(data_ + ((head_ + size_) & (capacity_ - 1))))
        T(std::forward<Args>(args)...);
    ++size_;
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  /// Destroy the oldest element (undefined on an empty FIFO).
  void pop_front() noexcept {
    data_[head_].~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Destroy every element; the buffer is kept for reuse.
  void clear() noexcept {
    while (size_ != 0) pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    T* data = std::allocator<T>{}.allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = data_[(head_ + i) & (capacity_ - 1)];
      ::new (static_cast<void*>(data + i)) T(std::move(old));
      old.~T();
    }
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, capacity_);
    data_ = data;
    capacity_ = capacity;
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  T* data_ = nullptr;
  std::size_t capacity_ = 0;  ///< 0 or a power of two.
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace paradyn::des
