// RingFifo: FIFO order across wrap-around and growth, move-only elements,
// and element lifetimes (destroyed on pop, clear, and destruction).
#include "des/ring_fifo.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "des/random.hpp"

namespace paradyn::des {
namespace {

TEST(RingFifo, StartsEmptyWithoutStorage) {
  RingFifo<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(RingFifo, WrapsAroundWithoutGrowing) {
  RingFifo<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i);
  const std::size_t capacity = q.capacity();
  int next_out = 0;
  int next_in = 4;
  // Slide the window many times around the buffer at constant depth.
  for (int step = 0; step < 1'000; ++step) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
    q.push_back(next_in++);
  }
  EXPECT_EQ(q.capacity(), capacity);
  EXPECT_EQ(q.size(), 4u);
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i], next_out + static_cast<int>(i));
}

TEST(RingFifo, GrowsWhileWrappedKeepingOrder) {
  RingFifo<int> q;
  const std::size_t initial = [] {
    RingFifo<int> probe;
    probe.push_back(0);
    return probe.capacity();
  }();
  // Fill, pop half so the live range wraps, then push past capacity.
  for (std::size_t i = 0; i < initial; ++i) q.push_back(static_cast<int>(i));
  for (std::size_t i = 0; i < initial / 2; ++i) q.pop_front();
  for (std::size_t i = initial; i < 3 * initial; ++i) q.push_back(static_cast<int>(i));
  EXPECT_GT(q.capacity(), initial);
  int expect = static_cast<int>(initial / 2);
  while (!q.empty()) {
    EXPECT_EQ(q.front(), expect++);
    q.pop_front();
  }
  EXPECT_EQ(expect, static_cast<int>(3 * initial));
}

TEST(RingFifo, MatchesDequeOnRandomScript) {
  RingFifo<std::string> q;
  std::deque<std::string> ref;
  RngStream rng(3, 9);
  for (int op = 0; op < 20'000; ++op) {
    if (rng.next_double() < 0.55) {
      const std::string v = std::to_string(op);
      q.push_back(v);
      ref.push_back(v);
    } else if (!ref.empty()) {
      ASSERT_EQ(q.front(), ref.front());
      q.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(q[i], ref[i]);
}

TEST(RingFifo, HoldsMoveOnlyElements) {
  RingFifo<std::unique_ptr<int>> q;
  for (int i = 0; i < 40; ++i) q.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 40; ++i) {
    std::unique_ptr<int> p = std::move(q.front());
    q.pop_front();
    ASSERT_TRUE(p);
    EXPECT_EQ(*p, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingFifo, DestroysElementsOnPopClearAndDestruction) {
  auto token = std::make_shared<int>(0);
  {
    RingFifo<std::shared_ptr<int>> q;
    for (int i = 0; i < 20; ++i) q.push_back(token);  // grows while full
    EXPECT_EQ(token.use_count(), 21);
    q.pop_front();
    EXPECT_EQ(token.use_count(), 20);
    q.clear();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 5; ++i) q.push_back(token);  // reuses the buffer
    q.pop_front();
    q.push_back(token);
    EXPECT_EQ(token.use_count(), 6);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace paradyn::des
