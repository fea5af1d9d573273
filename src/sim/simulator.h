// Single-threaded discrete-event simulator.
//
// Everything in a replay — request arrivals, network deliveries, station
// completions, the lock-step time coordinator — is an event on one queue.
// Events at equal timestamps run in scheduling order (a monotone sequence
// number breaks ties), which together with seeded RNGs makes whole replays
// deterministic.
//
// Layout (DESIGN.md §17): each action is a sim::Task (inline storage for
// small captures, so scheduling the common event allocates nothing) that
// stays in the slab slot it was first put in until it runs. The queue is a
// 4-ary min-heap of plain 24-byte (at, seq, slot) records, so a sift moves
// records, never a Task. (at, seq) is a total order — seq is unique — so
// the pop order is exactly the one any correct priority queue gives, and
// every replay digest is independent of the heap's arity or layout. Freed
// slots are reused, so a simulator in steady state allocates nothing;
// peak_pending() reports the high-water mark.
//
// Events that all share one delay (AfterFixed) skip the heap: now() never
// decreases, so their records arrive already in (at, seq) order and wait
// in a FIFO lane beside it. Each pop takes the smaller of the two heads,
// which is the record a single heap holding both would pop, so the lane
// changes no event's order, count or the pending figures.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "util/check.h"
#include "util/time.h"

namespace webcc::sim {

class Simulator {
 public:
  using Action = Task;

  Time now() const { return now_; }

  // Schedules `action` (any callable sim::Task accepts) at absolute time
  // `t` (>= now()). The Task is built directly in its slab slot.
  template <typename F>
  void At(Time t, F&& action) {
    WEBCC_CHECK_MSG(t >= now_, "cannot schedule into the past");
    const std::uint32_t slot = Emplace(std::forward<F>(action));
    Push(Record{t, next_seq_++, slot});
  }

  // Schedules `action` `delay` microseconds from now (delay >= 0).
  template <typename F>
  void After(Time delay, F&& action) {
    WEBCC_CHECK_MSG(delay >= 0, "negative delay");
    At(now_ + delay, std::forward<F>(action));
  }

  // After() for a caller whose every event has the same delay: the event
  // waits in the FIFO lane instead of the heap. Runs in exactly the order
  // After() would give it. An event due before the lane's last one is
  // refused, so mixing delays on the lane fails loudly.
  template <typename F>
  void AfterFixed(Time delay, F&& action) {
    WEBCC_CHECK_MSG(delay >= 0, "negative delay");
    const Time t = now_ + delay;
    WEBCC_CHECK_MSG(lane_size_ == 0 || t >= LaneAt(lane_size_ - 1).at,
                    "fixed-delay event due before the lane's last one");
    const std::uint32_t slot = Emplace(std::forward<F>(action));
    PushLane(Record{t, next_seq_++, slot});
  }

  // Runs the earliest event; returns false when the queue is empty.
  bool Step();

  // Runs until the queue drains.
  void Run();

  // Runs all events with timestamp <= `t`, then advances the clock to `t`
  // even if the queue still holds later events.
  void RunUntil(Time t);

  // Events waiting, in the heap and the lane together.
  std::size_t pending() const { return heap_.size() + lane_size_; }
  std::uint64_t executed() const { return executed_; }
  // Largest number of simultaneously pending events so far.
  std::size_t peak_pending() const { return peak_pending_; }

 private:
  struct Record {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;  // index into actions_
  };

  std::uint32_t TakeSlot() {
    if (free_slots_.empty()) {
      actions_.emplace_back();
      return static_cast<std::uint32_t>(actions_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Builds the Task for `action` in a free slab slot; returns the slot.
  template <typename F>
  std::uint32_t Emplace(F&& action) {
    const std::uint32_t slot = TakeSlot();
    Task& task = actions_[slot];
    std::destroy_at(&task);  // a free slot holds an empty Task
    std::construct_at(&task, std::forward<F>(action));
    WEBCC_CHECK_MSG(static_cast<bool>(task), "null action");
    return slot;
  }
  void Push(Record record);
  void PushLane(Record record);
  Record PopHeap();
  Record PopLane();
  // The lane's i-th record from its head.
  const Record& LaneAt(std::size_t i) const {
    return lane_[(lane_head_ + i) & (lane_.size() - 1)];
  }
  void NotePending() {
    if (pending() > peak_pending_) peak_pending_ = pending();
  }

  static bool Earlier(const Record& a, const Record& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<Record> heap_;   // 4-ary min-heap by (at, seq)
  // Ring of AfterFixed records in (at, seq) order; its size is 0 or a
  // power of two.
  std::vector<Record> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  std::vector<Task> actions_;  // slab; empty Tasks are free slots
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace webcc::sim
