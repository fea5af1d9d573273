#include "sim/simulator.h"

#include <utility>

#include "util/check.h"

namespace webcc::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void Simulator::Push(Record record) {
  heap_.push_back(record);
  SiftUp(heap_.size() - 1);
  NotePending();
}

void Simulator::PushLane(Record record) {
  if (lane_size_ == lane_.size()) {
    // Full: unroll into a ring twice the size, head at index 0.
    std::vector<Record> grown(lane_.empty() ? 16 : lane_.size() * 2);
    for (std::size_t i = 0; i < lane_size_; ++i) grown[i] = LaneAt(i);
    lane_ = std::move(grown);
    lane_head_ = 0;
  }
  lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = record;
  ++lane_size_;
  NotePending();
}

Simulator::Record Simulator::PopHeap() {
  const Record top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  return top;
}

Simulator::Record Simulator::PopLane() {
  const Record top = LaneAt(0);
  lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
  --lane_size_;
  return top;
}

bool Simulator::Step() {
  // The smaller head is the least pending record: the lane is in
  // (at, seq) order, and seq is unique across heap and lane.
  const bool from_lane =
      lane_size_ != 0 && (heap_.empty() || Earlier(LaneAt(0), heap_.front()));
  if (!from_lane && heap_.empty()) return false;
  const Record top = from_lane ? PopLane() : PopHeap();
  // Move the action out before running it: it may schedule new events,
  // which can grow the slab under it.
  Task action = std::move(actions_[top.slot]);
  free_slots_.push_back(top.slot);
  now_ = top.at;
  ++executed_;
  action();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(Time t) {
  WEBCC_CHECK_MSG(t >= now_, "cannot run backwards");
  while ((!heap_.empty() && heap_.front().at <= t) ||
         (lane_size_ != 0 && LaneAt(0).at <= t)) {
    Step();
  }
  now_ = t;
}

void Simulator::SiftUp(std::size_t i) {
  const Record record = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!Earlier(record, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = record;
}

void Simulator::SiftDown(std::size_t i) {
  const Record record = heap_[i];
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= size) break;
    const std::size_t last = first + kArity < size ? first + kArity : size;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], record)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = record;
}

}  // namespace webcc::sim
