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
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  const Record top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
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
  while (!heap_.empty() && heap_.front().at <= t) Step();
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
