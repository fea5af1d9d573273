// Unit tests for sim/: event ordering, FIFO stations, the network model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/station.h"
#include "sim/task.h"
#include "util/rng.h"

namespace webcc::sim {
namespace {

// --- Simulator ----------------------------------------------------------------

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, AfterIsRelativeToNow) {
  Simulator sim;
  Time fired_at = -1;
  sim.At(50, [&] {
    sim.After(25, [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 75);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.After(1, chain);
  };
  sim.After(1, chain);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  sim.At(20, [&] { ++fired; });
  sim.At(30, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.At(1, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.At(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.executed(), 7u);
}

// Random interleavings of At, After, AfterFixed, Step and RunUntil, with
// many equal timestamps (lane and heap events share them), events that
// schedule more events (lane events among them), and captures both inline
// and too large for sim::Task's inline storage. (at, seq) is a total order
// and no event may be scheduled before now(), so the events must run in
// exactly the order a sort of everything scheduled by (at, seq) gives.
TEST(Simulator, RandomScheduleRunsInAtSeqOrder) {
  struct Key {
    Time at;
    std::uint64_t seq;
    bool operator==(const Key&) const = default;
  };
  Simulator sim;
  util::Rng rng(17);
  std::vector<Key> scheduled;
  std::vector<Key> ran;
  std::size_t lane_events = 0;
  // Small delays from a short list, so most timestamps collide; the lane's
  // fixed delay is one of them.
  static constexpr Time kFixedDelay = 5;
  const auto delay = [&rng] {
    static constexpr Time kDelays[] = {0, 0, 0, 1, 1, kFixedDelay, 40};
    return kDelays[rng.NextBelow(std::size(kDelays))];
  };
  std::function<void()> schedule_one = [&] {
    // 0: At, inline; 1: After, heap-held; 2: AfterFixed, inline;
    // 3: AfterFixed, heap-held.
    const std::uint64_t kind = rng.NextBelow(4);
    const Key key{sim.now() + (kind >= 2 ? kFixedDelay : delay()),
                  scheduled.size()};
    scheduled.push_back(key);
    const auto record = [&, key] {
      EXPECT_EQ(sim.now(), key.at);
      ran.push_back(key);
      if (rng.NextBelow(3) == 0) schedule_one();  // from inside an event
    };
    // The same event with a capture no inline storage holds.
    std::array<char, 2 * Task::kInlineBytes> ballast{};
    const auto heavy = [record, ballast] { record(); };
    switch (kind) {
      case 0:
        sim.At(key.at, record);
        break;
      case 1:
        sim.After(key.at - sim.now(), heavy);
        break;
      case 2:
        ++lane_events;
        sim.AfterFixed(kFixedDelay, record);
        break;
      default:
        ++lane_events;
        sim.AfterFixed(kFixedDelay, heavy);
        break;
    }
  };
  for (int round = 0; round < 3000; ++round) {
    switch (rng.NextBelow(4)) {
      case 0:
      case 1:
        for (std::uint64_t n = rng.NextBelow(4); n > 0; --n) schedule_one();
        break;
      case 2:
        sim.Step();
        break;
      default:
        sim.RunUntil(sim.now() + delay());
        break;
    }
  }
  sim.Run();
  ASSERT_EQ(ran.size(), scheduled.size());
  EXPECT_GT(sim.peak_pending(), 10u);
  EXPECT_GT(lane_events, scheduled.size() / 3);
  std::vector<Key> expected = scheduled;
  std::sort(expected.begin(), expected.end(), [](const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  EXPECT_TRUE(ran == expected);
}

// pending() and peak_pending() count the heap and the FIFO lane together,
// the figures a single heap holding every event would give.
TEST(Simulator, PendingCountsHeapAndLane) {
  Simulator sim;
  std::vector<int> order;
  sim.At(10, [&] { order.push_back(1); });
  sim.AfterFixed(20, [&] { order.push_back(2); });
  sim.AfterFixed(20, [&] { order.push_back(3); });
  sim.After(20, [&] { order.push_back(4); });  // same time, scheduled later
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_EQ(sim.peak_pending(), 4u);
  ASSERT_TRUE(sim.Step());
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(sim.pending(), 2u);
  sim.AfterFixed(20, [&] { order.push_back(5); });  // due at 40
  EXPECT_EQ(sim.pending(), 3u);
  sim.RunUntil(35);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.now(), 35);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.peak_pending(), 4u);
  EXPECT_EQ(sim.executed(), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SimulatorDeathTest, AfterFixedRefusesAnEventDueBeforeTheLanesLast) {
  Simulator sim;
  sim.AfterFixed(10, [] {});
  EXPECT_DEATH(sim.AfterFixed(5, [] {}), "due before the lane");
}

// Destroying a simulator destroys each action exactly once: those that ran
// (when they ran) and those still pending (with the simulator), inline and
// heap-held alike, in the heap and in the FIFO lane. The sanitizer builds
// also check that nothing leaks.
TEST(Simulator, DestructionDestroysEachActionOnce) {
  // Move-only token: only the instance that owns the id reports it.
  struct Token {
    std::vector<int>* destroyed;
    int id;
    bool owner = true;
    Token(std::vector<int>* d, int i) : destroyed(d), id(i) {}
    Token(Token&& other) noexcept
        : destroyed(other.destroyed), id(other.id), owner(other.owner) {
      other.owner = false;
    }
    Token& operator=(Token&&) = delete;
    ~Token() {
      if (owner) destroyed->push_back(id);
    }
  };
  // Ids below kHeapActions go to the heap, the rest to the lane; each half
  // is due at times 0..9, so RunUntil(4) runs half of each.
  constexpr int kHeapActions = 200;
  constexpr int kActions = 300;
  std::vector<int> destroyed;
  int ran = 0;
  {
    Simulator sim;
    for (int id = 0; id < kActions; ++id) {
      const bool lane = id >= kHeapActions;
      const Time at = lane ? (id - kHeapActions) / 10 : id % 10;
      const auto schedule = [&sim, lane, at](auto action) {
        if (lane) {
          sim.AfterFixed(at, std::move(action));  // now() is 0
        } else {
          sim.At(at, std::move(action));
        }
      };
      if (id % 2 == 0) {
        schedule([token = Token(&destroyed, id), &ran] { ++ran; });
      } else {
        std::array<char, 2 * Task::kInlineBytes> ballast{};
        schedule([token = Token(&destroyed, id), ballast, &ran] { ++ran; });
      }
    }
    sim.RunUntil(4);  // half run; the rest are still pending
    EXPECT_EQ(ran, kActions / 2);
    EXPECT_EQ(destroyed.size(), static_cast<std::size_t>(kActions / 2));
    EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kActions / 2));
  }
  std::sort(destroyed.begin(), destroyed.end());
  std::vector<int> each(kActions);
  for (int id = 0; id < kActions; ++id) each[id] = id;
  EXPECT_EQ(destroyed, each);
}

// --- FifoStation -----------------------------------------------------------------

TEST(FifoStation, SingleJobCompletesAfterCost) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  Time done = -1;
  station.Enqueue(100, [&] { done = sim.now(); });
  sim.Run();
  EXPECT_EQ(done, 100);
}

TEST(FifoStation, JobsQueueFifo) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  std::vector<Time> completions;
  for (int i = 0; i < 3; ++i) {
    station.Enqueue(10, [&] { completions.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<Time>{10, 20, 30}));
}

TEST(FifoStation, ReturnsCompletionTime) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  EXPECT_EQ(station.Enqueue(5), 5);
  EXPECT_EQ(station.Enqueue(5), 10);
  EXPECT_EQ(station.busy_until(), 10);
}

TEST(FifoStation, IdleGapThenNewJob) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  station.Enqueue(10);
  sim.Run();  // completes at 10
  Time done = -1;
  sim.At(50, [&] { station.Enqueue(5, [&] { done = sim.now(); }); });
  sim.Run();
  EXPECT_EQ(done, 55);  // starts at 50, not queued behind the old job
}

TEST(FifoStation, AccumulatesUtilization) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  station.Enqueue(30);
  station.Enqueue(30);
  sim.Run();
  EXPECT_EQ(station.utilization().busy_time(), 60);
  EXPECT_DOUBLE_EQ(station.utilization().BusyFraction(120), 0.5);
}

TEST(FifoStation, ZeroCostJobRunsImmediately) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  Time done = -1;
  station.Enqueue(0, [&] { done = sim.now(); });
  sim.Run();
  EXPECT_EQ(done, 0);
}

// --- Network ----------------------------------------------------------------------

NetworkConfig FastConfig() {
  NetworkConfig config;
  config.one_way_latency = 1000;       // 1 ms
  config.bandwidth_bps = 8e6;          // 1 byte/us
  config.per_message_overhead_bytes = 0;
  config.retry_interval = 100 * kMillisecond;
  return config;
}

TEST(Network, TransferDelayIncludesSerializationTerm) {
  Simulator sim;
  Network net(sim, FastConfig());
  EXPECT_EQ(net.TransferDelay(0), 1000);
  EXPECT_EQ(net.TransferDelay(1000), 2000);  // 1000 bytes at 1 byte/us
}

TEST(Network, OverheadBytesCounted) {
  Simulator sim;
  NetworkConfig config = FastConfig();
  config.per_message_overhead_bytes = 40;
  Network net(sim, config);
  EXPECT_EQ(net.TransferDelay(0), 1040);
}

TEST(Network, DeliversAfterDelay) {
  Simulator sim;
  Network net(sim, FastConfig());
  Time delivered = -1;
  EXPECT_TRUE(net.Send(0, 1, 500, [&] { delivered = sim.now(); }));
  sim.Run();
  EXPECT_EQ(delivered, 1500);
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.bytes_delivered(), 500u);
}

TEST(Network, PartitionDropsDatagrams) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  bool delivered = false;
  EXPECT_FALSE(net.Send(0, 1, 10, [&] { delivered = true; }));
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, PartitionIsSymmetricAndHealable) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(3, 1);
  EXPECT_TRUE(net.IsPartitioned(1, 3));
  EXPECT_FALSE(net.Reachable(1, 3));
  EXPECT_FALSE(net.Reachable(3, 1));
  net.Heal(1, 3);
  EXPECT_TRUE(net.Reachable(3, 1));
}

TEST(Network, DownNodeUnreachableBothWays) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.SetNodeUp(2, false);
  EXPECT_FALSE(net.Reachable(0, 2));
  EXPECT_FALSE(net.Reachable(2, 0));
  EXPECT_TRUE(net.Reachable(0, 1));
  net.SetNodeUp(2, true);
  EXPECT_TRUE(net.Reachable(0, 2));
}

TEST(Network, ReliableSendDeliversImmediatelyWhenHealthy) {
  Simulator sim;
  Network net(sim, FastConfig());
  Network::SendResult result{};
  Time delivered = -1;
  net.SendReliable(
      0, 1, 100, [&] { delivered = sim.now(); },
      [&](Network::SendResult r, Time) { result = r; });
  sim.Run();
  EXPECT_EQ(result, Network::SendResult::kDelivered);
  EXPECT_EQ(delivered, 1100);
}

TEST(Network, ReliableSendRefusedByDownNode) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.SetNodeUp(1, false);
  bool delivered = false;
  Network::SendResult result{};
  net.SendReliable(
      0, 1, 100, [&] { delivered = true; },
      [&](Network::SendResult r, Time) { result = r; });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(result, Network::SendResult::kRefused);
}

TEST(Network, ReliableSendRetriesAcrossPartitionUntilHeal) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  Time delivered = -1;
  net.SendReliable(0, 1, 0, [&] { delivered = sim.now(); }, nullptr);
  // Heal after 250 ms; with a 100 ms retry interval the send succeeds on
  // the third retry at 300 ms.
  sim.At(250 * kMillisecond, [&] { net.Heal(0, 1); });
  sim.Run();
  EXPECT_EQ(delivered, 300 * kMillisecond + 1000);
  EXPECT_GE(net.retries(), 3u);
}

TEST(Network, ReliableSendGivesUpAfterMaxRetries) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  Network::SendResult result{};
  bool done = false;
  net.SendReliable(
      0, 1, 0, [] {},
      [&](Network::SendResult r, Time) {
        result = r;
        done = true;
      },
      /*max_retries=*/3);
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(result, Network::SendResult::kGaveUp);
  EXPECT_EQ(sim.now(), 3 * 100 * kMillisecond);
}

TEST(Network, SenderDeathSilencesPendingRetries) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  bool delivered = false;
  bool done_called = false;
  net.SendReliable(
      0, 1, 0, [&] { delivered = true; },
      [&](Network::SendResult, Time) { done_called = true; });
  sim.At(150 * kMillisecond, [&] {
    net.SetNodeUp(0, false);
    net.Heal(0, 1);
  });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_FALSE(done_called);
}

TEST(Network, WanProfileSlowerThanLan) {
  Simulator sim;
  Network lan(sim, NetworkConfig::Lan());
  Network wan(sim, NetworkConfig::Wan());
  EXPECT_GT(wan.TransferDelay(1000), lan.TransferDelay(1000));
}

}  // namespace
}  // namespace webcc::sim
