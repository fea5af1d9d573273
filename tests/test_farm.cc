// Tests for the replay farm (determinism across worker counts, reuse) and
// the string interner backing the proxy-cache and site-list hot paths.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/id_space.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "replay/experiments.h"
#include "replay/farm.h"
#include "trace/presets.h"
#include "trace/workload.h"

namespace webcc::replay {
namespace {

// Miniature traces for the six table rows (1% of the real request counts)
// keep the 36 replays of the determinism test inside test budgets; the
// code path is identical to the full-size runs.
std::map<trace::TraceName, trace::Trace> ScaledDownTraces(
    const std::vector<ExperimentSpec>& specs) {
  std::map<trace::TraceName, trace::Trace> traces;
  for (const ExperimentSpec& spec : specs) {
    if (traces.count(spec.trace) != 0) continue;
    trace::WorkloadConfig small = trace::GetPreset(spec.trace).workload;
    small.total_requests /= 100;
    small.num_documents /= 10;
    small.num_clients /= 10;
    traces.emplace(spec.trace, trace::GenerateTrace(small));
  }
  return traces;
}

std::vector<ReplayConfig> AllCells(
    const std::vector<ExperimentSpec>& specs,
    const std::map<trace::TraceName, trace::Trace>& traces) {
  std::vector<ReplayConfig> configs;
  for (const ExperimentSpec& spec : specs) {
    for (const core::Protocol protocol :
         {core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
          core::Protocol::kInvalidation}) {
      configs.push_back(
          MakeReplayConfig(spec, protocol, traces.at(spec.trace)));
    }
  }
  return configs;
}

TEST(Farm, WorkerCountDoesNotChangeTheSimulation) {
  // Every Table 3 + Table 4 cell, replayed with one worker and with eight:
  // each replay is its own single-threaded deterministic simulation, so
  // every metric except host timing must match bit for bit.
  const auto specs = AllTableExperiments();
  const auto traces = ScaledDownTraces(specs);
  const auto configs = AllCells(specs, traces);

  const std::vector<ReplayMetrics> serial = Farm::RunAll(configs, 1);
  const std::vector<ReplayMetrics> farmed = Farm::RunAll(configs, 8);

  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(farmed.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_TRUE(SameSimulation(serial[i], farmed[i])) << "cell " << i;
    EXPECT_GT(serial[i].sim_events_executed, 0u);
    EXPECT_GT(serial[i].sim_peak_queue_depth, 0u);
  }
}

TEST(Farm, MatchesDirectRunReplay) {
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces({specs[0]});
  const ReplayConfig config = MakeReplayConfig(
      specs[0], core::Protocol::kInvalidation, traces.at(specs[0].trace));

  const ReplayMetrics direct = RunReplay(config);
  const std::vector<ReplayMetrics> farmed = Farm::RunAll({config}, 4);
  ASSERT_EQ(farmed.size(), 1u);
  EXPECT_TRUE(SameSimulation(direct, farmed[0]));
}

TEST(Farm, ResultsArriveInSubmissionOrder) {
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces(specs);
  const auto configs = AllCells(specs, traces);

  Farm farm(8);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(farm.Submit(configs[i]), i);
  }
  const std::vector<ReplayMetrics> results = farm.Collect();
  ASSERT_EQ(results.size(), configs.size());
  // Slot i must hold config i's replay: requests_issued equals that
  // config's trace size, which differs across the three traces.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i].requests_issued, configs[i].trace->records.size())
        << "slot " << i;
  }
}

TEST(Farm, ReusableAfterCollect) {
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces({specs[0]});
  const ReplayConfig config = MakeReplayConfig(
      specs[0], core::Protocol::kAdaptiveTtl, traces.at(specs[0].trace));

  Farm farm(2);
  farm.Submit(config);
  const auto first = farm.Collect();
  ASSERT_EQ(first.size(), 1u);
  // Indices restart after Collect(); the second batch is independent.
  EXPECT_EQ(farm.Submit(config), 0u);
  farm.Submit(config);
  const auto second = farm.Collect();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(SameSimulation(first[0], second[0]));
  EXPECT_TRUE(SameSimulation(second[0], second[1]));
}

TEST(Farm, MergedSinkSwapBetweenBatchesRoutesToTheNewSink) {
  // Regression: the pre-annotation set_merged_trace_sink wrote the field
  // without the farm lock — a data race against live workers that the
  // thread-safety annotations flagged. The swap must take effect for the
  // next batch and leave the previous sink untouched.
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces({specs[0]});
  const ReplayConfig config = MakeReplayConfig(
      specs[0], core::Protocol::kAdaptiveTtl, traces.at(specs[0].trace));

  Farm farm(2);
  obs::BufferTraceSink first_sink;
  farm.set_merged_trace_sink(&first_sink);
  farm.Submit(config);
  farm.Collect();
  const std::string first = first_sink.Text();
  EXPECT_FALSE(first.empty());

  obs::BufferTraceSink second_sink;
  farm.set_merged_trace_sink(&second_sink);  // pool threads are still alive
  farm.Submit(config);
  farm.Collect();
  EXPECT_EQ(first_sink.Text(), first);   // old sink sees nothing new
  EXPECT_EQ(second_sink.Text(), first);  // same deterministic stream
}

TEST(Farm, CollectOnEmptyFarmReturnsEmpty) {
  Farm farm(2);
  EXPECT_TRUE(farm.Collect().empty());
}

TEST(Interner, RoundTripsIdsAndNames) {
  core::Interner interner;
  const core::InternId a = interner.Intern("/docs/a.html");
  const core::InternId b = interner.Intern("/docs/b.html");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("/docs/a.html"), a);  // same string, same id
  EXPECT_EQ(interner.NameOf(a), "/docs/a.html");
  EXPECT_EQ(interner.NameOf(b), "/docs/b.html");
  EXPECT_EQ(interner.Find("/docs/a.html"), a);
  EXPECT_EQ(interner.Find("/docs/zzz.html"), core::kNoInternId);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(Interner, SurvivesIndexRehashAndStorageGrowth) {
  // Enough strings to force many rehashes of the id index and growth of
  // the name storage; every id and lookup must stay valid throughout
  // (the index keys are views into the stored names).
  core::Interner interner;
  std::vector<core::InternId> ids;
  constexpr int kCount = 10000;
  ids.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    ids.push_back(interner.Intern("/path/to/document-" + std::to_string(i)));
  }
  ASSERT_EQ(interner.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    const std::string name = "/path/to/document-" + std::to_string(i);
    EXPECT_EQ(interner.NameOf(ids[i]), name);
    EXPECT_EQ(interner.Find(name), ids[i]);
    EXPECT_EQ(interner.Intern(name), ids[i]);
  }
}

}  // namespace
}  // namespace webcc::replay
