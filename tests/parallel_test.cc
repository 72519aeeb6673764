#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algos/ects.h"
#include "algos/edsc.h"
#include "bench/bench_common.h"
#include "core/deadline.h"
#include "core/evaluation.h"
#include "core/fault.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

/// Forces a pool width for one test and restores the ETSC_THREADS / hardware
/// default on scope exit, so tests cannot leak their width into each other.
class ScopedWidth {
 public:
  explicit ScopedWidth(size_t width) { SetMaxParallelism(width); }
  ~ScopedWidth() { SetMaxParallelism(0); }
};

// ---------------------------------------------------------------------------
// Pool lifecycle
// ---------------------------------------------------------------------------

TEST(ParallelPool, SetMaxParallelismResizesAndZeroRestoresTheDefault) {
  SetMaxParallelism(0);
  const size_t default_width = MaxParallelism();
  EXPECT_GE(default_width, 1u);

  SetMaxParallelism(3);
  EXPECT_EQ(MaxParallelism(), 3u);
  SetMaxParallelism(1);
  EXPECT_EQ(MaxParallelism(), 1u);
  SetMaxParallelism(0);
  EXPECT_EQ(MaxParallelism(), default_width);
}

TEST(ParallelPool, RepeatedResizeSurvivesLoopsInBetween) {
  for (size_t width : {1u, 4u, 2u, 8u, 1u}) {
    ScopedWidth scoped(width);
    std::atomic<size_t> sum{0};
    ParallelFor(100, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 5050u);
  }
}

// ---------------------------------------------------------------------------
// ParallelFor / ParallelForStatus semantics
// ---------------------------------------------------------------------------

TEST(ParallelFor, RunsEveryIterationExactlyOnce) {
  ScopedWidth scoped(4);
  std::vector<std::atomic<int>> counts(1000);
  ParallelFor(1000, [&](size_t i) { counts[i].fetch_add(1); });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, GrainBatchesWithoutDroppingTailIterations) {
  ScopedWidth scoped(4);
  std::vector<std::atomic<int>> counts(103);  // deliberately not % grain
  ParallelFor(
      103, [&](size_t i) { counts[i].fetch_add(1); }, /*grain=*/7);
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, WidthOneRunsInlineOnTheCallingThread) {
  ScopedWidth scoped(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(64);
  ParallelFor(64, [&](size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, ZeroIterationsIsANoOp) {
  ScopedWidth scoped(4);
  ParallelFor(0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, PropagatesExceptionsToTheCaller) {
  ScopedWidth scoped(4);
  EXPECT_THROW(ParallelFor(100,
                           [](size_t i) {
                             if (i == 37) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForStatus, LowestFailingIterationWinsDeterministically) {
  // Iteration 0 is always fetched before any failure can set the abort flag,
  // so with every iteration failing the reported error is index 0 regardless
  // of scheduling.
  for (size_t width : {1u, 8u}) {
    ScopedWidth scoped(width);
    const Status status = ParallelForStatus(200, [](size_t i) {
      return Status::Internal("fail at " + std::to_string(i));
    });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "fail at 0");
  }
}

TEST(ParallelForStatus, FailureSkipsIterationsThatHaveNotStarted) {
  ScopedWidth scoped(4);
  std::atomic<size_t> ran{0};
  const Status status = ParallelForStatus(100000, [&](size_t i) -> Status {
    ran.fetch_add(1);
    if (i == 0) return Status::Internal("early failure");
    return Status::OK();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_LT(ran.load(), 100000u);
}

TEST(ParallelForStatus, ExpiredDeadlineCancelsBeforeRunningBodies) {
  for (size_t width : {1u, 4u}) {
    ScopedWidth scoped(width);
    const Deadline expired = Deadline::After(0.0);
    std::atomic<size_t> ran{0};
    const Status status = ParallelForStatus(
        1000,
        [&](size_t) -> Status {
          ran.fetch_add(1);
          return Status::OK();
        },
        /*grain=*/1, &expired, "loop: budget exceeded");
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(status.message(), "loop: budget exceeded");
    EXPECT_EQ(ran.load(), 0u);
  }
}

TEST(ParallelForStatus, MidLoopExpiryStopsTheLoop) {
  ScopedWidth scoped(4);
  const Deadline deadline = Deadline::After(0.02);
  std::atomic<size_t> ran{0};
  const Status status = ParallelForStatus(
      100000,
      [&](size_t) -> Status {
        ran.fetch_add(1);
        BurnWallClock(0.001);
        return Status::OK();
      },
      /*grain=*/1, &deadline, "loop: budget exceeded");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ran.load(), 100000u);
}

TEST(ParallelFor, NestedLoopsCompleteWithoutDeadlock) {
  ScopedWidth scoped(4);
  constexpr size_t kN = 24;
  std::vector<std::atomic<int>> cells(kN * kN);
  ParallelFor(kN, [&](size_t i) {
    ParallelFor(kN, [&](size_t j) { cells[i * kN + j].fetch_add(1); });
  });
  for (const auto& cell : cells) EXPECT_EQ(cell.load(), 1);
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

TEST(TaskGroup, RunsEveryTaskAndWaitsForAll) {
  ScopedWidth scoped(4);
  std::vector<std::atomic<int>> done(32);
  TaskGroup group;
  for (size_t t = 0; t < done.size(); ++t) {
    group.Run([&done, t]() -> Status {
      done[t].fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  for (const auto& flag : done) EXPECT_EQ(flag.load(), 1);
}

TEST(TaskGroup, FirstSubmittedFailureWinsAndAllTasksStillRun) {
  ScopedWidth scoped(4);
  std::atomic<size_t> ran{0};
  TaskGroup group;
  for (size_t t = 0; t < 16; ++t) {
    group.Run([&ran, t]() -> Status {
      ran.fetch_add(1);
      if (t % 3 == 2) {
        return Status::Internal("task " + std::to_string(t) + " failed");
      }
      return Status::OK();
    });
  }
  const Status status = group.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "task 2 failed");  // lowest failing submission
  EXPECT_EQ(ran.load(), 16u);  // TaskGroup never cancels dispatched work
}

TEST(TaskGroup, ExceptionsAreRethrownFromWait) {
  ScopedWidth scoped(4);
  TaskGroup group;
  group.Run([]() -> Status { throw std::runtime_error("task blew up"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(TaskGroup, WidthOneRunsTasksInlineOnTheCallingThread) {
  ScopedWidth scoped(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id observed{};
  TaskGroup group;
  group.Run([&observed]() -> Status {
    observed = std::this_thread::get_id();
    return Status::OK();
  });
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(observed, caller);
}

TEST(TaskGroup, ExpiredDeadlineSkipsTheTaskEntirely) {
  ScopedWidth scoped(4);
  const Deadline expired = Deadline::After(0.0);
  std::atomic<bool> ran{false};
  TaskGroup group;
  group.Run(
      [&ran]() -> Status {
        ran.store(true);
        return Status::OK();
      },
      &expired);
  const Status status = group.Wait();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(ran.load());
}

TEST(TaskGroup, NestedGroupsInsidePoolTasksComplete) {
  ScopedWidth scoped(4);
  std::vector<std::atomic<int>> done(8 * 8);
  TaskGroup outer;
  for (size_t i = 0; i < 8; ++i) {
    outer.Run([&done, i]() -> Status {
      TaskGroup inner;
      for (size_t j = 0; j < 8; ++j) {
        inner.Run([&done, i, j]() -> Status {
          done[i * 8 + j].fetch_add(1);
          return Status::OK();
        });
      }
      return inner.Wait();
    });
  }
  EXPECT_TRUE(outer.Wait().ok());
  for (const auto& flag : done) EXPECT_EQ(flag.load(), 1);
}

// ---------------------------------------------------------------------------
// Determinism: serial and parallel CrossValidate agree bit-for-bit
// ---------------------------------------------------------------------------

void ExpectBitIdenticalCrossValidate(const Dataset& data,
                                     const EarlyClassifier& prototype) {
  EvaluationOptions options;
  options.num_folds = 3;

  SetMaxParallelism(1);
  const EvaluationResult serial = CrossValidate(data, prototype, options);
  SetMaxParallelism(8);
  const EvaluationResult parallel = CrossValidate(data, prototype, options);
  SetMaxParallelism(0);

  ASSERT_EQ(serial.folds.size(), parallel.folds.size());
  ASSERT_FALSE(serial.folds.empty());
  for (size_t f = 0; f < serial.folds.size(); ++f) {
    const FoldOutcome& s = serial.folds[f];
    const FoldOutcome& p = parallel.folds[f];
    EXPECT_EQ(s.trained, p.trained);
    EXPECT_EQ(s.fold_seed, p.fold_seed);
    // Exact equality on purpose: the determinism contract (DESIGN.md sec 8)
    // promises bit-identical scores, not scores within a tolerance.
    EXPECT_EQ(s.scores.accuracy, p.scores.accuracy);
    EXPECT_EQ(s.scores.f1, p.scores.f1);
    EXPECT_EQ(s.scores.earliness, p.scores.earliness);
    EXPECT_EQ(s.scores.harmonic_mean, p.scores.harmonic_mean);
    EXPECT_EQ(s.num_failed_predictions, p.num_failed_predictions);
  }
  const EvalScores serial_mean = serial.MeanScores();
  const EvalScores parallel_mean = parallel.MeanScores();
  EXPECT_EQ(serial_mean.accuracy, parallel_mean.accuracy);
  EXPECT_EQ(serial_mean.harmonic_mean, parallel_mean.harmonic_mean);
}

TEST(ParallelDeterminism, EctsCrossValidateIsBitIdentical) {
  const Dataset data = testing::MakeToyDataset(15, 24);
  auto ects = testing::CreateComposed("ects");
  ExpectBitIdenticalCrossValidate(data, *ects);
}

TEST(ParallelDeterminism, EdscCrossValidateIsBitIdentical) {
  const Dataset data = testing::MakeToyDataset(20, 40, 0.0, 3, 0.05);
  EdscClassifier edsc{EdscOptions{}};
  ExpectBitIdenticalCrossValidate(data, edsc);
}

TEST(ParallelDeterminism, FoldSeedsAreSplitNotDrawnInDispatchOrder) {
  // The per-fold seed must be a pure function of (options.seed, fold index).
  const Dataset data = testing::MakeToyDataset(12, 16);
  auto ects = testing::CreateComposed("ects");
  EvaluationOptions options;
  options.num_folds = 4;
  options.seed = 123;
  const EvaluationResult result = CrossValidate(data, *ects, options);
  ASSERT_EQ(result.folds.size(), 4u);
  for (size_t f = 0; f < result.folds.size(); ++f) {
    EXPECT_EQ(result.folds[f].fold_seed, SplitSeed(123, f));
  }
}

// ---------------------------------------------------------------------------
// Parallel campaign: interleaved journal appends reload cleanly
// ---------------------------------------------------------------------------

bench::CampaignConfig ParallelMiniConfig(const std::string& cache_name) {
  bench::CampaignConfig config;
  config.algorithms = {"ECTS"};
  config.datasets = {"DodgerLoopGame", "DodgerLoopWeekend"};
  config.folds = 2;
  config.height_scale = 1.0;
  config.train_budget_seconds = 30.0;
  config.cache_path = ::testing::TempDir() + cache_name;
  std::remove(config.cache_path.c_str());
  std::remove((config.cache_path + ".stale").c_str());
  return config;
}

TEST(ParallelCampaign, ConcurrentCellsJournalWholeRowsThatReload) {
  ScopedWidth scoped(4);
  auto config = ParallelMiniConfig("journal_parallel.csv");
  bench::Campaign campaign(config);
  campaign.Run();
  ASSERT_EQ(campaign.cells().size(), 2u);
  for (const auto& dataset : config.datasets) {
    const bench::CampaignCell* cell = campaign.Find("ECTS", dataset);
    ASSERT_NE(cell, nullptr) << dataset;
    EXPECT_TRUE(cell->trained) << dataset;
  }

  // Every row written by the concurrent cells must parse back whole.
  auto reload_config = config;
  reload_config.report_only = true;
  bench::Campaign reloaded(reload_config);
  reloaded.Run();
  for (const auto& dataset : config.datasets) {
    const bench::CampaignCell* computed = campaign.Find("ECTS", dataset);
    const bench::CampaignCell* loaded = reloaded.Find("ECTS", dataset);
    ASSERT_NE(loaded, nullptr) << dataset;
    EXPECT_EQ(loaded->trained, computed->trained);
    EXPECT_NEAR(loaded->accuracy, computed->accuracy, 1e-12);
    EXPECT_NEAR(loaded->harmonic_mean, computed->harmonic_mean, 1e-12);
  }
}

TEST(ParallelCampaign, SerialAndParallelCampaignsProduceIdenticalCells) {
  SetMaxParallelism(1);
  auto serial_config = ParallelMiniConfig("journal_campaign_serial.csv");
  bench::Campaign serial(serial_config);
  serial.Run();

  SetMaxParallelism(4);
  auto parallel_config = ParallelMiniConfig("journal_campaign_parallel.csv");
  bench::Campaign parallel(parallel_config);
  parallel.Run();
  SetMaxParallelism(0);

  ASSERT_EQ(serial.cells().size(), parallel.cells().size());
  for (size_t c = 0; c < serial.cells().size(); ++c) {
    const bench::CampaignCell& s = serial.cells()[c];
    const bench::CampaignCell& p = parallel.cells()[c];
    EXPECT_EQ(s.algorithm, p.algorithm);  // deterministic publication order
    EXPECT_EQ(s.dataset, p.dataset);
    EXPECT_EQ(s.trained, p.trained);
    EXPECT_EQ(s.accuracy, p.accuracy);  // bit-identical, not merely close
    EXPECT_EQ(s.f1, p.f1);
    EXPECT_EQ(s.earliness, p.earliness);
    EXPECT_EQ(s.harmonic_mean, p.harmonic_mean);
  }
}

}  // namespace
}  // namespace etsc
