#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "tests/propagator_test_util.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "transform/priority.h"
#include "transform/propagator.h"
#include "txn/transform_locks.h"

namespace morph::transform {
namespace {

using morph::transform::testing::CellOptions;
using morph::transform::testing::CellResult;
using morph::transform::testing::Operator;
using morph::transform::testing::OperatorName;
using morph::transform::testing::RunCell;

// ---------------------------------------------------------------------------
// Log propagation under a concurrent writer, for every operator × sync
// strategy: a deterministic, seeded op stream is written by one client
// thread while the transformation (held open with SetSyncHold) propagates
// it. Each cell must complete, release every mirrored lock by the end of
// the drain, and actually propagate the stream; RunCell additionally
// reconciles the registry's `transform.propagate.*` deltas with the run's
// own TransformStats. The cell machinery lives in
// tests/propagator_test_util.h, shared with the tablet differential suite.
// ---------------------------------------------------------------------------

class PropagatorCellTest
    : public ::testing::TestWithParam<std::pair<Operator, SyncStrategy>> {};

TEST_P(PropagatorCellTest, CompletesAndReconciles) {
  const auto [op, strategy] = GetParam();
  CellOptions opts;
  opts.strategy = strategy;
  opts.seed =
      41 * static_cast<uint64_t>(op) + static_cast<uint64_t>(strategy) + 1;
  const CellResult cell = RunCell(op, opts);
  ASSERT_TRUE(cell.completed) << cell.abort_reason;
  ASSERT_EQ(cell.locks_at_end, 0u);
  EXPECT_GT(cell.log_records, 100u);
  if (strategy == SyncStrategy::kNonBlockingCommit) {
    // The straddler RunCell leaves open across the switch still holds the
    // source locks the propagator mirrored onto its target records.
    EXPECT_GT(cell.locks_at_switch, 0u);
  }
}

std::string CellName(
    const ::testing::TestParamInfo<std::pair<Operator, SyncStrategy>>& info) {
  std::string name = OperatorName(info.param.first);
  name += "_";
  name += SyncStrategyToString(info.param.second);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    OperatorsAndStrategies, PropagatorCellTest,
    ::testing::Values(
        std::pair{Operator::kFoj, SyncStrategy::kBlockingCommit},
        std::pair{Operator::kFoj, SyncStrategy::kNonBlockingAbort},
        std::pair{Operator::kFoj, SyncStrategy::kNonBlockingCommit},
        std::pair{Operator::kVSplit, SyncStrategy::kBlockingCommit},
        std::pair{Operator::kVSplit, SyncStrategy::kNonBlockingAbort},
        std::pair{Operator::kVSplit, SyncStrategy::kNonBlockingCommit},
        std::pair{Operator::kHSplit, SyncStrategy::kBlockingCommit},
        std::pair{Operator::kHSplit, SyncStrategy::kNonBlockingAbort},
        std::pair{Operator::kHSplit, SyncStrategy::kNonBlockingCommit},
        std::pair{Operator::kMerge, SyncStrategy::kBlockingCommit},
        std::pair{Operator::kMerge, SyncStrategy::kNonBlockingAbort},
        std::pair{Operator::kMerge, SyncStrategy::kNonBlockingCommit}),
    CellName);

// ---------------------------------------------------------------------------
// Regression (TSan): LogPropagator::ops_applied() must be safe to call from
// a monitoring thread while PropagateRange runs on another — exactly what a
// metrics poller or a stats dump racing an abort does. Run under
// -DMORPH_SANITIZE=thread.
// ---------------------------------------------------------------------------
TEST(PropagatorStatsTest, OpsAppliedSafeWhilePropagating) {
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t_out";
  auto made = FojRules::Make(&db, spec);
  ASSERT_TRUE(made.ok());
  auto rules = std::shared_ptr<FojRules>(std::move(made).ValueOrDie());
  ASSERT_TRUE(rules->Prepare().ok());

  // 300 committed single-row inserts = plenty of ops for the monitor to
  // overlap with.
  const Lsn from = db.wal()->LastLsn() + 1;
  for (int i = 0; i < 300; ++i) {
    auto t = db.Begin();
    ASSERT_TRUE(
        db.Insert(t, r.get(), Row({i, static_cast<int64_t>(i % 7), "p"}))
            .ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }

  txn::TransformLockTable tlocks;
  PriorityController priority(1.0);
  LogPropagator prop(db.wal(), rules.get(), &tlocks, &priority,
                     PropagatorConfig{});
  std::vector<TableId> source_ids;
  for (const auto& src : rules->Sources()) source_ids.push_back(src->id());
  prop.SetSources(source_ids);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> polls{0};
  std::thread monitor([&] {
    size_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const size_t now = prop.ops_applied();
      EXPECT_GE(now, last);  // monotone while the range runs
      EXPECT_LE(now, 300u);
      last = now;
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Don't start propagating until the monitor is actually polling — on a
  // loaded host the whole pass can finish before a freshly spawned thread
  // is first scheduled, and then nothing would have overlapped.
  while (polls.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  std::atomic<Lsn> next{from};
  auto processed = prop.PropagateRange(from, db.wal()->LastLsn(),
                                       /*throttled=*/false, &next,
                                       [] { return false; });
  done.store(true, std::memory_order_release);
  monitor.join();
  ASSERT_TRUE(processed.ok()) << processed.status().ToString();
  EXPECT_EQ(prop.ops_applied(), 300u);
}

}  // namespace
}  // namespace morph::transform
