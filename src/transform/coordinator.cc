#include "transform/coordinator.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <thread>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace morph::transform {

std::string_view SyncStrategyToString(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kBlockingCommit:
      return "blocking-commit";
    case SyncStrategy::kNonBlockingAbort:
      return "non-blocking-abort";
    case SyncStrategy::kNonBlockingCommit:
      return "non-blocking-commit";
  }
  return "unknown";
}

TransformCoordinator::TransformCoordinator(engine::Database* db,
                                           std::shared_ptr<OperatorRules> rules,
                                           TransformConfig config)
    : db_(db),
      rules_(std::move(rules)),
      config_(config),
      priority_(config.priority),
      tlocks_(config.target_lock_wait_micros) {
  PropagatorConfig pc;
  pc.batch_size = config_.batch_size;
  pc.maintain_locks = config_.maintain_locks;
  propagator_ = std::make_unique<LogPropagator>(db_->wal(), rules_.get(),
                                                &tlocks_, &priority_, pc);

  // Staggered-tablet resolution. Everything it depends on is known here
  // (sources exist before Prepare; targets are created with the same
  // DatabaseOptions geometry), and creating the manager in the constructor
  // means the hook/housekeeping threads never race its publication.
  // Clamps to the whole-table path (stagger_ == nullptr) whenever a
  // precondition fails — see TransformConfig::tablets for the list.
  if (config_.tablets > 1 && rules_->SupportsStaggeredTablets() &&
      config_.strategy == SyncStrategy::kNonBlockingAbort &&
      !config_.continuous && !config_.run_consistency_checker) {
    size_t shards = 0;
    size_t table_tablets = 0;
    bool eligible = true;
    for (const auto& src : rules_->Sources()) {
      if (rules_->KeepSource(src->id())) {
        eligible = false;
        break;
      }
      if (shards == 0) {
        shards = src->num_shards();
        table_tablets = src->num_tablets();
      } else if (src->num_shards() != shards ||
                 src->num_tablets() != table_tablets) {
        eligible = false;
        break;
      }
    }
    if (eligible && table_tablets > 1) {
      auto mgr = std::make_unique<TabletTransformManager>(
          shards, table_tablets, config_.tablets);
      if (mgr->num_tablets() > 1) stagger_ = std::move(mgr);
    }
  }
}

TransformCoordinator::~TransformCoordinator() {
  // Only a run that died mid-flight (a CrashException modelling process
  // death) leaves the hook registered; see RunGuard.
  if (hook_registered_.load(std::memory_order_acquire)) {
    db_->ClearTransformHook();
  }
}

bool TransformCoordinator::IsSourceTable(TableId id) const {
  return source_set_.contains(id);
}

bool TransformCoordinator::IsTargetTable(TableId id) const {
  return target_set_.contains(id);
}

txn::LockOrigin TransformCoordinator::OriginOf(TableId source_table) const {
  if (!source_ids_.empty() && source_table == source_ids_[0]) {
    return txn::LockOrigin::kSource0;
  }
  return txn::LockOrigin::kSource1;
}

// --- the run -------------------------------------------------------------------

/// What a run borrows from the engine: the WAL retention pin, held from the
/// first instruction, and the hook registration, held from RegisterHook().
/// Every return from Run() gives both back. A CrashException unwinding
/// through Run() models process death: the pin goes with the stack, but the
/// hook stays registered — as it would until the process is gone — so the
/// dying incarnation keeps refusing source writes to migrated keys.
class TransformCoordinator::RunGuard {
 public:
  // The pin comes first: log-archiving housekeeping (a checkpointer's
  // TruncateBefore, a bench janitor) runs concurrently and knows nothing
  // about this transformation. Until the fuzzy mark fixes the propagation
  // start the pin conservatively holds the whole retained log; it then
  // tracks start_lsn and finally the live propagation watermark. Without
  // the pin, a checkpoint whose truncate_floor lies past un-propagated
  // records would discard them before the propagator reads them — the
  // propagator's checked scans would fail the transformation loudly, but
  // the pin is what prevents the loss in the first place. In durable mode
  // the same pin gates segment recycling: TruncateBefore clamps at this
  // floor before persisting a new chain base, so no segment holding
  // un-propagated records is ever recycled.
  explicit RunGuard(TransformCoordinator* coord) : coord_(coord) {
    wal::Wal* wal = coord->db_->wal();
    coord->retention_floor_.store(wal->FirstLsn(), std::memory_order_release);
    pin_ = wal->AddRetentionPin([coord]() -> Lsn {
      const Lsn watermark = coord->propagated_lsn();
      if (watermark != kInvalidLsn) return watermark;
      return coord->retention_floor_.load(std::memory_order_acquire);
    });
  }

  ~RunGuard() {
    if (coord_->hook_registered_.load(std::memory_order_acquire) &&
        std::uncaught_exceptions() == exceptions_) {
      coord_->db_->ClearTransformHook();
      coord_->hook_registered_.store(false, std::memory_order_release);
    }
    coord_->db_->wal()->RemoveRetentionPin(pin_);
  }

  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

  Status RegisterHook() {
    const Status st = coord_->db_->SetTransformHook(coord_);
    if (!st.ok()) {
      return Status::Aborted("hook registration failed: " + st.ToString());
    }
    coord_->hook_registered_.store(true, std::memory_order_release);
    return Status::OK();
  }

 private:
  TransformCoordinator* coord_;
  uint64_t pin_ = 0;
  const int exceptions_ = std::uncaught_exceptions();
};

Result<TransformStats> TransformCoordinator::Run() {
  TransformStats stats;
  run_start_ = phase_start_ = Clock::Now();
  MORPH_COUNTER_INC("transform.runs_started");
  Status st;
  {
    RunGuard guard(this);
    st = Prepare(&stats);
    if (st.ok()) st = guard.RegisterHook();
    if (st.ok()) {
      st = stagger_ != nullptr ? PopulateTablets(&stats) : Populate(&stats);
    }
    if (st.ok()) st = PropagateUntilReady(&stats);
    if (st.ok()) st = Synchronize(&stats);
    // A maintained view completes after its final latched pass: nothing was
    // switched, so there is nothing to drain and nothing to drop.
    if (st.ok() && !config_.continuous) st = DrainAndFinalize(&stats);
  }
  return Finish(std::move(stats), st);
}

void TransformCoordinator::EnterPhase(Phase next) {
  const auto now = Clock::Now();
  // a = the phase entered, b = microseconds spent in the phase left.
  MORPH_TRACE("transform.phase", static_cast<int64_t>(next),
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - phase_start_)
                  .count());
  phase_start_ = now;
  phase_.store(next, std::memory_order_release);
}

TransformStats TransformCoordinator::Finish(TransformStats stats,
                                            const Status& status) {
  OpenGate();
  tlocks_.Clear();
  stats.completed = status.ok();
  if (!status.ok()) {
    stats.abort_reason = status.message();
    // Before the point of no return the targets are scratch and an abort is
    // just dropping them (§6). After it — the switch, or a staggered run's
    // first migrated tablet — clients already use them: report the failure
    // and leave the live targets in place.
    const bool live =
        switched_.load(std::memory_order_acquire) ||
        (stagger_ != nullptr && stagger_->AnyMigrated());
    if (!live) rules_->DropTargets();
  }
  stats.final_priority = priority_.priority();
  // Snapshots of the propagator's atomic instruments.
  stats.ops_propagated = propagator_->ops_applied();
  if (stats.propagate_micros > 0) {
    stats.propagate_records_per_sec =
        static_cast<double>(stats.log_records_processed) /
        (static_cast<double>(stats.propagate_micros) * 1e-6);
  }
  stats.achieved_duty = priority_.totals().achieved();
  stats.total_micros = Clock::MicrosSince(run_start_);
  EnterPhase(status.ok() ? Phase::kCompleted : Phase::kAborted);
  if (status.ok()) {
    MORPH_COUNTER_INC("transform.runs_completed");
  } else {
    MORPH_COUNTER_INC("transform.runs_aborted");
  }
  return stats;
}

// --- the phases ----------------------------------------------------------------

Status TransformCoordinator::Prepare(TransformStats* stats) {
  // Step 1: preparation (§3.1).
  MORPH_FAILPOINT("transform.prepare.before");
  EnterPhase(Phase::kPreparing);
  {
    ScopedTimer timer(&stats->prepare_micros);
    const Status st = rules_->Prepare();
    if (!st.ok()) return Status::Aborted("prepare failed: " + st.ToString());
  }
  for (const auto& t : rules_->Sources()) source_ids_.push_back(t->id());
  for (const auto& t : rules_->Targets()) target_ids_.push_back(t->id());
  source_set_ = TableIdSet(source_ids_);
  target_set_ = TableIdSet(target_ids_);
  propagator_->SetSources(source_ids_);
  rules_->set_throttle(&priority_);
  // Targets exist in the catalog from here on; a crash leaves them half-built
  // but unlogged, so restart recovery makes them vanish with the incarnation.
  MORPH_FAILPOINT("transform.prepare.after");

  if (config_.strategy == SyncStrategy::kNonBlockingCommit) {
    for (TableId id : source_ids_) {
      if (rules_->KeepSource(id)) {
        return Status::Aborted(
            "non-blocking commit is not supported with source-reusing "
            "transformations (old and new transactions would need "
            "distinguishable lock origins on the same table)");
      }
    }
  }
  return Status::OK();
}

Status TransformCoordinator::Populate(TransformStats* stats) {
  // Step 2: initial population (§3.2).
  const Lsn start_lsn = BeginFuzzyMark();
  // The propagation start is fixed now; the retention pin no longer needs
  // to hold anything older.
  retention_floor_.store(start_lsn, std::memory_order_release);
  MORPH_FAILPOINT("transform.fuzzy.begin");
  EnterPhase(Phase::kPopulating);
  MORPH_RETURN_NOT_OK(PopulateScope(PopulateConfig{}, stats));
  MORPH_FAILPOINT("transform.fuzzy.end");
  EndFuzzyMark(stats->populate_micros);
  next_lsn_ = start_lsn;
  return Status::OK();
}

Status TransformCoordinator::PopulateTablets(TransformStats* stats) {
  // Staggered sub-population, one tablet at a time: begin-fuzzy mark,
  // shard-scoped populate, local catch-up to the global cursor, activate,
  // then a bounded global slice so later catch-up windows stay small.
  const size_t T = stagger_->num_tablets();
  stats->tablets = T;
  stats->tablet_latch_nanos.assign(T, 0);
  propagator_->SetRecordFilter(stagger_->GlobalFilter());
  for (size_t k = 0; k < T; ++k) {
    MORPH_FAILPOINT("transform.tablet.boundary");
    MORPH_RETURN_NOT_OK(CheckRunnable());
    MORPH_FAILPOINT("transform.fuzzy.begin");
    const Lsn start_k = BeginFuzzyMark();
    if (k == 0) {
      // The run's WAL retention requirement: later tablets' floors can only
      // be higher (min-active and the log tail both advance), so the first
      // floor covers every local catch-up window (see propagated_lsn()).
      stagger_start_floor_.store(start_k, std::memory_order_release);
      retention_floor_.store(start_k, std::memory_order_release);
      EnterPhase(Phase::kPopulating);
    }
    PopulateConfig scope;
    scope.shard_begin = stagger_->ShardBegin(k);
    scope.shard_end = stagger_->ShardEnd(k);
    scope.accumulate = true;
    MORPH_RETURN_NOT_OK(PopulateScope(scope, stats));
    EndFuzzyMark(stats->populate_micros);
    MORPH_FAILPOINT("transform.fuzzy.end");

    const Lsn g = next_lsn_.load(std::memory_order_acquire);
    if (k == 0) {
      // The global cursor starts at the first tablet's floor — there is
      // nothing behind it to catch up on.
      next_lsn_ = start_k;
    } else if (g > start_k) {
      // Local catch-up: the global stream already passed over [start_k, G)
      // with this tablet pending (its records were skipped); re-read the
      // window applying only tablet k, on a local cursor so the shared one
      // does not move. Completion records are processed — releasing a
      // transaction the global stream already released is a no-op, and one
      // whose ops this pass just mirrored must be released if its
      // completion falls inside the window.
      propagator_->SetRecordFilter(stagger_->LocalFilter(k));
      std::atomic<Lsn> cursor{start_k};
      auto n = propagator_->PropagateRange(start_k, g - 1, /*throttled=*/true,
                                           &cursor, std::function<bool()>());
      propagator_->SetRecordFilter(stagger_->GlobalFilter());
      if (!n.ok()) {
        return Status::Aborted("tablet catch-up failed: " +
                               n.status().ToString());
      }
      stats->log_records_processed += *n;
    }
    stagger_->Activate(k, start_k);
    // Bounded global slice between tablets: keep the shared cursor near the
    // log tail so the next tablet's catch-up window stays small.
    const Status st =
        CatchUp(/*throttled=*/true, stats, config_.batch_size * 16);
    if (!st.ok()) {
      return Status::Aborted("propagation failed: " + st.ToString());
    }
  }
  return Status::OK();
}

Status TransformCoordinator::PropagateUntilReady(TransformStats* stats) {
  // Step 3: log propagation iterations (§3.3). A staggered run takes the
  // same loop; the constructor already clamped away the two features it
  // cannot have (continuous mode, the consistency checker).
  EnterPhase(Phase::kPropagating);
  ScopedTimer timer(&stats->propagate_micros);
  size_t lag_count = 0;
  size_t last_backlog = std::numeric_limits<size_t>::max();
  while (true) {
    MORPH_FAILPOINT("transform.propagate.iteration");
    MORPH_RETURN_NOT_OK(CheckRunnable());
    if (paused_.load(std::memory_order_acquire)) {
      // Suspended by the DBA: no work, no lag analysis, stay responsive
      // to abort requests.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      lag_count = 0;
      last_backlog = std::numeric_limits<size_t>::max();
      continue;
    }
    // Cap the slice so the end-of-iteration analysis below runs regularly
    // even when a fast writer keeps extending the log. At a low duty cycle
    // the same record count takes proportionally longer wall-time, so the
    // cap scales with the priority — otherwise a 0.1%-duty iteration could
    // run for many seconds and the lag detector would react far too late.
    size_t iteration_cap = config_.max_records_per_iteration
                               ? config_.max_records_per_iteration
                               : config_.batch_size * 16;
    iteration_cap = std::max(
        config_.batch_size,
        static_cast<size_t>(static_cast<double>(iteration_cap) *
                            priority_.priority()));
    if (Status st = CatchUp(/*throttled=*/true, stats, iteration_cap);
        !st.ok()) {
      return Status::Aborted("propagation failed: " + st.ToString());
    }
    stats->iterations++;
    MORPH_COUNTER_INC("transform.propagate.iterations");

    if (config_.run_consistency_checker) {
      auto cc = rules_->RunConsistencyCheck(config_.cc_batch);
      if (!cc.ok()) {
        return Status::Aborted("consistency check failed: " +
                               cc.status().ToString());
      }
    }

    const Lsn tail = db_->wal()->LastLsn();
    const Lsn next = next_lsn_.load(std::memory_order_acquire);
    const size_t backlog = tail >= next ? tail - next + 1 : 0;
    MORPH_GAUGE_SET("transform.backlog", static_cast<int64_t>(backlog));
    MORPH_GAUGE_SET("transform.priority.requested_ppm",
                    static_cast<int64_t>(priority_.priority() * 1e6));
    MORPH_GAUGE_SET(
        "transform.priority.achieved_ppm",
        static_cast<int64_t>(priority_.totals().achieved() * 1e6));
    if (config_.continuous) {
      // Materialized-view mode: maintain forever; only RequestFinish (or
      // abort/lag) leaves the loop.
      if (finish_requested_.load(std::memory_order_acquire)) {
        return Status::OK();
      }
    } else if (backlog <= config_.sync_threshold && rules_->ReadyForSync() &&
               !sync_hold_.load(std::memory_order_acquire)) {
      return Status::OK();
    }

    // §3.3: if more log is produced than the propagator processes,
    // synchronization never starts — abort or raise the priority.
    if (backlog > config_.sync_threshold && backlog >= last_backlog) {
      lag_count++;
    } else {
      lag_count = 0;
    }
    last_backlog = backlog;
    if (lag_count >= config_.lag_iterations) {
      if (config_.on_lag != OnLag::kBoostPriority ||
          priority_.priority() >= 1.0) {
        return Status::Aborted("propagator cannot keep up with log generation");
      }
      priority_.set_priority(priority_.priority() * 2.0);
      lag_count = 0;
    }
    if (!config_.continuous && stats->iterations >= config_.max_iterations) {
      return Status::Aborted("max propagation iterations reached");
    }
    if (backlog == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

Status TransformCoordinator::Synchronize(TransformStats* stats) {
  // Step 4: synchronization (§3.4).
  EnterPhase(Phase::kSynchronizing);
  ScopedTimer timer(&stats->sync_micros);
  if (config_.continuous) {
    // One final latched catch-up pass delivers an action-consistent view;
    // then everything stays in place.
    const Status st = LatchedPass(kAllTablets, stats);
    if (!st.ok()) {
      return Status::Aborted("final catch-up failed: " + st.ToString());
    }
    return st;
  }
  if (stagger_ != nullptr) return SynchronizeTablets(stats);
  const Status st = SynchronizeAndSwitch(stats);
  if (!st.ok()) {
    return Status::Aborted("synchronization failed: " + st.ToString());
  }
  return st;
}

Status TransformCoordinator::SynchronizeAndSwitch(TransformStats* stats) {
  // Blocking commit only: gate new transactions off the involved tables and
  // wait for transactions holding source-table locks to finish.
  if (config_.strategy == SyncStrategy::kBlockingCommit) {
    {
      std::unique_lock lock(gate_mu_);
      gate_on_ = true;
      gate_epoch_ = db_->AdvanceEpoch();
    }
    const auto wait_start = Clock::Now();
    while (true) {
      MORPH_FAILPOINT("transform.sync.gate_wait");
      // Keep propagating while waiting so the final pass stays short.
      MORPH_RETURN_NOT_OK(CatchUp(/*throttled=*/false, stats));
      if (CountSourceLockHolders(gate_epoch_, kAllTablets) == 0) break;
      if (Clock::MicrosSince(wait_start) > config_.max_duration_micros) {
        return Status::Aborted("old transactions did not release source locks");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // The common core: latch the source tables exclusively, do one final
  // propagation pass to the log end, and switch. The latch hold time is the
  // user-visible pause the paper reports as < 1 ms.
  MORPH_FAILPOINT("transform.sync.before_latch");
  MORPH_RETURN_NOT_OK(LatchedPass(kAllTablets, stats));
  OpenGate();
  // After the epoch flip and (for blocking commit) the gate release: the
  // switch is visible to clients but the drain has not started.
  MORPH_FAILPOINT("transform.sync.after_switch");
  return Status::OK();
}

Status TransformCoordinator::SynchronizeTablets(TransformStats* stats) {
  // Per-tablet synchronization: converge, then latch only tablet k of every
  // source for one short pass to the log end, advance the epoch, migrate.
  // Writers on the other T-1 tablets never see a latch; the per-key pause
  // is one tablet's window instead of the whole catch-up.
  MORPH_FAILPOINT("transform.sync.before_latch");
  // Converge to the log tail before each latch — all the way, not merely to
  // the sync threshold. Every record applied here (completions on, no latch
  // held) is one no latched pass will have to scan, so each tablet's
  // user-visible pause is O(records landed since the previous tablet), not
  // O(standing backlog). This is the structural win over the whole-table
  // path, which has no choice but to take its one latch with the backlog
  // still standing. Pass count bounded so a firehose writer cannot livelock
  // the switch: past the bound, the latches absorb whatever tail remains —
  // correct, just longer pauses.
  auto converge_unlatched = [&](size_t max_passes, size_t floor) -> Status {
    for (size_t pass = 0; pass < max_passes; ++pass) {
      const Lsn from = next_lsn_.load(std::memory_order_acquire);
      const Lsn tail = db_->wal()->LastLsn();
      if (tail < from || tail - from + 1 <= floor) break;
      if (Status st = CatchUp(/*throttled=*/false, stats); !st.ok()) {
        return Status::Aborted("pre-sync convergence failed: " + st.ToString());
      }
      if (Clock::MicrosSince(run_start_) > config_.max_duration_micros) {
        return Status::Aborted("transformation exceeded max duration");
      }
    }
    return Status::OK();
  };
  MORPH_RETURN_NOT_OK(converge_unlatched(64, config_.batch_size));
  for (size_t k = 0; k < stagger_->num_tablets(); ++k) {
    MORPH_FAILPOINT("transform.tablet.boundary");
    if (abort_requested_.load(std::memory_order_acquire) &&
        !stagger_->AnyMigrated()) {
      return Status::Aborted("abort requested");
    }
    // Light re-converge: only the records landed since the previous
    // tablet's latch are behind the cursor. The tighter floor shrinks the
    // window the latched pass has to replay — and with it the chance of
    // that pass conflicting with a live writer while holding the latch.
    MORPH_RETURN_NOT_OK(converge_unlatched(8, config_.batch_size / 8));
    if (Status st = LatchedPass(k, stats); !st.ok()) {
      return Status::Aborted("tablet sync pass failed: " + st.ToString());
    }
  }
  // The global filter stays installed for the drain: migrated tablets keep
  // applying records newer than their sync pass (pre-switch writers).
  MORPH_FAILPOINT("transform.sync.after_switch");
  return Status::OK();
}

Status TransformCoordinator::DrainAndFinalize(TransformStats* stats) {
  // Post-switch drain: finish propagating old transactions' records so
  // their mirrored locks get released, then drop the sources.
  EnterPhase(Phase::kDraining);
  {
    ScopedTimer timer(&stats->drain_micros);
    const Status st = Drain(stats);
    if (!st.ok()) return Status::Aborted("drain failed: " + st.ToString());
  }
  MORPH_FAILPOINT("transform.finalize.before_drop");
  if (Status st = rules_->FinalizeTargets(); !st.ok()) {
    stats->abort_reason = "warning: finalization failed: " + st.ToString();
  }
  if (config_.drop_sources) {
    for (const auto& src : rules_->Sources()) {
      if (rules_->KeepSource(src->id())) continue;
      const Status st = db_->DropTable(src->name());
      if (!st.ok() && !st.IsNotFound()) {
        // Non-fatal: the transformation itself is complete.
        stats->abort_reason =
            "warning: dropping source failed: " + st.ToString();
      }
    }
  }
  return Status::OK();
}

Status TransformCoordinator::Drain(TransformStats* stats) {
  const auto drain_start = Clock::Now();
  const txn::TxnEpoch sw = switch_epoch_.load(std::memory_order_acquire);
  while (true) {
    MORPH_FAILPOINT("transform.drain.iteration");
    const Lsn from = next_lsn_.load(std::memory_order_acquire);
    MORPH_RETURN_NOT_OK(CatchUp(/*throttled=*/true, stats));
    if (next_lsn_.load(std::memory_order_acquire) != from) continue;
    if (db_->txns()->ActiveBefore(sw).empty() &&
        db_->wal()->LastLsn() < next_lsn_.load(std::memory_order_acquire)) {
      return Status::OK();
    }
    if (Clock::MicrosSince(drain_start) > config_.max_duration_micros) {
      return Status::Aborted(
          "pre-switch transactions did not finish during drain");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// --- shared steps --------------------------------------------------------------

Status TransformCoordinator::CheckRunnable() const {
  if (abort_requested_.load(std::memory_order_acquire)) {
    return Status::Aborted("abort requested");
  }
  // The duration backstop guards a transformation that should be
  // converging; a continuous (materialized-view) run is *meant* to live
  // indefinitely, so only RequestAbort/RequestFinish end it.
  if (!config_.continuous &&
      Clock::MicrosSince(run_start_) > config_.max_duration_micros) {
    return Status::Aborted("transformation exceeded max duration");
  }
  return Status::OK();
}

namespace {

Lsn AppendFuzzyMark(wal::Wal* wal, const txn::ActiveSnapshot& snap) {
  wal::LogRecord mark;
  mark.type = wal::LogRecordType::kFuzzyMark;
  mark.active_txns = snap.txns;
  mark.min_active_lsn = snap.min_first_lsn;
  return wal->Append(std::move(mark));
}

}  // namespace

Lsn TransformCoordinator::BeginFuzzyMark() {
  // The mark carries the active-transaction table; propagation starts at the
  // oldest log record any of those transactions wrote. `guard` is read
  // before the snapshot so a transaction beginning concurrently (and thus
  // missing from the snapshot) still has all its records at LSN > guard
  // covered.
  const Lsn guard = db_->wal()->LastLsn();
  const txn::ActiveSnapshot snap = db_->txns()->Snapshot();
  const Lsn mark_lsn = AppendFuzzyMark(db_->wal(), snap);
  // a = mark LSN, b = active transactions captured in it.
  MORPH_TRACE("transform.fuzzy.begin_mark", static_cast<int64_t>(mark_lsn),
              static_cast<int64_t>(snap.txns.size()));
  if (snap.min_first_lsn != kInvalidLsn && snap.min_first_lsn <= guard) {
    return snap.min_first_lsn;
  }
  return guard + 1;
}

void TransformCoordinator::EndFuzzyMark(int64_t populate_micros) {
  // End-of-fuzzy-read mark, beginning the first propagation cycle (§3.3).
  const Lsn mark_lsn = AppendFuzzyMark(db_->wal(), db_->txns()->Snapshot());
  MORPH_TRACE("transform.fuzzy.end_mark", static_cast<int64_t>(mark_lsn),
              populate_micros);
}

Status TransformCoordinator::PopulateScope(PopulateConfig scope,
                                           TransformStats* stats) {
  scope.workers = config_.populate_workers;
  rules_->set_populate_config(scope);
  const auto t0 = Clock::Now();
  const Status st = rules_->InitialPopulate();
  stats->populate_micros += Clock::MicrosSince(t0);
  if (!st.ok()) {
    return Status::Aborted("initial population failed: " + st.ToString());
  }
  return Status::OK();
}

Status TransformCoordinator::CatchUp(bool throttled, TransformStats* stats,
                                     size_t cap) {
  const Lsn from = next_lsn_.load(std::memory_order_acquire);
  Lsn to = db_->wal()->LastLsn();
  if (to < from) return Status::OK();
  if (to - from + 1 > cap) to = from + cap - 1;
  std::function<bool()> cancel;
  if (throttled) {
    cancel = [this] {
      // The phase loop handles the abort; a post-switch drain must keep
      // going regardless.
      return abort_requested_.load(std::memory_order_acquire) &&
             !switched_.load(std::memory_order_acquire);
    };
  }
  auto n = propagator_->PropagateRange(from, to, throttled, &next_lsn_, cancel);
  if (!n.ok()) return n.status();
  stats->log_records_processed += *n;
  return Status::OK();
}

Status TransformCoordinator::LatchedPass(size_t k, TransformStats* stats) {
  const bool whole = k == kAllTablets;
  std::vector<std::shared_ptr<storage::Table>> sources = rules_->Sources();
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  const auto latch_start = Clock::Now();
  std::vector<std::unique_lock<std::shared_mutex>> latches;
  for (const auto& src : sources) {
    const size_t end = whole ? src->num_tablets() : stagger_->TableTabletEnd(k);
    for (size_t t = whole ? 0 : stagger_->TableTabletBegin(k); t < end; ++t) {
      latches.emplace_back(src->tablet_latch(t));
    }
  }
  // a = tables latched, b = tablet index (acquire) / latched nanos (release).
  MORPH_TRACE("transform.sync.latch_acquire",
              static_cast<int64_t>(sources.size()),
              whole ? 0 : static_cast<int64_t>(k));
  // A *global* pass, completions on, also for one tablet: every tablet is
  // activated by now, so the stream has nothing to skip, and processing
  // completions in order is what keeps the pass from waiting out a lock
  // timeout under the latch on the stale mirror of an earlier-committed
  // transaction.
  MORPH_RETURN_NOT_OK(CatchUp(/*throttled=*/false, stats));
  txn::TxnEpoch sw = 0;
  if (!config_.continuous) {
    // Latches are RAII: a crash thrown here releases them on unwind, which
    // is exactly the guarantee a real process kill gives (latches are not
    // durable state).
    MORPH_FAILPOINT(whole ? "transform.sync.latched" : "transform.tablet.sync");
    sw = db_->AdvanceEpoch();
    // Non-blocking abort dooms the old transactions holding source locks
    // (on this tablet's keys, for a staggered pass).
    if (config_.strategy == SyncStrategy::kNonBlockingAbort) {
      const size_t doomed = CountSourceLockHolders(sw, k);
      stats->txns_doomed += doomed;
      MORPH_COUNTER_ADD("transform.txns_doomed", doomed);
    }
  }
  const int64_t nanos = Clock::NanosSince(latch_start);
  if (!whole) {
    stagger_->MarkMigrated(k, next_lsn_.load(std::memory_order_acquire) - 1,
                           sw, nanos);
    stats->tablet_latch_nanos[k] = nanos;
  }
  // The whole table, or a staggered run's last tablet, completes the switch;
  // from here the post-switch machinery (hook, drain) takes over.
  if (!config_.continuous && (whole || stagger_->AllMigrated())) {
    switch_epoch_.store(sw, std::memory_order_release);
    switched_.store(true, std::memory_order_release);
  }
  stats->sync_latch_nanos = std::max(stats->sync_latch_nanos, nanos);
  stats->sync_latch_micros = stats->sync_latch_nanos / 1000;
  MORPH_HISTOGRAM_NANOS("transform.sync.latch_nanos", nanos);
  MORPH_TRACE("transform.sync.latch_release",
              static_cast<int64_t>(sources.size()), nanos);
  return Status::OK();
}

size_t TransformCoordinator::CountSourceLockHolders(txn::TxnEpoch before,
                                                    size_t tablet) const {
  size_t holders = 0;
  for (const auto& t : db_->txns()->ActiveBefore(before)) {
    for (const txn::RecordId& rid : db_->locks()->LocksOf(t->id())) {
      if (IsSourceTable(rid.table) &&
          (tablet == kAllTablets || stagger_->TabletOf(rid.key) == tablet)) {
        holders++;
        break;
      }
    }
  }
  return holders;
}

void TransformCoordinator::OpenGate() {
  {
    std::unique_lock lock(gate_mu_);
    gate_on_ = false;
  }
  gate_cv_.notify_all();
}

// --- TransformHook -------------------------------------------------------------

Status TransformCoordinator::OnOp(TxnId txn, txn::TxnEpoch epoch, TableId table,
                                  txn::Access access, const Row& pk,
                                  bool may_block) {
  const bool is_source = IsSourceTable(table);
  const bool is_target = IsTargetTable(table);
  if (!is_source && !is_target) return Status::OK();

  // Blocking-commit gate: park new transactions off the involved tables.
  // Fast path: one atomic load when the gate is off (the common case — this
  // runs twice per client operation for the whole transformation).
  if (gate_on_.load(std::memory_order_acquire)) {
    std::unique_lock lock(gate_mu_);
    if (gate_on_.load(std::memory_order_relaxed) && epoch >= gate_epoch_) {
      if (!may_block) {
        return Status::Busy("schema transformation switch-over in progress");
      }
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(config_.max_duration_micros);
      while (gate_on_.load(std::memory_order_relaxed) && epoch >= gate_epoch_) {
        if (gate_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
          return Status::Busy("timed out waiting for switch-over");
        }
      }
    }
  }

  if (!switched_.load(std::memory_order_acquire)) {
    // Staggered partial-migration window: tablets that already migrated
    // behave post-switch (per-tablet epoch), the rest behave pre-switch.
    if (stagger_ != nullptr && stagger_->AnyMigrated()) {
      if (is_source) {
        const size_t k = stagger_->TabletOf(pk);
        if (stagger_->state(k) == TabletState::kMigrated) {
          if (epoch >= stagger_->switch_epoch(k)) {
            return Status::Aborted(
                "table was transformed; access the transformed tables "
                "instead");
          }
          return Status::Aborted(
              "transaction doomed by schema transformation switch-over");
        }
        // Unmigrated tablet: pre-switch behavior (locks mirrored by the
        // propagator).
        return Status::OK();
      }
      // Target-table access is admitted per tablet, but only where the
      // target's keys partition the same way as the source's (otherwise a
      // record on this table may still be mid-migration even though the
      // key's source tablet migrated).
      if (rules_->TargetTabletAligned(table) && stagger_->IsMigratedKey(pk)) {
        return tlocks_.AcquireTarget(txn, txn::RecordId{table, pk}, access,
                                     may_block);
      }
      return Status::InvalidArgument(
          "table is still being built by a schema transformation");
    }
    if (is_target) {
      if (config_.continuous && access == txn::Access::kRead) {
        // A maintained materialized view is readable while it converges.
        return Status::OK();
      }
      return Status::InvalidArgument(
          "table is still being built by a schema transformation");
    }
    // Pre-switch source access flows freely; write locks are mirrored onto
    // the transformed tables by the log propagator.
    return Status::OK();
  }

  const txn::TxnEpoch sw = switch_epoch_.load(std::memory_order_acquire);
  if (is_source) {
    if (epoch >= sw) {
      if (rules_->KeepSource(table)) {
        // §5.2 alternative strategy: the source table is about to be
        // renamed into the transformed R — new transactions access it under
        // target-origin locks (Figure 2) like any transformed table.
        return tlocks_.AcquireTarget(txn, txn::RecordId{table, pk}, access,
                                     may_block);
      }
      return Status::Aborted(
          "table was transformed; access the transformed tables instead");
    }
    switch (config_.strategy) {
      case SyncStrategy::kBlockingCommit:
      case SyncStrategy::kNonBlockingAbort:
        // §3.4: transactions that were active on the source tables are
        // forced to abort.
        return Status::Aborted(
            "transaction doomed by schema transformation switch-over");
      case SyncStrategy::kNonBlockingCommit: {
        // §4.3: the operation must first get the corresponding locks on the
        // transformed-table records; "if a transaction cannot get a lock on
        // all implicated records in all tables, it is not allowed to go
        // forward with the operation."
        const std::vector<txn::RecordId> rids =
            rules_->AffectedTargets(table, pk);
        for (const txn::RecordId& rid : rids) {
          if (tlocks_.WouldBlockSource(rid, access, txn)) {
            return Status::Busy(
                "conflicting lock held on the transformed table");
          }
        }
        const txn::LockOrigin origin = OriginOf(table);
        for (const txn::RecordId& rid : rids) {
          tlocks_.AddTransferred(txn, rid, origin, access);
        }
        return Status::OK();
      }
    }
    return Status::Internal("unreachable");
  }

  // Post-switch access to a transformed table: acquire a target-origin lock
  // under the Figure 2 matrix; it waits for transferred source locks to be
  // released by the propagator.
  return tlocks_.AcquireTarget(txn, txn::RecordId{table, pk}, access, may_block);
}

Status TransformCoordinator::OnCommit(TxnId txn, txn::TxnEpoch epoch) {
  if (!switched_.load(std::memory_order_acquire)) {
    // Staggered: a transaction older than tablet k's switch that still holds
    // source locks on k is doomed even though the table-wide switch is
    // pending (its writes there can no longer be propagated consistently).
    if (stagger_ != nullptr && stagger_->AnyMigrated()) {
      for (const txn::RecordId& rid : db_->locks()->LocksOf(txn)) {
        if (!IsSourceTable(rid.table)) continue;
        const size_t k = stagger_->TabletOf(rid.key);
        if (stagger_->state(k) == TabletState::kMigrated &&
            epoch < stagger_->switch_epoch(k)) {
          return Status::Aborted(
              "transaction doomed by schema transformation switch-over");
        }
      }
    }
    return Status::OK();
  }
  if (epoch >= switch_epoch_.load(std::memory_order_acquire)) return Status::OK();
  if (config_.strategy == SyncStrategy::kNonBlockingCommit) return Status::OK();
  // Blocking commit / non-blocking abort: an old transaction still holding
  // source-table locks at commit time must abort instead.
  for (const txn::RecordId& rid : db_->locks()->LocksOf(txn)) {
    if (IsSourceTable(rid.table)) {
      return Status::Aborted(
          "transaction doomed by schema transformation switch-over");
    }
  }
  return Status::OK();
}

void TransformCoordinator::OnTxnFinished(TxnId txn, txn::TxnEpoch epoch) {
  if (switched_.load(std::memory_order_acquire)) {
    if (epoch >= switch_epoch_.load(std::memory_order_acquire)) {
      // Post-switch transactions release their target locks directly; old
      // transactions' transferred locks are released by the propagator when
      // it processes their completion record (§3.4).
      tlocks_.ReleaseTxn(txn);
    } else if (stagger_ != nullptr) {
      // Staggered run: a pre-switch transaction may nonetheless hold target
      // locks taken on tablets that migrated before it finished. Release
      // only those — its mirrored source locks must stay until the
      // propagator has applied its remaining ops (completion record, §3.4).
      tlocks_.ReleaseTxnTargetLocks(txn);
    }
    return;
  }
  if (stagger_ != nullptr && stagger_->AnyMigrated()) {
    tlocks_.ReleaseTxnTargetLocks(txn);
  }
}

}  // namespace morph::transform
