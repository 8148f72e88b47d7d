#include "transform/coordinator.h"

#include <algorithm>
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

// --- propagation -------------------------------------------------------------

Result<size_t> TransformCoordinator::PropagateRange(Lsn from, Lsn to,
                                                    bool throttled) {
  // Record handling lives in LogPropagator (transform/propagator.h).
  std::function<bool()> cancel;
  if (throttled) {
    cancel = [this] {
      // The Run loop will handle the abort; a post-switch drain must keep
      // going regardless.
      return abort_requested_.load(std::memory_order_acquire) &&
             !switched_.load(std::memory_order_acquire);
    };
  }
  return propagator_->PropagateRange(from, to, throttled, &next_lsn_, cancel);
}

void TransformCoordinator::FillPropagationStats(TransformStats* stats) const {
  // Pure snapshot of the propagator's atomic instruments — safe on every
  // Run() exit path including abort.
  stats->ops_propagated = propagator_->ops_applied();
  if (stats->propagate_micros > 0) {
    stats->propagate_records_per_sec =
        static_cast<double>(stats->log_records_processed) /
        (static_cast<double>(stats->propagate_micros) * 1e-6);
  }
  stats->achieved_duty = priority_.totals().achieved();
}

// --- the four steps ------------------------------------------------------------

Result<TransformStats> TransformCoordinator::Run() {
  TransformStats stats;
  const auto run_start = Clock::Now();
  MORPH_COUNTER_INC("transform.runs_started");

  // Pin the WAL before anything else: log-archiving housekeeping (a
  // checkpointer's TruncateBefore, a bench janitor) runs concurrently and
  // knows nothing about this transformation. Until the fuzzy mark fixes the
  // propagation start the pin conservatively holds the whole retained log;
  // it then tracks start_lsn and finally the live propagation watermark.
  // Without the pin, a checkpoint whose truncate_floor lies past
  // un-propagated records would discard them before the propagator reads
  // them — the propagator's checked scans would fail the transformation
  // loudly, but the pin is what prevents the loss in the first place. In
  // durable mode the same pin gates segment recycling: TruncateBefore
  // clamps at this floor before persisting a new chain base, so no segment
  // holding un-propagated records is ever recycled.
  retention_floor_.store(db_->wal()->FirstLsn(), std::memory_order_release);
  const uint64_t pin_id = db_->wal()->AddRetentionPin([this]() -> Lsn {
    const Lsn watermark = propagated_lsn();
    if (watermark != kInvalidLsn) return watermark;
    return retention_floor_.load(std::memory_order_acquire);
  });
  struct PinGuard {
    wal::Wal* wal;
    uint64_t id;
    ~PinGuard() { wal->RemoveRetentionPin(id); }
  } pin_guard{db_->wal(), pin_id};

  // Step 1: preparation (§3.1).
  MORPH_FAILPOINT("transform.prepare.before");
  phase_.store(Phase::kPreparing, std::memory_order_release);
  {
    const auto t0 = Clock::Now();
    const Status st = rules_->Prepare();
    stats.prepare_micros = Clock::MicrosSince(t0);
    if (!st.ok()) {
      AbortTransformation("prepare failed: " + st.ToString(), &stats);
      return stats;
    }
  }
  for (const auto& t : rules_->Sources()) source_ids_.push_back(t->id());
  for (const auto& t : rules_->Targets()) target_ids_.push_back(t->id());
  source_set_ = TableIdSet(source_ids_);
  target_set_ = TableIdSet(target_ids_);
  propagator_->SetSources(source_ids_);
  // Targets exist in the catalog from here on; a crash leaves them half-built
  // but unlogged, so restart recovery makes them vanish with the incarnation.
  MORPH_FAILPOINT("transform.prepare.after");

  if (config_.strategy == SyncStrategy::kNonBlockingCommit) {
    for (TableId id : source_ids_) {
      if (rules_->KeepSource(id)) {
        AbortTransformation(
            "non-blocking commit is not supported with source-reusing "
            "transformations (old and new transactions would need "
            "distinguishable lock origins on the same table)",
            &stats);
        return stats;
      }
    }
  }

  {
    const Status st = db_->SetTransformHook(this);
    if (!st.ok()) {
      AbortTransformation("hook registration failed: " + st.ToString(), &stats);
      return stats;
    }
    hook_registered_.store(true, std::memory_order_release);
  }

  // Staggered path: steps 2–4 run as a sequence of per-tablet
  // sub-transforms. The pin guard above stays in scope for the whole run.
  if (stagger_ != nullptr) {
    return RunStaggered(run_start, std::move(stats));
  }

  // Step 2: initial population (§3.2). The fuzzy mark carries the active-
  // transaction table; propagation starts at the oldest log record any of
  // those transactions wrote. `guard` is read before the snapshot so a
  // transaction beginning concurrently (and thus missing from the snapshot)
  // still has all its records at LSN > guard covered.
  const Lsn guard = db_->wal()->LastLsn();
  const txn::ActiveSnapshot snap = db_->txns()->Snapshot();
  {
    wal::LogRecord mark;
    mark.type = wal::LogRecordType::kFuzzyMark;
    mark.active_txns = snap.txns;
    mark.min_active_lsn = snap.min_first_lsn;
    const Lsn mark_lsn = db_->wal()->Append(std::move(mark));
    // a = mark LSN, b = active transactions captured in it.
    MORPH_TRACE("transform.fuzzy.begin_mark", static_cast<int64_t>(mark_lsn),
                static_cast<int64_t>(snap.txns.size()));
  }
  Lsn start_lsn = guard + 1;
  if (snap.min_first_lsn != kInvalidLsn && snap.min_first_lsn < start_lsn) {
    start_lsn = snap.min_first_lsn;
  }
  // The propagation start is fixed now; the retention pin no longer needs
  // to hold anything older.
  retention_floor_.store(start_lsn, std::memory_order_release);

  MORPH_FAILPOINT("transform.fuzzy.begin");
  phase_.store(Phase::kPopulating, std::memory_order_release);
  rules_->set_throttle(&priority_);
  {
    PopulateConfig populate_config;
    populate_config.workers = config_.populate_workers;
    rules_->set_populate_config(populate_config);
  }
  {
    const auto t0 = Clock::Now();
    const Status st = rules_->InitialPopulate();
    stats.populate_micros = Clock::MicrosSince(t0);
    if (!st.ok()) {
      AbortTransformation("initial population failed: " + st.ToString(), &stats);
      return stats;
    }
  }
  MORPH_FAILPOINT("transform.fuzzy.end");
  {
    // End-of-fuzzy-read mark, beginning the first propagation cycle (§3.3).
    wal::LogRecord mark;
    mark.type = wal::LogRecordType::kFuzzyMark;
    const txn::ActiveSnapshot snap2 = db_->txns()->Snapshot();
    mark.active_txns = snap2.txns;
    mark.min_active_lsn = snap2.min_first_lsn;
    const Lsn mark_lsn = db_->wal()->Append(std::move(mark));
    MORPH_TRACE("transform.fuzzy.end_mark", static_cast<int64_t>(mark_lsn),
                static_cast<int64_t>(stats.populate_micros));
  }

  // Step 3: log propagation iterations (§3.3).
  phase_.store(Phase::kPropagating, std::memory_order_release);
  next_lsn_ = start_lsn;
  size_t lag_count = 0;
  size_t last_backlog = std::numeric_limits<size_t>::max();
  {
    const auto t0 = Clock::Now();
    while (true) {
      MORPH_FAILPOINT("transform.propagate.iteration");
      if (abort_requested_.load(std::memory_order_acquire)) {
        stats.propagate_micros = Clock::MicrosSince(t0);
        AbortTransformation("abort requested", &stats);
        return stats;
      }
      // The duration/iteration backstops guard a transformation that should
      // be converging; a continuous (materialized-view) run is *meant* to
      // live indefinitely, so only RequestAbort/RequestFinish end it.
      if (!config_.continuous &&
          Clock::MicrosSince(run_start) > config_.max_duration_micros) {
        stats.propagate_micros = Clock::MicrosSince(t0);
        AbortTransformation("transformation exceeded max duration", &stats);
        return stats;
      }
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
      Lsn end = db_->wal()->LastLsn();
      if (end >= next_lsn_ && end - next_lsn_ + 1 > iteration_cap) {
        end = next_lsn_ + iteration_cap - 1;
      }
      if (end >= next_lsn_) {
        auto n = PropagateRange(next_lsn_, end, /*throttled=*/true);
        if (!n.ok()) {
          stats.propagate_micros = Clock::MicrosSince(t0);
          AbortTransformation("propagation failed: " + n.status().ToString(),
                              &stats);
          return stats;
        }
        stats.log_records_processed += *n;
      }
      stats.iterations++;
      MORPH_COUNTER_INC("transform.propagate.iterations");

      if (config_.run_consistency_checker) {
        auto cc = rules_->RunConsistencyCheck(config_.cc_batch);
        if (!cc.ok()) {
          stats.propagate_micros = Clock::MicrosSince(t0);
          AbortTransformation("consistency check failed: " + cc.status().ToString(),
                              &stats);
          return stats;
        }
      }

      const Lsn tail = db_->wal()->LastLsn();
      const size_t backlog = tail >= next_lsn_ ? tail - next_lsn_ + 1 : 0;
      MORPH_GAUGE_SET("transform.backlog", static_cast<int64_t>(backlog));
      MORPH_GAUGE_SET(
          "transform.priority.requested_ppm",
          static_cast<int64_t>(priority_.priority() * 1e6));
      MORPH_GAUGE_SET(
          "transform.priority.achieved_ppm",
          static_cast<int64_t>(priority_.totals().achieved() * 1e6));
      const bool ready = rules_->ReadyForSync();
      if (config_.continuous) {
        // Materialized-view mode: maintain forever; only RequestFinish (or
        // abort/lag/timeout above) leaves the loop.
        if (finish_requested_.load(std::memory_order_acquire)) break;
      } else if (backlog <= config_.sync_threshold && ready &&
                 !sync_hold_.load(std::memory_order_acquire)) {
        break;
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
        if (config_.on_lag == OnLag::kBoostPriority &&
            priority_.priority() < 1.0) {
          priority_.set_priority(priority_.priority() * 2.0);
          lag_count = 0;
        } else {
          stats.propagate_micros = Clock::MicrosSince(t0);
          AbortTransformation("propagator cannot keep up with log generation",
                              &stats);
          return stats;
        }
      }
      if (!config_.continuous && stats.iterations >= config_.max_iterations) {
        stats.propagate_micros = Clock::MicrosSince(t0);
        AbortTransformation("max propagation iterations reached", &stats);
        return stats;
      }
      if (backlog == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    stats.propagate_micros = Clock::MicrosSince(t0);
  }

  // Continuous (materialized-view) mode: one final latched catch-up pass
  // delivers an action-consistent view, then everything stays in place.
  if (config_.continuous) {
    phase_.store(Phase::kSynchronizing, std::memory_order_release);
    {
      std::vector<std::shared_ptr<storage::Table>> sources = rules_->Sources();
      std::sort(sources.begin(), sources.end(),
                [](const auto& a, const auto& b) { return a->id() < b->id(); });
      const auto latch_start = Clock::Now();
      std::vector<std::unique_lock<std::shared_mutex>> latches;
      for (const auto& src : sources) {
        for (size_t t = 0; t < src->num_tablets(); ++t) {
          latches.emplace_back(src->tablet_latch(t));
        }
      }
      // a = tables latched, b = 0 (acquire) / latched nanos (release).
      MORPH_TRACE("transform.sync.latch_acquire",
                  static_cast<int64_t>(sources.size()), 0);
      const Lsn end = db_->wal()->LastLsn();
      if (end >= next_lsn_) {
        auto n = PropagateRange(next_lsn_, end, /*throttled=*/false);
        if (!n.ok()) {
          AbortTransformation("final catch-up failed: " + n.status().ToString(),
                              &stats);
          return stats;
        }
        stats.log_records_processed += *n;
      }
      stats.sync_latch_nanos = Clock::NanosSince(latch_start);
      stats.sync_latch_micros = stats.sync_latch_nanos / 1000;
      MORPH_HISTOGRAM_NANOS("transform.sync.latch_nanos",
                            stats.sync_latch_nanos);
      MORPH_TRACE("transform.sync.latch_release",
                  static_cast<int64_t>(sources.size()),
                  stats.sync_latch_nanos);
    }
    db_->ClearTransformHook();
    hook_registered_.store(false, std::memory_order_release);
    tlocks_.Clear();
    phase_.store(Phase::kCompleted, std::memory_order_release);
    stats.completed = true;
    stats.final_priority = priority_.priority();
    FillPropagationStats(&stats);
    stats.total_micros = Clock::MicrosSince(run_start);
    MORPH_COUNTER_INC("transform.runs_completed");
    return stats;
  }

  // Step 4: synchronization (§3.4).
  phase_.store(Phase::kSynchronizing, std::memory_order_release);
  {
    const auto t0 = Clock::Now();
    const Status st = SynchronizeAndSwitch(&stats);
    stats.sync_micros = Clock::MicrosSince(t0);
    if (!st.ok()) {
      AbortTransformation("synchronization failed: " + st.ToString(), &stats);
      return stats;
    }
  }

  // Post-switch drain + finalize/drop/complete tail, shared with the
  // staggered path.
  return FinishAndComplete(run_start, std::move(stats));
}

Result<TransformStats> TransformCoordinator::FinishAndComplete(
    const Clock::TimePoint& run_start, TransformStats stats) {
  // Post-switch drain: finish propagating old transactions' records so
  // their mirrored locks get released, then drop the sources.
  {
    const auto t0 = Clock::Now();
    const Status st = Drain(&stats);
    stats.drain_micros = Clock::MicrosSince(t0);
    if (!st.ok()) {
      // Too late to roll back the switch: report the failure but leave the
      // (live) transformed tables in place.
      db_->ClearTransformHook();
      hook_registered_.store(false, std::memory_order_release);
      tlocks_.Clear();
      phase_.store(Phase::kAborted, std::memory_order_release);
      stats.abort_reason = "drain failed: " + st.ToString();
      FillPropagationStats(&stats);
      stats.total_micros = Clock::MicrosSince(run_start);
      MORPH_COUNTER_INC("transform.runs_aborted");
      return stats;
    }
  }

  MORPH_FAILPOINT("transform.finalize.before_drop");
  {
    const Status st = rules_->FinalizeTargets();
    if (!st.ok()) {
      stats.abort_reason = "warning: finalization failed: " + st.ToString();
    }
  }
  if (config_.drop_sources) {
    for (const auto& src : rules_->Sources()) {
      if (rules_->KeepSource(src->id())) continue;
      const Status st = db_->DropTable(src->name());
      if (!st.ok() && !st.IsNotFound()) {
        // Non-fatal: the transformation itself is complete.
        stats.abort_reason = "warning: dropping source failed: " + st.ToString();
      }
    }
  }

  db_->ClearTransformHook();
  hook_registered_.store(false, std::memory_order_release);
  tlocks_.Clear();
  phase_.store(Phase::kCompleted, std::memory_order_release);
  stats.completed = true;
  stats.final_priority = priority_.priority();
  FillPropagationStats(&stats);
  stats.total_micros = Clock::MicrosSince(run_start);
  MORPH_COUNTER_INC("transform.runs_completed");
  return stats;
}

// --- staggered tablets ---------------------------------------------------------

Result<size_t> TransformCoordinator::PropagateTabletPass(
    size_t k, Lsn from, Lsn to, bool process_completions, bool throttled) {
  propagator_->SetRecordFilter(stagger_->LocalFilter(k));
  propagator_->set_process_completions(process_completions);
  // Local cursor: a tablet pass re-reads a window the global stream owns
  // (or will own); it must not move the shared cursor.
  std::atomic<Lsn> cursor{from};
  auto n = propagator_->PropagateRange(from, to, throttled, &cursor,
                                       std::function<bool()>());
  propagator_->SetRecordFilter(stagger_->GlobalFilter());
  propagator_->set_process_completions(true);
  return n;
}

Result<TransformStats> TransformCoordinator::RunStaggered(
    const Clock::TimePoint& run_start, TransformStats stats) {
  const size_t T = stagger_->num_tablets();
  stats.tablets = T;
  stats.tablet_latch_nanos.assign(T, 0);
  propagator_->SetRecordFilter(stagger_->GlobalFilter());
  rules_->set_throttle(&priority_);

  // Failure after the first tablet has migrated is past the point of no
  // return — that tablet's keys already live on the transformed tables and
  // client transactions were switched to them — so it is handled like a
  // drain failure: report, leave the (live) targets in place.
  auto fail_late = [&](const std::string& reason) -> TransformStats {
    db_->ClearTransformHook();
    hook_registered_.store(false, std::memory_order_release);
    tlocks_.Clear();
    phase_.store(Phase::kAborted, std::memory_order_release);
    stats.completed = false;
    stats.abort_reason = reason;
    FillPropagationStats(&stats);
    stats.total_micros = Clock::MicrosSince(run_start);
    MORPH_COUNTER_INC("transform.runs_aborted");
    return stats;
  };

  // Phase A — staggered sub-population, one tablet at a time: begin-fuzzy
  // mark, shard-scoped populate, local catch-up to the global cursor,
  // activate, then a bounded global slice so later catch-up windows stay
  // small. The whole-table path is exactly this loop with T = 1 minus the
  // tablet bookkeeping.
  phase_.store(Phase::kPopulating, std::memory_order_release);
  for (size_t k = 0; k < T; ++k) {
    MORPH_FAILPOINT("transform.tablet.boundary");
    if (abort_requested_.load(std::memory_order_acquire)) {
      AbortTransformation("abort requested", &stats);
      return stats;
    }
    if (Clock::MicrosSince(run_start) > config_.max_duration_micros) {
      AbortTransformation("transformation exceeded max duration", &stats);
      return stats;
    }

    // Per-tablet begin-fuzzy mark: `guard` is read before the snapshot so a
    // transaction beginning concurrently still has all its records at
    // LSN > guard covered (same discipline as the whole-table mark).
    MORPH_FAILPOINT("transform.fuzzy.begin");
    const Lsn guard = db_->wal()->LastLsn();
    const txn::ActiveSnapshot snap = db_->txns()->Snapshot();
    {
      wal::LogRecord mark;
      mark.type = wal::LogRecordType::kFuzzyMark;
      mark.active_txns = snap.txns;
      mark.min_active_lsn = snap.min_first_lsn;
      const Lsn mark_lsn = db_->wal()->Append(std::move(mark));
      MORPH_TRACE("transform.fuzzy.begin_mark", static_cast<int64_t>(mark_lsn),
                  static_cast<int64_t>(snap.txns.size()));
    }
    Lsn start_k = guard + 1;
    if (snap.min_first_lsn != kInvalidLsn && snap.min_first_lsn < start_k) {
      start_k = snap.min_first_lsn;
    }
    if (k == 0) {
      // The run's WAL retention requirement: later tablets' floors can only
      // be higher (min-active and the log tail both advance), so the first
      // floor covers every local catch-up window (see propagated_lsn()).
      stagger_start_floor_.store(start_k, std::memory_order_release);
      retention_floor_.store(start_k, std::memory_order_release);
    }

    {
      PopulateConfig populate_config;
      populate_config.workers = config_.populate_workers;
      populate_config.shard_begin = stagger_->ShardBegin(k);
      populate_config.shard_end = stagger_->ShardEnd(k);
      populate_config.accumulate = true;
      rules_->set_populate_config(populate_config);
      const auto t0 = Clock::Now();
      const Status st = rules_->InitialPopulate();
      stats.populate_micros += Clock::MicrosSince(t0);
      if (!st.ok()) {
        AbortTransformation("initial population failed: " + st.ToString(),
                            &stats);
        return stats;
      }
    }
    {
      wal::LogRecord mark;
      mark.type = wal::LogRecordType::kFuzzyMark;
      const txn::ActiveSnapshot snap2 = db_->txns()->Snapshot();
      mark.active_txns = snap2.txns;
      mark.min_active_lsn = snap2.min_first_lsn;
      const Lsn mark_lsn = db_->wal()->Append(std::move(mark));
      MORPH_TRACE("transform.fuzzy.end_mark", static_cast<int64_t>(mark_lsn),
                  static_cast<int64_t>(stats.populate_micros));
    }
    MORPH_FAILPOINT("transform.fuzzy.end");

    if (k == 0) {
      // The global cursor starts at the first tablet's floor — there is
      // nothing behind it to catch up on.
      next_lsn_ = start_k;
    } else {
      // Local catch-up: the global stream already passed over [start_k, G)
      // with this tablet pending (its records were skipped); re-read the
      // window applying only tablet k. Completion records are processed —
      // releasing a transaction the global stream already released is a
      // no-op, and one whose ops this pass just mirrored must be released
      // if its completion falls inside the window.
      const Lsn g = next_lsn_.load(std::memory_order_acquire);
      if (g > start_k) {
        auto n = PropagateTabletPass(k, start_k, g - 1,
                                     /*process_completions=*/true,
                                     /*throttled=*/true);
        if (!n.ok()) {
          AbortTransformation(
              "tablet catch-up failed: " + n.status().ToString(), &stats);
          return stats;
        }
        stats.log_records_processed += *n;
      }
    }
    stagger_->Activate(k, start_k);

    // Bounded global slice between tablets: keep the shared cursor near the
    // log tail so the next tablet's catch-up window stays small.
    {
      const size_t cap = config_.batch_size * 16;
      const Lsn from = next_lsn_.load(std::memory_order_acquire);
      Lsn end = db_->wal()->LastLsn();
      if (end >= from && end - from + 1 > cap) end = from + cap - 1;
      if (end >= from) {
        auto n = PropagateRange(from, end, /*throttled=*/true);
        if (!n.ok()) {
          AbortTransformation("propagation failed: " + n.status().ToString(),
                              &stats);
          return stats;
        }
        stats.log_records_processed += *n;
      }
    }
  }

  // Phase B — global convergence: the whole-table step-3 loop minus the
  // features the constructor already clamped away (continuous mode, the
  // consistency checker).
  phase_.store(Phase::kPropagating, std::memory_order_release);
  {
    const auto t0 = Clock::Now();
    size_t lag_count = 0;
    size_t last_backlog = std::numeric_limits<size_t>::max();
    while (true) {
      MORPH_FAILPOINT("transform.propagate.iteration");
      if (abort_requested_.load(std::memory_order_acquire)) {
        stats.propagate_micros = Clock::MicrosSince(t0);
        AbortTransformation("abort requested", &stats);
        return stats;
      }
      if (Clock::MicrosSince(run_start) > config_.max_duration_micros) {
        stats.propagate_micros = Clock::MicrosSince(t0);
        AbortTransformation("transformation exceeded max duration", &stats);
        return stats;
      }
      if (paused_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        lag_count = 0;
        last_backlog = std::numeric_limits<size_t>::max();
        continue;
      }
      size_t iteration_cap = config_.max_records_per_iteration
                                 ? config_.max_records_per_iteration
                                 : config_.batch_size * 16;
      iteration_cap = std::max(
          config_.batch_size,
          static_cast<size_t>(static_cast<double>(iteration_cap) *
                              priority_.priority()));
      Lsn end = db_->wal()->LastLsn();
      if (end >= next_lsn_ && end - next_lsn_ + 1 > iteration_cap) {
        end = next_lsn_ + iteration_cap - 1;
      }
      if (end >= next_lsn_) {
        auto n = PropagateRange(next_lsn_, end, /*throttled=*/true);
        if (!n.ok()) {
          stats.propagate_micros = Clock::MicrosSince(t0);
          AbortTransformation("propagation failed: " + n.status().ToString(),
                              &stats);
          return stats;
        }
        stats.log_records_processed += *n;
      }
      stats.iterations++;
      MORPH_COUNTER_INC("transform.propagate.iterations");

      const Lsn tail = db_->wal()->LastLsn();
      const size_t backlog = tail >= next_lsn_ ? tail - next_lsn_ + 1 : 0;
      MORPH_GAUGE_SET("transform.backlog", static_cast<int64_t>(backlog));
      MORPH_GAUGE_SET("transform.priority.requested_ppm",
                      static_cast<int64_t>(priority_.priority() * 1e6));
      MORPH_GAUGE_SET(
          "transform.priority.achieved_ppm",
          static_cast<int64_t>(priority_.totals().achieved() * 1e6));
      if (backlog <= config_.sync_threshold && rules_->ReadyForSync() &&
          !sync_hold_.load(std::memory_order_acquire)) {
        break;
      }
      if (backlog > config_.sync_threshold && backlog >= last_backlog) {
        lag_count++;
      } else {
        lag_count = 0;
      }
      last_backlog = backlog;
      if (lag_count >= config_.lag_iterations) {
        if (config_.on_lag == OnLag::kBoostPriority &&
            priority_.priority() < 1.0) {
          priority_.set_priority(priority_.priority() * 2.0);
          lag_count = 0;
        } else {
          stats.propagate_micros = Clock::MicrosSince(t0);
          AbortTransformation("propagator cannot keep up with log generation",
                              &stats);
          return stats;
        }
      }
      if (stats.iterations >= config_.max_iterations) {
        stats.propagate_micros = Clock::MicrosSince(t0);
        AbortTransformation("max propagation iterations reached", &stats);
        return stats;
      }
      if (backlog == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    stats.propagate_micros += Clock::MicrosSince(t0);
  }

  // Phase C — per-tablet synchronization: converge, latch only tablet k of
  // every source (id order, then latch-index order), one short local pass
  // to the log end, advance the epoch, migrate. Writers on the other T-1
  // tablets never see a latch; the per-key pause is one tablet's window
  // instead of the whole catch-up.
  phase_.store(Phase::kSynchronizing, std::memory_order_release);
  const auto sync_t0 = Clock::Now();
  MORPH_FAILPOINT("transform.sync.before_latch");
  std::vector<std::shared_ptr<storage::Table>> sources = rules_->Sources();
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  // Converge to the log tail before the first latch — all the way, not
  // merely to the sync threshold. Every record applied here (completions
  // on, no latch held) is one no latched pass will have to scan, so each
  // tablet's user-visible pause is O(records landed since the previous
  // tablet), not O(standing backlog). This is the structural win over the
  // whole-table path, which has no choice but to take its one latch with
  // the backlog still standing. Pass count bounded so a firehose writer
  // cannot livelock the switch: past the bound, the latches absorb
  // whatever tail remains — correct, just longer pauses.
  auto converge_unlatched = [&](size_t max_passes, size_t floor) -> Status {
    for (size_t pass = 0; pass < max_passes; ++pass) {
      const Lsn from = next_lsn_.load(std::memory_order_acquire);
      const Lsn tail = db_->wal()->LastLsn();
      if (tail < from || tail - from + 1 <= floor) break;
      auto n = PropagateRange(from, tail, /*throttled=*/false);
      if (!n.ok()) {
        return Status::Internal("pre-sync convergence failed: " +
                                n.status().ToString());
      }
      stats.log_records_processed += *n;
      if (Clock::MicrosSince(run_start) > config_.max_duration_micros) {
        return Status::Internal("transformation exceeded max duration");
      }
    }
    return Status::OK();
  };
  if (Status st = converge_unlatched(64, config_.batch_size); !st.ok()) {
    AbortTransformation(std::string(st.message()), &stats);
    return stats;
  }
  for (size_t k = 0; k < T; ++k) {
    MORPH_FAILPOINT("transform.tablet.boundary");
    if (abort_requested_.load(std::memory_order_acquire) &&
        !stagger_->AnyMigrated()) {
      AbortTransformation("abort requested", &stats);
      return stats;
    }
    // Light re-converge: the cursor is already near the tail, only the
    // records landed since the previous tablet's latch are behind it. The
    // tighter floor shrinks the window the latched pass has to replay —
    // and with it the chance of that pass conflicting with a live writer
    // while holding the latch.
    if (Status st = converge_unlatched(8, config_.batch_size / 8); !st.ok()) {
      if (stagger_->AnyMigrated()) return fail_late(std::string(st.message()));
      AbortTransformation(std::string(st.message()), &stats);
      return stats;
    }

    int64_t latch_nanos = 0;
    {
      const auto latch_start = Clock::Now();
      std::vector<std::unique_lock<std::shared_mutex>> latches;
      for (const auto& src : sources) {
        for (size_t t = stagger_->TableTabletBegin(k);
             t < stagger_->TableTabletEnd(k); ++t) {
          latches.emplace_back(src->tablet_latch(t));
        }
      }
      // a = tables latched, b = tablet index (acquire) / nanos (release).
      MORPH_TRACE("transform.sync.latch_acquire",
                  static_cast<int64_t>(sources.size()),
                  static_cast<int64_t>(k));
      // Under the tablet latch; a crash here unwinds the RAII latches,
      // exactly as a real process kill would discard them.
      MORPH_FAILPOINT("transform.tablet.sync");

      const Lsn end = db_->wal()->LastLsn();
      const Lsn g = next_lsn_.load(std::memory_order_acquire);
      if (end >= g) {
        // A *global* pass, completions on, exactly like the whole-table
        // final pass (just over a far smaller window): every tablet is
        // activated by now, so the stream has nothing to skip, and
        // processing completions in order is what keeps this pass from
        // blocking on a stale mirrored lock — a tablet-scoped pass that
        // skipped completions could wait out a full lock timeout under the
        // latch when a later record conflicted with the mirror of an
        // earlier-committed transaction whose completion it had skipped.
        auto n = PropagateRange(g, end, /*throttled=*/false);
        if (!n.ok()) {
          const std::string reason =
              "tablet sync pass failed: " + n.status().ToString();
          if (stagger_->AnyMigrated()) return fail_late(reason);
          AbortTransformation(reason, &stats);
          return stats;
        }
        stats.log_records_processed += *n;
      }

      const txn::TxnEpoch sw = db_->AdvanceEpoch();
      // Old transactions holding source locks on this tablet's keys are
      // doomed (non-blocking abort, applied per tablet).
      for (const auto& t : db_->txns()->ActiveBefore(sw)) {
        for (const txn::RecordId& rid : db_->locks()->LocksOf(t->id())) {
          if (IsSourceTable(rid.table) && stagger_->TabletOf(rid.key) == k) {
            stats.txns_doomed++;
            break;
          }
        }
      }
      stagger_->MarkMigrated(k, end, sw, Clock::NanosSince(latch_start));
      if (k + 1 == T) {
        // The last tablet completes the switch; from here the whole-table
        // post-switch machinery (hook, drain) takes over.
        switch_epoch_.store(sw, std::memory_order_release);
        switched_.store(true, std::memory_order_release);
      }
      latch_nanos = stagger_->latch_nanos(k);
      stats.tablet_latch_nanos[k] = latch_nanos;
    }
    MORPH_TRACE("transform.sync.latch_release",
                static_cast<int64_t>(sources.size()), latch_nanos);
  }
  stats.sync_micros = Clock::MicrosSince(sync_t0);
  for (int64_t nanos : stats.tablet_latch_nanos) {
    stats.sync_latch_nanos = std::max(stats.sync_latch_nanos, nanos);
    MORPH_HISTOGRAM_NANOS("transform.sync.latch_nanos", nanos);
  }
  stats.sync_latch_micros = stats.sync_latch_nanos / 1000;
  MORPH_COUNTER_ADD("transform.txns_doomed", stats.txns_doomed);
  MORPH_FAILPOINT("transform.sync.after_switch");

  // Phase D — drain + finalize/drop/complete, shared with the whole-table
  // path. The global filter stays installed: migrated tablets keep applying
  // records newer than their sync pass (draining pre-switch writers).
  return FinishAndComplete(run_start, std::move(stats));
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
      const Lsn end = db_->wal()->LastLsn();
      if (end >= next_lsn_) {
        auto n = PropagateRange(next_lsn_, end, /*throttled=*/false);
        if (!n.ok()) return n.status();
        stats->log_records_processed += *n;
      }
      bool source_locks_held = false;
      for (const auto& t : db_->txns()->ActiveBefore(gate_epoch_)) {
        for (const txn::RecordId& rid : db_->locks()->LocksOf(t->id())) {
          if (IsSourceTable(rid.table)) {
            source_locks_held = true;
            break;
          }
        }
        if (source_locks_held) break;
      }
      if (!source_locks_held) break;
      if (Clock::MicrosSince(wait_start) > config_.max_duration_micros) {
        std::unique_lock lock(gate_mu_);
        gate_on_ = false;
        gate_cv_.notify_all();
        return Status::Aborted("old transactions did not release source locks");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // The common core: latch the source tables exclusively (in id order), do
  // one final propagation pass to the log end, and switch. The latch hold
  // time is the user-visible pause the paper reports as < 1 ms.
  MORPH_FAILPOINT("transform.sync.before_latch");
  std::vector<std::shared_ptr<storage::Table>> sources = rules_->Sources();
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  {
    const auto latch_start = Clock::Now();
    std::vector<std::unique_lock<std::shared_mutex>> latches;
    for (const auto& src : sources) {
      for (size_t t = 0; t < src->num_tablets(); ++t) {
        latches.emplace_back(src->tablet_latch(t));
      }
    }
    // a = tables latched, b = 0 (acquire) / latched nanos (release).
    MORPH_TRACE("transform.sync.latch_acquire",
                static_cast<int64_t>(sources.size()), 0);

    const Lsn end = db_->wal()->LastLsn();
    if (end >= next_lsn_) {
      auto n = PropagateRange(next_lsn_, end, /*throttled=*/false);
      if (!n.ok()) return n.status();
      stats->log_records_processed += *n;
    }

    // Latches are RAII: a crash thrown here releases them on unwind, which
    // is exactly the guarantee a real process kill gives (latches are not
    // durable state).
    MORPH_FAILPOINT("transform.sync.latched");
    const txn::TxnEpoch sw = db_->AdvanceEpoch();
    // Count the transactions the non-blocking-abort strategy dooms: old
    // transactions currently holding locks on the source tables.
    if (config_.strategy == SyncStrategy::kNonBlockingAbort) {
      for (const auto& t : db_->txns()->ActiveBefore(sw)) {
        for (const txn::RecordId& rid : db_->locks()->LocksOf(t->id())) {
          if (IsSourceTable(rid.table)) {
            stats->txns_doomed++;
            break;
          }
        }
      }
    }
    switch_epoch_.store(sw, std::memory_order_release);
    switched_.store(true, std::memory_order_release);
    stats->sync_latch_nanos = Clock::NanosSince(latch_start);
    stats->sync_latch_micros = stats->sync_latch_nanos / 1000;
    MORPH_HISTOGRAM_NANOS("transform.sync.latch_nanos",
                          stats->sync_latch_nanos);
    MORPH_TRACE("transform.sync.latch_release",
                static_cast<int64_t>(sources.size()),
                stats->sync_latch_nanos);
    MORPH_COUNTER_ADD("transform.txns_doomed", stats->txns_doomed);
  }

  if (config_.strategy == SyncStrategy::kBlockingCommit) {
    std::unique_lock lock(gate_mu_);
    gate_on_ = false;
    gate_cv_.notify_all();
  }
  // After the epoch flip and (for blocking commit) the gate release: the
  // switch is visible to clients but the drain has not started.
  MORPH_FAILPOINT("transform.sync.after_switch");
  return Status::OK();
}

Status TransformCoordinator::Drain(TransformStats* stats) {
  phase_.store(Phase::kDraining, std::memory_order_release);
  const auto drain_start = Clock::Now();
  const txn::TxnEpoch sw = switch_epoch_.load(std::memory_order_acquire);
  while (true) {
    MORPH_FAILPOINT("transform.drain.iteration");
    const Lsn end = db_->wal()->LastLsn();
    if (end >= next_lsn_) {
      auto n = PropagateRange(next_lsn_, end, /*throttled=*/true);
      if (!n.ok()) return n.status();
      stats->log_records_processed += *n;
      continue;
    }
    if (db_->txns()->ActiveBefore(sw).empty() && db_->wal()->LastLsn() < next_lsn_) {
      return Status::OK();
    }
    if (Clock::MicrosSince(drain_start) > config_.max_duration_micros) {
      return Status::Aborted(
          "pre-switch transactions did not finish during drain");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void TransformCoordinator::AbortTransformation(const std::string& reason,
                                               TransformStats* stats) {
  if (hook_registered_.load(std::memory_order_acquire)) {
    db_->ClearTransformHook();
    hook_registered_.store(false, std::memory_order_release);
  }
  {
    std::unique_lock lock(gate_mu_);
    gate_on_ = false;
  }
  gate_cv_.notify_all();
  tlocks_.Clear();
  rules_->DropTargets();
  phase_.store(Phase::kAborted, std::memory_order_release);
  stats->completed = false;
  stats->abort_reason = reason;
  FillPropagationStats(stats);
  MORPH_COUNTER_INC("transform.runs_aborted");
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
