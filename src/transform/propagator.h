#pragma once

#include <atomic>
#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "transform/op.h"
#include "transform/operator_rules.h"
#include "transform/priority.h"
#include "transform/table_id_set.h"
#include "txn/transform_locks.h"
#include "wal/wal.h"

namespace morph::transform {

struct PropagatorConfig {
  /// Log records scanned per reader batch (the throttle's work slice).
  size_t batch_size = 512;
  /// Mirror source-table locks onto the transformed tables (§3.3).
  bool maintain_locks = true;
};

/// \brief Log propagation (paper §3.3), factored out of
/// TransformCoordinator: one reader redoing logged source-table operations
/// against the transformed tables in log order.
///
/// The calling thread scans the WAL in bounded LSN batches with
/// Wal::ScanChecked — zero-copy, applying each record by reference under
/// the log's shared lock — filters for source-table records, normalizes
/// them into Ops, applies them via OperatorRules::Apply and mirrors their
/// source locks via TransformLockTable::AddTransferred. Records apply in
/// LSN order, which is all rules 1–11 and Theorem 1 assume.
///
/// **Completions.** kCommit/kTxnEnd release the transaction's mirrored
/// locks immediately: every op of the transaction has a lower LSN and has
/// therefore already been applied (§3.4). kCcBegin/kCcOk go to
/// OperatorRules::OnControlRecord, which sees every lower-LSN op (§5.3).
///
/// **Watermark.** The reader position (`next_lsn`) is the propagation
/// watermark: every record below it has been fully applied, which is what
/// keeps Wal::TruncateBefore safe.
///
/// **Failure.** A non-OK Status from a rule stops the range and is
/// returned; an exception (the deterministic failpoint
/// "transform.propagate.worker" throws CrashException in crash tests)
/// propagates to the caller unchanged.
///
/// Thread safety: PropagateRange must be called from one thread at a time
/// (the coordinator thread). ops_applied() is safe from any thread.
class LogPropagator {
 public:
  LogPropagator(wal::Wal* wal, OperatorRules* rules,
                txn::TransformLockTable* tlocks, PriorityController* priority,
                PropagatorConfig config);

  LogPropagator(const LogPropagator&) = delete;
  LogPropagator& operator=(const LogPropagator&) = delete;

  /// \brief Installs the source-table filter. Must be called after the
  /// operator's Prepare(), before the first PropagateRange(). `source_ids`
  /// is in OperatorRules::Sources() order: the first entry gets
  /// LockOrigin::kSource0, any other kSource1.
  void SetSources(const std::vector<TableId>& source_ids);

  /// \brief Installs (or clears, with nullptr) a per-record data filter for
  /// staggered tablet propagation: a source-table data record for which the
  /// predicate returns false is skipped (counted in
  /// `transform.tablet.ops_skipped`), exactly as if it belonged to a
  /// non-source table. Completion/CC records are unaffected. Reader-thread
  /// only; must not be changed while a PropagateRange is in flight.
  void SetRecordFilter(std::function<bool(const wal::LogRecord&)> filter) {
    record_filter_ = std::move(filter);
  }

  /// \brief Processes log records [from, to]; returns the count processed.
  /// On return every processed op has been applied and every processed
  /// completion has released its locks. `next_lsn` is kept at the reader's
  /// position (the next LSN to read) throughout. `throttled` applies the
  /// priority duty cycle between batches. `cancel` (optional) is polled
  /// between throttled batches; returning true stops early.
  Result<size_t> PropagateRange(Lsn from, Lsn to, bool throttled,
                                std::atomic<Lsn>* next_lsn,
                                const std::function<bool()>& cancel);

  /// \brief Total ops applied. Safe from any thread while PropagateRange
  /// runs (a relaxed atomic).
  size_t ops_applied() const {
    return ops_applied_.load(std::memory_order_relaxed);
  }

 private:
  /// Handles one log record (data op / txn completion / CC bracket).
  Status ProcessRecord(const wal::LogRecord& rec);
  /// Applies one data op and mirrors its source locks.
  Status ApplyOp(const Op& op, txn::LockOrigin origin);

  wal::Wal* wal_;
  OperatorRules* rules_;
  txn::TransformLockTable* tlocks_;
  PriorityController* priority_;
  const PropagatorConfig config_;

  TableIdSet sources_;
  TableId primary_source_ = 0;  ///< LockOrigin::kSource0

  /// Staggered-tablet record filter (null = pass everything). Reader-thread
  /// only.
  std::function<bool(const wal::LogRecord&)> record_filter_;

  std::atomic<size_t> ops_applied_{0};
};

}  // namespace morph::transform
