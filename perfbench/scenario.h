// The benchmark's workloads: how each loads a fresh database, what one
// transaction does, which transformation runs, and the oracle that checks
// the transformed tables against a shadow of every acknowledged commit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "driver.h"
#include "engine/database.h"
#include "transform/coordinator.h"

namespace perfbench {

namespace engine = morph::engine;
namespace storage = morph::storage;
namespace transform = morph::transform;

/// \brief A workload's fixed definition. Rates are absolute offered loads,
/// never recalibrated, so a faster engine is not handed a heavier load.
struct WorkloadParams {
  enum class Op { kSplit, kFoj };
  std::string name;
  Op op = Op::kSplit;
  /// Open-loop offered rate, transactions per second.
  double rate_tps = 0;
  /// Split: rows of T. FOJ: rows of R.
  int64_t rows = 0;
  /// Split: distinct split values (grp). FOJ: rows of S.
  int64_t groups = 0;
  /// Split churn mix: Zipf-skewed reads, grp/city updates and insert/delete
  /// toggles instead of the paper's uniform `pay` updates on T and dummy.
  bool churn = false;
  /// DatabaseOptions::table_tablets and TransformConfig::tablets.
  size_t tablets = 1;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadParams>& Workloads();
const WorkloadParams* FindWorkload(const std::string& name);

/// Client threads driving the open-loop schedule.
inline constexpr int kClientThreads = 3;
/// Operations per transaction (the paper's §6 shape).
inline constexpr int kOpsPerTxn = 10;

/// \brief Committed state of one source table, rebuilt from acknowledged
/// commits only. Keys are dense int64s; every non-key column is an int64
/// "logical" value the workload maps onto the engine value.
///
/// Commit order per key is recovered without serialising clients: a write is
/// stamped with the key's next sequence number while its writer still holds
/// the exclusive record lock (strict 2PL keeps it until commit), so stamps
/// follow lock order, and the shadow keeps the highest-stamped value per
/// column however late each acknowledgement is applied.
class Shadow {
 public:
  Shadow(int64_t capacity, size_t value_columns);

  struct Write {
    enum class Kind : uint8_t { kUpdate, kInsert, kDelete };
    Kind kind = Kind::kUpdate;
    int64_t key = 0;
    uint64_t stamp = 0;
    /// (column index within the non-key columns, value).
    std::vector<std::pair<size_t, int64_t>> values;
  };

  /// Stamps a write on `key`; the caller must hold its exclusive lock.
  uint64_t Stamp(int64_t key) {
    return lock_order_[static_cast<size_t>(key)].fetch_add(1) + 1;
  }
  /// Seeds an initially loaded row.
  void Load(int64_t key, const std::vector<int64_t>& values);
  /// Applies one acknowledged commit's writes.
  void Apply(const std::vector<Write>& writes);
  /// Calls fn(key, values) for every existing row.
  template <typename F>
  void ForEachRow(F&& fn) const {
    std::vector<int64_t> values(cols_);
    for (int64_t k = 0; k < capacity_; ++k) {
      if (!exists_[k]) continue;
      for (size_t c = 0; c < cols_; ++c) values[c] = vals_[k * cols_ + c];
      fn(k, values);
    }
  }

 private:
  int64_t capacity_;
  size_t cols_;
  std::unique_ptr<std::atomic<uint64_t>[]> lock_order_;
  std::mutex mu_;
  std::vector<int64_t> vals_;
  std::vector<uint64_t> val_stamp_;
  std::vector<uint8_t> exists_;
  std::vector<uint64_t> exists_stamp_;
};

/// \brief One freshly loaded database of a workload, with its shadow.
class Scenario {
 public:
  /// Builds and loads the database.
  static std::unique_ptr<Scenario> Make(const WorkloadParams& params);
  virtual ~Scenario();

  engine::Database* db() const { return db_.get(); }
  const WorkloadParams& params() const { return params_; }

  /// Runs the transaction of arrival `arrival_seed` (see MixSeed) and
  /// returns how the attempt ended. Thread-safe.
  Outcome RunTxn(uint64_t arrival_seed, Recorder* rec);

  /// The transformation every cycle performs, and its configuration (all
  /// defaults except what the workload names).
  const std::shared_ptr<transform::OperatorRules>& rules() const {
    return rules_;
  }
  transform::TransformConfig Config() const;

  /// After Run(): compares the transformed tables with the relational
  /// oracle over the shadow. Empty when they match.
  virtual std::string CheckOracle() const = 0;

  /// First unexpected error message seen by RunTxn (empty if none).
  std::string first_error() const;

 protected:
  struct Op {
    enum class Kind : uint8_t { kRead, kUpdate, kToggle };
    Kind kind = Kind::kRead;
    size_t table = 0;  ///< index into tables_
    int64_t key = 0;
    std::vector<std::pair<size_t, int64_t>> values;  ///< non-key col, value
  };
  struct SourceTable {
    std::shared_ptr<storage::Table> table;
    std::unique_ptr<Shadow> shadow;  ///< null for tables never transformed
  };

  explicit Scenario(const WorkloadParams& params);

  /// Creates and bulk-loads the source tables and makes the rules.
  virtual void Load() = 0;
  /// The transaction of one arrival.
  virtual void Generate(morph::Random* rng, std::vector<Op>* ops) const = 0;
  /// Engine value of non-key column `col` of table `table`.
  virtual morph::Value ToValue(size_t table, size_t col, int64_t v) const;
  /// Full engine row from a key and its logical non-key values.
  morph::Row ToRow(size_t table, int64_t key,
                   const std::vector<int64_t>& values) const;
  /// Creates a table and bulk-loads `rows` logical rows, seeding the shadow.
  void AddTable(const std::string& name, morph::Schema schema,
                const std::vector<std::pair<int64_t, std::vector<int64_t>>>& rows,
                int64_t shadow_capacity);

  WorkloadParams params_;
  std::unique_ptr<engine::Database> db_;
  std::vector<SourceTable> tables_;
  std::shared_ptr<transform::OperatorRules> rules_;

 private:
  Outcome Execute(const std::vector<Op>& ops, Recorder* rec);
  Outcome Classify(const morph::Status& st, bool at_commit);
  /// Records the first unexpected error.
  Outcome Defect(const morph::Status& st);

  mutable std::mutex error_mu_;
  std::string first_error_;
};

}  // namespace perfbench
