#include "scenario.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/relops.h"
#include "transform/foj.h"
#include "transform/split.h"

namespace perfbench {

using morph::Random;
using morph::Row;
using morph::Schema;
using morph::Status;
using morph::StatusCode;
using morph::Value;
using morph::ValueType;

const std::vector<WorkloadParams>& Workloads() {
  static const std::vector<WorkloadParams> kWorkloads = [] {
    std::vector<WorkloadParams> w(3);
    w[0].name = "split_bulk";
    w[0].op = WorkloadParams::Op::kSplit;
    w[0].rate_tps = 2000;
    w[0].rows = 200'000;
    w[0].groups = 80'000;

    w[1].name = "split_churn";
    w[1].op = WorkloadParams::Op::kSplit;
    w[1].rate_tps = 4000;
    w[1].rows = 50'000;
    w[1].groups = 20'000;
    w[1].churn = true;
    w[1].tablets = 16;

    w[2].name = "foj";
    w[2].op = WorkloadParams::Op::kFoj;
    w[2].rate_tps = 2000;
    w[2].rows = 50'000;
    w[2].groups = 20'000;
    return w;
  }();
  return kWorkloads;
}

const WorkloadParams* FindWorkload(const std::string& name) {
  for (const WorkloadParams& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// --- Shadow ------------------------------------------------------------

Shadow::Shadow(int64_t capacity, size_t value_columns)
    : capacity_(capacity),
      cols_(value_columns),
      lock_order_(std::make_unique<std::atomic<uint64_t>[]>(
          static_cast<size_t>(capacity))),
      vals_(static_cast<size_t>(capacity) * value_columns, 0),
      val_stamp_(static_cast<size_t>(capacity) * value_columns, 0),
      exists_(static_cast<size_t>(capacity), 0),
      exists_stamp_(static_cast<size_t>(capacity), 0) {}

void Shadow::Load(int64_t key, const std::vector<int64_t>& values) {
  exists_[key] = 1;
  for (size_t c = 0; c < cols_; ++c) vals_[key * cols_ + c] = values[c];
}

void Shadow::Apply(const std::vector<Write>& writes) {
  std::lock_guard lock(mu_);
  for (const Write& w : writes) {
    const size_t k = static_cast<size_t>(w.key);
    if (w.kind != Write::Kind::kUpdate && w.stamp > exists_stamp_[k]) {
      exists_stamp_[k] = w.stamp;
      exists_[k] = w.kind == Write::Kind::kInsert;
    }
    for (const auto& [c, v] : w.values) {
      if (w.stamp > val_stamp_[k * cols_ + c]) {
        val_stamp_[k * cols_ + c] = w.stamp;
        vals_[k * cols_ + c] = v;
      }
    }
  }
}

// --- Scenario: shared transaction execution ------------------------------

Scenario::Scenario(const WorkloadParams& params) : params_(params) {}

Scenario::~Scenario() = default;

std::string Scenario::first_error() const {
  std::lock_guard lock(error_mu_);
  return first_error_;
}

Value Scenario::ToValue(size_t, size_t, int64_t v) const { return Value(v); }

Row Scenario::ToRow(size_t table, int64_t key,
                    const std::vector<int64_t>& values) const {
  std::vector<Value> row;
  row.reserve(values.size() + 1);
  row.emplace_back(key);
  for (size_t c = 0; c < values.size(); ++c) {
    row.push_back(ToValue(table, c, values[c]));
  }
  return Row(std::move(row));
}

void Scenario::AddTable(
    const std::string& name, Schema schema,
    const std::vector<std::pair<int64_t, std::vector<int64_t>>>& rows,
    int64_t shadow_capacity) {
  auto table = db_->CreateTable(name, std::move(schema));
  if (!table.ok()) {
    std::fprintf(stderr, "CreateTable %s: %s\n", name.c_str(),
                 table.status().ToString().c_str());
    std::abort();
  }
  SourceTable src;
  src.table = *table;
  const size_t index = tables_.size();
  std::vector<Row> engine_rows;
  engine_rows.reserve(rows.size());
  for (const auto& [key, values] : rows) {
    engine_rows.push_back(ToRow(index, key, values));
  }
  if (shadow_capacity > 0) {
    src.shadow = std::make_unique<Shadow>(shadow_capacity,
                                          src.table->schema().num_columns() - 1);
    for (const auto& [key, values] : rows) src.shadow->Load(key, values);
  }
  const Status st = db_->BulkLoad(src.table.get(), engine_rows);
  if (!st.ok()) {
    std::fprintf(stderr, "BulkLoad %s: %s\n", name.c_str(),
                 st.ToString().c_str());
    std::abort();
  }
  tables_.push_back(std::move(src));
}

Outcome Scenario::RunTxn(uint64_t arrival_seed, Recorder* rec) {
  Random rng(arrival_seed);
  std::vector<Op> ops;
  ops.reserve(kOpsPerTxn);
  Generate(&rng, &ops);
  return Execute(ops, rec);
}

Outcome Scenario::Classify(const Status& st, bool at_commit) {
  const std::string& msg = st.message();
  if (msg.find("table was transformed") != std::string::npos) {
    return Outcome::kExcluded;
  }
  if (st.code() == StatusCode::kDeadlock || st.code() == StatusCode::kBusy) {
    return Outcome::kConflict;
  }
  if (st.code() == StatusCode::kAborted &&
      msg.find("doomed") != std::string::npos) {
    return Outcome::kDoomed;
  }
  if (at_commit) return Outcome::kRefused;
  return Defect(st);
}

Outcome Scenario::Defect(const Status& st) {
  std::lock_guard lock(error_mu_);
  if (first_error_.empty()) first_error_ = st.ToString();
  return Outcome::kError;
}

Outcome Scenario::Execute(const std::vector<Op>& ops, Recorder* rec) {
  engine::Database* db = db_.get();
  std::vector<std::vector<Shadow::Write>> pending(tables_.size());
  const engine::TxnPtr t =
      rec->Time(CallKind::kBegin, [&] { return db->Begin(); });
  rec->attempt_epoch = t->epoch();
  // Rolls the attempt back if the engine has not already; a failing abort
  // is a defect.
  auto rollback = [&](Outcome outcome) {
    if (t->finished()) return outcome;
    const Status ab =
        rec->Time(CallKind::kAbort, [&] { return db->Abort(t); });
    return ab.ok() ? outcome : Defect(ab);
  };
  Status st;
  for (const Op& op : ops) {
    SourceTable& src = tables_[op.table];
    storage::Table* table = src.table.get();
    const Row key({Value(op.key)});
    Shadow::Write write;
    write.key = op.key;
    switch (op.kind) {
      case Op::Kind::kRead: {
        auto row = rec->Time(CallKind::kRead,
                             [&] { return db->Read(t, table, key); });
        st = row.status();
        break;
      }
      case Op::Kind::kUpdate: {
        std::vector<engine::ColumnUpdate> updates;
        for (const auto& [c, v] : op.values) {
          updates.push_back({c + 1, ToValue(op.table, c, v)});
        }
        st = rec->Time(CallKind::kUpdate,
                       [&] { return db->Update(t, table, key, updates); });
        write.kind = Shadow::Write::Kind::kUpdate;
        write.values = op.values;
        break;
      }
      case Op::Kind::kToggle: {
        // Insert the key if absent, delete it if present: the churn keeps
        // the table size steady and never provokes a duplicate or a miss.
        auto row = rec->Time(CallKind::kRead,
                             [&] { return db->Read(t, table, key); });
        if (row.ok()) {
          st = rec->Time(CallKind::kDelete,
                         [&] { return db->Delete(t, table, key); });
          write.kind = Shadow::Write::Kind::kDelete;
        } else if (row.status().code() == StatusCode::kNotFound) {
          std::vector<int64_t> values(table->schema().num_columns() - 1, 0);
          for (const auto& [c, v] : op.values) values[c] = v;
          Row full = ToRow(op.table, op.key, values);
          st = rec->Time(CallKind::kInsert, [&] {
            return db->Insert(t, table, std::move(full));
          });
          write.kind = Shadow::Write::Kind::kInsert;
          for (size_t c = 0; c < values.size(); ++c) {
            write.values.emplace_back(c, values[c]);
          }
        } else {
          st = row.status();
        }
        break;
      }
    }
    if (!st.ok()) break;
    if (src.shadow != nullptr && db->current_epoch() > 0 &&
        db->transform_hook() == nullptr) {
      // The transformation has switched over and finished: it unhooked
      // itself and dropped this source table, which the client reaches
      // only through a stale pointer. While hooked, such an operation is
      // refused or its transaction doomed; a real client would address the
      // new tables. (A transaction active before the switch keeps the hook
      // installed until it ends, so no counted operation sees this.)
      return rollback(Outcome::kExcluded);
    }
    if (op.kind != Op::Kind::kRead && src.shadow != nullptr) {
      write.stamp = src.shadow->Stamp(op.key);
      pending[op.table].push_back(std::move(write));
    }
  }
  if (st.ok()) {
    st = rec->Time(CallKind::kCommit, [&] { return db->Commit(t); });
    if (st.ok()) {
      for (size_t i = 0; i < tables_.size(); ++i) {
        if (!pending[i].empty()) tables_[i].shadow->Apply(pending[i]);
      }
      return Outcome::kCommitted;
    }
    return rollback(Classify(st, /*at_commit=*/true));
  }
  return rollback(Classify(st, /*at_commit=*/false));
}

transform::TransformConfig Scenario::Config() const {
  transform::TransformConfig config;
  config.tablets = params_.tablets;
  return config;
}

namespace {

/// Compares two row multisets; empty when equal, else a short description.
std::string CompareRows(const char* what, std::vector<std::string> expected,
                        std::vector<std::string> actual) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  if (expected == actual) return "";
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  std::string out = std::string(what) + ": " + std::to_string(missing.size()) +
                    " missing, " + std::to_string(extra.size()) + " extra";
  if (!missing.empty()) out += "; e.g. missing " + missing.front();
  if (!extra.empty()) out += "; e.g. extra " + extra.front();
  return out;
}

std::vector<std::string> RowStrings(const storage::Table& table,
                                    bool with_counter) {
  std::vector<std::string> out;
  table.ForEach([&](const storage::Record& rec) {
    out.push_back(rec.row.ToString() +
                  (with_counter ? " #" + std::to_string(rec.counter) : ""));
  });
  return out;
}

Schema MakeSchema(std::vector<std::pair<std::string, ValueType>> cols) {
  std::vector<morph::Column> defs;
  for (size_t i = 0; i < cols.size(); ++i) {
    defs.push_back({cols[i].first, cols[i].second, /*nullable=*/i != 0});
  }
  return *Schema::Make(defs, {cols[0].first});
}

// --- Split workloads -------------------------------------------------------

/// T(id, grp, city, pay) split into R(id, grp, pay) and S(grp, city), plus
/// the paper's dummy table. city is a function of grp (the FD the §5.2 split
/// assumes), so every write to grp writes the matching city.
class SplitScenario : public Scenario {
 public:
  static constexpr int64_t kDummyRows = 50'000;
  static constexpr double kZipfTheta = 0.9;

  explicit SplitScenario(const WorkloadParams& params)
      : Scenario(params),
        churn_keys_(params.churn ? params.rows / 5 : 0),
        zipf_(static_cast<uint64_t>(params.rows), kZipfTheta) {}

  void Load() override {
    const Schema schema = MakeSchema({{"id", ValueType::kInt64},
                                      {"grp", ValueType::kInt64},
                                      {"city", ValueType::kString},
                                      {"pay", ValueType::kInt64}});
    std::vector<std::pair<int64_t, std::vector<int64_t>>> rows;
    rows.reserve(params_.rows + churn_keys_);
    for (int64_t i = 0; i < params_.rows; ++i) {
      const int64_t grp = i % params_.groups;
      rows.push_back({i, {grp, grp, 0}});
    }
    // Churn keys start half present; insert/delete toggles keep it so.
    for (int64_t c = 0; c < churn_keys_; c += 2) {
      const int64_t grp = c % params_.groups;
      rows.push_back({params_.rows + c, {grp, grp, 0}});
    }
    AddTable("t", schema, rows, params_.rows + churn_keys_);
    rows.clear();
    for (int64_t i = 0; i < kDummyRows; ++i) rows.push_back({i, {0, 0, 0}});
    AddTable("dummy", schema, rows, /*shadow_capacity=*/0);

    transform::SplitSpec spec;
    spec.t_table = "t";
    spec.r_columns = {"id", "grp", "pay"};
    spec.s_columns = {"grp", "city"};
    spec.split_columns = {"grp"};
    spec.r_name = "t_r";
    spec.s_name = "t_s";
    auto rules = transform::SplitRules::Make(db_.get(), spec);
    if (!rules.ok()) std::abort();
    split_ = std::shared_ptr<transform::SplitRules>(
        std::move(rules).ValueOrDie());
    rules_ = split_;
  }

 protected:
  Value ToValue(size_t, size_t col, int64_t v) const override {
    if (col == 1) return Value("city" + std::to_string(v));
    return Value(v);
  }

  void Generate(Random* rng, std::vector<Op>* ops) const override {
    if (!params_.churn) {
      // The paper's mix: uniform `pay` updates, half on T, half on dummy.
      for (int i = 0; i < kOpsPerTxn; ++i) {
        Op op;
        op.kind = Op::Kind::kUpdate;
        op.table = rng->Bernoulli(0.5) ? 0 : 1;
        op.key = rng->UniformRange(0, op.table == 0 ? params_.rows : kDummyRows);
        op.values = {{2, static_cast<int64_t>(rng->Uniform(1'000'000))}};
        ops->push_back(std::move(op));
      }
      return;
    }
    // Churn: 3 Zipf reads, 5 Zipf grp(+city) moves, 2 uniform insert/delete
    // toggles on the churn keys, in a seeded order.
    static constexpr Op::Kind kMix[kOpsPerTxn] = {
        Op::Kind::kRead,   Op::Kind::kRead,   Op::Kind::kRead,
        Op::Kind::kUpdate, Op::Kind::kUpdate, Op::Kind::kUpdate,
        Op::Kind::kUpdate, Op::Kind::kUpdate, Op::Kind::kToggle,
        Op::Kind::kToggle};
    for (const Op::Kind kind : kMix) {
      Op op;
      op.kind = kind;
      op.table = 0;
      const int64_t grp = rng->UniformRange(0, params_.groups);
      if (kind == Op::Kind::kToggle) {
        op.key = params_.rows + rng->UniformRange(0, churn_keys_);
        op.values = {{0, grp}, {1, grp}};
      } else {
        // Scramble Zipf ranks so hot keys spread over tablets and shards.
        const uint64_t rank = zipf_.Sample(rng->NextDouble());
        op.key = static_cast<int64_t>((rank * 2654435761ULL) %
                                      static_cast<uint64_t>(params_.rows));
        if (kind == Op::Kind::kUpdate) op.values = {{0, grp}, {1, grp}};
      }
      ops->push_back(std::move(op));
    }
    for (size_t i = ops->size(); i > 1; --i) {
      std::swap((*ops)[i - 1], (*ops)[rng->Uniform(i)]);
    }
  }

  std::string CheckOracle() const override {
    std::vector<Row> t_rows;
    tables_[0].shadow->ForEachRow(
        [&](int64_t key, const std::vector<int64_t>& values) {
          t_rows.push_back(ToRow(0, key, values));
        });
    const morph::SplitResult oracle =
        morph::Split(t_rows, {0, 1, 3}, {1, 2}, {0});
    std::vector<std::string> expect_r, expect_s;
    for (const Row& r : oracle.r_rows) expect_r.push_back(r.ToString());
    for (size_t i = 0; i < oracle.s_rows.size(); ++i) {
      expect_s.push_back(oracle.s_rows[i].ToString() + " #" +
                         std::to_string(oracle.s_counters[i]));
    }
    std::string diff = CompareRows("R", std::move(expect_r),
                                   RowStrings(*split_->r_table(), false));
    if (diff.empty()) {
      diff = CompareRows("S", std::move(expect_s),
                         RowStrings(*split_->s_table(), true));
    }
    return diff;
  }

 private:
  int64_t churn_keys_;
  Zipf zipf_;
  std::shared_ptr<transform::SplitRules> split_;
};

// --- FOJ workload ----------------------------------------------------------

/// R(id, jv, pay) full-outer-joined with S(sid, jv, info) on jv. Updates hit
/// R.pay, S.info and R.jv; some jv updates point outside S, so the join
/// keeps null-padded rows on both sides.
class FojScenario : public Scenario {
 public:
  explicit FojScenario(const WorkloadParams& params) : Scenario(params) {}

  void Load() override {
    std::vector<std::pair<int64_t, std::vector<int64_t>>> rows;
    rows.reserve(params_.rows);
    for (int64_t i = 0; i < params_.rows; ++i) {
      rows.push_back({i, {i % params_.groups, 0}});
    }
    AddTable("r",
             MakeSchema({{"id", ValueType::kInt64},
                         {"jv", ValueType::kInt64},
                         {"pay", ValueType::kInt64}}),
             rows, params_.rows);
    rows.clear();
    for (int64_t i = 0; i < params_.groups; ++i) rows.push_back({i, {i, 0}});
    AddTable("s",
             MakeSchema({{"sid", ValueType::kInt64},
                         {"jv", ValueType::kInt64},
                         {"info", ValueType::kInt64}}),
             rows, params_.groups);

    transform::FojSpec spec;
    spec.r_table = "r";
    spec.s_table = "s";
    spec.r_join_column = "jv";
    spec.s_join_column = "jv";
    spec.target_table = "t_joined";
    auto rules = transform::FojRules::Make(db_.get(), spec);
    if (!rules.ok()) std::abort();
    foj_ = std::shared_ptr<transform::FojRules>(std::move(rules).ValueOrDie());
    rules_ = foj_;
  }

 protected:
  void Generate(Random* rng, std::vector<Op>* ops) const override {
    for (int i = 0; i < kOpsPerTxn; ++i) {
      Op op;
      op.kind = Op::Kind::kUpdate;
      const double u = rng->NextDouble();
      const auto value = static_cast<int64_t>(rng->Uniform(1'000'000));
      if (u < 0.5) {
        op.table = 0;
        op.key = rng->UniformRange(0, params_.rows);
        op.values = {{1, value}};
      } else if (u < 0.8) {
        op.table = 1;
        op.key = rng->UniformRange(0, params_.groups);
        op.values = {{1, value}};
      } else {
        op.table = 0;
        op.key = rng->UniformRange(0, params_.rows);
        op.values = {{0, rng->UniformRange(0, params_.groups * 11 / 10)}};
      }
      ops->push_back(std::move(op));
    }
  }

  std::string CheckOracle() const override {
    std::vector<Row> r_rows, s_rows;
    tables_[0].shadow->ForEachRow(
        [&](int64_t key, const std::vector<int64_t>& values) {
          r_rows.push_back(ToRow(0, key, values));
        });
    tables_[1].shadow->ForEachRow(
        [&](int64_t key, const std::vector<int64_t>& values) {
          s_rows.push_back(ToRow(1, key, values));
        });
    std::vector<std::string> expect;
    for (const Row& row : morph::FullOuterJoin(r_rows, 1, s_rows, 1, 3, 3)) {
      expect.push_back(row.ToString());
    }
    return CompareRows("FOJ", std::move(expect),
                       RowStrings(*foj_->target(), false));
  }

 private:
  std::shared_ptr<transform::FojRules> foj_;
};

}  // namespace

std::unique_ptr<Scenario> Scenario::Make(const WorkloadParams& params) {
  std::unique_ptr<Scenario> s;
  if (params.op == WorkloadParams::Op::kSplit) {
    s = std::make_unique<SplitScenario>(params);
  } else {
    s = std::make_unique<FojScenario>(params);
  }
  engine::DatabaseOptions options;
  options.table_tablets = params.tablets;
  s->db_ = std::make_unique<engine::Database>(options);
  s->Load();
  return s;
}

}  // namespace perfbench
