#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "storage/catalog.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace morph::storage {
namespace {

Schema TwoColSchema() {
  return *Schema::Make({{"id", ValueType::kInt64, false},
                        {"val", ValueType::kString, true}},
                       {"id"});
}

Record Rec(int64_t id, const std::string& val, Lsn lsn = 1) {
  Record r;
  r.row = Row({id, val});
  r.lsn = lsn;
  return r;
}

// --- Table CRUD -------------------------------------------------------------------

TEST(TableTest, InsertGetDelete) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Rec(1, "a")).ok());
  EXPECT_TRUE(t.Insert(Rec(1, "b")).IsAlreadyExists());
  auto rec = t.Get(Row({1}));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->row[1], Value("a"));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Contains(Row({1})));
  ASSERT_TRUE(t.Delete(Row({1})).ok());
  EXPECT_TRUE(t.Delete(Row({1})).IsNotFound());
  EXPECT_FALSE(t.Contains(Row({1})));
}

TEST(TableTest, UpdateReplacesRowAndLsn) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Rec(1, "a", 5)).ok());
  ASSERT_TRUE(t.Update(Row({1}), Rec(1, "b", 9)).ok());
  auto rec = t.Get(Row({1}));
  EXPECT_EQ(rec->row[1], Value("b"));
  EXPECT_EQ(rec->lsn, 9u);
  EXPECT_TRUE(t.Update(Row({2}), Rec(2, "x")).IsNotFound());
  // Key changes are rejected.
  EXPECT_TRUE(t.Update(Row({1}), Rec(3, "z")).IsInvalidArgument());
}

TEST(TableTest, MutateAtomicReadModifyWrite) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Rec(1, "a")).ok());
  ASSERT_TRUE(t.Mutate(Row({1}), [](Record* r) {
                 r->counter = 42;
                 r->consistent = false;
                 return true;
               }).ok());
  auto rec = t.Get(Row({1}));
  EXPECT_EQ(rec->counter, 42);
  EXPECT_FALSE(rec->consistent);
  // fn returning false leaves the record unchanged.
  ASSERT_TRUE(t.Mutate(Row({1}), [](Record* r) {
                 r->counter = 99;
                 return false;
               }).ok());
  EXPECT_EQ(t.Get(Row({1}))->counter, 42);
  EXPECT_TRUE(t.Mutate(Row({7}), [](Record*) { return true; }).IsNotFound());
}

TEST(TableTest, FuzzyScanSeesAllQuiescentRecords) {
  Table t(1, "t", TwoColSchema());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(t.Insert(Rec(i, "v")).ok());
  size_t n = 0;
  t.FuzzyScan([&](const Record&) { n++; });
  EXPECT_EQ(n, 1000u);
}

TEST(TableTest, FuzzyScanToleratesConcurrentWriters) {
  Table t(1, "t", TwoColSchema());
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(t.Insert(Rec(i, "v")).ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 2000;
    while (!stop.load()) {
      (void)t.Insert(Rec(i, "w"));
      (void)t.Delete(Row({i - 1000}));
      (void)t.Mutate(Row({i % 500}), [](Record* r) {
        r->row[1] = Value("mut");
        return true;
      });
      ++i;
    }
  });
  for (int round = 0; round < 30; ++round) {
    size_t n = 0;
    t.FuzzyScan([&](const Record& rec) {
      // Records are never torn: each row still has 2 columns and an int key.
      ASSERT_EQ(rec.row.size(), 2u);
      ASSERT_EQ(rec.row[0].type(), ValueType::kInt64);
      n++;
    });
    EXPECT_GT(n, 0u);
  }
  stop.store(true);
  writer.join();
}

// --- Secondary indexes -----------------------------------------------------------------

TEST(TableTest, IndexMaintainedAcrossCrud) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  SecondaryIndex* idx = t.GetIndex("by_val");
  ASSERT_NE(idx, nullptr);

  ASSERT_TRUE(t.Insert(Rec(1, "x")).ok());
  ASSERT_TRUE(t.Insert(Rec(2, "x")).ok());
  ASSERT_TRUE(t.Insert(Rec(3, "y")).ok());
  EXPECT_EQ(idx->Count(Row({"x"})), 2u);
  EXPECT_EQ(idx->Count(Row({"y"})), 1u);

  ASSERT_TRUE(t.Update(Row({1}), Rec(1, "y")).ok());
  EXPECT_EQ(idx->Count(Row({"x"})), 1u);
  EXPECT_EQ(idx->Count(Row({"y"})), 2u);

  ASSERT_TRUE(t.Delete(Row({3})).ok());
  EXPECT_EQ(idx->Count(Row({"y"})), 1u);
  auto pks = idx->Lookup(Row({"y"}));
  ASSERT_EQ(pks.size(), 1u);
  EXPECT_EQ(pks[0], Row({1}));
}

TEST(TableTest, IndexBackfillsExistingRecords) {
  Table t(1, "t", TwoColSchema());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.Insert(Rec(i, i % 2 ? "a" : "b")).ok());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"a"})), 50u);
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"b"})), 50u);
}

TEST(TableTest, IndexMutateMaintainsEntries) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  ASSERT_TRUE(t.Insert(Rec(1, "x")).ok());
  ASSERT_TRUE(t.Mutate(Row({1}), [](Record* r) {
                 r->row[1] = Value("z");
                 return true;
               }).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"x"})), 0u);
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"z"})), 1u);
}

TEST(TableTest, DuplicateIndexRejected) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("i", {"val"}).ok());
  EXPECT_TRUE(t.CreateIndex("i", {"val"}).IsAlreadyExists());
  EXPECT_TRUE(t.CreateIndex("j", {"nope"}).IsInvalidArgument());
  EXPECT_EQ(t.GetIndex("missing"), nullptr);
}

TEST(IndexTest, AddIsDeduplicating) {
  SecondaryIndex idx("i", {0});
  idx.Add(Row({1}), Row({10}));
  idx.Add(Row({1}), Row({10}));
  idx.Add(Row({1}), Row({11}));
  EXPECT_EQ(idx.Count(Row({1})), 2u);
  idx.Remove(Row({1}), Row({10}));
  EXPECT_EQ(idx.Count(Row({1})), 1u);
  idx.Remove(Row({1}), Row({11}));
  EXPECT_EQ(idx.Count(Row({1})), 0u);
  EXPECT_TRUE(idx.Lookup(Row({1})).empty());
}

// --- NULL keys in index (padding records) -------------------------------------------------

TEST(IndexTest, NullKeysGroupTogether) {
  SecondaryIndex idx("i", {0});
  idx.Add(Row({Value::Null()}), Row({1}));
  idx.Add(Row({Value::Null()}), Row({2}));
  EXPECT_EQ(idx.Count(Row({Value::Null()})), 2u);
}

// --- Catalog -------------------------------------------------------------------------------

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  auto t = cat.CreateTable("users", TwoColSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "users");
  EXPECT_EQ(cat.GetByName("users"), *t);
  EXPECT_EQ(cat.GetById((*t)->id()), *t);
  EXPECT_TRUE(cat.CreateTable("users", TwoColSchema()).status().IsAlreadyExists());
  EXPECT_TRUE(cat.DropTable("users").ok());
  EXPECT_EQ(cat.GetByName("users"), nullptr);
  EXPECT_TRUE(cat.DropTable("users").IsNotFound());
}

TEST(CatalogTest, DroppedTableSurvivesViaSharedPtr) {
  Catalog cat;
  auto t = *cat.CreateTable("tmp", TwoColSchema());
  ASSERT_TRUE(t->Insert(Rec(1, "a")).ok());
  ASSERT_TRUE(cat.DropTable("tmp").ok());
  // A holder (e.g. a propagator mid-scan) can still use the storage.
  EXPECT_EQ(t->size(), 1u);
}

TEST(CatalogTest, RenameTable) {
  Catalog cat;
  auto t = *cat.CreateTable("old", TwoColSchema());
  ASSERT_TRUE(cat.RenameTable("old", "new").ok());
  EXPECT_EQ(cat.GetByName("old"), nullptr);
  EXPECT_EQ(cat.GetByName("new"), t);
  EXPECT_EQ(t->name(), "new");
  auto other = cat.CreateTable("other", TwoColSchema());
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(cat.RenameTable("new", "other").IsAlreadyExists());
  EXPECT_TRUE(cat.RenameTable("ghost", "x").IsNotFound());
}

TEST(CatalogTest, IdsAreUniqueAndIncreasing) {
  Catalog cat;
  auto a = *cat.CreateTable("a", TwoColSchema());
  auto b = *cat.CreateTable("b", TwoColSchema());
  EXPECT_LT(a->id(), b->id());
  EXPECT_EQ(cat.num_tables(), 2u);
  EXPECT_EQ(cat.TableNames().size(), 2u);
}

TEST(TableTest, ClearEmptiesTableAndIndexes) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("i", {"val"}).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Insert(Rec(i, "v")).ok());
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.GetIndex("i")->Count(Row({"v"})), 0u);
}

// --- Rmw --------------------------------------------------------------------------

TEST(TableTest, RmwInsertsWhenAbsentAndErasesOnDemand) {
  Table t(1, "t", TwoColSchema());
  // Absent + kKeep: stays absent.
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record*, bool exists) {
                 EXPECT_FALSE(exists);
                 return Table::RmwAction::kKeep;
               }).ok());
  EXPECT_FALSE(t.Contains(Row({1})));
  // Absent + kPut: inserts.
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record* rec, bool exists) {
                 EXPECT_FALSE(exists);
                 rec->row = Row({1, "a"});
                 rec->counter = 1;
                 return Table::RmwAction::kPut;
               }).ok());
  EXPECT_EQ(t.Get(Row({1}))->counter, 1);
  // Present + kPut: replaces.
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record* rec, bool exists) {
                 EXPECT_TRUE(exists);
                 rec->counter++;
                 return Table::RmwAction::kPut;
               }).ok());
  EXPECT_EQ(t.Get(Row({1}))->counter, 2);
  // Present + kErase: removes.
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record*, bool) {
                 return Table::RmwAction::kErase;
               }).ok());
  EXPECT_FALSE(t.Contains(Row({1})));
}

TEST(TableTest, RmwMaintainsIndexes) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record* rec, bool) {
                 rec->row = Row({1, "a"});
                 return Table::RmwAction::kPut;
               }).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"a"})), 1u);
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record* rec, bool) {
                 rec->row = Row({1, "b"});
                 return Table::RmwAction::kPut;
               }).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"a"})), 0u);
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"b"})), 1u);
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record*, bool) {
                 return Table::RmwAction::kErase;
               }).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"b"})), 0u);
}

// --- ForEach action consistency ---------------------------------------------------

// Regression test: ForEach used to alias FuzzyScan, which releases shard
// locks between shards — a concurrent writer could then produce a *torn*
// view matching no prefix of the action sequence. The writer below keeps a
// cross-shard invariant: each round first adds +1 to every "credit" record,
// then -1 to every "debit" record, so after any prefix of single-record
// actions sum(counters) ∈ [0, kPairs]. A fuzzy view can miss a credit
// increment but catch the matching debit decrement (negative sum) or see
// extra credits from a later round (sum > kPairs); an action-consistent
// ForEach pass never can.
TEST(TableTest, ForEachIsActionConsistentUnderConcurrentWriter) {
  constexpr int64_t kPairs = 16;
  Table t(1, "t", TwoColSchema());
  // Even ids are credits, odd ids debits; ids spread over all shards.
  for (int64_t i = 0; i < 2 * kPairs; ++i) {
    ASSERT_TRUE(t.Insert(Rec(i, i % 2 == 0 ? "credit" : "debit")).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int64_t i = 0; i < 2 * kPairs; i += 2) {
        ASSERT_TRUE(t.Mutate(Row({i}), [](Record* rec) {
                       rec->counter++;
                       return true;
                     }).ok());
      }
      for (int64_t i = 1; i < 2 * kPairs; i += 2) {
        ASSERT_TRUE(t.Mutate(Row({i}), [](Record* rec) {
                       rec->counter--;
                       return true;
                     }).ok());
      }
    }
  });
  for (int pass = 0; pass < 400; ++pass) {
    int64_t sum = 0;
    size_t seen = 0;
    t.ForEach([&](const Record& rec) {
      sum += rec.counter;
      seen++;
      // Hand the writer the CPU mid-scan: a shard-at-a-time fuzzy scan tears
      // here, an all-shards-locked pass cannot.
      std::this_thread::yield();
    });
    EXPECT_EQ(seen, static_cast<size_t>(2 * kPairs));
    EXPECT_GE(sum, 0) << "torn view: caught a debit without its credit";
    EXPECT_LE(sum, kPairs) << "torn view: caught credits of a later round";
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

// --- Batch inserts and per-shard snapshots (population pipeline) ------------------

TEST(TableBatchTest, InsertBatchGroupsAcrossShardsAndMaintainsIndexes) {
  Table t(1, "t", TwoColSchema(), /*num_shards=*/4);
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  // Keys spread across all shards; a shared index value exercises the
  // amortized index pass.
  std::vector<Record> batch;
  for (int64_t i = 0; i < 64; ++i) {
    batch.push_back(Rec(i, i % 2 == 0 ? "even" : "odd", /*lsn=*/10 + i));
  }
  auto stats = t.InsertBatch(std::move(batch));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, 64u);
  EXPECT_EQ(stats->replaced, 0u);
  EXPECT_EQ(stats->skipped, 0u);
  EXPECT_EQ(t.size(), 64u);
  for (int64_t i = 0; i < 64; ++i) {
    auto rec = t.Get(Row({i}));
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->lsn, static_cast<Lsn>(10 + i));
  }
  SecondaryIndex* idx = t.GetIndex("by_val");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Count(Row({"even"})), 32u);
  EXPECT_EQ(idx->Count(Row({"odd"})), 32u);
}

TEST(TableBatchTest, InsertBatchToleratesDuplicatesFirstWins) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Rec(1, "stored", 5)).ok());
  // Key 1 duplicates a stored record, key 2 duplicates within the batch:
  // the stored / first occurrence wins, exactly like an Insert loop that
  // ignores AlreadyExists.
  std::vector<Record> batch = {Rec(1, "late", 9), Rec(2, "first", 6),
                               Rec(2, "second", 7), Rec(3, "fresh", 8)};
  auto stats = t.InsertBatch(std::move(batch));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, 2u);  // keys 2 and 3
  EXPECT_EQ(stats->skipped, 2u);
  EXPECT_EQ(t.Get(Row({1}))->row[1], Value("stored"));
  EXPECT_EQ(t.Get(Row({2}))->row[1], Value("first"));
  EXPECT_EQ(t.Get(Row({3}))->row[1], Value("fresh"));
}

TEST(TableBatchTest, UpsertBatchLsnGatedNewestWinsAndReindexes) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  ASSERT_TRUE(t.Insert(Rec(1, "old", 5)).ok());
  ASSERT_TRUE(t.Insert(Rec(2, "keep", 9)).ok());
  // Key 1: higher LSN replaces (and the index entry moves). Key 2: lower
  // LSN loses. Key 3: within-batch duplicate — the higher-LSN occurrence
  // wins regardless of order. Tie on key 2 at LSN 9 keeps the stored row.
  std::vector<Record> batch = {Rec(1, "new", 8), Rec(2, "late", 4),
                               Rec(3, "young", 3), Rec(3, "newest", 6),
                               Rec(2, "tie", 9)};
  auto stats = t.UpsertBatchLsnGated(std::move(batch));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, 1u);  // key 3
  EXPECT_EQ(stats->replaced, 1u);  // key 1
  EXPECT_EQ(stats->skipped, 3u);   // key 2 twice + key 3's in-batch loser
  EXPECT_EQ(t.Get(Row({1}))->row[1], Value("new"));
  EXPECT_EQ(t.Get(Row({1}))->lsn, 8u);
  EXPECT_EQ(t.Get(Row({2}))->row[1], Value("keep"));
  EXPECT_EQ(t.Get(Row({3}))->row[1], Value("newest"));
  SecondaryIndex* idx = t.GetIndex("by_val");
  EXPECT_EQ(idx->Count(Row({"old"})), 0u);  // replaced image de-indexed
  EXPECT_EQ(idx->Count(Row({"new"})), 1u);
  EXPECT_EQ(idx->Count(Row({"newest"})), 1u);
}

/// Full record state (row, LSN, counter, flag), sorted, for exact comparison.
std::vector<std::string> Dump(const Table& t) {
  std::vector<std::string> out;
  t.ForEach([&](const Record& rec) {
    out.push_back(rec.row.ToString() + " lsn=" + std::to_string(rec.lsn) +
                  " ctr=" + std::to_string(rec.counter) +
                  (rec.consistent ? " C" : " U"));
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// The index holds exactly one entry per record, under that record's own
/// index key — i.e. it equals an index rebuilt from the table's contents
/// (Add deduplicates, so entries == size plus every record found means no
/// stale or extra entry survives).
void ExpectIndexMatchesContents(const Table& t, const std::string& name) {
  SCOPED_TRACE("index " + name);
  SecondaryIndex* idx = t.GetIndex(name);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->num_entries(), t.size());
  t.ForEach([&](const Record& rec) {
    const Row pk = t.schema().KeyOf(rec.row);
    const std::vector<Row> hits = idx->Lookup(idx->KeyOf(rec.row));
    EXPECT_NE(std::find(hits.begin(), hits.end(), pk), hits.end())
        << rec.row.ToString() << " missing from " << name;
  });
}

// The moved batch path copies images only for the indexes, so an indexed
// and an unindexed table must end byte-identical with identical BatchStats.
// The batch covers in-batch duplicates (first wins / newest LSN wins, in
// both orders), LSN ties (against the store and within the batch), and
// stored records that beat the batch.
TEST(TableBatchTest, IndexedAndUnindexedBatchesAgree) {
  for (const bool upsert : {false, true}) {
    SCOPED_TRACE(upsert ? "UpsertBatchLsnGated" : "InsertBatch");
    Table plain(1, "plain", TwoColSchema(), /*num_shards=*/4);
    Table indexed(2, "indexed", TwoColSchema(), /*num_shards=*/4);
    ASSERT_TRUE(indexed.CreateIndex("by_val", {"val"}).ok());
    for (Table* t : {&plain, &indexed}) {
      ASSERT_TRUE(t->Insert(Rec(1, "stored1", 5)).ok());
      ASSERT_TRUE(t->Insert(Rec(2, "stored2", 9)).ok());
      ASSERT_TRUE(t->Insert(Rec(3, "stored3", 4)).ok());
    }
    auto make_batch = [] {
      return std::vector<Record>{
          Rec(1, "newer1", 8),   // replaces stored1 (upsert)
          Rec(1, "newest1", 12), // in-batch: displaces newer1 (upsert)
          Rec(2, "older2", 3),   // stored2 wins
          Rec(2, "tie2", 9),     // tie with the store: stored2 wins
          Rec(3, "a3", 7),       // replaces stored3 (upsert)
          Rec(3, "b3", 6),       // in-batch loser: lower LSN
          Rec(4, "first4", 2),   // fresh key
          Rec(4, "second4", 2),  // in-batch tie: first wins
          Rec(5, "young5", 1),   // fresh key
          Rec(5, "old5", 11),    // in-batch newer (upsert)
          Rec(6, "only6", 3),    // fresh key
      };
    };
    auto stats_plain = upsert ? plain.UpsertBatchLsnGated(make_batch())
                              : plain.InsertBatch(make_batch());
    auto stats_indexed = upsert ? indexed.UpsertBatchLsnGated(make_batch())
                                : indexed.InsertBatch(make_batch());
    ASSERT_TRUE(stats_plain.ok());
    ASSERT_TRUE(stats_indexed.ok());
    EXPECT_EQ(stats_plain->inserted, stats_indexed->inserted);
    EXPECT_EQ(stats_plain->replaced, stats_indexed->replaced);
    EXPECT_EQ(stats_plain->skipped, stats_indexed->skipped);
    EXPECT_EQ(Dump(plain), Dump(indexed));
    ExpectIndexMatchesContents(indexed, "by_val");

    // Per key, as if duplicates were resolved before touching the store:
    // keys 4, 5 and 6 are inserted; upsert replaces keys 1 and 3; every
    // other occurrence is skipped.
    EXPECT_EQ(stats_plain->inserted, 3u);
    EXPECT_EQ(stats_plain->replaced, upsert ? 2u : 0u);
    EXPECT_EQ(stats_plain->skipped, upsert ? 6u : 8u);
    auto val = [&](int64_t id) { return plain.Get(Row({id}))->row[1]; };
    auto lsn = [&](int64_t id) { return plain.Get(Row({id}))->lsn; };
    EXPECT_EQ(val(1), Value(upsert ? "newest1" : "stored1"));
    EXPECT_EQ(lsn(1), upsert ? 12u : 5u);
    EXPECT_EQ(val(2), Value("stored2"));
    EXPECT_EQ(val(3), Value(upsert ? "a3" : "stored3"));
    EXPECT_EQ(val(4), Value("first4"));
    EXPECT_EQ(val(5), Value(upsert ? "old5" : "young5"));
    EXPECT_EQ(lsn(5), upsert ? 11u : 1u);
    EXPECT_EQ(val(6), Value("only6"));
  }
}

// CreateIndex backfills while batch, single-record insert and update
// writers run. Writers read the index-presence flag under the shard mutex
// and the backfill indexes each shard under that same mutex, so no write
// can fall between the two: after the join every index must equal one
// rebuilt from the table. Progress counters (not sleeps) place the index
// creations inside the writers' run.
TEST(TableBatchTest, CreateIndexRacesWriters) {
  Table t(1, "t", TwoColSchema(), /*num_shards=*/8);
  constexpr int64_t kKeys = 400;
  for (int64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(t.Insert(Rec(i, "v" + std::to_string(i % 7))).ok());
  }
  constexpr int kRounds = 300;
  std::atomic<int> progress{0};
  std::thread batcher([&] {
    // Keys [10000, ...): 8-record batches, each with one in-batch duplicate.
    for (int r = 0; r < kRounds; ++r) {
      std::vector<Record> batch;
      for (int k = 0; k < 8; ++k) {
        const int64_t id = 10000 + r * 8 + k;
        batch.push_back(Rec(id, "b" + std::to_string(id % 5), 1));
      }
      batch.push_back(Rec(10000 + r * 8, "dup", 2));
      ASSERT_TRUE(t.UpsertBatchLsnGated(std::move(batch)).ok());
      progress.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread inserter([&] {
    for (int r = 0; r < kRounds; ++r) {
      const int64_t id = 20000 + r;
      ASSERT_TRUE(t.Insert(Rec(id, "i" + std::to_string(id % 3))).ok());
      progress.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread updater([&] {
    // Rewrites the preloaded keys so their index keys keep moving.
    for (int r = 0; r < kRounds; ++r) {
      for (int64_t i = r % 4; i < kKeys; i += 4) {
        ASSERT_TRUE(
            t.Update(Row({i}), Rec(i, "u" + std::to_string((i + r) % 6), r))
                .ok());
      }
      progress.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const std::vector<std::string> names = {"i0", "i1", "i2"};
  for (size_t k = 0; k < names.size(); ++k) {
    const int due = static_cast<int>((k + 1) * kRounds * 3 / 4 / names.size());
    while (progress.load(std::memory_order_relaxed) < due) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(t.CreateIndex(names[k], {"val"}).ok());
  }
  batcher.join();
  inserter.join();
  updater.join();
  EXPECT_EQ(t.size(), static_cast<size_t>(kKeys + kRounds * 8 + kRounds));
  for (const std::string& name : names) ExpectIndexMatchesContents(t, name);
}

TEST(TableBatchTest, ReservePreservesContentsAndIsIdempotent) {
  Table t(1, "t", TwoColSchema(), /*num_shards=*/8);
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Insert(Rec(i, "v" + std::to_string(i % 3), i)).ok());
  }
  const std::vector<std::string> before = Dump(t);
  t.Reserve(20000);
  const size_t reserved = t.capacity();
  EXPECT_GE(reserved, 20000u);
  EXPECT_EQ(Dump(t), before);
  // Absolute and grow-only: repeating the call, or asking for less, keeps
  // the bucket arrays as they are.
  t.Reserve(20000);
  EXPECT_EQ(t.capacity(), reserved);
  t.Reserve(10);
  EXPECT_EQ(t.capacity(), reserved);
  EXPECT_EQ(Dump(t), before);
  // Writes after the reservation behave as before it.
  ASSERT_TRUE(t.Insert(Rec(500, "v0", 7)).ok());
  EXPECT_TRUE(t.Insert(Rec(5, "dup")).IsAlreadyExists());
  EXPECT_EQ(t.size(), 101u);
  ExpectIndexMatchesContents(t, "by_val");

  SecondaryIndex* idx = t.GetIndex("by_val");
  idx->Reserve(5000);
  EXPECT_EQ(idx->Count(Row({"v0"})), 35u);
  EXPECT_EQ(idx->num_entries(), 101u);
}

TEST(TableSnapshotShardTest, ShardsAreDisjointAndCoverTable) {
  Table t(1, "t", TwoColSchema(), /*num_shards=*/8);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.Insert(Rec(i, "v")).ok());
  }
  std::vector<Row> seen;
  for (size_t sh = 0; sh < t.num_shards(); ++sh) {
    for (const Record& rec : t.SnapshotShard(sh)) seen.push_back(rec.row);
  }
  // Every key exactly once across all shards: disjoint and covering.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen.size(), 200u);
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  // Out-of-range shard index is an empty snapshot, not UB.
  EXPECT_TRUE(t.SnapshotShard(t.num_shards()).empty());
}

TEST(TableSnapshotShardTest, RecordsAreNeverTorn) {
  // The writer keeps both columns of an invariant in one record (counter ==
  // lsn); a snapshot taken under the shard mutex can be stale but never
  // torn, so the invariant must hold in every snapshotted record.
  Table t(1, "t", TwoColSchema(), /*num_shards=*/4);
  for (int64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(t.Insert(Rec(i, "v", /*lsn=*/0)).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t round = 1;
    while (!stop.load(std::memory_order_acquire)) {
      for (int64_t i = 0; i < 32; ++i) {
        ASSERT_TRUE(t.Mutate(Row({i}), [&](Record* rec) {
                       rec->lsn = round;
                       rec->counter = static_cast<int64_t>(round);
                       return true;
                     }).ok());
      }
      round++;
    }
  });
  for (int pass = 0; pass < 300; ++pass) {
    for (size_t sh = 0; sh < t.num_shards(); ++sh) {
      for (const Record& rec : t.SnapshotShard(sh)) {
        EXPECT_EQ(static_cast<uint64_t>(rec.counter), rec.lsn)
            << "torn record: lsn and counter written together must be read "
               "together";
      }
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(TableTest, CompositeKeys) {
  auto schema = *Schema::Make({{"a", ValueType::kInt64, false},
                               {"b", ValueType::kString, false},
                               {"v", ValueType::kInt64, true}},
                              {"a", "b"});
  Table t(1, "t", std::move(schema));
  Record r1;
  r1.row = Row({1, "x", 7});
  ASSERT_TRUE(t.Insert(r1).ok());
  Record r2;
  r2.row = Row({1, "y", 8});
  ASSERT_TRUE(t.Insert(r2).ok());
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.Contains(Row({1, "x"})));
  EXPECT_TRUE(t.Contains(Row({1, "y"})));
  EXPECT_FALSE(t.Contains(Row({1, "z"})));
}

}  // namespace
}  // namespace morph::storage
