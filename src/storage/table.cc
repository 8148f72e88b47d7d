#include "storage/table.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace morph::storage {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

Table::Table(TableId id, std::string name, Schema schema, size_t num_shards,
             size_t num_tablets)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      shard_mask_(RoundUpPow2(num_shards) - 1),
      shards_(shard_mask_ + 1),
      tablets_(shard_mask_ + 1, num_tablets),
      latches_(tablets_.num_tablets()) {}

void Table::IndexAdd(const Row& row, const Row& pk) {
  MORPH_FAILPOINT_VOID("storage.index.add");
  std::unique_lock lock(indexes_mu_);
  for (auto& idx : indexes_) idx->Add(idx->KeyOf(row), pk);
}

void Table::IndexRemove(const Row& row, const Row& pk) {
  MORPH_FAILPOINT_VOID("storage.index.remove");
  std::unique_lock lock(indexes_mu_);
  for (auto& idx : indexes_) idx->Remove(idx->KeyOf(row), pk);
}

// Every write below moves the record it owns into the shard map. The images
// the secondary indexes need are copied only when indexed_ — read under the
// shard mutex — says an index exists; index maintenance itself runs after
// the shard mutex is released.

Status Table::Insert(Record record) {
  MORPH_FAILPOINT("storage.table.insert");
  MORPH_COUNTER_INC("storage.table.inserts");
  Row pk = schema_.KeyOf(record.row);
  Shard& shard = ShardFor(pk);
  Row index_row;
  {
    std::unique_lock lock(shard.mu);
    const bool indexed = indexed_.load(std::memory_order_acquire);
    // try_emplace leaves its arguments alone when the key exists, so `pk`
    // is still there for the error message.
    auto [it, inserted] =
        indexed ? shard.map.try_emplace(pk, std::move(record))
                : shard.map.try_emplace(std::move(pk), std::move(record));
    if (!inserted) {
      return Status::AlreadyExists("duplicate key " + pk.ToString() + " in " +
                                   name_);
    }
    if (!indexed) return Status::OK();
    index_row = it->second.row;
  }
  IndexAdd(index_row, pk);
  return Status::OK();
}

Status Table::Update(const Row& key, Record record) {
  MORPH_FAILPOINT("storage.table.update");
  MORPH_COUNTER_INC("storage.table.updates");
  const Row new_pk = schema_.KeyOf(record.row);
  if (new_pk != key) {
    return Status::InvalidArgument("Update may not change the primary key (" +
                                   key.ToString() + " -> " + new_pk.ToString() +
                                   ")");
  }
  Shard& shard = ShardFor(key);
  Row new_row;
  bool indexed = false;
  {
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      return Status::NotFound("no record with key " + key.ToString() + " in " +
                              name_);
    }
    indexed = indexed_.load(std::memory_order_acquire);
    if (indexed) new_row = record.row;
    // `record` leaves holding the old image, freed outside the mutex.
    std::swap(it->second, record);
  }
  if (indexed) {
    IndexRemove(record.row, key);
    IndexAdd(new_row, key);
  }
  return Status::OK();
}

Status Table::Delete(const Row& key) {
  MORPH_FAILPOINT("storage.table.delete");
  MORPH_COUNTER_INC("storage.table.deletes");
  Shard& shard = ShardFor(key);
  Record old_record;
  bool indexed = false;
  {
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      return Status::NotFound("no record with key " + key.ToString() + " in " +
                              name_);
    }
    old_record = std::move(it->second);
    shard.map.erase(it);
    indexed = indexed_.load(std::memory_order_acquire);
  }
  if (indexed) IndexRemove(old_record.row, key);
  return Status::OK();
}

Result<Record> Table::Get(const Row& key) const {
  const Shard& shard = ShardFor(key);
  std::unique_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return Status::NotFound("no record with key " + key.ToString() + " in " +
                            name_);
  }
  return it->second;
}

bool Table::Contains(const Row& key) const {
  const Shard& shard = ShardFor(key);
  std::unique_lock lock(shard.mu);
  return shard.map.find(key) != shard.map.end();
}

Status Table::Mutate(const Row& key, const std::function<bool(Record*)>& fn) {
  MORPH_FAILPOINT("storage.table.mutate");
  MORPH_COUNTER_INC("storage.table.mutates");
  Shard& shard = ShardFor(key);
  Record tmp;  // declared before the lock: freed after it is released
  Row new_row;
  bool reindex = false;
  {
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      return Status::NotFound("no record with key " + key.ToString() + " in " +
                              name_);
    }
    // A scratch copy: `fn` may edit it and still decline the change.
    tmp = it->second;
    if (!fn(&tmp)) return Status::OK();
    if (schema_.KeyOf(tmp.row) != key) {
      return Status::InvalidArgument("Mutate may not change the primary key");
    }
    reindex = indexed_.load(std::memory_order_acquire) &&
              tmp.row != it->second.row;
    if (reindex) new_row = tmp.row;
    std::swap(it->second, tmp);  // `tmp` now holds the old image
  }
  if (reindex) {
    IndexRemove(tmp.row, key);
    IndexAdd(new_row, key);
  }
  return Status::OK();
}

Status Table::Rmw(const Row& key,
                  const std::function<RmwAction(Record*, bool)>& fn) {
  MORPH_FAILPOINT("storage.table.rmw");
  MORPH_COUNTER_INC("storage.table.rmws");
  Shard& shard = ShardFor(key);
  Record tmp;  // the scratch, then the old image; freed outside the mutex
  Row new_row;
  bool drop_old = false;
  bool add_new = false;
  {
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    const bool exists = it != shard.map.end();
    if (exists) tmp = it->second;
    const RmwAction action = fn(&tmp, exists);
    const bool indexed = indexed_.load(std::memory_order_acquire);
    switch (action) {
      case RmwAction::kKeep:
        return Status::OK();
      case RmwAction::kPut:
        if (schema_.KeyOf(tmp.row) != key) {
          return Status::InvalidArgument(
              "Rmw may not store a row whose key differs from " +
              key.ToString());
        }
        if (exists) {
          drop_old = add_new = indexed && tmp.row != it->second.row;
          if (add_new) new_row = tmp.row;
          std::swap(it->second, tmp);
        } else {
          add_new = indexed;
          if (add_new) new_row = tmp.row;
          shard.map.emplace(key, std::move(tmp));
        }
        break;
      case RmwAction::kErase:
        if (!exists) return Status::OK();
        tmp = std::move(it->second);
        shard.map.erase(it);
        drop_old = indexed;
        break;
    }
  }
  if (drop_old) IndexRemove(tmp.row, key);
  if (add_new) IndexAdd(new_row, key);
  return Status::OK();
}

Result<Table::BatchStats> Table::InsertBatch(std::vector<Record> records) {
  return ApplyBatch(std::move(records), /*lsn_upsert=*/false);
}

Result<Table::BatchStats> Table::UpsertBatchLsnGated(
    std::vector<Record> records) {
  return ApplyBatch(std::move(records), /*lsn_upsert=*/true);
}

Result<Table::BatchStats> Table::ApplyBatch(std::vector<Record> records,
                                            bool lsn_upsert) {
  BatchStats stats;
  if (records.empty()) return stats;
  MORPH_FAILPOINT("storage.table.insert_batch");

  // Group by destination shard with one hash per key: a counting sort, so
  // each shard's slice order[bounds[sh], bounds[sh + 1]) keeps batch order.
  const size_t n = records.size();
  std::vector<Row> pks;
  pks.reserve(n);
  std::vector<size_t> shard_of(n);
  std::vector<size_t> bounds(shards_.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    pks.push_back(schema_.KeyOf(records[i].row));
    shard_of[i] = pks[i].Hash() & shard_mask_;
    bounds[shard_of[i] + 1]++;
  }
  for (size_t sh = 0; sh < shards_.size(); ++sh) bounds[sh + 1] += bounds[sh];
  std::vector<size_t> order(n);
  {
    std::vector<size_t> next(bounds.begin(), bounds.end() - 1);
    for (size_t i = 0; i < n; ++i) order[next[shard_of[i]]++] = i;
  }

  // Index work, collected only for shards that saw indexed_ set, and applied
  // in collection order after every shard mutex is released (the lock-order
  // rule every mutation path follows). An empty old_row marks a fresh key.
  struct Reindex {
    Row pk;
    Row old_row;
    Row new_row;
  };
  std::vector<Reindex> reindex;
  // Upsert mode: the slots this batch has written in the current shard, so
  // a later in-batch occurrence that displaces one counts as skipping the
  // loser rather than replacing a stored record. Node addresses are stable
  // across rehashes. Searched only on a replacement, which fresh targets
  // never see.
  std::vector<const Record*> written;

  // One mutex acquisition per destination shard. In-batch duplicates
  // resolve in batch order: the first occurrence is inserted and a later
  // one replaces it only on a strictly higher LSN (upsert) — the same
  // outcome as resolving the batch up front.
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    if (bounds[sh] == bounds[sh + 1]) continue;
    Shard& shard = shards_[sh];
    std::unique_lock lock(shard.mu);
    const bool indexed = indexed_.load(std::memory_order_acquire);
    written.clear();
    for (size_t k = bounds[sh]; k < bounds[sh + 1]; ++k) {
      const size_t i = order[k];
      Record& rec = records[i];
      auto [it, inserted] =
          shard.map.try_emplace(std::move(pks[i]), std::move(rec));
      if (inserted) {
        stats.inserted++;
        if (indexed) reindex.push_back({it->first, Row(), it->second.row});
        if (lsn_upsert) written.push_back(&it->second);
      } else if (!lsn_upsert || it->second.lsn >= rec.lsn) {
        stats.skipped++;
      } else {
        const bool ours = std::find(written.begin(), written.end(),
                                    &it->second) != written.end();
        if (ours) {
          stats.skipped++;
        } else {
          stats.replaced++;
          written.push_back(&it->second);
        }
        // `rec` leaves holding the displaced image, freed outside the mutex.
        std::swap(it->second, rec);
        if (indexed) {
          reindex.push_back({it->first, std::move(rec.row), it->second.row});
        }
      }
    }
  }
  MORPH_COUNTER_ADD("storage.table.inserts",
                    static_cast<int64_t>(stats.inserted + stats.replaced));

  // Index maintenance, amortized to one indexes_mu_ acquisition per batch.
  if (!reindex.empty()) {
    std::unique_lock lock(indexes_mu_);
    for (auto& idx : indexes_) {
      for (const Reindex& r : reindex) {
        if (!r.old_row.empty()) idx->Remove(idx->KeyOf(r.old_row), r.pk);
        idx->Add(idx->KeyOf(r.new_row), r.pk);
      }
    }
  }
  return stats;
}

void Table::FuzzyScan(const std::function<void(const Record&)>& fn) const {
  for (const Shard& shard : shards_) {
    std::vector<Record> snapshot;
    {
      std::unique_lock lock(shard.mu);
      snapshot.reserve(shard.map.size());
      for (const auto& [key, record] : shard.map) snapshot.push_back(record);
    }
    for (const Record& record : snapshot) fn(record);
  }
}

std::vector<Record> Table::SnapshotShard(size_t shard_index) const {
  std::vector<Record> snapshot;
  if (shard_index >= shards_.size()) return snapshot;
  const Shard& shard = shards_[shard_index];
  std::unique_lock lock(shard.mu);
  snapshot.reserve(shard.map.size());
  for (const auto& [key, record] : shard.map) snapshot.push_back(record);
  return snapshot;
}

void Table::ForEach(const std::function<void(const Record&)>& fn) const {
  // Lock every shard, in index order, for the whole pass. Writers take
  // exactly one shard mutex each and never while holding another, so a
  // fixed acquisition order here cannot deadlock against them (or against a
  // concurrent ForEach, which uses the same order). The default shard count
  // stays below 64 because TSan's deadlock detector aborts when one thread
  // holds 64 mutexes at once.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const Shard& shard : shards_) locks.emplace_back(shard.mu);
  for (const Shard& shard : shards_) {
    for (const auto& [key, record] : shard.map) fn(record);
  }
}

void Table::Reserve(size_t n) {
  // Keys spread evenly over the shards; the 1/8 margin absorbs the spread of
  // a hash partition, and a shard that still overflows rehashes once.
  const size_t per_shard = n / shards_.size();
  const size_t target = per_shard + per_shard / 8;
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    // unordered_map::reserve may shrink an already larger bucket array, so
    // reserve only when this shard is short of the target.
    if (shard.map.bucket_count() * shard.map.max_load_factor() < target) {
      shard.map.reserve(target);
    }
  }
}

size_t Table::capacity() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    n += static_cast<size_t>(shard.map.bucket_count() *
                             shard.map.max_load_factor());
  }
  return n;
}

size_t Table::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& column_names) {
  MORPH_ASSIGN_OR_RETURN(std::vector<size_t> cols,
                         schema_.IndicesOf(column_names));
  auto index = std::make_unique<SecondaryIndex>(index_name, std::move(cols));
  SecondaryIndex* idx = index.get();
  {
    std::unique_lock lock(indexes_mu_);
    for (const auto& existing : indexes_) {
      if (existing->name() == index_name) {
        return Status::AlreadyExists("index " + index_name + " already exists");
      }
    }
    indexes_.push_back(std::move(index));
    indexed_.store(true, std::memory_order_release);
  }
  // Backfill each shard under its mutex. A writer that read indexed_ clear
  // held this mutex earlier, so its record is here; one that runs later saw
  // indexed_ set and maintains the index itself. Adding under the mutex also
  // puts each backfilled entry before the IndexRemove of any later update of
  // that key, so a racing update cannot leave its old image indexed.
  // SecondaryIndex::Add deduplicates (key, pk) pairs, so a record indexed by
  // both the writer and the backfill appears once.
  for (const Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    for (const auto& [pk, record] : shard.map) {
      idx->Add(idx->KeyOf(record.row), pk);
    }
  }
  return Status::OK();
}

SecondaryIndex* Table::GetIndex(const std::string& index_name) const {
  std::unique_lock lock(indexes_mu_);
  for (const auto& idx : indexes_) {
    if (idx->name() == index_name) return idx.get();
  }
  return nullptr;
}

void Table::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    shard.map.clear();
  }
  std::unique_lock lock(indexes_mu_);
  for (auto& idx : indexes_) idx->Clear();
}

}  // namespace morph::storage
