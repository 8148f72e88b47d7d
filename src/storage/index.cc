#include "storage/index.h"

#include <algorithm>

namespace morph::storage {

void SecondaryIndex::Add(Row index_key, const Row& pk) {
  std::unique_lock lock(mu_);
  auto& pks = map_.try_emplace(std::move(index_key)).first->second;
  for (const Row& existing : pks) {
    if (existing == pk) return;
  }
  pks.push_back(pk);
}

void SecondaryIndex::Remove(const Row& index_key, const Row& pk) {
  std::unique_lock lock(mu_);
  auto it = map_.find(index_key);
  if (it == map_.end()) return;
  auto& pks = it->second;
  pks.erase(std::remove(pks.begin(), pks.end(), pk), pks.end());
  if (pks.empty()) map_.erase(it);
}

std::vector<Row> SecondaryIndex::Lookup(const Row& index_key) const {
  std::unique_lock lock(mu_);
  auto it = map_.find(index_key);
  if (it == map_.end()) return {};
  return it->second;
}

size_t SecondaryIndex::Count(const Row& index_key) const {
  std::unique_lock lock(mu_);
  auto it = map_.find(index_key);
  return it == map_.end() ? 0 : it->second.size();
}

size_t SecondaryIndex::num_entries() const {
  std::unique_lock lock(mu_);
  size_t n = 0;
  for (const auto& [key, pks] : map_) n += pks.size();
  return n;
}

void SecondaryIndex::Reserve(size_t keys) {
  std::unique_lock lock(mu_);
  if (map_.bucket_count() * map_.max_load_factor() < keys) map_.reserve(keys);
}

void SecondaryIndex::Clear() {
  std::unique_lock lock(mu_);
  map_.clear();
}

}  // namespace morph::storage
