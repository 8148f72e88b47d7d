#include "driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

template <typename T>
T NearestRank(std::vector<T>* values, double q) {
  if (values->empty()) return T{};
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values->begin(), values->begin() + (rank - 1),
                   values->end());
  return (*values)[rank - 1];
}

}  // namespace

int64_t QuantileOf(std::vector<int64_t>* values, double q) {
  return NearestRank(values, q);
}

double QuantileOf(std::vector<double>* values, double q) {
  return NearestRank(values, q);
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^ (stream + 0x632be59bd9b4e019ULL) *
                                                  0xbf58476d1ce4e5b9ULL ^
               (index + 1) * 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  double zetan = 0;
  for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
}

uint64_t Zipf::Sample(double u) const {
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (n_ > 1 && uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

Schedule::Schedule(int64_t start_nanos, double rate_per_second)
    : start_nanos_(start_nanos), period_nanos_(1e9 / rate_per_second) {}

int64_t Schedule::DueNanos(uint64_t index) const {
  return start_nanos_ +
         static_cast<int64_t>(period_nanos_ * static_cast<double>(index));
}

void RunClient(Schedule* schedule, const std::atomic<int64_t>& stop_at,
               Recorder* rec,
               const std::function<Outcome(uint64_t, Recorder*)>& txn) {
  while (true) {
    const uint64_t j = schedule->Claim();
    const int64_t due = schedule->DueNanos(j);
    if (due >= stop_at.load()) return;
    // Sleep in bounded slices so a stop request is seen promptly.
    for (int64_t now = NowNanos(); now < due; now = NowNanos()) {
      if (due >= stop_at.load()) return;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(due - now, 2'000'000)));
    }
    Attempt a;
    a.due_nanos = due;
    a.start_nanos = NowNanos();
    a.first_call = static_cast<uint32_t>(rec->calls.size());
    rec->attempt_start = a.start_nanos;
    a.outcome = txn(j, rec);
    a.end_nanos = NowNanos();
    a.epoch = rec->attempt_epoch;
    a.num_calls = static_cast<uint16_t>(rec->calls.size() - a.first_call);
    rec->attempts.push_back(a);
  }
}

const char* CallKindName(CallKind kind) {
  switch (kind) {
    case CallKind::kBegin: return "begin";
    case CallKind::kRead: return "read";
    case CallKind::kUpdate: return "update";
    case CallKind::kInsert: return "insert";
    case CallKind::kDelete: return "delete";
    case CallKind::kCommit: return "commit";
    case CallKind::kAbort: return "abort";
    case CallKind::kCount: break;
  }
  return "?";
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kIdle: return "idle";
    case Phase::kBase: return "base";
    case Phase::kPrepare: return "prepare";
    case Phase::kPopulate: return "populate";
    case Phase::kPropagate: return "propagate";
    case Phase::kSync: return "sync";
    case Phase::kDrain: return "drain";
    case Phase::kCount: break;
  }
  return "?";
}

void Timeline::Mark(int64_t at_nanos, Phase phase) {
  if (!marks_.empty() && marks_.back().second == phase) return;
  marks_.emplace_back(at_nanos, phase);
}

Phase Timeline::PhaseAt(int64_t at_nanos) const {
  auto it = std::upper_bound(
      marks_.begin(), marks_.end(), at_nanos,
      [](int64_t t, const std::pair<int64_t, Phase>& m) { return t < m.first; });
  if (it == marks_.begin()) return Phase::kIdle;
  return std::prev(it)->second;
}

int64_t Timeline::FirstEntry(Phase phase) const {
  for (const auto& [at, p] : marks_) {
    if (p == phase) return at;
  }
  return -1;
}

double ProbeEffectiveParallelism(int threads, int64_t window_nanos) {
  auto spin = [](int64_t nanos) {
    const int64_t end = NowNanos() + nanos;
    uint64_t work = 0;
    volatile uint64_t sink = 0;
    while (NowNanos() < end) {
      for (int i = 0; i < 1000; ++i) sink = sink + i;
      ++work;
    }
    return work;
  };
  // Alternate single- and multi-thread slices so a neighbour's burst
  // weighs on both sides alike.
  constexpr int kRounds = 5;
  const int64_t slice = window_nanos / kRounds;
  double single = 0, multi = 0;
  for (int round = 0; round < kRounds; ++round) {
    single += static_cast<double>(spin(slice));
    std::vector<uint64_t> counts(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&counts, &spin, slice, t] { counts[t] = spin(slice); });
    }
    for (auto& th : pool) th.join();
    for (uint64_t c : counts) multi += static_cast<double>(c);
  }
  return single > 0 ? multi / single : 0;
}

}  // namespace perfbench
