// The benchmark of record: foreground transaction latency beside online
// split and FOJ transformations, and the time to their switch-over.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// One run: a warm-up cycle, then measured cycles until the time is spent.
// Each cycle loads a fresh database, warms it up under open-loop traffic
// from kClientThreads client threads, measures a baseline window with no
// transformation, runs one complete transformation beside the traffic, and
// checks the transformed tables against the relational oracle over a shadow
// of every acknowledged commit. Each attempt is timed from its due time.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
// untraced cycles and prints the per-layer metrics (from spans
// around every Database call and from registry counter deltas), plus the
// tracing overhead. The last stdout line is the JSON result.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "driver.h"
#include "scenario.h"

using namespace perfbench;
using transform::TransformCoordinator;
using transform::TransformStats;

namespace {

// Run shape. Every cycle loads a fresh database, warms it up, measures a
// baseline window with no transformation, then runs one complete
// transformation. Interleaving the baseline with the transformations keeps
// both under the same host conditions.
constexpr double kWarmupSeconds = 0.3;
constexpr double kBaselineSeconds = 0.5;
constexpr int kMaxCycles = 200;
/// In-memory WAL records kept behind the tail (as bench/harness WalJanitor).
constexpr int64_t kWalMargin = 200'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-run";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindWorkload(args.workload) == nullptr) Usage("unknown --workload");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

void SetFineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

void SleepUntil(int64_t at_nanos) {
  for (int64_t now = NowNanos(); now < at_nanos; now = NowNanos()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(at_nanos - now));
  }
}

void SleepSeconds(double s) {
  SleepUntil(NowNanos() + static_cast<int64_t>(s * 1e9));
}

// --- open-loop traffic -------------------------------------------------

class Traffic {
 public:
  Traffic(Scenario* scenario, uint64_t seed, uint64_t stream, bool traced)
      : scenario_(scenario), seed_(seed), stream_(stream),
        recs_(kClientThreads) {
    for (Recorder& r : recs_) r.traced = traced;
  }
  ~Traffic() { Stop(); }
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  void Start() {
    schedule_ = std::make_unique<Schedule>(NowNanos() + 1'000'000,
                                           scenario_->params().rate_tps);
    for (int i = 0; i < kClientThreads; ++i) {
      threads_.emplace_back([this, i] { Client(i); });
    }
  }

  /// Arrivals due before now still run (however late); then clients exit.
  void Stop() {
    int64_t expected = INT64_MAX;
    stop_at_.compare_exchange_strong(expected, NowNanos());
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  std::vector<Recorder>& recorders() { return recs_; }

 private:
  void Client(int idx) {
    SetFineTimerSlack();
    RunClient(schedule_.get(), stop_at_, &recs_[idx],
              [this](uint64_t j, Recorder* rec) {
                return scenario_->RunTxn(MixSeed(seed_, stream_, j), rec);
              });
  }

  Scenario* scenario_;
  uint64_t seed_;
  uint64_t stream_;
  std::vector<Recorder> recs_;
  std::unique_ptr<Schedule> schedule_;
  std::atomic<int64_t> stop_at_{INT64_MAX};
  std::vector<std::thread> threads_;
};

// --- phase monitor + WAL janitor -----------------------------------------

/// Polls the coordinator's phase() and the engine's epoch into timelines,
/// samples the propagation backlog, and keeps the in-memory log bounded by
/// truncating it behind the tail, clamped at the coordinator's
/// propagated_lsn() (the WAL's retention pin clamps it again).
class Monitor {
 public:
  explicit Monitor(engine::Database* db) : db_(db) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Monitor() {
    stop_.store(true);
    thread_.join();
  }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void Mark(int64_t at, Phase phase) {
    std::lock_guard lock(mu_);
    timeline_.Mark(at, phase);
  }
  void Attach(const TransformCoordinator* coord) {
    std::lock_guard lock(mu_);
    coord_ = coord;
  }
  void Detach() { Attach(nullptr); }
  Timeline timeline() const {
    std::lock_guard lock(mu_);
    return timeline_;
  }
  int64_t backlog_max() const {
    std::lock_guard lock(mu_);
    return backlog_max_;
  }
  std::vector<std::pair<int64_t, uint64_t>> epochs() const {
    std::lock_guard lock(mu_);
    return epochs_;
  }

 private:
  static Phase Map(TransformCoordinator::Phase p) {
    switch (p) {
      case TransformCoordinator::Phase::kPopulating: return Phase::kPopulate;
      case TransformCoordinator::Phase::kPropagating: return Phase::kPropagate;
      case TransformCoordinator::Phase::kSynchronizing: return Phase::kSync;
      case TransformCoordinator::Phase::kDraining: return Phase::kDrain;
      default: return Phase::kPrepare;
    }
  }

  void Loop() {
    SetFineTimerSlack();
    int64_t next_truncate = NowNanos();
    while (!stop_.load()) {
      {
        std::lock_guard lock(mu_);
        const uint64_t epoch = db_->current_epoch();
        if (epochs_.empty() || epochs_.back().second != epoch) {
          epochs_.emplace_back(NowNanos(), epoch);
        }
        if (coord_ != nullptr) {
          const auto p = coord_->phase();
          if (p != TransformCoordinator::Phase::kCompleted &&
              p != TransformCoordinator::Phase::kAborted) {
            timeline_.Mark(NowNanos(), Map(p));
          }
          const morph::Lsn floor = coord_->propagated_lsn();
          const morph::Lsn last = db_->wal()->LastLsn();
          if (floor != morph::kInvalidLsn && last >= floor) {
            backlog_max_ = std::max<int64_t>(backlog_max_, last - floor);
          }
        }
        if (NowNanos() >= next_truncate) {
          next_truncate = NowNanos() + 20'000'000;
          const morph::Lsn last = db_->wal()->LastLsn();
          if (last > static_cast<morph::Lsn>(kWalMargin)) {
            morph::Lsn target = last - kWalMargin;
            if (coord_ != nullptr) {
              const morph::Lsn floor = coord_->propagated_lsn();
              if (floor != morph::kInvalidLsn) target = std::min(target, floor);
            }
            db_->wal()->TruncateBefore(target);
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
  }

  engine::Database* db_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  const TransformCoordinator* coord_ = nullptr;
  Timeline timeline_;
  std::vector<std::pair<int64_t, uint64_t>> epochs_;
  int64_t backlog_max_ = 0;
  std::thread thread_;
};

// --- registry deltas ------------------------------------------------------

const char* const kCounters[] = {
    "engine.txn.commits",    "wal.appends",           "txn.lock.waits",
    "txn.lock.deadlocks",    "txn.lock.timeouts",     "storage.table.inserts",
    "storage.table.updates", "storage.table.deletes",
    "transform.populate.records"};
const char* const kHistograms[] = {
    "txn.lock.wait_nanos", "transform.populate.insert_nanos"};

struct RegistrySnap {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> hists;  // count, sum

  static RegistrySnap Take() {
    auto& reg = morph::metrics::Registry::Instance();
    RegistrySnap s;
    for (const char* name : kCounters) {
      s.counters[name] = static_cast<double>(reg.CounterValue(name));
    }
    for (const char* name : kHistograms) {
      const auto* h = reg.GetHistogram(name);
      s.hists[name] = {static_cast<double>(h->count()),
                       static_cast<double>(h->sum_nanos())};
    }
    return s;
  }

  RegistrySnap& operator+=(const RegistrySnap& o) {
    for (const auto& [k, v] : o.counters) counters[k] += v;
    for (const auto& [k, v] : o.hists) {
      hists[k].first += v.first;
      hists[k].second += v.second;
    }
    return *this;
  }

  RegistrySnap Minus(const RegistrySnap& o) const {
    RegistrySnap d = *this;
    for (auto& [k, v] : d.counters) v -= o.counters.at(k);
    for (auto& [k, v] : d.hists) {
      v.first -= o.hists.at(k).first;
      v.second -= o.hists.at(k).second;
    }
    return d;
  }

  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  /// Mean sample of a histogram delta (in its recorded unit), 0 when empty.
  double Mean(const std::string& name) const {
    auto it = hists.find(name);
    if (it == hists.end() || it->second.first <= 0) return 0;
    return it->second.second / it->second.first;
  }
};

// --- one cycle ------------------------------------------------------------

struct Cycle {
  bool traced = false;
  double setup_s = 0;
  Timeline timeline;
  /// (time, Database::current_epoch()) at each observed epoch change.
  std::vector<std::pair<int64_t, uint64_t>> epochs;
  std::vector<Recorder> recs;
  int64_t run_start = 0;
  int64_t run_end = 0;
  TransformStats stats;
  double sleep_share = 0;
  int64_t backlog_max = 0;
  RegistrySnap delta;
  /// Why the transformation failed (aborted, or its result mismatched the
  /// oracle); empty when it was correct.
  std::string failure;
  /// First unexpected error a transaction saw (those attempts count as
  /// kError); empty when none.
  std::string error;
};

Cycle RunCycle(const WorkloadParams& params, const Args& args, int index,
               bool traced) {
  Cycle c;
  c.traced = traced;
  const int64_t setup_start = NowNanos();
  std::unique_ptr<Scenario> scenario = Scenario::Make(params);
  c.setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;

  Monitor monitor(scenario->db());
  const RegistrySnap before = RegistrySnap::Take();
  Traffic traffic(scenario.get(), args.seed, static_cast<uint64_t>(index),
                  traced);
  monitor.Mark(NowNanos(), Phase::kIdle);
  traffic.Start();
  SleepSeconds(kWarmupSeconds);
  monitor.Mark(NowNanos(), Phase::kBase);
  SleepSeconds(kBaselineSeconds);
  monitor.Mark(NowNanos(), Phase::kIdle);
  {
    auto coord = std::make_unique<TransformCoordinator>(
        scenario->db(), scenario->rules(), scenario->Config());
    c.run_start = NowNanos();
    monitor.Mark(c.run_start, Phase::kPrepare);
    monitor.Attach(coord.get());
    auto result = coord->Run();
    c.run_end = NowNanos();
    monitor.Detach();
    monitor.Mark(c.run_end, Phase::kIdle);
    traffic.Stop();
    const auto duty = coord->duty_totals();
    const double duty_wall =
        static_cast<double>(duty.work_nanos + duty.slept_nanos);
    c.sleep_share = duty_wall > 0 ? duty.slept_nanos / duty_wall : 0;
    if (!result.ok()) {
      c.failure = "transformation error: " + result.status().ToString();
    } else {
      c.stats = *result;
      if (!c.stats.completed) {
        c.failure = "transformation aborted: " + c.stats.abort_reason;
      } else {
        c.failure = scenario->CheckOracle();
        if (!c.failure.empty()) c.failure = "oracle mismatch: " + c.failure;
      }
    }
    coord.reset();
  }
  c.delta = RegistrySnap::Take().Minus(before);
  c.error = scenario->first_error();
  c.timeline = monitor.timeline();
  c.epochs = monitor.epochs();
  c.backlog_max = monitor.backlog_max();
  c.recs = std::move(traffic.recorders());
  return c;
}

// --- analysis ---------------------------------------------------------------

bool Measured(Phase p) { return p != Phase::kIdle; }
bool InTransform(Phase p) { return p != Phase::kIdle && p != Phase::kBase; }

/// The engine's epoch at a given time, from the monitor's samples.
uint64_t EpochAt(const Cycle& c, int64_t at_nanos) {
  uint64_t epoch = 0;
  for (const auto& [at, e] : c.epochs) {
    if (at > at_nanos) break;
    epoch = e;
  }
  return epoch;
}

/// Whether an attempt counts. One refused access to a retired source table
/// is left out only when no switch-over happened between its due time and
/// its start: it was issued against the already switched schema, and a real
/// client would have addressed the new tables. One that sat queued across a
/// switch-over counts, as a failure, with its full latency.
bool Counted(const Cycle& c, const Attempt& a) {
  return a.outcome != Outcome::kExcluded || EpochAt(c, a.due_nanos) < a.epoch;
}

/// Longest latency of any counted attempt in flight across the switch-over
/// window: from entry into synchronization (or, if polling missed that
/// phase, into drain) to entry into drain. 0 if the cycle has no switch.
double SwitchStallMs(const Cycle& c) {
  int64_t from = c.timeline.FirstEntry(Phase::kSync);
  int64_t to = c.timeline.FirstEntry(Phase::kDrain);
  if (from < 0) from = to;
  if (to < 0) to = c.run_end;
  if (from < 0) return 0;
  int64_t worst = 0;
  for (const Recorder& r : c.recs) {
    for (const Attempt& a : r.attempts) {
      if (!Counted(c, a)) continue;
      if (a.due_nanos <= to && a.end_nanos >= from) {
        worst = std::max(worst, a.latency_nanos());
      }
    }
  }
  return static_cast<double>(worst) / 1e6;
}

struct Samples {
  std::vector<int64_t> v;
  void Add(int64_t x) { v.push_back(x); }
  size_t n() const { return v.size(); }
  double Us(double q) {
    return static_cast<double>(QuantileOf(&v, q)) / 1e3;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count / provenance for the human report
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;   ///< counted attempts that did not commit
  uint64_t defects = 0;  ///< errors, oracle mismatches, aborted runs
  uint64_t excluded = 0;
  uint64_t by_outcome[6] = {};
};

Counts CountAttempts(const std::vector<Cycle>& cycles) {
  Counts k;
  for (const Cycle& c : cycles) {
    for (const Recorder& r : c.recs) {
      for (const Attempt& a : r.attempts) {
        if (!Measured(c.timeline.PhaseAt(a.due_nanos))) continue;
        if (!Counted(c, a)) {
          k.excluded++;
          continue;
        }
        k.by_outcome[static_cast<int>(a.outcome)]++;
        k.attempted++;
        if (a.outcome != Outcome::kCommitted) k.failed++;
        if (a.outcome == Outcome::kError) k.defects++;
      }
    }
    if (!c.failure.empty()) {
      // A mismatching or aborted transformation counts as one failed
      // attempt of its own.
      k.attempted++;
      k.failed++;
      k.defects++;
    }
  }
  return k;
}

/// Latency samples of one cycle's counted attempts, by the phase at their
/// due time.
struct CycleLatency {
  Samples base, xform;
};

CycleLatency LatencyOf(const Cycle& c) {
  CycleLatency l;
  for (const Recorder& r : c.recs) {
    for (const Attempt& a : r.attempts) {
      if (!Counted(c, a)) continue;
      const Phase p = c.timeline.PhaseAt(a.due_nanos);
      if (p == Phase::kBase) l.base.Add(a.latency_nanos());
      if (InTransform(p)) l.xform.Add(a.latency_nanos());
    }
  }
  return l;
}

/// One line per cycle for the report (per-transformation figures).
void PrintCycle(size_t i, const Cycle& c, CycleLatency l) {
  std::printf(
      "  cycle %2zu%s: setup %.3f s, transform %.3f s (populate %.3f, "
      "propagate %.3f, sync %.4f, drain %.4f), latch %.3f ms, doomed %zu, "
      "switch stall %.3f ms, base p50/p99 %.1f/%.1f us (n=%zu), xform "
      "p50/p99 %.1f/%.1f us (n=%zu)\n",
      i, c.traced ? " traced" : "", c.setup_s,
      static_cast<double>(c.run_end - c.run_start) / 1e9,
      c.stats.populate_micros / 1e6, c.stats.propagate_micros / 1e6,
      c.stats.sync_micros / 1e6, c.stats.drain_micros / 1e6,
      c.stats.sync_latch_nanos / 1e6, c.stats.txns_doomed, SwitchStallMs(c),
      l.base.Us(0.5), l.base.Us(0.99), l.base.n(), l.xform.Us(0.5),
      l.xform.Us(0.99), l.xform.n());
}

/// The bounded end-to-end metrics, plus (as `info`) the figures the paper
/// asks for that a shared virtual machine does not repeat within a quarter
/// from run to run: tail latencies, the switch-over stall and the failure
/// share.
///
/// Medians of per-cycle figures are robust to a disturbed stretch of a few
/// seconds (a neighbour's disk or CPU burst slows a few cycles, not most).
/// The p99s pool every cycle's attempts instead: a p99 per cycle is set by
/// whether a single hiccup of a few milliseconds hit that cycle.
std::vector<Metric> EndToEnd(const std::vector<Cycle>& cycles,
                             std::vector<Metric>* info) {
  std::vector<double> setup, wall, stall, b50, x50;
  Samples base, xform;
  for (const Cycle& c : cycles) {
    CycleLatency l = LatencyOf(c);
    setup.push_back(c.setup_s);
    wall.push_back(static_cast<double>(c.run_end - c.run_start) / 1e9);
    stall.push_back(SwitchStallMs(c));
    b50.push_back(l.base.Us(0.50));
    x50.push_back(l.xform.Us(0.50));
    base.v.insert(base.v.end(), l.base.v.begin(), l.base.v.end());
    xform.v.insert(xform.v.end(), l.xform.v.begin(), l.xform.v.end());
  }
  const Counts k = CountAttempts(cycles);
  const std::string ncyc = "median over " + std::to_string(cycles.size()) +
                           " cycles";
  const std::string nb = std::to_string(base.n()) + " attempts";
  const std::string nx = std::to_string(xform.n()) + " attempts";
  const double fail =
      k.attempted ? static_cast<double>(k.failed) / k.attempted : 0;
  *info = {
      {"base_p99_us", base.Us(0.99), "us", "pooled, " + nb},
      {"xform_p99_us", xform.Us(0.99), "us", "pooled, " + nx},
      {"switch_stall_ms", MedianOf(stall), "ms", ncyc},
      {"fail_share", fail, "share",
       std::to_string(k.failed) + " of " + std::to_string(k.attempted) +
           " attempts"},
  };
  return {
      {"setup_s", MedianOf(setup), "s", ncyc},
      {"transform_s", MedianOf(wall), "s", ncyc},
      {"base_p50_us", MedianOf(b50), "us", ncyc + " of per-cycle p50, " + nb},
      {"xform_p50_us", MedianOf(x50), "us", ncyc + " of per-cycle p50, " + nx},
      {"commit_share", 1.0 - fail, "share",
       std::to_string(k.attempted - k.failed) + " of " +
           std::to_string(k.attempted) + " attempts"},
      {"peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss"},
  };
}

/// Aggregated spans of the traced cycles: per (call kind, phase) durations,
/// and each attempt's self time (its due-to-end span minus its calls).
struct SpanStats {
  Samples calls[static_cast<int>(CallKind::kCount)]
               [static_cast<int>(Phase::kCount)];
  Samples self;
  Samples lag;
  Samples txn_by_phase[static_cast<int>(Phase::kCount)];
  double call_total_ns[static_cast<int>(CallKind::kCount)]
                      [static_cast<int>(Phase::kCount)] = {};

  Samples Calls(CallKind kind, std::initializer_list<Phase> phases) const {
    Samples out;
    for (Phase p : phases) {
      const auto& v = calls[static_cast<int>(kind)][static_cast<int>(p)].v;
      out.v.insert(out.v.end(), v.begin(), v.end());
    }
    return out;
  }
};

SpanStats CollectSpans(const std::vector<Cycle>& cycles) {
  SpanStats s;
  for (const Cycle& c : cycles) {
    if (!c.traced) continue;
    for (const Recorder& r : c.recs) {
      for (const Attempt& a : r.attempts) {
        if (!Counted(c, a)) continue;
        const Phase due_phase = c.timeline.PhaseAt(a.due_nanos);
        if (!Measured(due_phase)) continue;
        int64_t children = 0;
        for (uint32_t i = a.first_call; i < a.first_call + a.num_calls; ++i) {
          const Call& call = r.calls[i];
          const Phase p = c.timeline.PhaseAt(a.start_nanos + call.offset_nanos);
          s.calls[static_cast<int>(call.kind)][static_cast<int>(p)].Add(
              call.nanos);
          s.call_total_ns[static_cast<int>(call.kind)][static_cast<int>(p)] +=
              call.nanos;
          children += call.nanos;
        }
        s.self.Add(a.latency_nanos() - children);
        s.lag.Add(a.lateness_nanos());
        s.txn_by_phase[static_cast<int>(due_phase)].Add(a.latency_nanos());
      }
    }
  }
  return s;
}

std::vector<Metric> PerLayer(const std::vector<Cycle>& cycles,
                             SpanStats spans) {
  const auto all_x = {Phase::kPrepare, Phase::kPopulate, Phase::kPropagate,
                      Phase::kSync, Phase::kDrain};
  auto q = [](Samples s, double quantile) { return s.Us(quantile); };

  RegistrySnap reg;
  std::vector<double> populate_s, populate_rate, propagate_s, propagate_rate,
      ops_per_record, iterations, backlog, sleep_share, duty, prepare_s,
      sync_s, latch_ms, latch_sum, doomed, drain_s, stall;
  Samples x_traced, x_untraced;
  for (const Cycle& c : cycles) {
    for (const Recorder& r : c.recs) {
      for (const Attempt& a : r.attempts) {
        if (!Counted(c, a)) continue;
        if (!InTransform(c.timeline.PhaseAt(a.due_nanos))) continue;
        (c.traced ? x_traced : x_untraced).Add(a.latency_nanos());
      }
    }
    if (!c.traced) continue;
    reg += c.delta;
    const TransformStats& st = c.stats;
    const double pop_s = st.populate_micros / 1e6;
    populate_s.push_back(pop_s);
    populate_rate.push_back(
        pop_s > 0 ? c.delta.Counter("transform.populate.records") / pop_s : 0);
    propagate_s.push_back(st.propagate_micros / 1e6);
    propagate_rate.push_back(st.propagate_records_per_sec);
    ops_per_record.push_back(
        st.log_records_processed
            ? static_cast<double>(st.ops_propagated) / st.log_records_processed
            : 0);
    iterations.push_back(static_cast<double>(st.iterations));
    backlog.push_back(static_cast<double>(c.backlog_max));
    sleep_share.push_back(c.sleep_share);
    duty.push_back(st.achieved_duty);
    prepare_s.push_back(st.prepare_micros / 1e6);
    sync_s.push_back(st.sync_micros / 1e6);
    latch_ms.push_back(st.sync_latch_nanos / 1e6);
    double sum = 0;
    for (int64_t ns : st.tablet_latch_nanos) sum += ns / 1e6;
    latch_sum.push_back(st.tablet_latch_nanos.empty() ? st.sync_latch_nanos / 1e6
                                                      : sum);
    doomed.push_back(static_cast<double>(st.txns_doomed));
    drain_s.push_back(st.drain_micros / 1e6);
    stall.push_back(SwitchStallMs(c));
  }
  const double commits = std::max(1.0, reg.Counter("engine.txn.commits"));
  const double per_k = 1000.0 / commits;
  const Counts k = CountAttempts(cycles);
  auto txn_p99 = [&](Phase p) {
    return spans.txn_by_phase[static_cast<int>(p)].Us(0.99);
  };
  const double xt = x_traced.Us(0.5), xu = x_untraced.Us(0.5);

  return {
      {"engine.update_us.p50.base", q(spans.Calls(CallKind::kUpdate, {Phase::kBase}), 0.5), "us", ""},
      {"engine.update_us.p50.populate", q(spans.Calls(CallKind::kUpdate, {Phase::kPopulate}), 0.5), "us", ""},
      {"engine.update_us.p50.propagate", q(spans.Calls(CallKind::kUpdate, {Phase::kPropagate}), 0.5), "us", ""},
      {"engine.update_us.p99.base", q(spans.Calls(CallKind::kUpdate, {Phase::kBase}), 0.99), "us", ""},
      {"engine.update_us.p99.populate", q(spans.Calls(CallKind::kUpdate, {Phase::kPopulate}), 0.99), "us", ""},
      {"engine.update_us.p99.propagate", q(spans.Calls(CallKind::kUpdate, {Phase::kPropagate}), 0.99), "us", ""},
      {"engine.read_us.p50.base", q(spans.Calls(CallKind::kRead, {Phase::kBase}), 0.5), "us", ""},
      {"engine.read_us.p50.xform", q(spans.Calls(CallKind::kRead, all_x), 0.5), "us", ""},
      {"engine.insert_us.p99.xform", q(spans.Calls(CallKind::kInsert, all_x), 0.99), "us", ""},
      {"engine.delete_us.p99.xform", q(spans.Calls(CallKind::kDelete, all_x), 0.99), "us", ""},
      {"engine.commit_us.p50.base", q(spans.Calls(CallKind::kCommit, {Phase::kBase}), 0.5), "us", ""},
      {"engine.commit_us.p50.xform", q(spans.Calls(CallKind::kCommit, all_x), 0.5), "us", ""},
      {"engine.commit_us.p99.base", q(spans.Calls(CallKind::kCommit, {Phase::kBase}), 0.99), "us", ""},
      {"engine.commit_us.p99.xform", q(spans.Calls(CallKind::kCommit, all_x), 0.99), "us", ""},
      {"wal.appends_per_txn", reg.Counter("wal.appends") / commits, "count", ""},
      {"txn.lock.waits_per_ktxn", reg.Counter("txn.lock.waits") * per_k, "count", ""},
      {"txn.lock.wait_us.mean", reg.Mean("txn.lock.wait_nanos") / 1e3, "us", ""},
      {"txn.lock.deadlocks_per_ktxn", reg.Counter("txn.lock.deadlocks") * per_k, "count", ""},
      {"txn.lock.timeouts_per_ktxn", reg.Counter("txn.lock.timeouts") * per_k, "count", ""},
      {"storage.writes_per_txn",
       (reg.Counter("storage.table.inserts") + reg.Counter("storage.table.updates") +
        reg.Counter("storage.table.deletes")) / commits, "count", ""},
      {"populate.s", MedianOf(populate_s), "s", ""},
      {"populate.rows_per_s", MedianOf(populate_rate), "1/s", ""},
      {"populate.insert_us.mean", reg.Mean("transform.populate.insert_nanos") / 1e3, "us", ""},
      {"propagate.s", MedianOf(propagate_s), "s", ""},
      {"propagate.records_per_s", MedianOf(propagate_rate), "1/s", ""},
      {"propagate.ops_per_record", MedianOf(ops_per_record), "ratio", ""},
      {"propagate.iterations", MedianOf(iterations), "count", ""},
      {"propagate.backlog_max", MedianOf(backlog), "records", ""},
      {"throttle.sleep_share", MedianOf(sleep_share), "share", ""},
      {"throttle.achieved_duty", MedianOf(duty), "share", ""},
      {"prepare.s", MedianOf(prepare_s), "s", ""},
      {"sync.s", MedianOf(sync_s), "s", ""},
      {"sync.latch_ms", MedianOf(latch_ms), "ms", ""},
      {"sync.latch_ms_sum", MedianOf(latch_sum), "ms", ""},
      {"sync.doomed_per_xform", MedianOf(doomed), "count", ""},
      {"sync.stall_ms", MedianOf(stall), "ms", ""},
      {"drain.s", MedianOf(drain_s), "s", ""},
      {"txn_us.p99.base", txn_p99(Phase::kBase), "us", ""},
      {"txn_us.p99.populate", txn_p99(Phase::kPopulate), "us", ""},
      {"txn_us.p99.propagate", txn_p99(Phase::kPropagate), "us", ""},
      {"txn_us.p99.sync", txn_p99(Phase::kSync), "us", ""},
      {"txn_us.p99.drain", txn_p99(Phase::kDrain), "us", ""},
      {"driver.lag_p99_us", spans.lag.Us(0.99), "us", ""},
      {"driver.attempts", static_cast<double>(k.attempted), "count", ""},
      {"driver.fail_share",
       k.attempted ? static_cast<double>(k.failed) / k.attempted : 0,
       "share", ""},
      {"driver.self_us.p50", spans.self.Us(0.5), "us", ""},
      {"trace.overhead", xu > 0 ? xt / xu : 0, "ratio", ""},
  };
}

/// Writes the traced run's spans: every transformation's Run span with one
/// child per phase, and the Database-call spans aggregated by kind and phase
/// (count, total and self time of the attempt roots).
void WriteTrace(const std::string& path, const std::vector<Cycle>& cycles,
                const SpanStats& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"runs\": [");
  bool first_run = true;
  for (const Cycle& c : cycles) {
    if (!c.traced) continue;
    std::fprintf(f, "%s\n  {\"name\": \"Run\", \"start_ns\": %" PRId64
                    ", \"end_ns\": %" PRId64 ", \"children\": [",
                 first_run ? "" : ",", int64_t{0}, c.run_end - c.run_start);
    first_run = false;
    const auto& marks = c.timeline.marks();
    bool first_child = true;
    for (size_t i = 0; i < marks.size(); ++i) {
      if (!InTransform(marks[i].second)) continue;
      const int64_t end = i + 1 < marks.size() ? marks[i + 1].first : c.run_end;
      std::fprintf(f, "%s{\"name\": \"%s\", \"start_ns\": %" PRId64
                      ", \"end_ns\": %" PRId64 "}",
                   first_child ? "" : ", ", PhaseName(marks[i].second),
                   marks[i].first - c.run_start, end - c.run_start);
      first_child = false;
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n], \"calls\": [");
  bool first_call = true;
  for (int k = 0; k < static_cast<int>(CallKind::kCount); ++k) {
    for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
      const size_t n = spans.calls[k][p].n();
      if (n == 0) continue;
      std::fprintf(f, "%s\n  {\"name\": \"%s\", \"phase\": \"%s\", \"count\": "
                      "%zu, \"total_us\": %.3f}",
                   first_call ? "" : ",", CallKindName(static_cast<CallKind>(k)),
                   PhaseName(static_cast<Phase>(p)), n,
                   spans.call_total_ns[k][p] / 1e3);
      first_call = false;
    }
  }
  double self_total = 0;
  for (int64_t v : spans.self.v) self_total += static_cast<double>(v);
  std::fprintf(f, "\n], \"attempt_self\": {\"count\": %zu, \"total_us\": %.3f}}\n",
               spans.self.n(), self_total / 1e3);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadParams& params = *FindWorkload(args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const double parallelism =
      ProbeEffectiveParallelism(static_cast<int>(std::max(1L, nproc)), 100'000'000);
  const transform::TransformConfig defaults;

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              params.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%ld effective_parallelism=%.2f build=%s compiler=%s\n",
              nproc, parallelism, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::printf(
      "settings: offered=%.0f txn/s open-loop, clients=%d, ops/txn=%d, "
      "rows=%" PRId64 ", groups=%" PRId64 ", tablets=%zu, priority=%g, "
      "strategy=%s, wal=%s\n",
      params.rate_tps, kClientThreads, kOpsPerTxn, params.rows, params.groups,
      params.tablets, defaults.priority,
      std::string(transform::SyncStrategyToString(defaults.strategy)).c_str(),
      "in-memory, truncated behind the propagation floor");
  std::fflush(stdout);

  // Warm-up: one complete cycle, checked but not measured, so one-time
  // costs of the process (allocator growth, first page faults) stay out.
  const int64_t begin = NowNanos();
  std::vector<Cycle> cycles;
  {
    Cycle warmup = RunCycle(params, args, 0, /*traced=*/false);
    // A failed warm-up is reported like any failed cycle.
    if (!warmup.failure.empty() || !warmup.error.empty()) {
      cycles.push_back(std::move(warmup));
    }
  }
  while ((cycles.empty() ||
          (cycles.back().failure.empty() && cycles.back().error.empty())) &&
         (cycles.empty() ||
          (static_cast<int>(cycles.size()) < kMaxCycles &&
           static_cast<double>(NowNanos() - begin) / 1e9 < args.seconds))) {
    // Traced runs alternate traced and untraced cycles, so the tracing
    // overhead is measured within the run.
    const bool traced = args.trace && cycles.size() % 2 == 0;
    cycles.push_back(RunCycle(params, args,
                              static_cast<int>(cycles.size()) + 1, traced));
  }

  bool correct = true;
  for (const Cycle& c : cycles) {
    for (const std::string& why : {c.failure, c.error}) {
      if (why.empty()) continue;
      correct = false;
      std::printf("FAILED cycle: %s\n", why.c_str());
    }
  }
  const Counts counts = CountAttempts(cycles);
  std::printf("attempts: %" PRIu64 " counted (committed %" PRIu64
              ", conflict %" PRIu64 ", doomed %" PRIu64 ", refused %" PRIu64
              ", refused after queuing across a switch-over %" PRIu64
              ", error %" PRIu64 "), %" PRIu64
              " issued after a switch-over and excluded\n",
              counts.attempted, counts.by_outcome[0], counts.by_outcome[1],
              counts.by_outcome[2], counts.by_outcome[3], counts.by_outcome[4],
              counts.by_outcome[5], counts.excluded);

  for (size_t i = 0; i < cycles.size(); ++i) {
    PrintCycle(i, cycles[i], LatencyOf(cycles[i]));
  }

  std::vector<Metric> metrics, info;
  if (args.trace) {
    SpanStats spans = CollectSpans(cycles);
    WriteTrace(args.workdir + "/trace-" + params.name + "-seed" +
                   std::to_string(args.seed) + ".json",
               cycles, spans);
    metrics = PerLayer(cycles, std::move(spans));
  } else {
    metrics = EndToEnd(cycles, &info);
  }
  for (const Metric& m : info) {
    std::printf("  %-32s %14.4f %-6s %s (not bounded)\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(counts.attempted) +
                     ", \"failed\": " + std::to_string(counts.defects) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
