// Open-loop traffic driver of the benchmark of record: exact percentiles,
// seeded key generators, the arrival schedule, per-attempt records and the
// phase timeline attempts are tagged against.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNanos();

/// \brief Exact nearest-rank quantile: the smallest sample x such that at
/// least q * n samples are <= x. q in (0, 1]. 0 for an empty sample.
/// Reorders `values`.
int64_t QuantileOf(std::vector<int64_t>* values, double q);
double QuantileOf(std::vector<double>* values, double q);

/// Median of a sample (mean of the two middle values for even n), 0 when
/// empty.
double MedianOf(std::vector<double> values);

/// \brief splitmix64 finaliser — mixes (seed, stream, index) into the seed
/// of one arrival's private generator, so an arrival's inputs depend only on
/// the benchmark seed and its position in the schedule, never on which
/// client thread happened to run it.
uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// \brief Bounded Zipf generator over [0, n) (Gray et al., "Quickly
/// generating billion-record synthetic databases", as used by YCSB). Rank 0
/// is the hottest key; callers scramble ranks onto keys if needed.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  /// Maps a uniform u in [0, 1) to a rank.
  uint64_t Sample(double u) const;

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

/// \brief The open-loop arrival schedule: arrival j is due at
/// start + j / rate, whether or not earlier arrivals have finished. Client
/// threads claim arrivals in order from one shared counter, so a stalled
/// client delays only the arrivals it holds; the rest queue up behind their
/// due times and are timed from them.
class Schedule {
 public:
  Schedule(int64_t start_nanos, double rate_per_second);
  int64_t DueNanos(uint64_t index) const;
  /// Claims the next arrival index.
  uint64_t Claim() { return next_.fetch_add(1, std::memory_order_relaxed); }

 private:
  int64_t start_nanos_;
  double period_nanos_;
  std::atomic<uint64_t> next_{0};
};

/// How one transaction attempt ended.
enum class Outcome : uint8_t {
  kCommitted,
  /// Wait-die loser or lock-wait timeout (concurrency control).
  kConflict,
  /// Doomed by a switch-over while in flight (non-blocking abort).
  kDoomed,
  /// Commit refused for another reason.
  kRefused,
  /// Began after a switch-over and was refused access to the retired source
  /// table (or reached it only after the finished transformation dropped
  /// it). Counted only if it was due before that switch-over; otherwise a
  /// real client would have addressed the new tables.
  kExcluded,
  /// Any other error: a defect (the workloads never provoke one).
  kError,
};

/// Database call kinds recorded as child spans in the traced run.
enum class CallKind : uint8_t {
  kBegin,
  kRead,
  kUpdate,
  kInsert,
  kDelete,
  kCommit,
  kAbort,
  kCount,
};
const char* CallKindName(CallKind kind);

/// One Database call inside an attempt (traced run only). Times are offsets
/// from the attempt's start, clamped to 32 bits (4.29 s).
struct Call {
  uint32_t offset_nanos = 0;
  uint32_t nanos = 0;
  CallKind kind = CallKind::kBegin;
};

/// One transaction attempt. Latency is measured from the due time, so the
/// wait a stall imposes on later arrivals is counted.
struct Attempt {
  int64_t due_nanos = 0;
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  uint32_t first_call = 0;  ///< index into the thread's call vector
  uint16_t num_calls = 0;
  Outcome outcome = Outcome::kCommitted;
  /// The transaction's epoch (Database::current_epoch() at Begin).
  uint64_t epoch = 0;

  int64_t latency_nanos() const { return end_nanos - due_nanos; }
  /// How late the generator issued the attempt (>= 0).
  int64_t lateness_nanos() const { return start_nanos - due_nanos; }
};

/// \brief One client thread's attempts (and, traced, their calls).
struct Recorder {
  bool traced = false;
  std::vector<Attempt> attempts;
  std::vector<Call> calls;
  /// Start of the attempt being recorded (call offsets are relative to it).
  int64_t attempt_start = 0;
  /// Epoch of the attempt's transaction, set by the transaction body.
  uint64_t attempt_epoch = 0;

  template <typename F>
  auto Time(CallKind kind, F&& fn) {
    if (!traced) return fn();
    const int64_t start = NowNanos();
    auto result = fn();
    const int64_t end = NowNanos();
    Call call;
    call.kind = kind;
    call.offset_nanos = Clamp32(start - attempt_start);
    call.nanos = Clamp32(end - start);
    calls.push_back(call);
    return result;
  }

  static uint32_t Clamp32(int64_t v) {
    return v <= 0 ? 0 : v >= int64_t{UINT32_MAX} ? UINT32_MAX
                                                  : static_cast<uint32_t>(v);
  }
};

/// \brief One open-loop client thread: claims arrivals from `schedule` in
/// order, sleeps until each is due, runs `txn(index, rec)` and records the
/// attempt, timed from its due time. Arrivals due before `stop_at` all run,
/// however late; the client returns at the first arrival due at or after it.
void RunClient(Schedule* schedule, const std::atomic<int64_t>& stop_at,
               Recorder* rec,
               const std::function<Outcome(uint64_t, Recorder*)>& txn);

/// Coarse phases attempts and calls are tagged with. kBase is the baseline
/// window; kIdle is traffic outside any measured window (warm-up, lead-in
/// before a transformation, tail after it).
enum class Phase : uint8_t {
  kIdle,
  kBase,
  kPrepare,
  kPopulate,
  kPropagate,
  kSync,
  kDrain,
  kCount,
};
const char* PhaseName(Phase phase);

/// \brief Piecewise-constant phase over time, built from polled phase
/// changes. PhaseAt(t) is the phase of the latest change at or before t.
class Timeline {
 public:
  void Mark(int64_t at_nanos, Phase phase);
  Phase PhaseAt(int64_t at_nanos) const;
  /// Start of the first interval in `phase`, or -1.
  int64_t FirstEntry(Phase phase) const;
  const std::vector<std::pair<int64_t, Phase>>& marks() const { return marks_; }

 private:
  std::vector<std::pair<int64_t, Phase>> marks_;
};

/// Measures how many spinning threads' worth of work the host really does in
/// parallel: the work rate of `threads` spinning threads divided by that of
/// one. Hosts that share cores report well below their thread count.
double ProbeEffectiveParallelism(int threads, int64_t window_nanos);

}  // namespace perfbench
