// Tests of the benchmark's own measurement code: exact percentiles, seeded
// key generation, and due-time / lateness accounting of the open-loop
// client.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "driver.h"

namespace perfbench {
namespace {

TEST(QuantileTest, NearestRankIsAnExactSample) {
  std::vector<int64_t> v;
  for (int64_t i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(QuantileOf(&v, 0.50), 50);
  EXPECT_EQ(QuantileOf(&v, 0.99), 99);
  EXPECT_EQ(QuantileOf(&v, 1.00), 100);
  EXPECT_EQ(QuantileOf(&v, 0.001), 1);
}

TEST(QuantileTest, NoPowerOfTwoRounding) {
  // The registry histogram would report 128 for all of these.
  std::vector<int64_t> v = {65, 70, 90, 100, 127};
  EXPECT_EQ(QuantileOf(&v, 0.5), 90);
  std::vector<double> d = {0.25, 3.5, 1.75};
  EXPECT_DOUBLE_EQ(QuantileOf(&d, 0.5), 1.75);
}

TEST(QuantileTest, SmallAndEmptySamples) {
  std::vector<int64_t> empty;
  EXPECT_EQ(QuantileOf(&empty, 0.5), 0);
  std::vector<int64_t> one = {7};
  EXPECT_EQ(QuantileOf(&one, 0.01), 7);
  EXPECT_EQ(QuantileOf(&one, 0.99), 7);
  // p99 of 10 samples is the maximum: fewer than ten samples lie beyond it.
  std::vector<int64_t> ten = {5, 1, 9, 3, 7, 2, 8, 4, 6, 10};
  EXPECT_EQ(QuantileOf(&ten, 0.99), 10);
  EXPECT_EQ(QuantileOf(&ten, 0.90), 9);
}

TEST(QuantileTest, Median) {
  EXPECT_DOUBLE_EQ(MedianOf({}), 0);
  EXPECT_DOUBLE_EQ(MedianOf({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(MedianOf({4, 1, 3, 2}), 2.5);
}

std::vector<uint64_t> Draw(uint64_t seed, uint64_t stream, const Zipf& zipf,
                           int n) {
  std::vector<uint64_t> out;
  for (int j = 0; j < n; ++j) {
    morph::Random rng(MixSeed(seed, stream, j));
    out.push_back(zipf.Sample(rng.NextDouble()));
  }
  return out;
}

TEST(ZipfTest, SameSeedSameKeys) {
  const Zipf zipf(50'000, 0.9);
  EXPECT_EQ(Draw(7, 3, zipf, 1000), Draw(7, 3, zipf, 1000));
  EXPECT_NE(Draw(7, 3, zipf, 1000), Draw(8, 3, zipf, 1000));
  EXPECT_NE(Draw(7, 3, zipf, 1000), Draw(7, 4, zipf, 1000));
}

TEST(ZipfTest, ArrivalInputsDoNotDependOnDrawOrder) {
  // Arrival j's generator is seeded from j alone, so whichever client runs
  // it, in whatever order, it draws the same key.
  const Zipf zipf(1000, 0.9);
  const std::vector<uint64_t> forward = Draw(11, 0, zipf, 200);
  for (int j = 199; j >= 0; --j) {
    morph::Random rng(MixSeed(11, 0, j));
    EXPECT_EQ(zipf.Sample(rng.NextDouble()), forward[j]);
  }
}

TEST(ZipfTest, SkewedAndInRange) {
  const Zipf zipf(10'000, 0.9);
  std::map<uint64_t, int> counts;
  for (uint64_t k : Draw(1, 0, zipf, 100'000)) {
    ASSERT_LT(k, 10'000u);
    counts[k]++;
  }
  // Rank 0 is the hottest key and the head outweighs the tail.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_EQ(counts[0], max_count);
  EXPECT_GT(counts[0], 10 * std::max(1, counts[5000]));
  // theta = 0.9 over 10k keys puts 1/zeta(10k, 0.9) = 6.4% of draws on
  // rank 0.
  EXPECT_GT(counts[0], 5'000);
  EXPECT_LT(counts[0], 12'000);
}

TEST(ScheduleTest, DueTimesFollowTheRateWithoutDrift) {
  Schedule s(1'000, 2000.0);
  EXPECT_EQ(s.DueNanos(0), 1'000);
  EXPECT_EQ(s.DueNanos(1), 1'000 + 500'000);
  EXPECT_EQ(s.DueNanos(2000), 1'000 + 1'000'000'000);
  EXPECT_EQ(s.Claim(), 0u);
  EXPECT_EQ(s.Claim(), 1u);
}

TEST(RunClientTest, StallIsChargedToLaterArrivalsFromTheirDueTime) {
  // 1000 arrivals/s; arrival 5 stalls the only client for 30 ms, so the
  // ~30 arrivals due meanwhile start late. Each is timed from its due time
  // and its lateness is recorded; none is dropped.
  const int64_t start = NowNanos() + 2'000'000;
  Schedule schedule(start, 1000.0);
  std::atomic<int64_t> stop_at{start + 60'000'000};
  Recorder rec;
  RunClient(&schedule, stop_at, &rec, [](uint64_t j, Recorder*) {
    if (j == 5) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return Outcome::kCommitted;
  });
  ASSERT_EQ(rec.attempts.size(), 60u);  // every arrival due before stop_at
  for (size_t j = 0; j < rec.attempts.size(); ++j) {
    const Attempt& a = rec.attempts[j];
    EXPECT_EQ(a.due_nanos, schedule.DueNanos(j));
    EXPECT_GE(a.lateness_nanos(), 0);  // never starts before it is due
    EXPECT_GE(a.latency_nanos(), a.lateness_nanos());
  }
  EXPECT_GE(rec.attempts[5].latency_nanos(), 30'000'000);
  // Arrival 6 was due 1 ms after 5 but waited out the rest of the stall.
  EXPECT_GE(rec.attempts[6].lateness_nanos(), 28'000'000);
  EXPECT_GE(rec.attempts[6].latency_nanos(), 28'000'000);
  // The backlog drains: the last arrivals run close to on time again.
  EXPECT_LT(rec.attempts.back().lateness_nanos(),
            rec.attempts[6].lateness_nanos());
}

TEST(RunClientTest, StopsAtFirstArrivalDueAfterStop) {
  const int64_t start = NowNanos() + 1'000'000;
  Schedule schedule(start, 10'000.0);
  std::atomic<int64_t> stop_at{start + 5'000'000};  // 50 arrivals
  Recorder rec;
  RunClient(&schedule, stop_at, &rec,
            [](uint64_t, Recorder*) { return Outcome::kCommitted; });
  EXPECT_EQ(rec.attempts.size(), 50u);
}

TEST(RecorderTest, TracedCallsAreChildrenOfTheAttempt) {
  Recorder rec;
  rec.traced = true;
  rec.attempt_start = NowNanos();
  const int v = rec.Time(CallKind::kUpdate, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return 42;
  });
  EXPECT_EQ(v, 42);
  ASSERT_EQ(rec.calls.size(), 1u);
  EXPECT_EQ(rec.calls[0].kind, CallKind::kUpdate);
  EXPECT_GE(rec.calls[0].nanos, 2'000'000u);

  Recorder untraced;
  untraced.Time(CallKind::kRead, [] { return 0; });
  EXPECT_TRUE(untraced.calls.empty());
}

TEST(TimelineTest, PhaseAtDueTime) {
  Timeline t;
  t.Mark(100, Phase::kBase);
  t.Mark(200, Phase::kIdle);
  t.Mark(300, Phase::kPrepare);
  t.Mark(310, Phase::kPopulate);
  t.Mark(500, Phase::kSync);
  t.Mark(510, Phase::kDrain);
  t.Mark(600, Phase::kIdle);
  EXPECT_EQ(t.PhaseAt(50), Phase::kIdle);
  EXPECT_EQ(t.PhaseAt(100), Phase::kBase);
  EXPECT_EQ(t.PhaseAt(199), Phase::kBase);
  EXPECT_EQ(t.PhaseAt(305), Phase::kPrepare);
  EXPECT_EQ(t.PhaseAt(505), Phase::kSync);
  EXPECT_EQ(t.PhaseAt(10'000), Phase::kIdle);
  EXPECT_EQ(t.FirstEntry(Phase::kSync), 500);
  EXPECT_EQ(t.FirstEntry(Phase::kPropagate), -1);
}

}  // namespace
}  // namespace perfbench
