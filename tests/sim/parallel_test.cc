#include "sim/parallel.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace teleport::sim {
namespace {

// --- TELEPORT_HOST_THREADS parsing ------------------------------------------

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    if (v != nullptr) saved_ = v;
    had_ = v != nullptr;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(HostThreadsFromEnvTest, DefaultsAndAcceptedRange) {
  EnvGuard guard("TELEPORT_HOST_THREADS");
  ::unsetenv("TELEPORT_HOST_THREADS");
  EXPECT_EQ(HostThreadsFromEnv(), 1);
  ::setenv("TELEPORT_HOST_THREADS", "", 1);
  EXPECT_EQ(HostThreadsFromEnv(), 1);
  ::setenv("TELEPORT_HOST_THREADS", "1", 1);
  EXPECT_EQ(HostThreadsFromEnv(), 1);
  ::setenv("TELEPORT_HOST_THREADS", "8", 1);
  EXPECT_EQ(HostThreadsFromEnv(), 8);
  ::setenv("TELEPORT_HOST_THREADS", "256", 1);
  EXPECT_EQ(HostThreadsFromEnv(), kMaxHostThreads);
}

TEST(HostThreadsFromEnvTest, AnyOtherValueAborts) {
  EnvGuard guard("TELEPORT_HOST_THREADS");
  for (const char* bad : {"0", "-3", "banana", "8x", "257", "100000",
                          "99999999999999999999"}) {
    ::setenv("TELEPORT_HOST_THREADS", bad, 1);
    EXPECT_DEATH(HostThreadsFromEnv(),
                 "TELEPORT_HOST_THREADS.*expected an integer in \\[1, 256\\]")
        << bad;
  }
}

// --- LegRunner determinism ---------------------------------------------------

/// Deterministic per-leg computation with a controllable amount of work.
uint64_t LegWork(uint64_t seed, uint64_t iters) {
  uint64_t x = seed;
  for (uint64_t i = 0; i < iters; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
  }
  return x;
}

std::vector<uint64_t> RunLegFleet(int threads, uint64_t skew_leg_iters) {
  const size_t kLegs = 12;
  std::vector<uint64_t> out(kLegs, 0);
  LegRunner(threads).Run(kLegs, [&out, skew_leg_iters](size_t i) {
    const uint64_t iters = i == 0 ? skew_leg_iters : 1000;
    out[i] = LegWork(i + 1, iters);
  });
  return out;
}

TEST(LegRunnerTest, BitIdenticalAcrossThreadCountsAndReps) {
  const std::vector<uint64_t> golden = RunLegFleet(1, 1000);
  for (const int threads : {1, 2, 8}) {
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(RunLegFleet(threads, 1000), golden)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(LegRunnerTest, PathologicalSkewLegStaysDeterministic) {
  // Leg 0 runs 100x longer than the rest, so every other worker drains the
  // queue and exits while it is still running.
  const std::vector<uint64_t> golden = RunLegFleet(1, 100'000);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(RunLegFleet(threads, 100'000), golden) << "threads=" << threads;
  }
}

TEST(LegRunnerTest, HandlesEmptyAndSingleJob) {
  int hits = 0;
  LegRunner(8).Run(0, [&hits](size_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  LegRunner(8).Run(1, [&hits](size_t) { ++hits; });
  EXPECT_EQ(hits, 1);
}

// --- Generator chunks --------------------------------------------------------

// Each chunk starts at the state the sequential stream reaches at its first
// row, the chunks tile the rows in order, and After() is the state past the
// last row, also when the rows do not divide into the chunks or number
// fewer than them.
TEST(RowChunksTest, StartsAndAfterFollowTheSequentialStream) {
  for (const uint64_t rows : {0, 1, 31, 32, 33, 1'000, 1'001}) {
    for (const uint64_t draws : {1, 3, 7}) {
      const RowChunks chunks(Rng(11), rows, draws);
      Rng stream(11);
      uint64_t row = 0;
      for (size_t c = 0; c < kGeneratorChunks; ++c) {
        ASSERT_EQ(chunks.begin(c), row) << rows << " " << draws << " " << c;
        if (chunks.end(c) > row) {
          Rng start = chunks.start(c);
          Rng copy = stream;
          ASSERT_EQ(start.Next(), copy.Next())
              << rows << " " << draws << " " << c;
        }
        for (; row < chunks.end(c); ++row) {
          for (uint64_t d = 0; d < draws; ++d) stream.Next();
        }
      }
      ASSERT_EQ(row, rows);
      Rng after = chunks.After();
      for (int k = 0; k < 4; ++k) {
        ASSERT_EQ(after.Next(), stream.Next()) << rows << " " << draws;
      }
    }
  }
}

// --- Dataset hand-off across legs -------------------------------------------

/// Eight legs each stage the same graph into their own MemorySystem and
/// return the FNV-1a-64 of the staged bytes. Their address spaces hand the
/// dataset to one process-wide spare as they die and adopt it as they
/// stage, on as many host threads as the runner has.
std::vector<uint64_t> StageGraphFleet(int threads) {
  graph::GraphConfig gc;
  gc.vertices = 2'000;
  gc.avg_degree = 8;
  ddc::DdcConfig local;
  local.platform = ddc::Platform::kLocal;
  std::vector<uint64_t> digest(8, 0);
  LegRunner(threads).Run(digest.size(), [&](size_t i) {
    ddc::MemorySystem ms(local, CostParams::Default(),
                         graph::EstimateGraphBytes(gc) + 3 * 4096);
    graph::GenerateGraph(&ms, gc);
    const uint64_t n = ms.space().used_bytes();
    const auto* b = static_cast<const unsigned char*>(ms.space().HostPtr(0, n));
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t k = 0; k < n; ++k) h = (h ^ b[k]) * 0x100000001b3ULL;
    digest[i] = h;
  });
  return digest;
}

TEST(LegRunnerTest, LegsStagingOneDatasetStageEqualBytes) {
  const std::vector<uint64_t> serial = StageGraphFleet(1);
  for (const uint64_t d : serial) EXPECT_EQ(d, serial[0]);
  EXPECT_EQ(StageGraphFleet(8), serial);
}

// --- RunLegs JSONL ordering --------------------------------------------------

std::string EmitFleetJson(int threads) {
  const std::string path =
      ::testing::TempDir() + "/parallel_test_bench_" +
      std::to_string(threads) + ".jsonl";
  std::remove(path.c_str());
  EnvGuard guard("TELEPORT_BENCH_JSON");
  ::setenv("TELEPORT_BENCH_JSON", path.c_str(), 1);
  std::vector<std::function<void()>> legs;
  for (int i = 0; i < 8; ++i) {
    legs.push_back([i] {
      // Reverse-skewed work so under real parallelism later legs tend to
      // finish first; the flush must still order records by leg index.
      LegWork(static_cast<uint64_t>(i), static_cast<uint64_t>(8 - i) * 2000);
      bench::EmitBenchRecord({"pr10_test", "leg" + std::to_string(i), "x",
                              static_cast<Nanos>(i), 0, 0, ""});
    });
  }
  bench::RunLegs(legs, threads);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(RunLegsTest, JsonlByteIdenticalToSerial) {
  const std::string serial = EmitFleetJson(1);
  ASSERT_NE(serial.find("\"workload\":\"leg0\""), std::string::npos);
  ASSERT_LT(serial.find("\"leg0\""), serial.find("\"leg7\""));
  EXPECT_EQ(EmitFleetJson(2), serial);
  EXPECT_EQ(EmitFleetJson(8), serial);
}

}  // namespace
}  // namespace teleport::sim
