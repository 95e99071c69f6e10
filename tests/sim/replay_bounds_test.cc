// Replay of a trace whose request region names an object outside the
// catalog. Opening the file checks only the header and catalog, so the
// bad record is first seen by the replay decoders, which must fail the
// cell with InvalidArgument instead of reading past the catalog's arrays.
// Both scheduling policies are covered: the analytic block decoder
// (ReplayRange) and the event-driven arrival loop (ReplayContended).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "trace/trace_io.h"

namespace cascache {
namespace {

constexpr uint32_t kObjects = 400;
constexpr size_t kRequests = 3000;

class ReplayBoundsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs tests in parallel processes.
    path_ = ::testing::TempDir() + "/replay_bounds_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".cctr";
    trace::WorkloadParams w;
    w.num_objects = kObjects;
    w.num_requests = kRequests;
    w.num_clients = 50;
    w.num_servers = 10;
    auto workload_or = trace::GenerateWorkload(w);
    ASSERT_TRUE(workload_or.ok()) << workload_or.status();
    ASSERT_TRUE(trace::WriteTrace(*workload_or, path_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Overwrites request `index`'s object id in the file's request region.
  void CorruptObject(size_t index, uint32_t object) {
    std::string bytes;
    {
      std::ifstream in(path_, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    uint64_t request_offset = 0;
    std::memcpy(&request_offset, bytes.data() + 24, sizeof(request_offset));
    const size_t at = request_offset + index * sizeof(trace::Request) +
                      offsetof(trace::Request, object);
    ASSERT_LE(at + sizeof(object), bytes.size());
    std::memcpy(bytes.data() + at, &object, sizeof(object));
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Replays the file with one scheme; returns the cell's status.
  util::Status RunCell(schemes::SchemeKind kind, bool event_driven) {
    schemes::SchemeSpec spec;
    spec.kind = kind;
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.sim.contention.enabled = event_driven;
    cfg.schemes = {spec};
    cfg.cache_fractions = {0.02};
    auto runner_or = sim::ExperimentRunner::CreateFromTrace(cfg, path_);
    if (!runner_or.ok()) return runner_or.status();
    return (*runner_or)->RunOne(spec, 0.02).status();
  }

  void ExpectRejected(bool event_driven) {
    for (const schemes::SchemeKind kind :
         {schemes::SchemeKind::kLru, schemes::SchemeKind::kCoordinated}) {
      const util::Status status = RunCell(kind, event_driven);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find("outside the catalog"),
                std::string::npos)
          << status;
    }
  }

  std::string path_;
};

TEST_F(ReplayBoundsTest, IntactTraceReplaysUnderBothPolicies) {
  for (const bool event_driven : {false, true}) {
    const util::Status status =
        RunCell(schemes::SchemeKind::kCoordinated, event_driven);
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST_F(ReplayBoundsTest, AnalyticReplayRejectsIdJustPastCatalog) {
  // Past the warm-up split, so the measured phase's decoder sees it.
  CorruptObject(kRequests - 5, kObjects);
  ExpectRejected(/*event_driven=*/false);
}

TEST_F(ReplayBoundsTest, AnalyticReplayRejectsHugeIdInWarmup) {
  CorruptObject(3, 0xFFFFFFFFu);
  ExpectRejected(/*event_driven=*/false);
}

TEST_F(ReplayBoundsTest, EventDrivenReplayRejectsOutOfRangeIds) {
  CorruptObject(kRequests / 2, kObjects);
  ExpectRejected(/*event_driven=*/true);
  CorruptObject(kRequests / 2, 0xFFFFFFFFu);
  ExpectRejected(/*event_driven=*/true);
}

}  // namespace
}  // namespace cascache
