// Replay of a trace whose request region names an object outside the
// catalog. Opening the file checks only the header and catalog, so the
// bad record is first seen by the replay decoders, which must fail the
// cell with InvalidArgument instead of reading past the catalog's arrays.
// Both scheduling policies are covered: the analytic block decoder
// (ReplayRange) and the event-driven arrival loop (ReplayContended).
// A client id is untrusted too, but every id is valid: the largest one
// must replay without sizing any per-client table to it, and land on the
// same requester node the client hash gives it.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
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
    Patch(index, offsetof(trace::Request, object), object);
  }

  /// Overwrites request `index`'s client id.
  void SetClient(size_t index, uint32_t client) {
    Patch(index, offsetof(trace::Request, client), client);
  }

  /// Overwrites the 4-byte field at `field_offset` of request `index`.
  void Patch(size_t index, size_t field_offset, uint32_t value) {
    std::string bytes;
    {
      std::ifstream in(path_, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    uint64_t request_offset = 0;
    std::memcpy(&request_offset, bytes.data() + 24, sizeof(request_offset));
    const size_t at =
        request_offset + index * sizeof(trace::Request) + field_offset;
    ASSERT_LE(at + sizeof(value), bytes.size());
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Opens a runner over the file with one scheme.
  util::StatusOr<std::unique_ptr<sim::ExperimentRunner>> Open(
      schemes::SchemeKind kind, bool event_driven) {
    sim::ExperimentConfig cfg;
    cfg.network.architecture = sim::Architecture::kHierarchical;
    cfg.sim.contention.enabled = event_driven;
    cfg.schemes = {Spec(kind)};
    cfg.cache_fractions = {0.02};
    return sim::ExperimentRunner::CreateFromTrace(cfg, path_);
  }

  static schemes::SchemeSpec Spec(schemes::SchemeKind kind) {
    schemes::SchemeSpec spec;
    spec.kind = kind;
    return spec;
  }

  /// Replays the file with one scheme; returns the cell's status.
  util::Status RunCell(schemes::SchemeKind kind, bool event_driven) {
    auto runner_or = Open(kind, event_driven);
    if (!runner_or.ok()) return runner_or.status();
    return (*runner_or)->RunOne(Spec(kind), 0.02).status();
  }

  /// Request `index` gets client 0xFFFFFFFF, then, in a second replay, a
  /// small client the hash sends to the same requester node. Both must
  /// replay, with identical simulated statistics.
  void ExpectLargestClientReplays(bool event_driven) {
    constexpr uint32_t kLargest = 0xFFFFFFFFu;
    constexpr size_t kIndex = kRequests / 2;
    for (const schemes::SchemeKind kind :
         {schemes::SchemeKind::kLru, schemes::SchemeKind::kCoordinated}) {
      SetClient(kIndex, kLargest);
      auto runner_or = Open(kind, event_driven);
      ASSERT_TRUE(runner_or.ok()) << runner_or.status();
      sim::ExperimentRunner& runner = **runner_or;
      auto largest = runner.RunOne(Spec(kind), 0.02);
      ASSERT_TRUE(largest.ok()) << largest.status();
      const topology::NodeId node = runner.network()->RequesterNode(kLargest);
      uint32_t twin = 0;
      while (runner.network()->RequesterNode(twin) != node) ++twin;

      SetClient(kIndex, twin);
      auto twin_runner_or = Open(kind, event_driven);
      ASSERT_TRUE(twin_runner_or.ok()) << twin_runner_or.status();
      auto same = (*twin_runner_or)->RunOne(Spec(kind), 0.02);
      ASSERT_TRUE(same.ok()) << same.status();
      EXPECT_EQ(largest->metrics.requests, same->metrics.requests);
      EXPECT_EQ(largest->metrics.avg_latency, same->metrics.avg_latency);
      EXPECT_EQ(largest->metrics.byte_hit_ratio, same->metrics.byte_hit_ratio);
      EXPECT_EQ(largest->metrics.avg_hops, same->metrics.avg_hops);
      ASSERT_EQ(largest->per_node.size(), same->per_node.size());
      for (size_t v = 0; v < same->per_node.size(); ++v) {
        EXPECT_EQ(largest->per_node[v].counters.hits,
                  same->per_node[v].counters.hits)
            << "node " << v;
        EXPECT_EQ(largest->per_node[v].counters.bytes_served,
                  same->per_node[v].counters.bytes_served)
            << "node " << v;
      }
    }
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

TEST_F(ReplayBoundsTest, AnalyticReplayTakesLargestClientId) {
  ExpectLargestClientReplays(/*event_driven=*/false);
}

TEST_F(ReplayBoundsTest, EventDrivenReplayTakesLargestClientId) {
  ExpectLargestClientReplays(/*event_driven=*/true);
}

TEST_F(ReplayBoundsTest, EventDrivenReplayRejectsOutOfRangeIds) {
  CorruptObject(kRequests / 2, kObjects);
  ExpectRejected(/*event_driven=*/true);
  CorruptObject(kRequests / 2, 0xFFFFFFFFu);
  ExpectRejected(/*event_driven=*/true);
}

}  // namespace
}  // namespace cascache
