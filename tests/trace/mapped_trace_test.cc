#include "trace/mapped_trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "trace/trace_io.h"

namespace cascache::trace {
namespace {

class MappedTraceTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  Workload SmallWorkload() {
    WorkloadParams params;
    params.num_objects = 100;
    params.num_requests = 5000;
    params.num_clients = 20;
    params.num_servers = 5;
    params.seed = 3;
    auto workload_or = GenerateWorkload(params);
    CASCACHE_CHECK_OK(workload_or.status());
    return std::move(workload_or).value();
  }

  std::string WriteSmallV2(const std::string& name) {
    const std::string path = TempPath(name);
    CASCACHE_CHECK_OK(WriteTrace(SmallWorkload(), path));
    return path;
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static void Spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(MappedTraceTest, MapMatchesBulkReadExactly) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("mapped.cctr");
  ASSERT_TRUE(WriteTrace(original, path).ok());

  auto mapped_or = MappedTrace::Open(path);
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status();
  const MappedTrace& mapped = **mapped_or;

  ASSERT_EQ(mapped.num_requests(), original.requests.size());
  ASSERT_EQ(mapped.catalog().num_objects(), original.catalog.num_objects());
  EXPECT_EQ(mapped.catalog().total_bytes(), original.catalog.total_bytes());
  for (ObjectId id = 0; id < original.catalog.num_objects(); ++id) {
    ASSERT_EQ(mapped.catalog().size(id), original.catalog.size(id));
    ASSERT_EQ(mapped.catalog().server(id), original.catalog.server(id));
  }
  const RequestSpan span = mapped.requests();
  ASSERT_EQ(span.size(), original.requests.size());
  EXPECT_EQ(std::memcmp(span.data(), original.requests.data(),
                        span.size() * sizeof(Request)),
            0)
      << "mapped request region must be bit-identical to the in-RAM load";
  // The mapping is page-aligned by the v2 format contract.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(span.data()) % alignof(Request), 0u);
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, ViewIsSeekable) {
  const std::string path = WriteSmallV2("seekable.cctr");
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_TRUE(mapped_or.ok());
  const RequestSpan all = (*mapped_or)->requests();
  // Subspans address warm-up/measure splits without copying.
  const RequestSpan warmup = all.subspan(0, all.size() / 2);
  const RequestSpan measure = all.subspan(all.size() / 2);
  EXPECT_EQ(warmup.size() + measure.size(), all.size());
  EXPECT_EQ(warmup.data() + warmup.size(), measure.data());
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, RejectsMissingFile) {
  auto mapped_or = MappedTrace::Open(TempPath("nope.cctr"));
  EXPECT_FALSE(mapped_or.ok());
  EXPECT_EQ(mapped_or.status().code(), util::StatusCode::kIoError);
}

// --- Malformed files ---------------------------------------------------
//
// One table of header/catalog corruptions. Every row runs through all
// four entry points that open a .cctr file — MappedTrace::Open,
// ReadTrace, SummarizeTrace and ExperimentRunner::CreateFromTrace — and
// each must answer it with the same error Status, never a crash.

template <typename T>
void AppendField(std::string* bytes, T value) {
  bytes->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::string PatchU64(std::string bytes, size_t offset, uint64_t value) {
  return bytes.replace(offset, sizeof(value),
                       reinterpret_cast<const char*>(&value), sizeof(value));
}

/// A complete trace in the retired v1 layout (24-byte header, catalog,
/// then the request region at an unaligned offset), field by field.
std::string V1Trace() {
  std::string bytes = "CCTR";
  AppendField<uint32_t>(&bytes, 1);    // version
  AppendField<uint32_t>(&bytes, 1);    // num_objects
  AppendField<uint32_t>(&bytes, 1);    // num_servers
  AppendField<uint64_t>(&bytes, 1);    // num_requests
  AppendField<uint64_t>(&bytes, 100);  // object 0: size
  AppendField<uint32_t>(&bytes, 0);    //           server
  AppendField<double>(&bytes, 0.0);    // request 0: time
  AppendField<uint32_t>(&bytes, 0);    //            client
  AppendField<uint32_t>(&bytes, 0);    //            object
  return bytes;
}

struct CorruptionCase {
  /// Registered as MappedTraceTest.<test_name>.
  const char* test_name;
  /// Turns the bytes of a valid v2 trace into the malformed file.
  std::string (*corrupt)(std::string valid);
  util::StatusCode code;
  /// Substring every entry point's error message must contain.
  const char* message;
};

// Header layout: magic @0, version @4, num_objects @8, num_servers @12,
// num_requests @16, request_offset @24, catalog @32.
const CorruptionCase kCorruptionCases[] = {
    {"RejectsBadMagic",
     [](std::string b) { return b.replace(0, 4, "NOPE"); },
     util::StatusCode::kIoError, "bad magic"},
    {"RejectsTruncatedHeader", [](std::string b) { return b.substr(0, 10); },
     util::StatusCode::kIoError, "truncated header"},
    {"RejectsUnalignedRequestOffset",
     [](std::string b) { return PatchU64(std::move(b), 24, 4097); },
     util::StatusCode::kInvalidArgument, "not page-aligned"},
    {"RejectsOverlappingRequestRegion",
     [](std::string b) { return PatchU64(std::move(b), 24, 0); },
     util::StatusCode::kInvalidArgument, "overlaps catalog"},
    {"RejectsCorruptCatalog",  // Object 0's size zeroed.
     [](std::string b) { return PatchU64(std::move(b), 32, 0); },
     util::StatusCode::kInvalidArgument, "zero-size object"},
    {"RejectsShortMapping",  // Request region cut short.
     [](std::string b) { return b.substr(0, b.size() - 4096); },
     util::StatusCode::kIoError, "shorter than its header"},
    {"RejectsHostileRequestCount",  // 16 * 2^60 wraps to 0 in a product.
     [](std::string b) { return PatchU64(std::move(b), 16, 1ULL << 60); },
     util::StatusCode::kIoError, "shorter than its header"},
    {"RejectsVersion1Header", [](std::string) { return V1Trace(); },
     util::StatusCode::kInvalidArgument, "unsupported trace version"},
};

class CorruptTraceTest : public MappedTraceTest {
 public:
  explicit CorruptTraceTest(const CorruptionCase& c) : case_(c) {}

  void TestBody() override {
    const std::string path = WriteSmallV2(std::string(case_.test_name) +
                                          ".cctr");
    Spit(path, case_.corrupt(Slurp(path)));
    ExpectRejected("MappedTrace::Open", MappedTrace::Open(path).status());
    ExpectRejected("ReadTrace", ReadTrace(path).status());
    ExpectRejected("SummarizeTrace", SummarizeTrace(path).status());
    sim::ExperimentConfig config;
    config.schemes.resize(1);
    ExpectRejected(
        "ExperimentRunner::CreateFromTrace",
        sim::ExperimentRunner::CreateFromTrace(config, path).status());
    std::remove(path.c_str());
  }

 private:
  void ExpectRejected(const char* entry_point, const util::Status& status) {
    SCOPED_TRACE(entry_point);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), case_.code) << status;
    EXPECT_NE(status.message().find(case_.message), std::string::npos)
        << status;
  }

  const CorruptionCase& case_;
};

const bool kCorruptionCasesRegistered = [] {
  for (const CorruptionCase& c : kCorruptionCases) {
    ::testing::RegisterTest(
        "MappedTraceTest", c.test_name, nullptr, nullptr, __FILE__, __LINE__,
        [&c]() -> MappedTraceTest* { return new CorruptTraceTest(c); });
  }
  return true;
}();

TEST_F(MappedTraceTest, ValidateAcceptsGoodAndRejectsCorruptRecords) {
  const std::string path = WriteSmallV2("validate.cctr");
  {
    auto mapped_or = MappedTrace::Open(path);
    ASSERT_TRUE(mapped_or.ok());
    EXPECT_TRUE((*mapped_or)->Validate().ok());
  }
  // Corrupt one record's object id past the catalog, out in the request
  // region where header/catalog validation cannot see it.
  std::string bytes = Slurp(path);
  uint64_t request_offset = 0;
  std::memcpy(&request_offset, bytes.data() + 24, sizeof(request_offset));
  const size_t victim = request_offset + 100 * sizeof(Request) +
                        offsetof(Request, object);
  uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + victim, &huge, sizeof(huge));
  Spit(path, bytes);
  {
    auto mapped_or = MappedTrace::Open(path);
    ASSERT_TRUE(mapped_or.ok()) << "corruption is past the eager checks";
    const util::Status status = (*mapped_or)->Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, ReleaseUpToKeepsDataReadable) {
  const std::string path = WriteSmallV2("release.cctr");
  const Workload original = SmallWorkload();
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_TRUE(mapped_or.ok());
  MappedTrace& mapped = **mapped_or;

  // Releases are advisory (MADV_DONTNEED on a file-backed private
  // mapping): the data must still read back correctly afterwards, at
  // any index, including repeated and out-of-order release points.
  mapped.ReleaseUpTo(mapped.num_requests() / 2);
  mapped.ReleaseUpTo(mapped.num_requests() / 4);  // no-op, below high water
  mapped.ReleaseUpTo(mapped.num_requests());
  const RequestSpan span = mapped.requests();
  ASSERT_EQ(span.size(), original.requests.size());
  EXPECT_EQ(std::memcmp(span.data(), original.requests.data(),
                        span.size() * sizeof(Request)),
            0);
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, StreamingViewReplaysIdentically) {
  const std::string path = WriteSmallV2("streamview.cctr");
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_TRUE(mapped_or.ok());
  MappedTrace& mapped = **mapped_or;

  WorkloadView view = mapped.StreamingView();
  ASSERT_NE(view.catalog, nullptr);
  ASSERT_TRUE(static_cast<bool>(view.on_consumed));
  // Drive the consumption hook the way the chunked replay does.
  const size_t n = view.requests.size();
  view.on_consumed(n / 3);
  view.on_consumed(2 * n / 3);
  view.on_consumed(n);
  const Workload original = SmallWorkload();
  EXPECT_EQ(std::memcmp(view.requests.data(), original.requests.data(),
                        n * sizeof(Request)),
            0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cascache::trace
