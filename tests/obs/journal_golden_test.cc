// Byte-identity pin for the decision journals: one CRC-32C per journal
// of a seeded workload — the 200-op reduce PUL in each reduce mode and
// one 8-PUL integrate conflict set — folded over the JSONL written at
// parallelism 1 and 4. Engine refactors must leave these unchanged: a
// moved constant means a rule fired in another order, a different
// killer was named, or a lane changed shape.
//
// To re-capture after an *intentional* journal change, run the test
// with XUPDATE_PRINT_GOLDENS=1 and paste the printed values.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::obs {
namespace {

using core::ReduceMode;
using pul::Pul;
using workload::PulGenerator;
using xml::Document;

constexpr uint32_t kReducePlainGolden = 0xb75bc263u;
constexpr uint32_t kReduceDeterministicGolden = 0xdfd616cdu;
constexpr uint32_t kReduceCanonicalGolden = 0xb3b5e4f3u;
constexpr uint32_t kIntegrateGolden = 0x0f20e6bbu;

class JournalGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    xmark::Config config;
    config.target_bytes = 128 << 10;
    auto doc = xmark::GenerateDocument(config);
    ASSERT_TRUE(doc.ok());
    doc_ = new Document(std::move(*doc));
    labeling_ = new label::Labeling(label::Labeling::Build(*doc_));
  }

  static void TearDownTestSuite() {
    delete labeling_;
    labeling_ = nullptr;
    delete doc_;
    doc_ = nullptr;
  }

  static Document* doc_;
  static label::Labeling* labeling_;
};

Document* JournalGoldenTest::doc_ = nullptr;
label::Labeling* JournalGoldenTest::labeling_ = nullptr;

void CheckGolden(const char* name, uint32_t actual, uint32_t expected) {
  if (std::getenv("XUPDATE_PRINT_GOLDENS") != nullptr) {
    fprintf(stderr, "GOLDEN %s = 0x%08xu\n", name, actual);
    return;
  }
  EXPECT_EQ(actual, expected)
      << name << ": journal bytes changed (got 0x" << std::hex << actual
      << ", pinned 0x" << expected << ")";
}

TEST_F(JournalGoldenTest, ReduceJournalsMatchPinnedBytes) {
  PulGenerator gen(*doc_, *labeling_, 4242);
  PulGenerator::PulOptions options;
  options.num_ops = 200;
  options.reducible_fraction = 0.3;
  auto pul = gen.Generate(options);
  ASSERT_TRUE(pul.ok()) << pul.status();
  struct Case {
    const char* name;
    ReduceMode mode;
    uint32_t golden;
  };
  const Case kCases[] = {
      {"kReducePlainGolden", ReduceMode::kPlain, kReducePlainGolden},
      {"kReduceDeterministicGolden", ReduceMode::kDeterministic,
       kReduceDeterministicGolden},
      {"kReduceCanonicalGolden", ReduceMode::kCanonical,
       kReduceCanonicalGolden},
  };
  for (const Case& c : kCases) {
    uint32_t crc = 0;
    for (int parallelism : {1, 4}) {
      Tracer tracer;
      core::ReduceOptions opts;
      opts.mode = c.mode;
      opts.parallelism = parallelism;
      opts.tracer = &tracer;
      auto reduced = core::Reduce(*pul, opts);
      ASSERT_TRUE(reduced.ok()) << reduced.status();
      crc = ExtendCrc32c(crc, ToJournalJsonl(tracer));
    }
    CheckGolden(c.name, crc, c.golden);
  }
}

TEST_F(JournalGoldenTest, IntegrateJournalMatchesPinnedBytes) {
  PulGenerator gen(*doc_, *labeling_, 99);
  PulGenerator::ConflictOptions options;
  options.num_puls = 8;
  options.ops_per_pul = 40;
  options.conflicting_fraction = 0.4;
  options.ops_per_conflict = 3;
  auto puls = gen.GenerateConflicting(options);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<const Pul*> refs;
  for (const Pul& p : *puls) refs.push_back(&p);
  uint32_t crc = 0;
  for (int parallelism : {1, 4}) {
    Tracer tracer;
    core::IntegrateOptions opts;
    opts.parallelism = parallelism;
    opts.tracer = &tracer;
    auto result = core::Integrate(refs, opts);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_FALSE(result->conflicts.empty());
    crc = ExtendCrc32c(crc, ToJournalJsonl(tracer));
  }
  CheckGolden("kIntegrateGolden", crc, kIntegrateGolden);
}

}  // namespace
}  // namespace xupdate::obs
