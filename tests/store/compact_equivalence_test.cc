#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "label/labeling.h"
#include "store/version.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"

namespace xupdate::store {
namespace {

namespace fs = std::filesystem;

// The compaction-equivalence invariant: Checkout(v) is byte-identical
// before and after Compact() for EVERY version v, at every reduce
// parallelism level, and Rollback behaves identically on compacted and
// uncompacted stores.
class CompactEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr size_t kVersions = 9;  // snapshots at 0, 3, 6, 9

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_compact_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    base_doc_ = xupdate::testing::PaperFigureDocument();
    auto xml = VersionStore::SerializeAnnotated(base_doc_);
    ASSERT_TRUE(xml.ok());
    base_xml_ = *xml;
    labeling_ = label::Labeling::Build(base_doc_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  // Builds a store at dir_/name and commits the seeded workload.
  std::string BuildStore(const std::string& name, int parallelism,
                         uint64_t seed) {
    std::string path = (dir_ / name).string();
    StoreOptions options;
    options.snapshot_every = 3;
    options.parallelism = parallelism;
    EXPECT_TRUE(VersionStore::Init(path, base_xml_, options).ok());
    auto store = VersionStore::Open(path, options);
    EXPECT_TRUE(store.ok()) << store.status();
    workload::PulGenerator gen(base_doc_, labeling_, seed);
    workload::PulGenerator::SequenceOptions seq;
    seq.num_puls = kVersions;
    seq.ops_per_pul = 4;
    auto puls = gen.GenerateSequence(seq);
    EXPECT_TRUE(puls.ok()) << puls.status();
    for (const pul::Pul& pul : *puls) {
      auto version = store->Commit(pul);
      EXPECT_TRUE(version.ok()) << version.status();
    }
    EXPECT_TRUE(store->Close().ok());
    return path;
  }

  static StoreOptions OptionsFor(int parallelism) {
    StoreOptions options;
    options.snapshot_every = 3;
    options.parallelism = parallelism;
    return options;
  }

  fs::path dir_;
  xml::Document base_doc_;
  std::string base_xml_;
  label::Labeling labeling_;
};

TEST_F(CompactEquivalenceTest, CheckoutBytesIdenticalAcrossCompaction) {
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    std::string path = BuildStore(
        std::string("p").append(std::to_string(parallelism)), parallelism,
        /*seed=*/1234);
    auto store = VersionStore::Open(path, OptionsFor(parallelism));
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_EQ(store->head(), kVersions);

    std::vector<std::string> pre;
    for (uint64_t v = 0; v <= kVersions; ++v) {
      auto xml = store->CheckoutXml(v);
      ASSERT_TRUE(xml.ok()) << "version " << v << ": " << xml.status();
      pre.push_back(*xml);
    }

    CompactStats stats;
    ASSERT_TRUE(store->Compact(&stats).ok());
    EXPECT_EQ(stats.segments_considered, 3u);  // (0,3] (3,6] (6,9]
    EXPECT_EQ(stats.segments_compacted + stats.segments_skipped,
              stats.segments_considered);
    // The seeded workload must actually exercise compaction — a sweep
    // where every segment fails verification would test nothing.
    EXPECT_GT(stats.segments_compacted, 0u);

    for (uint64_t v = 0; v <= kVersions; ++v) {
      auto xml = store->CheckoutXml(v);
      ASSERT_TRUE(xml.ok()) << "version " << v << ": " << xml.status();
      EXPECT_EQ(*xml, pre[v]) << "version " << v;
    }
    auto verify = store->Verify();
    ASSERT_TRUE(verify.ok()) << verify.status();
    EXPECT_EQ(verify->undo_chains_checked, stats.segments_compacted);

    // Equivalence survives reopen (the rewritten journal, not cached
    // state, is what's being checked out).
    ASSERT_TRUE(store->Close().ok());
    auto reopened = VersionStore::Open(path, OptionsFor(parallelism));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->head(), kVersions);
    for (uint64_t v = 0; v <= kVersions; ++v) {
      auto xml = reopened->CheckoutXml(v);
      ASSERT_TRUE(xml.ok());
      EXPECT_EQ(*xml, pre[v]) << "version " << v;
    }
  }
}

TEST_F(CompactEquivalenceTest, JournalBytesIdenticalAcrossParallelism) {
  // Reduce is byte-deterministic across parallelism (the PR1 contract),
  // so the compacted journal must be too.
  std::string p1 = BuildStore("det_p1", 1, /*seed=*/5678);
  std::string p4 = BuildStore("det_p4", 4, /*seed=*/5678);
  const std::vector<std::pair<std::string, int>> stores = {{p1, 1},
                                                           {p4, 4}};
  for (const auto& [path, parallelism] : stores) {
    auto store = VersionStore::Open(path, OptionsFor(parallelism));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Compact(nullptr).ok());
    ASSERT_TRUE(store->Close().ok());
  }
  auto bytes1 = ReadFileToString(p1 + "/wal.log");
  auto bytes4 = ReadFileToString(p4 + "/wal.log");
  ASSERT_TRUE(bytes1.ok());
  ASSERT_TRUE(bytes4.ok());
  EXPECT_EQ(*bytes1, *bytes4);
}

TEST_F(CompactEquivalenceTest, CompactionShrinksJournal) {
  std::string path = BuildStore("shrink", 1, /*seed=*/31415);
  auto store = VersionStore::Open(path, OptionsFor(1));
  ASSERT_TRUE(store.ok());
  CompactStats stats;
  ASSERT_TRUE(store->Compact(&stats).ok());
  ASSERT_GT(stats.segments_compacted, 0u);
  // Aggregation folds ops (that is its point — Example 5 in DESIGN.md),
  // so the aggregate carries fewer ops than its inputs combined.
  EXPECT_LT(stats.output_ops, stats.input_ops);
  EXPECT_EQ(stats.journal_bytes_after, fs::file_size(path + "/wal.log"));
  // A second compaction finds nothing left to fold.
  CompactStats again;
  ASSERT_TRUE(store->Compact(&again).ok());
  EXPECT_EQ(again.segments_compacted, 0u);
  EXPECT_EQ(again.journal_bytes_after, stats.journal_bytes_after);
}

TEST_F(CompactEquivalenceTest, RollbackIdenticalOnCompactedStore) {
  std::string plain = BuildStore("rb_plain", 1, /*seed=*/2718);
  std::string compacted = BuildStore("rb_compacted", 1, /*seed=*/2718);
  {
    auto store = VersionStore::Open(compacted, OptionsFor(1));
    ASSERT_TRUE(store.ok());
    CompactStats stats;
    ASSERT_TRUE(store->Compact(&stats).ok());
    ASSERT_GT(stats.segments_compacted, 0u);
    ASSERT_TRUE(store->Close().ok());
  }
  for (uint64_t to : {7u, 4u, 0u}) {
    SCOPED_TRACE("rollback to " + std::to_string(to));
    auto a = VersionStore::Open(plain, OptionsFor(1));
    auto b = VersionStore::Open(compacted, OptionsFor(1));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    auto head_a = a->Rollback(to);
    auto head_b = b->Rollback(to);
    ASSERT_TRUE(head_a.ok()) << head_a.status();
    ASSERT_TRUE(head_b.ok()) << head_b.status();
    EXPECT_EQ(*head_a, *head_b);
    auto xml_a = a->CheckoutXml(*head_a);
    auto xml_b = b->CheckoutXml(*head_b);
    ASSERT_TRUE(xml_a.ok());
    ASSERT_TRUE(xml_b.ok());
    EXPECT_EQ(*xml_a, *xml_b);
    // And both equal the original version's bytes.
    auto target = a->CheckoutXml(to);
    ASSERT_TRUE(target.ok());
    EXPECT_EQ(*xml_a, *target);
    auto verify_a = a->Verify();
    auto verify_b = b->Verify();
    EXPECT_TRUE(verify_a.ok()) << verify_a.status();
    EXPECT_TRUE(verify_b.ok()) << verify_b.status();
    ASSERT_TRUE(a->Close().ok());
    ASSERT_TRUE(b->Close().ok());
  }
}

}  // namespace
}  // namespace xupdate::store
