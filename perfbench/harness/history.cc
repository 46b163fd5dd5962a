// history: one caller thread drives a VersionStore on a 1 MB XMark
// document under fsync=always and the default checkpoint cadence.
//
// The run is a sequence of epochs. Each epoch Inits a fresh store from
// the same document (its Init+Open is one setup_s sample) and runs a
// fixed script of cycles:
//
//   8 mainline commits of 100-op PULs (one checkpoint per cycle),
//   2 commits on a long-lived branch "a", Merge(main, a),
//   4 checkouts of random mainline versions, Close + Open;
//
// then one Compact, 4 more checkouts and a last Close + Open.
//
// The first epoch generates the script (PULs are generated against the
// live head documents, checkout versions drawn from the seed) and
// records the digest every checked output must have, computed from an
// independent in-memory mirror; it is warm-up and is not measured.
// Later epochs replay the script on fresh stores — identical inputs on
// identical states, so the per-operation cost is stationary however
// long the run is, and the branch count stays at one.
//
// Oracles: every checkout matches the digest of the mirror's bytes for
// that version; both sides of every merge land on identical bytes; and
// after every Close + Open the heads of main and a still hold every
// acked commit.
//
// Rebase, and the second branch it would run on, are not in the mix:
// branch::Rebase refuses some branches outright
// ("undo chain of branch b does not rewind to the fork state" on 2 of about
// 60 seeds tried). The undo of an attribute deletion re-inserts the
// attribute after attributes added since, so the rewound bytes differ
// in attribute order.

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "branch/merge.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/aggregate.h"
#include "core/diff.h"
#include "core/reconcile.h"
#include "core/reduce.h"
#include "harness.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/pul_io.h"
#include "store/version.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xupdate::Metrics;
using xupdate::Result;
using xupdate::Status;
namespace branch = xupdate::branch;
namespace core = xupdate::core;
namespace label = xupdate::label;
namespace pul = xupdate::pul;
namespace store = xupdate::store;
namespace xml = xupdate::xml;

constexpr size_t kDocBytes = 1 << 20;
constexpr size_t kOpsPerCommit = 100;
constexpr int kCyclesPerEpoch = 2;
constexpr int kMainCommitsPerCycle = 8;
constexpr int kBranchCommitsPerCycle = 2;
constexpr int kCheckoutsPerCycle = 4;
constexpr int kSetupsPerEpoch = 3;
constexpr uint64_t kIdBlock = 1 << 16;
// Inserted-node ids come from per-PUL blocks drawn from one counter.
// A merge that falls back to the diff operator creates nodes in a span
// of up to 2^21 ids above the merged documents; the counter skips past
// that span after every merge so later blocks never collide with it.
constexpr uint64_t kMergeIdGap = uint64_t{1} << 22;
const std::string kMain = "main";
const std::string kBranches[] = {"a"};  // merged into main every cycle

// What the warm-up epoch generates and every later epoch replays.
struct Script {
  bool recorded = false;
  std::vector<std::string> puls;  // commit payloads, in script order
  std::vector<uint64_t> checkouts;
  std::map<uint64_t, uint64_t> main_digests;  // mainline version -> digest
  std::vector<uint64_t> expected;  // other checked digests, in order
};

std::string Annotated(const xml::Document& doc) {
  Result<std::string> bytes = store::VersionStore::SerializeAnnotated(doc);
  return bytes.ok() ? *bytes : std::string();
}

double MetricMs(const Metrics& m, const char* timer) {
  return m.total_seconds(timer) * 1e3;
}

class History {
 public:
  History(const RunConfig& config, std::string doc_text, WorkloadResult* out)
      : config_(config), doc_text_(std::move(doc_text)), out_(out) {}

  // Runs one epoch. `measured` records samples (into the traced set
  // when `traced`); the warm-up epoch records the script instead.
  void RunEpoch(int index, bool measured, bool traced);

  std::vector<double> disk_ratios;

 private:
  // Times fn (wall and CPU) as one item of `op`.
  template <typename F>
  Status Item(const std::string& op, F&& fn, double* wall_ms = nullptr) {
    ++out_->attempted;
    const double cpu0 = ProcessCpuMs();
    const Clock::time_point t0 = Clock::now();
    Status status = fn();
    const double ms = MsBetween(t0, Clock::now());
    const double cpu = ProcessCpuMs() - cpu0;
    if (wall_ms != nullptr) *wall_ms = ms;
    if (!status.ok()) {
      out_->Fail(op + ": " + status.ToString());
      return status;
    }
    if (measured_) out_->Record(op, ms, cpu, traced_);
    return status;
  }

  // Compares a digest against the script (replay) or records it.
  void Expect(const std::string& what, uint64_t digest);
  void ResetMirror(const std::string& branch_name, const xml::Document& doc);
  const std::string& NextPul(const std::string& branch_name);
  Status Commit(const std::string& branch_name);
  Status Checkout();
  Status Merge(const std::string& branch_name);
  Status Compact();
  Status Reopen();

  void DecomposeCommit(const pul::Pul& p, double decode_ms);
  void DecomposeCheckout(uint64_t version, const std::string& bytes,
                         double wall_ms, uint64_t replayed);
  void DecomposeMerge(const std::string& branch_name);

  store::StoreOptions Options() {
    store::StoreOptions options;
    options.fsync = store::FsyncPolicy::kAlways;
    options.metrics = traced_ ? &metrics_ : nullptr;
    return options;
  }

  const RunConfig& config_;
  const std::string doc_text_;
  WorkloadResult* out_;
  Script script_;
  Metrics metrics_;
  xupdate::Rng rng_{1};

  // Per-epoch state.
  bool measured_ = false;
  bool traced_ = false;
  std::string dir_;
  std::optional<store::VersionStore> store_;
  size_t pul_cursor_ = 0;
  size_t checkout_cursor_ = 0;
  size_t expect_cursor_ = 0;
  uint64_t user_bytes_ = 0;
  uint64_t next_id_base_ = 0;
  // Recording epoch only: the independent mirror of each head.
  std::map<std::string, xml::Document> mirror_;
  std::map<std::string, label::Labeling> labeling_;

  // Traced accumulators.
  uint64_t merges_ = 0;
  uint64_t label_builds_ = 0;
  uint64_t checkout_parsed_bytes_ = 0;
  uint64_t checkout_decoded_bytes_ = 0;
  uint64_t checkouts_decomposed_ = 0;
  std::vector<double> checkout_replayed_;
  std::vector<double> open_replayed_;
  std::vector<double> compact_saved_;
  uint64_t compact_considered_ = 0;
  uint64_t compact_skipped_ = 0;

 public:
  void FillLayerValues();
};

void History::Expect(const std::string& what, uint64_t digest) {
  if (!script_.recorded) {
    script_.expected.push_back(digest);
    return;
  }
  if (expect_cursor_ >= script_.expected.size() ||
      script_.expected[expect_cursor_] != digest) {
    out_->Fail(what + ": bytes differ from the reference");
  }
  ++expect_cursor_;
}

const std::string& History::NextPul(const std::string& branch_name) {
  if (pul_cursor_ < script_.puls.size()) return script_.puls[pul_cursor_++];
  // Generated against the branch's mirror and its incrementally
  // maintained labeling — the labels a producer gets from the executor
  // (paper §4.1), consistent across a branch's commits so that merge
  // folds and compaction can reason on them.
  const xml::Document& doc = mirror_[branch_name];
  next_id_base_ = std::max(
      next_id_base_, (doc.max_assigned_id() / kIdBlock + 1) * kIdBlock);
  xupdate::workload::PulGenerator gen(doc, labeling_[branch_name],
                                      MixSeed(config_.seed, pul_cursor_));
  xupdate::workload::PulGenerator::PulOptions options;
  options.num_ops = kOpsPerCommit;
  options.id_base = next_id_base_;
  next_id_base_ += kIdBlock;
  Result<pul::Pul> p = gen.Generate(options);
  Result<std::string> text =
      p.ok() ? pul::SerializePul(*p) : Result<std::string>(p.status());
  if (!text.ok()) {
    out_->Fail("generating a commit for " + branch_name + ": " +
               text.status().ToString());
  }
  script_.puls.push_back(text.ok() ? std::move(*text) : std::string());
  return script_.puls[pul_cursor_++];
}

// Recording epoch: the mirror of a branch restarts from `doc`, with a
// fresh labeling.
void History::ResetMirror(const std::string& branch_name,
                          const xml::Document& doc) {
  mirror_[branch_name] = doc;
  labeling_[branch_name] = label::Labeling::Build(doc);
}

Status History::Commit(const std::string& branch_name) {
  const std::string& text = NextPul(branch_name);
  user_bytes_ += text.size();
  const bool main = branch_name == kMain;
  Result<store::BranchInfo> info = store_->GetBranch(branch_name);
  if (!info.ok()) return info.status();
  const uint64_t expected_version = info->head + 1;
  uint64_t version = 0;
  Status status;
  if (traced_ && main) {
    // Decomposed: the item's own decode, then the re-issued constituents
    // of Commit, then the real Commit with the store's own timers.
    out_->spans.BeginItem("commit");
    double decode_ms = 0.0;
    Result<pul::Pul> p = out_->spans.Leaf("pul.decode", [&] {
      const Clock::time_point t0 = Clock::now();
      Result<pul::Pul> r = pul::ParsePul(text);
      decode_ms = MsBetween(t0, Clock::now());
      return r;
    });
    if (!p.ok()) return p.status();
    DecomposeCommit(*p, decode_ms);
    return Status::OK();
  }
  status = Item(main ? "commit" : "branch_commit", [&]() -> Status {
    Result<pul::Pul> p = pul::ParsePul(text);
    if (!p.ok()) return p.status();
    Result<uint64_t> v = main ? store_->Commit(*p)
                              : store_->CommitOnBranch(branch_name, *p);
    if (!v.ok()) return v.status();
    version = *v;
    return Status::OK();
  });
  if (!status.ok()) return status;
  if (version != expected_version) {
    out_->Fail(branch_name + " commit produced version " +
               std::to_string(version) + ", expected " +
               std::to_string(expected_version));
  }
  if (!script_.recorded) {
    xml::Document& mirror = mirror_[branch_name];
    pul::ApplyOptions maintain;
    maintain.labeling = &labeling_[branch_name];
    Result<pul::Pul> p = pul::ParsePul(text);
    Status applied =
        p.ok() ? pul::ApplyPul(&mirror, *p, maintain) : p.status();
    if (!applied.ok()) out_->Fail("mirror apply: " + applied.ToString());
    if (main) script_.main_digests[version] = Digest(Annotated(mirror));
  }
  return Status::OK();
}

void History::DecomposeCommit(const pul::Pul& p, double decode_ms) {
  Spans& spans = out_->spans;
  const xml::Document& head = store_->head_doc();
  Status check = spans.Leaf("pul.check",
                            [&] { return pul::CheckPulApplicable(head, p); });
  Result<std::string> encoded =
      spans.Leaf("pul.encode", [&] { return pul::SerializePul(p); });
  xml::Document scratch = head;
  Status applied =
      spans.Leaf("pul.apply", [&] { return pul::ApplyPul(&scratch, p); });
  if (!check.ok() || !encoded.ok() || !applied.ok()) {
    out_->Fail("commit decomposition: re-issued call failed");
  }
  const double append0 = MetricMs(metrics_, "store.wal.append.seconds");
  const double fsync0 = MetricMs(metrics_, "store.wal.fsync.seconds");
  const double snap0 = MetricMs(metrics_, "store.snapshot.write.seconds");
  const uint64_t snaps0 = metrics_.counter("store.snapshot.write.count");
  double commit_ms = 0.0;
  const uint64_t expected_version = store_->head() + 1;
  ++out_->attempted;
  const Clock::time_point t0 = Clock::now();
  Result<uint64_t> v = store_->Commit(p);
  commit_ms = MsBetween(t0, Clock::now());
  if (!v.ok() || *v != expected_version) {
    out_->Fail("traced commit: " + (v.ok() ? "version " + std::to_string(*v)
                                           : v.status().ToString()));
  }
  spans.AddLeaf("store.wal.append",
                MetricMs(metrics_, "store.wal.append.seconds") - append0);
  spans.AddLeaf("store.wal.fsync",
                MetricMs(metrics_, "store.wal.fsync.seconds") - fsync0);
  if (metrics_.counter("store.snapshot.write.count") > snaps0) {
    spans.AddLeaf("store.snapshot.write",
                  MetricMs(metrics_, "store.snapshot.write.seconds") - snap0);
    // The checkpoint serializes the new head before writing it.
    (void)spans.Leaf("xml.serialize", [&] {
      return store::VersionStore::SerializeAnnotated(store_->head_doc());
    });
  }
  const double wall = decode_ms + commit_ms;
  spans.EndItem(wall);
  out_->Record("commit", wall, 0.0, /*traced=*/true);
}

Status History::Checkout() {
  if (checkout_cursor_ >= script_.checkouts.size()) {
    script_.checkouts.push_back(rng_.Below(store_->head() + 1));
  }
  const uint64_t version = script_.checkouts[checkout_cursor_++];
  std::string bytes;
  const uint64_t replayed0 =
      metrics_.counter("store.checkout.replayed_frames");
  double wall = 0.0;
  Status status = Item(
      "checkout",
      [&]() -> Status {
        Result<std::string> r = store_->CheckoutXml(version);
        if (!r.ok()) return r.status();
        bytes = std::move(*r);
        return Status::OK();
      },
      &wall);
  if (!status.ok()) return status;
  auto it = script_.main_digests.find(version);
  if (it == script_.main_digests.end() || it->second != Digest(bytes)) {
    out_->Fail("checkout of version " + std::to_string(version) +
               " differs from the mirror's bytes");
  }
  if (traced_) {
    DecomposeCheckout(
        version, bytes, wall,
        metrics_.counter("store.checkout.replayed_frames") - replayed0);
  }
  return Status::OK();
}

void History::DecomposeCheckout(uint64_t version, const std::string& bytes,
                                double wall_ms, uint64_t replayed) {
  checkout_replayed_.push_back(static_cast<double>(replayed));
  uint64_t base = 0;
  if (!store_->snapshots().NearestAtOrBelow(version, &base)) return;
  // The frames the checkout replays, re-encoded as the journal holds
  // them. A version inside a compacted segment replays an aggregate and
  // an undo chain that RangePuls cannot name; those stay undecomposed.
  Result<std::vector<pul::Pul>> frames =
      store_->RangePuls(kMain, base, version);
  if (!frames.ok()) return;
  std::vector<std::string> texts;
  for (const pul::Pul& p : *frames) {
    Result<std::string> t = pul::SerializePul(p);
    if (!t.ok()) return;
    texts.push_back(std::move(*t));
  }
  Spans& spans = out_->spans;
  spans.BeginItem("checkout");
  Result<std::string> snapshot = spans.Leaf(
      "store.snapshot.read", [&] { return store_->snapshots().Read(base); });
  if (!snapshot.ok()) {
    spans.EndItem(wall_ms);
    return;
  }
  Result<xml::Document> doc =
      spans.Leaf("xml.parse", [&] { return xml::ParseDocument(*snapshot); });
  bool ok = doc.ok();
  for (const std::string& text : texts) {
    if (!ok) break;
    Result<pul::Pul> p =
        spans.Leaf("pul.decode", [&] { return pul::ParsePul(text); });
    ok = p.ok() && spans.Leaf("pul.apply", [&] {
                     return pul::ApplyPul(&*doc, *p);
                   }).ok();
    checkout_decoded_bytes_ += text.size();
  }
  if (ok) {
    Result<std::string> again = spans.Leaf("xml.serialize", [&] {
      return store::VersionStore::SerializeAnnotated(*doc);
    });
    ok = again.ok() && *again == bytes;
  }
  if (!ok) out_->Fail("checkout decomposition disagrees with Checkout");
  checkout_parsed_bytes_ += snapshot->size();
  ++checkouts_decomposed_;
  spans.EndItem(wall_ms);
}

Status History::Merge(const std::string& branch_name) {
  if (traced_) DecomposeMerge(branch_name);
  const double merge_commit0 =
      MetricMs(metrics_, "store.merge.commit.seconds");
  branch::MergeOptions options;
  options.metrics = traced_ ? &metrics_ : nullptr;
  double wall = 0.0;
  Status status = Item(
      "merge",
      [&]() -> Status {
        return branch::Merge(&*store_, kMain, branch_name, options).status();
      },
      &wall);
  if (traced_) {
    out_->spans.AddLeaf(
        "branch.merge.commit",
        MetricMs(metrics_, "store.merge.commit.seconds") - merge_commit0);
    out_->spans.EndItem(wall);
    ++merges_;
  }
  if (!status.ok()) return status;
  Result<const xml::Document*> main_doc = store_->BranchHeadDoc(kMain);
  Result<const xml::Document*> merged_doc = store_->BranchHeadDoc(branch_name);
  if (!main_doc.ok() || !merged_doc.ok()) {
    out_->Fail("merge: heads unavailable");
    return Status::OK();
  }
  const std::string main_bytes = Annotated(**main_doc);
  if (main_bytes != Annotated(**merged_doc)) {
    out_->Fail("merge: the two sides landed on different bytes");
  }
  const uint64_t digest = Digest(main_bytes);
  Expect("merge result", digest);
  if (!script_.recorded) {
    script_.main_digests[store_->head()] = digest;
    ResetMirror(kMain, **main_doc);
    ResetMirror(branch_name, **main_doc);
    next_id_base_ =
        std::max(next_id_base_, (*main_doc)->max_assigned_id() + kMergeIdGap);
  }
  return Status::OK();
}

void History::DecomposeMerge(const std::string& branch_name) {
  // Re-issues Merge's public constituents on the pre-merge state, in
  // the order branch::Merge runs them (full-merge path).
  Spans& spans = out_->spans;
  spans.BeginItem("merge");
  Result<store::SyncPoint> base = spans.Leaf("store.merge_base", [&] {
    (void)store_->GetBranch(kMain);
    (void)store_->GetBranch(branch_name);
    return store_->MergeBase(kMain, branch_name);
  });
  if (!base.ok()) return;
  struct Side {
    const std::string* name;
    uint64_t base = 0;
    std::vector<pul::Pul> suffix;
    std::optional<xml::Document> base_doc;
    const xml::Document* head = nullptr;
    pul::Pul canon;
  };
  // Merge orders its two inputs by branch name; "a" and "b" sort before
  // "main".
  Side sides[2] = {{&branch_name, base->base_b, {}, {}, nullptr, {}},
                   {&kMain, base->base_a, {}, {}, nullptr, {}}};
  for (Side& s : sides) {
    Result<std::vector<pul::Pul>> suffix = spans.Leaf(
        "store.suffix", [&] { return store_->SuffixPuls(*s.name, s.base); });
    if (!suffix.ok()) return;
    s.suffix = std::move(*suffix);
    Result<xml::Document> doc = spans.Leaf("store.checkout", [&] {
      return store_->CheckoutBranch(*s.name, s.base);
    });
    if (!doc.ok()) return;
    s.base_doc = std::move(*doc);
    s.head = *store_->BranchHeadDoc(*s.name);
  }
  // Each side: fold (aggregate + canonical reduce), verify the fold
  // against the head bytes, relabel; a fold that fails either step
  // takes Merge's fallback, the diff operator.
  for (Side& s : sides) {
    Result<pul::Pul> canon = spans.Group("branch.merge.fold", [&] {
      pul::Pul folded;
      if (s.suffix.size() == 1) {
        folded = s.suffix.front();
      } else {
        std::vector<const pul::Pul*> ptrs;
        for (const pul::Pul& p : s.suffix) ptrs.push_back(&p);
        Result<pul::Pul> agg = spans.Leaf(
            "core.aggregate", [&] { return core::Aggregate(ptrs); });
        if (!agg.ok()) return agg;
        folded = std::move(*agg);
      }
      return spans.Leaf("core.reduce", [&] {
        return core::Reduce(folded, core::ReduceMode::kCanonical);
      });
    });
    const bool verified =
        canon.ok() && spans.Group("branch.merge.verify", [&] {
      Result<std::string> head_bytes = spans.Leaf("xml.serialize", [&] {
        return store::VersionStore::SerializeAnnotated(*s.head);
      });
      xml::Document scratch =
          spans.Leaf("xml.copy", [&] { return *s.base_doc; });
      Status applied = spans.Leaf(
          "pul.apply", [&] { return pul::ApplyPul(&scratch, *canon); });
      Result<std::string> bytes = spans.Leaf("xml.serialize", [&] {
        return store::VersionStore::SerializeAnnotated(scratch);
      });
      return applied.ok() && head_bytes.ok() && bytes.ok() &&
             *head_bytes == *bytes;
    });
    label::Labeling labeling = spans.Leaf(
        "label.build", [&] { return label::Labeling::Build(*s.base_doc); });
    ++label_builds_;
    if (verified) {
      s.canon = std::move(*canon);
      continue;
    }
    const xml::NodeId floor =
        std::max(s.base_doc->max_assigned_id(), s.head->max_assigned_id()) + 1;
    Result<pul::Pul> delta = spans.Leaf("core.diff", [&] {
      return core::ComputeDelta(*s.base_doc, labeling, *s.head, floor);
    });
    if (delta.ok()) s.canon = std::move(*delta);
  }
  std::vector<const pul::Pul*> inputs = {&sides[0].canon, &sides[1].canon};
  Result<pul::Pul> merged =
      spans.Leaf("core.reconcile", [&] { return core::Reconcile(inputs); });
  if (merged.ok()) {
    (void)spans.Leaf("core.reduce", [&] {
      return core::Reduce(*merged, core::ReduceMode::kCanonical);
    });
  }
  (void)spans.Leaf("store.undo_chain", [&] {
    (void)store_->UndoChain(kMain, base->base_a);
    return store_->UndoChain(branch_name, base->base_b);
  });
}

Status History::Compact() {
  store::CompactStats stats;
  Status status = Item("compact", [&] { return store_->Compact(&stats); });
  if (traced_ && status.ok()) {
    compact_saved_.push_back(static_cast<double>(stats.journal_bytes_before) -
                             static_cast<double>(stats.journal_bytes_after));
    compact_considered_ += stats.segments_considered;
    compact_skipped_ += stats.segments_skipped;
  }
  return status;
}

Status History::Reopen() {
  const uint64_t head = store_->head();
  const uint64_t replayed0 =
      metrics_.counter("store.checkout.replayed_frames");
  Status status = Item("open", [&]() -> Status {
    Status closed = store_->Close();
    store_.reset();
    if (!closed.ok()) return closed;
    Result<store::VersionStore> opened =
        store::VersionStore::Open(dir_, Options());
    if (!opened.ok()) return opened.status();
    store_.emplace(std::move(*opened));
    return Status::OK();
  });
  if (!status.ok()) return status;
  if (traced_) {
    open_replayed_.push_back(static_cast<double>(
        metrics_.counter("store.checkout.replayed_frames") - replayed0));
  }
  if (store_->head() != head) {
    out_->Fail("reopen lost commits: head " + std::to_string(store_->head()) +
               ", acked " + std::to_string(head));
  }
  for (const std::string& name : {kMain, kBranches[0]}) {
    Result<const xml::Document*> doc = store_->BranchHeadDoc(name);
    if (!doc.ok()) return doc.status();
    const std::string bytes = Annotated(**doc);
    if (!script_.recorded && bytes != Annotated(mirror_[name])) {
      out_->Fail("reopened " + name + " head differs from the mirror");
    }
    Expect("reopened " + name + " head", Digest(bytes));
  }
  return Status::OK();
}

void History::RunEpoch(int index, bool measured, bool traced) {
  measured_ = measured;
  traced_ = traced;
  dir_ = config_.work_dir + "/history-" + std::to_string(index);
  pul_cursor_ = 0;
  checkout_cursor_ = 0;
  expect_cursor_ = 0;
  user_bytes_ = doc_text_.size();
  next_id_base_ = 0;
  rng_ = xupdate::Rng(MixSeed(config_.seed, 0xC0FFEE));

  // Init+Open kSetupsPerEpoch times; the last store is the epoch's.
  Result<store::VersionStore> opened = Status::Internal("not opened");
  for (int i = 0; i < kSetupsPerEpoch; ++i) {
    if (i > 0) {
      (void)opened->Close();
      std::error_code ec;
      fs::remove_all(dir_, ec);
    }
    const Clock::time_point t0 = Clock::now();
    Status init = store::VersionStore::Init(dir_, doc_text_, Options());
    opened = init.ok() ? store::VersionStore::Open(dir_, Options())
                       : Result<store::VersionStore>(init);
    const double setup_s = MsBetween(t0, Clock::now()) / 1e3;
    ++out_->attempted;
    if (!opened.ok()) {
      out_->Fail("store Init+Open: " + opened.status().ToString());
      return;
    }
    if (measured && !traced) out_->setup_s.push_back(setup_s);
  }
  store_.emplace(std::move(*opened));
  if (!script_.recorded) {
    for (const std::string& name : {kMain, kBranches[0]}) {
      ResetMirror(name, store_->head_doc());
    }
    script_.main_digests[0] = Digest(Annotated(store_->head_doc()));
  }
  bool ok = true;
  for (const std::string& name : kBranches) {
    ok = ok && Item("branch_create", [&] {
                 return store_->CreateBranch(name, kMain, 0);
               }).ok();
  }
  for (int cycle = 0; ok && cycle < kCyclesPerEpoch; ++cycle) {
    for (int i = 0; ok && i < kMainCommitsPerCycle; ++i) {
      ok = Commit(kMain).ok();
    }
    for (const std::string& name : kBranches) {
      for (int i = 0; ok && i < kBranchCommitsPerCycle; ++i) {
        ok = Commit(name).ok();
      }
    }
    for (const std::string& name : kBranches) ok = ok && Merge(name).ok();
    for (int i = 0; ok && i < kCheckoutsPerCycle; ++i) ok = Checkout().ok();
    ok = ok && Reopen().ok();
  }
  // Once per epoch, so every compaction folds the same segments: the
  // checkpoint interval of each cycle's plain commits (intervals holding
  // a merge frame are not eligible). Checkouts after it read compacted
  // versions; the reopen checks that compaction kept every acked commit.
  ok = ok && Compact().ok();
  for (int i = 0; ok && i < kCheckoutsPerCycle; ++i) ok = Checkout().ok();
  ok = ok && Reopen().ok();
  if (ok && measured) {
    disk_ratios.push_back(Ratio(static_cast<double>(DirectoryBytes(dir_)),
                                static_cast<double>(user_bytes_)));
  }
  if (store_.has_value()) (void)store_->Close();
  store_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
  if (ok) script_.recorded = true;
  mirror_.clear();
  labeling_.clear();
}

void History::FillLayerValues() {
  std::map<std::string, double, std::less<>>& v = out_->layer_values;
  const double commits =
      static_cast<double>(metrics_.counter("store.commit.count") +
                          metrics_.counter("store.branch.commit.count"));
  v["store.fsyncs_per_commit"] =
      Ratio(static_cast<double>(metrics_.counter("store.wal.fsync.count")),
            commits);
  v["store.snapshot.bytes_per_commit"] = Ratio(
      static_cast<double>(metrics_.counter("store.snapshot.write.bytes")),
      commits);
  v["store.journal_bytes_per_commit"] =
      Ratio(static_cast<double>(metrics_.counter("store.wal.append.bytes")),
            commits);
  v["store.checkout.replayed_frames"] = Percentile(checkout_replayed_, 0.5);
  v["store.open.replayed_frames"] = Percentile(open_replayed_, 0.5);
  v["store.compact.bytes_saved"] = Percentile(compact_saved_, 0.5);
  v["store.compact.segments_skipped_frac"] =
      Ratio(static_cast<double>(compact_skipped_),
            static_cast<double>(compact_considered_));
  v["branch.merge.fallback_frac"] = Ratio(
      static_cast<double>(metrics_.counter("branch.merge.fold_fallback")),
      static_cast<double>(merges_));
  v["label.builds_per_merge"] = Ratio(static_cast<double>(label_builds_),
                                      static_cast<double>(merges_));
  v["xml.parsed_bytes_per_checkout"] =
      Ratio(static_cast<double>(checkout_parsed_bytes_),
            static_cast<double>(checkouts_decomposed_));
  v["pul.decoded_bytes_per_checkout"] =
      Ratio(static_cast<double>(checkout_decoded_bytes_),
            static_cast<double>(checkouts_decomposed_));
  v["core.reduce.shards"] = 1;  // merge folds run at parallelism 1
  v["commit.unattributed_frac"] = out_->spans.Unattributed("commit");
  v["checkout.unattributed_frac"] = out_->spans.Unattributed("checkout");
  v["merge.unattributed_frac"] = out_->spans.Unattributed("merge");
}

}  // namespace

WorkloadResult RunHistory(const RunConfig& config) {
  WorkloadResult out;
  out.headline_ops = {"commit", "checkout", "open",
                      "merge",  "compact"};
  xupdate::xmark::Config doc_config;
  doc_config.seed = config.seed;
  doc_config.target_bytes = kDocBytes;
  Result<std::string> doc = xupdate::xmark::GenerateDocumentText(doc_config);
  if (!doc.ok()) {
    ++out.attempted;
    out.Fail("generating the document: " + doc.status().ToString());
    return out;
  }
  History history(config, std::move(*doc), &out);
  // Warm-up epoch: generates and records the script.
  history.RunEpoch(0, /*measured=*/false, /*traced=*/false);
  if (out.failed > 0) return out;
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const Clock::time_point start = Clock::now();
  int epoch = 1;
  do {
    history.RunEpoch(epoch++, /*measured=*/true, /*traced=*/false);
    out.EndWindow();
  } while (out.failed == 0 &&
           MsBetween(start, Clock::now()) / 1e3 < untraced_s);
  if (config.trace) {
    const Clock::time_point traced_start = Clock::now();
    do {
      history.RunEpoch(epoch++, /*measured=*/true, /*traced=*/true);
    } while (out.failed == 0 &&
             MsBetween(traced_start, Clock::now()) / 1e3 <
                 config.seconds - untraced_s);
    history.FillLayerValues();
  }
  out.report_only.push_back(
      {"disk_bytes_per_pul_byte", Percentile(history.disk_ratios, 0.5),
       "ratio"});
  return out;
}

}  // namespace perfbench
