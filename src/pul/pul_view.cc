#include "pul/pul_view.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

namespace xupdate::pul {

bool OverridesSubtree(OpKind kind) {
  return kind == OpKind::kReplaceNode || kind == OpKind::kDelete ||
         kind == OpKind::kReplaceChildren;
}

bool OverridesInner(OpKind kind, xml::NodeId target, xml::NodeId inner_parent,
                    xml::NodeType inner_type) {
  if (kind == OpKind::kReplaceChildren) {
    return !(inner_parent == target &&
             inner_type == xml::NodeType::kAttribute);
  }
  return OverridesSubtree(kind);
}

void ContainmentSweep::Sort() {
  auto less = [](const SweepInterval& a, const SweepInterval& b) {
    int c = label::BitString::CompareKeyed(a.start_key, a.label->start,
                                           b.start_key, b.label->start);
    if (c != 0) return c < 0;
    return a.rank < b.rank;
  };
  // Callers often add in document order already (integrate's sorted
  // groups, canonical PULs); the check stops at the first inversion.
  if (std::is_sorted(intervals_.begin(), intervals_.end(), less)) return;
  // LSD radix sort on the start keys, one pass per key byte that varies
  // (CDBS codes are short, so most bytes do not), then the full order
  // inside each run of equal keys. A comparison sort here spends most of
  // its time on mispredicted branches.
  const size_t n = intervals_.size();
  uint64_t varying = 0;
  for (const SweepInterval& interval : intervals_) {
    varying |= interval.start_key ^ intervals_[0].start_key;
  }
  scratch_.resize(n);
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    size_t offset[257] = {};
    for (const SweepInterval& interval : intervals_) {
      ++offset[((interval.start_key >> shift) & 0xff) + 1];
    }
    for (size_t b = 1; b < 257; ++b) offset[b] += offset[b - 1];
    for (const SweepInterval& interval : intervals_) {
      scratch_[offset[(interval.start_key >> shift) & 0xff]++] = interval;
    }
    intervals_.swap(scratch_);
  }
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && intervals_[j].start_key == intervals_[i].start_key) ++j;
    std::sort(intervals_.begin() + static_cast<std::ptrdiff_t>(i),
              intervals_.begin() + static_cast<std::ptrdiff_t>(j), less);
    i = j;
  }
}

void TargetIndex::Reset(size_t expected_ops) {
  size_t want = 16;
  while (want < expected_ops * 2) want <<= 1;
  buckets_.assign(want, Bucket{});
  next_.clear();
  next_.reserve(expected_ops);
  used_buckets_ = 0;
  invalid_chain_ = Bucket{};
}

TargetIndex::Bucket* TargetIndex::FindBucket(xml::NodeId target) {
  if (target == xml::kInvalidNode) return &invalid_chain_;
  size_t mask = buckets_.size() - 1;
  size_t i = Hash(target) & mask;
  while (true) {
    Bucket& b = buckets_[i];
    if (b.key == target) return &b;
    if (b.key == xml::kInvalidNode) {
      b.key = target;
      ++used_buckets_;
      return &b;
    }
    i = (i + 1) & mask;
  }
}

const TargetIndex::Bucket* TargetIndex::FindBucketConst(
    xml::NodeId target) const {
  if (target == xml::kInvalidNode) {
    return invalid_chain_.head >= 0 ? &invalid_chain_ : nullptr;
  }
  if (buckets_.empty()) return nullptr;
  size_t mask = buckets_.size() - 1;
  size_t i = Hash(target) & mask;
  while (true) {
    const Bucket& b = buckets_[i];
    if (b.key == target) return &b;
    if (b.key == xml::kInvalidNode) return nullptr;
    i = (i + 1) & mask;
  }
}

void TargetIndex::Grow() {
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, Bucket{});
  used_buckets_ = 0;
  size_t mask = buckets_.size() - 1;
  for (const Bucket& b : old) {
    if (b.key == xml::kInvalidNode) continue;
    size_t i = Hash(b.key) & mask;
    while (buckets_[i].key != xml::kInvalidNode) i = (i + 1) & mask;
    buckets_[i] = b;
    ++used_buckets_;
  }
}

void TargetIndex::Append(xml::NodeId target, int32_t index) {
  if (buckets_.empty()) Reset(16);
  // Keep load factor under 1/2 so probes stay short.
  if (target != xml::kInvalidNode &&
      (used_buckets_ + 1) * 2 > buckets_.size()) {
    Grow();
  }
  if (static_cast<size_t>(index) >= next_.size()) {
    next_.resize(static_cast<size_t>(index) + 1, -1);
  }
  next_[static_cast<size_t>(index)] = -1;
  Bucket* b = FindBucket(target);
  if (b->head < 0) {
    b->head = index;
  } else {
    next_[static_cast<size_t>(b->tail)] = index;
  }
  b->tail = index;
}

int32_t TargetIndex::Head(xml::NodeId target) const {
  const Bucket* b = FindBucketConst(target);
  return b != nullptr ? b->head : -1;
}

std::vector<std::vector<int>> PartitionByTargetSubtree(
    const std::vector<UpdateOp>& ops) {
  int n = static_cast<int>(ops.size());
  std::vector<int> uf(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) uf[static_cast<size_t>(i)] = i;
  auto find = [&uf](int x) {
    while (uf[static_cast<size_t>(x)] != x) {
      uf[static_cast<size_t>(x)] =
          uf[static_cast<size_t>(uf[static_cast<size_t>(x)])];
      x = uf[static_cast<size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) {
    uf[static_cast<size_t>(find(a))] = find(b);
  };

  // First op on each target in listing order — the chain heads of the
  // flat target join.
  TargetIndex by_target;
  by_target.Reset(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    by_target.Append(ops[static_cast<size_t>(i)].target, i);
  }
  for (int i = 0; i < n; ++i) {
    int head = by_target.Head(ops[static_cast<size_t>(i)].target);
    if (head != i) unite(i, head);
  }
  for (int i = 0; i < n; ++i) {
    const label::NodeLabel& lab = ops[static_cast<size_t>(i)].target_label;
    if (!lab.valid()) continue;
    if (lab.parent != xml::kInvalidNode) {
      int head = by_target.Head(lab.parent);
      if (head >= 0) unite(i, head);
    }
    if (lab.left_sibling != xml::kInvalidNode) {
      int head = by_target.Head(lab.left_sibling);
      if (head >= 0) unite(i, head);
    }
  }

  // Ancestor containment: union every operation with the closest
  // enclosing target, which transitively covers the whole nesting chain.
  // Every interval opens, so an equal-start one listed earlier encloses.
  ContainmentSweep sweep;
  for (int i = 0; i < n; ++i) {
    const label::NodeLabel& lab = ops[static_cast<size_t>(i)].target_label;
    if (lab.valid()) sweep.Add(lab, static_cast<uint32_t>(i), i);
  }
  sweep.Run([&](const SweepInterval& interval,
                std::span<const SweepInterval* const> enclosing) {
    if (!enclosing.empty()) unite(interval.id, enclosing.back()->id);
    return true;
  });

  // Components in order of their first operation (ranks stay sorted).
  std::vector<std::vector<int>> shards;
  std::unordered_map<int, size_t> shard_of_root;
  for (int i = 0; i < n; ++i) {
    int root = find(i);
    auto [it, inserted] = shard_of_root.emplace(root, shards.size());
    if (inserted) shards.emplace_back();
    shards[it->second].push_back(i);
  }
  return shards;
}

}  // namespace xupdate::pul
