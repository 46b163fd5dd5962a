#include "pul/pul_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "label/bitstring.h"
#include "label/node_label.h"

namespace xupdate::pul {
namespace {

using label::BitString;
using label::NodeLabel;

NodeLabel Interval(const std::string& start, const std::string& end) {
  NodeLabel label;
  label.self = 1;
  label.start = BitString::FromBits(start);
  label.end = BitString::FromBits(end);
  return label;
}

// Rules O1/O2 of Figure 2 over all 11x11 kind pairs: a same-target repN
// or del overrides ren, repV, repC, del, the child insertions and insA;
// a repC overrides the child insertions; nothing else overrides.
TEST(OverridesSameTargetTest, MatchesFigure2OnEveryKindPair) {
  const std::set<OpKind> o1 = {
      OpKind::kRename,   OpKind::kReplaceValue, OpKind::kReplaceChildren,
      OpKind::kDelete,   OpKind::kInsFirst,     OpKind::kInsLast,
      OpKind::kInsInto,  OpKind::kInsAttributes};
  const std::set<OpKind> o2 = {OpKind::kInsFirst, OpKind::kInsLast,
                               OpKind::kInsInto};
  int overriding_pairs = 0;
  for (int a = 0; a < kNumOpKinds; ++a) {
    for (int b = 0; b < kNumOpKinds; ++b) {
      OpKind overrider = static_cast<OpKind>(a);
      OpKind other = static_cast<OpKind>(b);
      bool want = false;
      if (overrider == OpKind::kReplaceNode || overrider == OpKind::kDelete) {
        want = o1.count(other) != 0;
      } else if (overrider == OpKind::kReplaceChildren) {
        want = o2.count(other) != 0;
      }
      EXPECT_EQ(OverridesSameTarget(overrider, other), want)
          << OpKindName(overrider) << " over " << OpKindName(other);
      overriding_pairs += want ? 1 : 0;
    }
  }
  EXPECT_EQ(overriding_pairs, 2 * 8 + 3);
}

// Visiting order of a sweep that opens nothing, as (start bits, rank).
std::vector<std::pair<std::string, uint32_t>> VisitOrder(
    ContainmentSweep* sweep) {
  std::vector<std::pair<std::string, uint32_t>> order;
  sweep->Run([&](const SweepInterval& interval,
                 std::span<const SweepInterval* const>) {
    order.emplace_back(interval.label->start.ToString(), interval.rank);
    return false;
  });
  return order;
}

// Start codes that share their first 64 bits tie on the order key; the
// sweep must still visit them in full code order, then by rank.
TEST(ContainmentSweepTest, VisitsInStartCodeThenRankOrder) {
  const std::string prefix(64, '1');
  std::vector<NodeLabel> labels = {
      Interval(prefix + "011", "11"),   Interval("0101", "0111"),
      Interval(prefix + "01", "11"),    Interval(prefix + "011", "11"),
      Interval("0011", "01"),           Interval(prefix + "1", "11"),
      Interval("0101", "0111"),         Interval("1", "11"),
  };
  std::vector<std::pair<std::string, uint32_t>> want;
  for (size_t i = 0; i < labels.size(); ++i) {
    want.emplace_back(labels[i].start.ToString(), static_cast<uint32_t>(i));
  }
  std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    int c = BitString::FromBits(a.first).Compare(BitString::FromBits(b.first));
    return c != 0 ? c < 0 : a.second < b.second;
  });
  // Add in a shuffled order so the sort, not the input, decides.
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<size_t> add(labels.size());
    for (size_t i = 0; i < add.size(); ++i) add[i] = i;
    for (size_t i = add.size(); i > 1; --i) {
      std::swap(add[i - 1], add[static_cast<size_t>(rng.Below(i))]);
    }
    ContainmentSweep sweep;
    for (size_t i : add) {
      sweep.Add(labels[i], static_cast<uint32_t>(i), static_cast<int32_t>(i));
    }
    EXPECT_EQ(VisitOrder(&sweep), want) << "round " << round;
  }
}

// Open intervals enclose the later ones that start before their end,
// outermost first, and are popped once a start lies past their end.
TEST(ContainmentSweepTest, ReportsOpenEnclosingIntervalsOutermostFirst) {
  std::vector<NodeLabel> labels = {
      Interval("001", "1101"),  // 0: encloses 1, 2, 3
      Interval("0011", "011"),  // 1: encloses 2
      Interval("01", "0101"),   // 2
      Interval("1", "11"),      // 3
      Interval("111", "1111"),  // 4: after 0 ends
  };
  ContainmentSweep sweep;
  for (size_t i = 0; i < labels.size(); ++i) {
    sweep.Add(labels[i], static_cast<uint32_t>(i), static_cast<int32_t>(i));
  }
  std::vector<std::vector<int>> enclosing_of(labels.size());
  sweep.Run([&](const SweepInterval& interval,
                std::span<const SweepInterval* const> enclosing) {
    for (const SweepInterval* e : enclosing) {
      enclosing_of[static_cast<size_t>(interval.id)].push_back(e->id);
    }
    return true;
  });
  std::vector<std::vector<int>> want = {{}, {0}, {0, 1}, {0}, {}};
  EXPECT_EQ(enclosing_of, want);
}

}  // namespace
}  // namespace xupdate::pul
