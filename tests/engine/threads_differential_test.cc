// Thread-count differential harness.
//
// The executor promises byte-identical serialized results at every
// worker-pool size. This suite locks that down two ways, each at 1, 2
// and 7 threads against a first serial run (num_threads = 1, the exact
// serial code paths; the second serial run checks that two runs agree):
//
//   1. Every XMark query.
//   2. One explicit-axis query per staircase axis.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "accel/axis.h"
#include "api/pathfinder.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace pathfinder {
namespace {

// Shared XMark instance: small enough for a per-test matrix of four
// full runs, large enough that morsel chunking and join fan-out are
// exercised (a few thousand nodes).
xml::Database* Db() {
  static xml::Database* db = [] {
    auto* d = new xml::Database();
    auto doc = xmark::GenerateXMark(0.002, 42, d->pool());
    if (!doc.ok()) {
      ADD_FAILURE() << "XMark generation failed: "
                    << doc.status().ToString();
      return d;
    }
    d->AddDocument("auction.xml", std::move(*doc));
    return d;
  }();
  return db;
}

// Runs `query` and serializes; errors fold into the returned string so
// the comparison below also pins down failure behavior.
std::string RunConfig(const std::string& query, int threads) {
  Pathfinder pf(Db());
  QueryOptions opts;
  opts.context_doc = "auction.xml";
  opts.num_threads = threads;
  auto r = pf.Run(query, opts);
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  auto s = r->Serialize();
  if (!s.ok()) return "<error: " + s.status().ToString() + ">";
  return *s;
}

void ExpectAllConfigsIdentical(const std::string& query) {
  const std::string base = RunConfig(query, /*threads=*/1);
  ASSERT_EQ(base.find("<error"), std::string::npos) << base;
  for (int threads : {1, 2, 7}) {
    EXPECT_EQ(RunConfig(query, threads), base)
        << "diverged at threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// 1. XMark queries.

class XMarkThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(XMarkThreadsTest, ParallelMatchesSerial) {
  const xmark::XMarkQuery& q = xmark::GetXMarkQuery(GetParam());
  ExpectAllConfigsIdentical(q.text);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, XMarkThreadsTest,
                         ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// 2. Staircase axes.

struct AxisCase {
  accel::Axis axis;
  const char* query;
};

// One explicit-axis query per staircase axis, phrased against the
// XMark schema so every axis produces a non-trivial result.
const AxisCase kAxisCases[] = {
    {accel::Axis::kChild, "/site/child::*"},
    {accel::Axis::kDescendant, "/site/regions/descendant::item"},
    {accel::Axis::kDescendantOrSelf,
     "/site/open_auctions/descendant-or-self::*"},
    {accel::Axis::kSelf, "//item/self::item/@id"},
    {accel::Axis::kParent, "//name/parent::*/@id"},
    {accel::Axis::kAncestor, "//bidder/ancestor::open_auction/@id"},
    {accel::Axis::kAncestorOrSelf, "//bidder/ancestor-or-self::*/@id"},
    {accel::Axis::kFollowing, "//categories/following::name"},
    {accel::Axis::kPreceding, "//closed_auctions/preceding::name"},
    {accel::Axis::kFollowingSibling, "//bidder/following-sibling::*"},
    {accel::Axis::kPrecedingSibling, "//bidder/preceding-sibling::*"},
    {accel::Axis::kAttribute, "//item/attribute::id"},
};

class AxisThreadsTest : public ::testing::TestWithParam<AxisCase> {};

TEST_P(AxisThreadsTest, ParallelMatchesSerial) {
  ExpectAllConfigsIdentical(GetParam().query);
}

INSTANTIATE_TEST_SUITE_P(
    AllAxes, AxisThreadsTest, ::testing::ValuesIn(kAxisCases),
    [](const ::testing::TestParamInfo<AxisCase>& info) {
      std::string n = accel::AxisName(info.param.axis);
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

// The table above must stay in sync with the axis enum: one case per
// staircase axis, no axis forgotten.
TEST(AxisThreadsTest, CoversEveryAxis) {
  constexpr size_t kAxisCount =
      static_cast<size_t>(accel::Axis::kAttribute) + 1;
  std::array<bool, kAxisCount> covered{};
  for (const AxisCase& c : kAxisCases)
    covered[static_cast<size_t>(c.axis)] = true;
  for (size_t a = 0; a < kAxisCount; ++a)
    EXPECT_TRUE(covered[a]) << "no differential query for axis "
                            << accel::AxisName(static_cast<accel::Axis>(a));
}

}  // namespace
}  // namespace pathfinder
