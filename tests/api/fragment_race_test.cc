// Constructed fragments must stay resolvable while documents are
// registered concurrently. Fragment ids that were numbered after the
// live document count made a registration that landed mid-query
// redirect the query's constructed nodes to the new document: wrong
// answers, or a crash. This suite runs constructor queries in a bounded
// loop while a second thread registers small documents, and requires
// every answer to match the one computed before the writer started.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "api/pathfinder.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/database.h"

namespace pathfinder {
namespace {

class FragmentRaceTest : public ::testing::TestWithParam<int> {};

TEST_P(FragmentRaceTest, RegistrationsDoNotRedirectConstructedNodes) {
  xml::Database db;
  auto doc = xmark::GenerateXMark(0.002, 1, db.pool());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  db.AddDocument("auction.xml", std::move(*doc));

  Pathfinder pf(&db);
  QueryOptions o;
  o.context_doc = "auction.xml";
  const std::string query = xmark::GetXMarkQuery(GetParam()).text;
  auto first = pf.Run(query, o);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto expected = first->Serialize();
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(first->ctx->num_constructed() == 0)
      << "the query must construct nodes to exercise the race";

  // Both loops are bounded: the reader by a run count, the writer by a
  // registration cap, so the store stays small under sanitizers too.
  constexpr int kRuns = 40;
  constexpr int kMaxRegistrations = 4000;
  std::atomic<bool> done{false};
  std::atomic<int> registered{0};
  std::thread writer([&] {
    for (int i = 0; i < kMaxRegistrations && !done.load(); ++i) {
      std::string name = "w" + std::to_string(i % 16) + ".xml";
      std::string xml = "<w n=\"" + std::to_string(i) + "\">x</w>";
      ASSERT_TRUE(db.LoadXml(name, xml).ok());
      registered.fetch_add(1);
    }
  });

  while (registered.load() == 0) std::this_thread::yield();
  int wrong = 0;
  for (int i = 0; i < kRuns; ++i) {
    auto r = pf.Run(query, o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto s = r->Serialize();
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    if (*s != *expected) ++wrong;
  }
  done.store(true);
  writer.join();
  EXPECT_GT(registered.load(), 0);
  EXPECT_EQ(wrong, 0) << "of " << kRuns << " runs";
}

// Q2 builds one element per open auction; Q13 and Q19 build elements
// with attributes and copied subtrees.
INSTANTIATE_TEST_SUITE_P(Constructors, FragmentRaceTest,
                         ::testing::Values(2, 13, 19));

}  // namespace
}  // namespace pathfinder
