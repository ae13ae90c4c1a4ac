// Long flat queries through Pathfinder::Run on an 8 MiB thread, the
// stack pf_serve's workers get by default. The parser's loops over
// binary operators and path steps build one tree level per term without
// recursing, and every pass after the parser recurses once per level,
// so the parser bounds the tree's height, not only its own recursion:
// a shape at exactly the 256-level limit answers, one term more and
// 10,000 (30,000) terms get kNotSupported (`invalid_query` on the
// wire) instead of overflowing the stack. CI runs this suite in the
// Debug+TSan build, whose frames set the limit.

#include <pthread.h>

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/pathfinder.h"
#include "xml/database.h"

namespace pathfinder {
namespace {

// The parser's nesting limit (frontend/parser.cc, kMaxNestingDepth).
constexpr int kLimit = 256;

// Runs fn to completion on a new thread with an 8 MiB stack.
void OnEightMiBThread(const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, size_t{8} << 20), 0);
  pthread_t th;
  auto body = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  const int rc = pthread_create(&th, &attr, body,
                                const_cast<std::function<void()>*>(&fn));
  pthread_attr_destroy(&attr);
  ASSERT_EQ(rc, 0);
  ASSERT_EQ(pthread_join(th, nullptr), 0);
}

// `n` copies of `term` joined by `sep`, wrapped in `open` ... `close`.
std::string Repeat(const std::string& open, const std::string& term,
                   const std::string& sep, int n, const std::string& close) {
  std::string q = open;
  for (int i = 0; i < n; ++i) {
    if (i > 0) q += sep;
    q += term;
  }
  return q + close;
}

// One flat shape: its query at `n` terms, the term count whose tree is
// exactly kLimit levels tall (a leaf is level 0; each operator, step and
// function call adds one), the answer there, and a term count that
// killed the process with SIGSEGV while only the parser's recursion
// was bounded.
struct Shape {
  const char* name;
  std::function<std::string(int)> query;
  int at_limit;
  std::string answer;
  int huge;
};

std::vector<Shape> Shapes() {
  return {
      // count(/site/a/.../a): n steps under the root, plus count().
      {"path",
       [](int n) { return Repeat("count(/site", "/a", "", n - 1, ")"); },
       kLimit - 1, "0", 10000},
      // 1 + 1 + ... + 1: n - 1 additions over literal leaves.
      {"sum", [](int n) { return Repeat("", "1", " + ", n, ""); },
       kLimit + 1, std::to_string(kLimit + 1), 10000},
      // count(/site | ... | /site): n one-step paths, n - 1 unions,
      // plus count().
      {"union", [](int n) { return Repeat("count(", "/site", " | ", n, ")"); },
       kLimit - 1, "1", 10000},
      // 1 = 1 and ...: n comparisons, n - 1 conjunctions.
      {"and", [](int n) { return Repeat("", "1 = 1", " and ", n, ""); },
       kLimit, "true", 30000},
  };
}

class QueryDepthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.LoadXml("d.xml", "<site><a><a/></a></site>");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  // Runs q through Run on an 8 MiB thread and returns its status and,
  // when it succeeded, its serialized answer.
  std::pair<Status, std::string> RunOnThread(const std::string& q) {
    Status st;
    std::string out;
    OnEightMiBThread([&] {
      Pathfinder pf(&db_);
      QueryOptions o;
      o.context_doc = "d.xml";
      auto r = pf.Run(q, o);
      if (!r.ok()) {
        st = r.status();
        return;
      }
      auto s = r->Serialize();
      st = s.status();
      if (s.ok()) out = *s;
    });
    return {st, out};
  }

  xml::Database db_;
};

TEST_F(QueryDepthTest, ShapesAtTheLimitAnswer) {
  for (const Shape& s : Shapes()) {
    SCOPED_TRACE(s.name);
    auto [st, out] = RunOnThread(s.query(s.at_limit));
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out, s.answer);
  }
}

TEST_F(QueryDepthTest, OneTermPastTheLimitIsNotSupported) {
  for (const Shape& s : Shapes()) {
    SCOPED_TRACE(s.name);
    auto [st, out] = RunOnThread(s.query(s.at_limit + 1));
    EXPECT_EQ(st.code(), StatusCode::kNotSupported) << st.ToString();
    EXPECT_STREQ(ErrorClassName(st.error_class()), "invalid_query");
  }
}

TEST_F(QueryDepthTest, TensOfThousandsOfTermsAreNotSupported) {
  for (const Shape& s : Shapes()) {
    SCOPED_TRACE(s.name);
    auto [st, out] = RunOnThread(s.query(s.huge));
    EXPECT_EQ(st.code(), StatusCode::kNotSupported) << st.ToString();
  }
}

// Predicates and for/let clauses each nest one level in the Core the
// normalizer builds, so they count against the same limit.
TEST_F(QueryDepthTest, PredicatesAndClausesCountAsLevels) {
  // /site[1][1]...: one step (1) plus n predicates, plus count().
  auto preds = [](int n) { return Repeat("count(/site", "[1]", "", n, ")"); };
  // for $x in 1, $x in 1, ... return $x: n clauses over literal leaves.
  auto clauses = [](int n) {
    return Repeat("for ", "$x in 1", ", ", n, " return $x");
  };
  auto [st, out] = RunOnThread(preds(kLimit - 2));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out, "1");
  EXPECT_EQ(RunOnThread(preds(kLimit - 1)).first.code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(RunOnThread(preds(10000)).first.code(),
            StatusCode::kNotSupported);
  auto [st2, out2] = RunOnThread(clauses(kLimit));
  ASSERT_TRUE(st2.ok()) << st2.ToString();
  EXPECT_EQ(out2, "1");
  EXPECT_EQ(RunOnThread(clauses(kLimit + 1)).first.code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(RunOnThread(clauses(10000)).first.code(),
            StatusCode::kNotSupported);
}

}  // namespace
}  // namespace pathfinder
