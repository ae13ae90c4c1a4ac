// Multi-client correctness: 8 concurrent clients drive mixed XMark
// queries against a shared document and every response must be
// byte-identical to a serial api::Pathfinder run of the same query.
// The shared server caches must show cross-client reuse (plan-cache
// hits observed by clients other than the one that compiled first).
// This suite also runs under TSan in CI.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "api/pathfinder.h"
#include "base/rng.h"
#include "serve/client.h"
#include "serve/server.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/database.h"

namespace pathfinder::serve {
namespace {

constexpr double kSf = 0.01;
constexpr int kClients = 8;

class ServeConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = xmark::GenerateXMark(kSf, /*seed=*/42, db_.pool());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    db_.AddDocument("auction.xml", std::move(*doc));

    // Serial ground truth from a direct, cache-less API run.
    Pathfinder serial(&db_);
    QueryOptions o;
    o.context_doc = "auction.xml";
    o.plan_cache = 0;
    o.subplan_cache = 0;
    for (const auto& q : xmark::XMarkQueries()) {
      auto r = serial.Run(q.text, o);
      ASSERT_TRUE(r.ok()) << "Q" << q.number << ": " << r.status().ToString();
      auto s = r->Serialize();
      ASSERT_TRUE(s.ok()) << "Q" << q.number;
      expected_.push_back(std::move(*s));
    }

    Server::Options so;
    so.max_inflight = 4;
    // The test asserts cross-client plan-cache hits, so it must not
    // inherit an ambient PF_CACHE_MB=0.
    so.query_options.cache_budget_bytes = int64_t{64} << 20;
    server_ = std::make_unique<Server>(&db_, so);
    ASSERT_TRUE(server_->Start().ok());
  }

  xml::Database db_;
  std::vector<std::string> expected_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeConcurrencyTest, EightClientsGetSerialIdenticalBytes) {
  const auto& queries = xmark::XMarkQueries();
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  std::vector<int64_t> hits_seen(kClients, 0);

  for (int ci = 0; ci < kClients; ++ci) {
    clients.emplace_back([&, ci] {
      Client c;
      Status st = c.Connect(server_->port());
      if (!st.ok()) {
        failures[ci] = st.ToString();
        return;
      }
      // Each client walks the suite in its own shuffled order so the
      // server sees genuinely mixed concurrent work.
      std::vector<size_t> order(queries.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      Rng rng(1000 + static_cast<uint64_t>(ci));
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Below(i)]);
      }
      for (size_t qi : order) {
        std::string id =
            "c" + std::to_string(ci) + "-q" + std::to_string(qi + 1);
        auto r = c.Call(Client::QueryFrame(id, queries[qi].text,
                                           "auction.xml"),
                        /*timeout_ms=*/120000);
        if (!r.ok()) {
          failures[ci] = id + ": " + r.status().ToString();
          return;
        }
        const JsonValue* ok = r->Find("ok");
        if (ok == nullptr || !ok->AsBool()) {
          const JsonValue* msg = r->Find("message");
          failures[ci] =
              id + " failed: " + (msg ? msg->str : "<no message>");
          return;
        }
        if (r->Find("result")->str != expected_[qi]) {
          failures[ci] = id + ": response bytes differ from serial run";
          return;
        }
        if (r->Find("plan_cache_hit")->AsBool()) ++hits_seen[ci];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int ci = 0; ci < kClients; ++ci) {
    EXPECT_EQ(failures[ci], "") << "client " << ci;
  }

  ServerStats st = server_->Stats();
  EXPECT_EQ(st.completed,
            static_cast<int64_t>(kClients * xmark::XMarkQueries().size()));
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.inflight, 0);
  EXPECT_EQ(st.queued, 0);

  // Cross-client reuse: every query text compiles at most once, so at
  // least one client other than the compiling one must observe hits.
  EXPECT_GT(st.plan_cache_hits, 0);
  int clients_with_hits = 0;
  for (int ci = 0; ci < kClients; ++ci) {
    if (hits_seen[ci] > 0) ++clients_with_hits;
  }
  EXPECT_GE(clients_with_hits, 2)
      << "plan-cache hits were not spread across clients";
}

// Registration through one connection is immediately visible to all
// others (one shared database, one shared cache, invalidated per doc).
TEST_F(ServeConcurrencyTest, RegistrationIsVisibleAcrossClients) {
  Client a, b;
  ASSERT_TRUE(a.Connect(server_->port()).ok());
  ASSERT_TRUE(b.Connect(server_->port()).ok());
  auto reg = a.Call(Client::RegisterFrame("x.xml", "<r><v>7</v></r>"));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(reg->Find("ok")->AsBool());
  auto q = b.Call(Client::QueryFrame("q", "count(/r/v)", "x.xml"));
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q->Find("ok")->AsBool());
  EXPECT_EQ(q->Find("result")->str, "1");
}

// A query nested 100,000 levels deep (a 200 KB frame) gets a typed
// error reply; it neither crashes the server nor disturbs a second
// client, which keeps getting correct answers meanwhile.
TEST_F(ServeConcurrencyTest, DeeplyNestedQueryIsRejectedOthersUnharmed) {
  Client deep, other;
  ASSERT_TRUE(deep.Connect(server_->port()).ok());
  ASSERT_TRUE(other.Connect(server_->port()).ok());
  std::string q(100000, '(');
  q += "1";
  q.append(100000, ')');
  std::thread sender([&] {
    for (int i = 0; i < 3; ++i) {
      auto r = deep.Call(Client::QueryFrame("deep" + std::to_string(i), q,
                                            "auction.xml"));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r->Find("ok")->AsBool());
      EXPECT_EQ(r->Find("error")->str, "invalid_query");
    }
  });
  const auto& queries = xmark::XMarkQueries();
  for (size_t qi = 0; qi < 4; ++qi) {
    auto r = other.Call(Client::QueryFrame("q" + std::to_string(qi),
                                           queries[qi].text, "auction.xml"),
                        /*timeout_ms=*/120000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->Find("ok")->AsBool());
    EXPECT_EQ(r->Find("result")->str, expected_[qi]);
  }
  sender.join();
  auto pong = other.Call(Client::PingFrame());
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->Find("op")->str, "pong");
}

}  // namespace
}  // namespace pathfinder::serve
