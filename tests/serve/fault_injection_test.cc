// Fault-injection tests: every failure mode the server must survive is
// reproduced deterministically through the ServeTestHooks seams — no
// sleeps, no wall-clock races. After each injected fault the server
// must remain fully serviceable.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "algebra/op.h"
#include "api/pathfinder.h"
#include "engine/query_context.h"
#include "serve/client.h"
#include "serve/hooks.h"
#include "serve/server.h"
#include "xml/database.h"

namespace pathfinder::serve {
namespace {

constexpr const char* kDocXml =
    "<a><b id=\"1\">x</b><b id=\"2\">y</b><b id=\"3\">z</b><c>3</c></a>";

// ------------------------------------------------- direct API budgets --

class ApiLimitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadXml("d.xml", kDocXml).ok());
  }
  xml::Database db_;
};

TEST_F(ApiLimitsTest, PreFiredTokenCancelsBeforeAnyWork) {
  Pathfinder pf(&db_);
  engine::CancelToken token;
  token.Cancel();
  QueryOptions o;
  o.context_doc = "d.xml";
  o.cancel_token = &token;
  auto r = pf.Run("count(//b)", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(r.status().error_class(), ErrorClass::kCancelled);
}

TEST_F(ApiLimitsTest, ZeroTimeoutFiresAtFirstCheckpoint) {
  Pathfinder pf(&db_);
  QueryOptions o;
  o.context_doc = "d.xml";
  o.timeout_ms = 0;
  auto r = pf.Run("count(//b)", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(r.status().error_class(), ErrorClass::kTimeout);
}

TEST_F(ApiLimitsTest, TinyMemoryBudgetIsResourceExhausted) {
  Pathfinder pf(&db_);
  QueryOptions o;
  o.context_doc = "d.xml";
  o.mem_limit_bytes = 1;
  auto r = pf.Run("for $v in (1,2,3) return $v + 1", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().error_class(), ErrorClass::kResourceExhausted);
  // The same engine still answers the same query without the budget.
  QueryOptions ok;
  ok.context_doc = "d.xml";
  ASSERT_TRUE(pf.Run("for $v in (1,2,3) return $v + 1", ok).ok());
}

// ------------------------------------------------------- server seams --

/// Blocks queries at their first executor checkpoint while armed; a
/// blocked query un-blocks when the gate is released OR its cancel
/// token fires (the cancel is delivered by another thread, so the wait
/// re-checks the token on a short tick — the tick is a liveness detail,
/// the ORDER of events stays fully deterministic).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  int entered = 0;

  void Arm() {
    std::lock_guard<std::mutex> lock(mu);
    armed = true;
    entered = 0;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    armed = false;
    cv.notify_all();
  }
  void WaitEntered(int n = 1) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }
  void Probe(const algebra::Op&, engine::CancelToken* token) {
    std::unique_lock<std::mutex> lock(mu);
    if (!armed) return;
    ++entered;
    cv.notify_all();
    while (armed && (token == nullptr || !token->fired())) {
      cv.wait_for(lock, std::chrono::milliseconds(2));
    }
  }
};

/// Completion signal: RunJob finished (slot reclaimed, write attempted).
struct DoneTracker {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::string, std::string>> done;  // id -> error

  void Record(const std::string& id, const std::string& error) {
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(id, error);
    cv.notify_all();
  }
  std::string WaitFor(const std::string& id) {
    std::unique_lock<std::mutex> lock(mu);
    std::string error;
    cv.wait(lock, [&] {
      for (auto& [i, e] : done) {
        if (i == id) {
          error = e;
          return true;
        }
      }
      return false;
    });
    return error;
  }
};

class FaultServerTest : public ::testing::Test {
 protected:
  void StartServer(int max_inflight = 2, int queue_depth = 8) {
    ASSERT_TRUE(db_.LoadXml("d.xml", kDocXml).ok());
    hooks_.at_operator = [this](const algebra::Op& op,
                                engine::CancelToken* token) {
      if (probe_) probe_(op, token);
      gate_.Probe(op, token);
    };
    hooks_.on_query_done = [this](uint64_t, const std::string& id,
                                  const std::string& error) {
      tracker_.Record(id, error);
    };
    hooks_.on_write = [this](uint64_t, int64_t) {
      return write_fault_.load();
    };
    Server::Options o;
    o.max_inflight = max_inflight;
    o.queue_depth = queue_depth;
    o.hooks = &hooks_;
    // Keep plans fully re-executed: counters below assume no cross-test
    // cache interference inside the shared server.
    o.query_options.plan_cache = 0;
    o.query_options.subplan_cache = 0;
    server_ = std::make_unique<Server>(&db_, o);
    ASSERT_TRUE(server_->Start().ok());
  }

  // The inflight gauge drops just AFTER a response is written, so a
  // client that has read every reply may still observe the slot for an
  // instant; quiescence is an eventually-true gauge, not an ordering
  // guarantee.
  void WaitQuiesced() {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      ServerStats st = server_->Stats();
      if (st.inflight == 0 && st.queued == 0) return;
      if (std::chrono::steady_clock::now() > deadline) {
        FAIL() << "server never quiesced: inflight=" << st.inflight
               << " queued=" << st.queued;
      }
      std::this_thread::yield();
    }
  }

  // Session teardown cancels that session's in-flight tokens BEFORE the
  // disconnect counter bumps, so once this returns any job the departed
  // client left queued is provably doomed to a pre-execution cancel.
  void WaitDisconnected(int64_t n = 1) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_->Stats().disconnects < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        FAIL() << "disconnect never observed";
      }
      std::this_thread::yield();
    }
  }

  void ExpectServiceable() {
    Client c;
    ASSERT_TRUE(c.Connect(server_->port()).ok());
    auto q = c.Call(Client::QueryFrame("alive", "count(//b)", "d.xml"));
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_NE(q->Find("ok"), nullptr);
    EXPECT_TRUE(q->Find("ok")->AsBool());
    EXPECT_EQ(q->Find("result")->str, "3");
    WaitQuiesced();
  }

  xml::Database db_;
  ServeTestHooks hooks_;
  Gate gate_;
  DoneTracker tracker_;
  std::function<void(const algebra::Op&, engine::CancelToken*)> probe_;
  std::atomic<ServeTestHooks::WriteFault> write_fault_{
      ServeTestHooks::WriteFault::kNone};
  std::unique_ptr<Server> server_;
};

TEST_F(FaultServerTest, ClientDisconnectMidQueryReclaimsSlot) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  gate_.Arm();
  ASSERT_TRUE(c.SendLine(Client::QueryFrame("q1", "count(//b)", "d.xml")).ok());
  gate_.WaitEntered();
  c.Close();  // client walks away while its query is executing
  // The reader notices, cancels the query, and the slot frees up.
  EXPECT_EQ(tracker_.WaitFor("q1"), "cancelled");
  gate_.Release();
  ServerStats st = server_->Stats();
  EXPECT_EQ(st.cancelled, 1);
  EXPECT_GE(st.disconnects, 1);
  ExpectServiceable();
}

// Wall-time budget firing inside each kernel family. The probe arms the
// token's timeout exactly when the target operator kind is reached, so
// the abort point is a precise plan position, not a race.
TEST_F(FaultServerTest, TimeoutFiresInsideEachKernelFamily) {
  StartServer();
  struct Family {
    const char* name;
    const char* query;
    algebra::OpKind target;
  };
  const Family families[] = {
      {"step", "//b", algebra::OpKind::kStep},
      {"agg", "count(//b)", algebra::OpKind::kAggr},
      {"sort", "for $v in (3,1,2) order by $v descending return $v",
       algebra::OpKind::kRowNum},
      {"join",
       "for $a in (1,2,3) let $h := for $b in (2,3,4) where $b = $a "
       "return $b return count($h)",
       algebra::OpKind::kEquiJoin},
  };
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  for (const Family& f : families) {
    std::atomic<bool> armed{true};
    std::atomic<bool> seen{false};
    std::mutex mu;  // serializes seen-kind bookkeeping under TSan
    probe_ = [&](const algebra::Op& op, engine::CancelToken* token) {
      std::lock_guard<std::mutex> lock(mu);
      if (armed.load() && op.kind == f.target && token != nullptr) {
        seen.store(true);
        token->Timeout();
      }
    };
    auto r = c.Call(Client::QueryFrame(f.name, f.query, "d.xml"));
    ASSERT_TRUE(r.ok()) << f.name << ": " << r.status().ToString();
    ASSERT_NE(r->Find("ok"), nullptr) << f.name;
    EXPECT_FALSE(r->Find("ok")->AsBool()) << f.name;
    EXPECT_EQ(r->Find("error")->str, "timeout") << f.name;
    EXPECT_TRUE(seen.load())
        << f.name << ": plan never reached " << algebra::OpKindName(f.target);
    armed.store(false);
    // The same query without the injected deadline completes fine.
    auto ok = c.Call(Client::QueryFrame(std::string(f.name) + "-ok", f.query,
                                        "d.xml"));
    ASSERT_TRUE(ok.ok()) << f.name;
    EXPECT_TRUE(ok->Find("ok")->AsBool()) << f.name;
  }
  probe_ = nullptr;
  EXPECT_EQ(server_->Stats().timeouts, 4);
  ExpectServiceable();
}

TEST_F(FaultServerTest, CancelBeforeCompletionIsFoundAndAborts) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  gate_.Arm();
  ASSERT_TRUE(c.SendLine(Client::QueryFrame("q1", "count(//b)", "d.xml")).ok());
  gate_.WaitEntered();  // q1 is provably executing, held at an operator
  auto cancel = c.Call(Client::CancelFrame("q1"));
  ASSERT_TRUE(cancel.ok());
  EXPECT_TRUE(cancel->Find("found")->AsBool());
  // The held query now observes the fired token and aborts.
  auto r = c.ReadLine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto parsed = ParseJson(*r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Find("ok")->AsBool());
  EXPECT_EQ(parsed->Find("error")->str, "cancelled");
  gate_.Release();
  EXPECT_EQ(server_->Stats().cancelled, 1);
  ExpectServiceable();
}

TEST_F(FaultServerTest, CancelAfterCompletionIsNotFound) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  auto q = c.Call(Client::QueryFrame("q1", "count(//b)", "d.xml"));
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->Find("ok")->AsBool());
  // The response has been read, so the id is deterministically retired.
  auto cancel = c.Call(Client::CancelFrame("q1"));
  ASSERT_TRUE(cancel.ok());
  EXPECT_FALSE(cancel->Find("found")->AsBool());
  EXPECT_EQ(server_->Stats().cancelled, 0);
  ExpectServiceable();
}

TEST_F(FaultServerTest, AdmissionOverflowAnswersTypedBusy) {
  StartServer(/*max_inflight=*/1, /*queue_depth=*/1);
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  gate_.Arm();
  // q1 occupies the only worker; q2 fills the only queue slot.
  ASSERT_TRUE(c.SendLine(Client::QueryFrame("q1", "count(//b)", "d.xml")).ok());
  gate_.WaitEntered();
  ASSERT_TRUE(c.SendLine(Client::QueryFrame("q2", "count(//c)", "d.xml")).ok());
  // Give q2 time to be enqueued is not needed: the session thread
  // enqueues it before reading the next frame off the same connection,
  // so by the time q3 is handled the queue is full — deterministically.
  ASSERT_TRUE(c.SendLine(Client::QueryFrame("q3", "count(//b)", "d.xml")).ok());
  auto r = c.ReadLine();  // q3's rejection, written by the session thread
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto busy = ParseJson(*r);
  ASSERT_TRUE(busy.ok());
  EXPECT_FALSE(busy->Find("ok")->AsBool());
  EXPECT_EQ(busy->Find("id")->str, "q3");
  EXPECT_EQ(busy->Find("error")->str, "busy");
  gate_.Release();
  // q1 and q2 drain in order on the single worker.
  for (const char* id : {"q1", "q2"}) {
    auto line = c.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto resp = ParseJson(*line);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->Find("ok")->AsBool()) << id;
    EXPECT_EQ(resp->Find("id")->str, id);
  }
  ServerStats st = server_->Stats();
  EXPECT_EQ(st.busy_rejects, 1);
  EXPECT_EQ(st.completed, 2);
  ExpectServiceable();
}

TEST_F(FaultServerTest, DroppedResponseBytesDoNotWedgeTheServer) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  write_fault_.store(ServeTestHooks::WriteFault::kDrop);
  ASSERT_TRUE(c.SendLine(Client::QueryFrame("q1", "count(//b)", "d.xml")).ok());
  // The query completes server-side; its response bytes evaporate.
  EXPECT_EQ(tracker_.WaitFor("q1"), "");
  EXPECT_EQ(server_->Stats().completed, 1);
  auto nothing = c.ReadLine(200);
  EXPECT_FALSE(nothing.ok());
  EXPECT_EQ(nothing.status().code(), StatusCode::kTimeout);
  // Heal the link: traffic flows again on the same connection.
  write_fault_.store(ServeTestHooks::WriteFault::kNone);
  auto pong = c.Call(Client::PingFrame());
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->Find("op")->str, "pong");
  ExpectServiceable();
}

TEST_F(FaultServerTest, ConnectionClosedMidResponseStaysServiceable) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  write_fault_.store(ServeTestHooks::WriteFault::kClose);
  ASSERT_TRUE(c.SendLine(Client::QueryFrame("q1", "count(//b)", "d.xml")).ok());
  // The injected close lands on the response write: the query itself
  // finished, the client sees a mid-frame disconnect.
  EXPECT_EQ(tracker_.WaitFor("q1"), "");
  EXPECT_EQ(server_->Stats().completed, 1);
  auto eof = c.ReadLine();
  EXPECT_FALSE(eof.ok());
  write_fault_.store(ServeTestHooks::WriteFault::kNone);
  ExpectServiceable();
}

TEST_F(FaultServerTest, GracefulShutdownDrainsInflightQueries) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  gate_.Arm();
  ASSERT_TRUE(c.SendLine(Client::QueryFrame("q1", "count(//b)", "d.xml")).ok());
  gate_.WaitEntered();
  // Shut down while q1 is held mid-execution; drain must complete it
  // and flush its response before tearing the connection down.
  std::thread shutdown([&] { server_->Shutdown(); });
  gate_.Release();
  auto r = c.ReadLine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto resp = ParseJson(*r);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->Find("ok")->AsBool());
  EXPECT_EQ(resp->Find("result")->str, "3");
  shutdown.join();
  EXPECT_EQ(server_->Stats().completed, 1);
}

// ------------------------------------------------------ update verb --

// kDocXml pre ranks: 0=doc 1=<a> 2=<b> 3=@id 4=text ... 11=<c> 12=text;
// 13 nodes, 5 elements.

TEST_F(FaultServerTest, UpdateVerbAppliesAndNewQueriesSeeIt) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  auto ins = c.Call(
      Client::UpdateFrame("u1", "d.xml", "insert", /*target=*/1,
                          /*position=*/-1, "<d/>"));
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_TRUE(ins->Find("ok")->AsBool());
  EXPECT_EQ(ins->Find("op")->str, "update");
  EXPECT_EQ(ins->Find("id")->str, "u1");
  EXPECT_TRUE(ins->Find("structural")->AsBool());
  EXPECT_EQ(ins->Find("nodes_before")->AsInt(), 13);
  EXPECT_EQ(ins->Find("nodes_after")->AsInt(), 14);
  auto q = c.Call(Client::QueryFrame("q1", "count(//*)", "d.xml"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->Find("result")->str, "6");
  // Content-only replace: rewrite the first <b>'s id attribute in place.
  auto rep = c.Call(Client::UpdateFrame("u2", "d.xml", "replace",
                                        /*target=*/3, /*position=*/-1,
                                        /*xml=*/{}, /*value=*/"9"));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->Find("ok")->AsBool());
  EXPECT_FALSE(rep->Find("structural")->AsBool());
  EXPECT_EQ(rep->Find("nodes_after")->AsInt(), 14);
  auto q2 = c.Call(
      Client::QueryFrame("q2", "count(//b[@id = \"9\"])", "d.xml"));
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->Find("result")->str, "1");
  // Updates against a name nobody registered are a typed not_found.
  auto miss = c.Call(Client::UpdateFrame("u3", "ghost.xml", "delete", 1));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->Find("ok")->AsBool());
  EXPECT_EQ(miss->Find("error")->str, "not_found");
  ServerStats st = server_->Stats();
  EXPECT_EQ(st.updates, 3);
  EXPECT_EQ(st.updates_applied, 2);
  // The stats verb carries the new counters on the wire.
  auto stats = c.Call(Client::StatsFrame());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("updates")->AsInt(), 3);
  EXPECT_EQ(stats->Find("updates_applied")->AsInt(), 2);
  ExpectServiceable();
}

// A query held at its first axis step has already bound its document
// snapshot (fn:doc resolves inside the kDocRoot operator, which ran
// before the step's checkpoint fired). An update racing past it must
// neither block on the reader nor leak into its result.
TEST_F(FaultServerTest, UpdateRacingQueryReadsItsOwnSnapshot) {
  StartServer();
  std::mutex mu;
  std::condition_variable cv;
  bool armed = true;
  bool entered = false;
  probe_ = [&](const algebra::Op& op, engine::CancelToken* token) {
    std::unique_lock<std::mutex> lock(mu);
    if (!armed) return;
    if (op.kind != algebra::OpKind::kStep &&
        op.kind != algebra::OpKind::kPathScan) {
      return;  // let kDocRoot (and everything below the step) run
    }
    entered = true;
    cv.notify_all();
    while (armed && (token == nullptr || !token->fired())) {
      cv.wait_for(lock, std::chrono::milliseconds(2));
    }
  };
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  ASSERT_TRUE(
      c.SendLine(Client::QueryFrame("q1", "count(//*)", "d.xml")).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return entered; }))
        << "query never reached an axis-step operator";
  }
  // The update completes while q1 is held — writers never wait for
  // readers; the old snapshot stays pinned by the running query.
  Client w;
  ASSERT_TRUE(w.Connect(server_->port()).ok());
  auto up = w.Call(Client::UpdateFrame("u1", "d.xml", "insert",
                                       /*target=*/1, /*position=*/-1,
                                       "<d/>"));
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_TRUE(up->Find("ok")->AsBool());
  {
    std::lock_guard<std::mutex> lock(mu);
    armed = false;
    cv.notify_all();
  }
  auto r = c.ReadLine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto resp = ParseJson(*r);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->Find("ok")->AsBool());
  EXPECT_EQ(resp->Find("result")->str, "5");  // pre-update element count
  auto after = w.Call(Client::QueryFrame("q2", "count(//*)", "d.xml"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Find("result")->str, "6");  // fresh queries see it
  probe_ = nullptr;
  ExpectServiceable();
}

TEST_F(FaultServerTest, DisconnectCancelsQueuedUpdateBeforeItApplies) {
  StartServer(/*max_inflight=*/1, /*queue_depth=*/8);
  Client blocker;
  ASSERT_TRUE(blocker.Connect(server_->port()).ok());
  gate_.Arm();
  ASSERT_TRUE(
      blocker.SendLine(Client::QueryFrame("q1", "count(//b)", "d.xml")).ok());
  gate_.WaitEntered();  // the only worker is provably held
  Client w;
  ASSERT_TRUE(w.Connect(server_->port()).ok());
  ASSERT_TRUE(w.SendLine(Client::UpdateFrame("u1", "d.xml", "insert",
                                             /*target=*/1, /*position=*/-1,
                                             "<d/>"))
                  .ok());
  w.Close();  // walk away with the update still queued
  WaitDisconnected();  // u1's token is now fired, before any execution
  gate_.Release();
  EXPECT_EQ(tracker_.WaitFor("q1"), "");
  EXPECT_EQ(tracker_.WaitFor("u1"), "cancelled");
  ServerStats st = server_->Stats();
  EXPECT_EQ(st.updates, 1);
  EXPECT_EQ(st.updates_applied, 0);
  EXPECT_EQ(st.cancelled, 1);
  // No snapshot was published: the document is bit-for-bit untouched.
  Client check;
  ASSERT_TRUE(check.Connect(server_->port()).ok());
  auto q = check.Call(Client::QueryFrame("q2", "count(//*)", "d.xml"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->Find("result")->str, "5");
  ExpectServiceable();
}

TEST_F(FaultServerTest, LostUpdateResponseStillPublishesTheSnapshot) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  write_fault_.store(ServeTestHooks::WriteFault::kClose);
  ASSERT_TRUE(c.SendLine(Client::UpdateFrame("u1", "d.xml", "insert",
                                             /*target=*/1, /*position=*/-1,
                                             "<d/>"))
                  .ok());
  // The update finished server-side; only its acknowledgement died.
  EXPECT_EQ(tracker_.WaitFor("u1"), "");
  EXPECT_EQ(server_->Stats().updates_applied, 1);
  auto eof = c.ReadLine();
  EXPECT_FALSE(eof.ok());
  write_fault_.store(ServeTestHooks::WriteFault::kNone);
  // The snapshot outlives the lost ack: a fresh client sees it.
  Client check;
  ASSERT_TRUE(check.Connect(server_->port()).ok());
  auto q = check.Call(Client::QueryFrame("q2", "count(//*)", "d.xml"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->Find("result")->str, "6");
  ExpectServiceable();
}

TEST_F(FaultServerTest, UpdatePastDocumentEndAnswersTypedInvalidQuery) {
  StartServer();
  Client c;
  ASSERT_TRUE(c.Connect(server_->port()).ok());
  // The frame parses; the splice rejects the target (13 nodes).
  auto r = c.Call(Client::UpdateFrame("u1", "d.xml", "delete",
                                      /*target=*/99));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->Find("ok")->AsBool());
  EXPECT_EQ(r->Find("error")->str, "invalid_query");
  ServerStats st = server_->Stats();
  EXPECT_EQ(st.updates, 1);
  EXPECT_EQ(st.updates_applied, 0);
  EXPECT_EQ(st.failed, 1);
  // Nothing was published, and a valid update still applies.
  auto ok2 = c.Call(Client::UpdateFrame("u2", "d.xml", "delete",
                                        /*target=*/11));
  ASSERT_TRUE(ok2.ok());
  EXPECT_TRUE(ok2->Find("ok")->AsBool());
  EXPECT_TRUE(ok2->Find("structural")->AsBool());
  EXPECT_EQ(ok2->Find("nodes_before")->AsInt(), 13);
  ExpectServiceable();  // deleting <c> leaves count(//b) at 3
}

}  // namespace
}  // namespace pathfinder::serve
