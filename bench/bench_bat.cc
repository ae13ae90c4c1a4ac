// Kernel microbenchmarks (E8): throughput of the column-store bulk
// operators the algebra executes on — the back-end viability argument
// of paper Sec. 2 ("very efficiently implementable on any relational
// DBMS"). Each row times the kernel the executor runs: FilterGather
// for σ, HashJoinPairsChunked for the ⋈ probe (the pair list, without
// the GatherPairs that follows) on sparse and dense (mapping-join)
// integer keys and on items, Mark for ϱ, SortPerm for the sorts of
// sequence constructors and order by, DistinctIndices and GroupAgg.

#include <benchmark/benchmark.h>

#include <utility>

#include "base/rng.h"
#include "bat/kernel.h"

namespace pathfinder::bat {
namespace {

ColumnPtr RandomInts(size_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  auto c = Column::MakeInt(n);
  for (size_t i = 0; i < n; ++i) {
    c->ints().push_back(
        static_cast<int64_t>(rng.Below(static_cast<uint64_t>(domain))));
  }
  return c;
}

ColumnPtr RandomItems(size_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  auto c = Column::MakeItem(n);
  for (size_t i = 0; i < n; ++i) {
    c->items().push_back(Item::Int(
        static_cast<int64_t>(rng.Below(static_cast<uint64_t>(domain)))));
  }
  return c;
}

void BM_FilterGather(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto pred = Column::MakeBool(n);
  for (size_t i = 0; i < n; ++i) pred->bools().push_back(rng.Chance(0.5));
  Table t;
  t.AddCol(InternCol("v"), RandomInts(n, 1000, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterGather(t, *pred));
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_FilterGather)->Range(1 << 10, 1 << 20);

// n values drawn from a domain of n, spread a stride apart so that the
// build keys are too sparse for the positional slot function: the
// hashed path, one chained table over all build rows at every size.
ColumnPtr SparseInts(size_t n, uint64_t seed) {
  auto c = RandomInts(n, static_cast<int64_t>(n), seed);
  for (int64_t& k : c->ints()) k *= 1000003;
  return c;
}

void BM_HashJoinInt(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  StringPool pool;
  auto l = SparseInts(n, 3);
  auto r = SparseInts(n, 4);
  JoinPairChunks pc;
  for (auto _ : state) {
    auto st = HashJoinPairsChunked(*l, *r, pool, &pc);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_HashJoinInt)->Range(1 << 10, 1 << 19);

void BM_HashJoinDenseInt(benchmark::State& state) {
  // The mapping-join shape of loop-lifted plans: probe iters 1..n in
  // order against a shuffled 1..n build side. The build keys span n
  // values, so the join is positional (slot = key - 1), and every probe
  // row matches exactly once.
  size_t n = static_cast<size_t>(state.range(0));
  StringPool pool;
  auto l = Column::MakeInt(n);
  for (size_t i = 0; i < n; ++i) {
    l->ints().push_back(static_cast<int64_t>(i) + 1);
  }
  auto r = Column::MakeInt(n);
  r->ints() = l->ints();
  Rng rng(9);
  for (size_t i = n; i > 1; --i) {
    std::swap(r->ints()[i - 1], r->ints()[rng.Below(i)]);
  }
  JoinPairChunks pc;
  for (auto _ : state) {
    auto st = HashJoinPairsChunked(*l, *r, pool, &pc);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_HashJoinDenseInt)->Range(1 << 10, 1 << 19);

void BM_HashJoinItems(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  StringPool pool;
  auto l = RandomItems(n, static_cast<int64_t>(n), 5);
  auto r = RandomItems(n, static_cast<int64_t>(n), 6);
  JoinPairChunks pc;
  for (auto _ : state) {
    auto st = HashJoinPairsChunked(*l, *r, pool, &pc);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_HashJoinItems)->Range(1 << 10, 1 << 18);

void BM_MarkPartitioned(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  StringPool pool;
  Table t;
  const std::vector<ColId> part = {InternCol("part")}, key = {InternCol("key")};
  t.AddCol(part[0], RandomInts(n, 64, 7));
  t.AddCol(key[0], RandomInts(n, 1 << 20, 8));
  for (auto _ : state) {
    auto col = Mark(t, part, key, pool);
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_MarkPartitioned)->Range(1 << 10, 1 << 18);

void BM_MarkPresorted(benchmark::State& state) {
  // The ϱ after a Step, (iter | item): per iter, node items in document
  // order, 16 per iter. The rows arrive in key order, so Mark numbers
  // them in its run-detection pass.
  size_t n = static_cast<size_t>(state.range(0));
  StringPool pool;
  Table t;
  auto iter = Column::MakeInt(n);
  auto item = Column::MakeItem(n);
  for (size_t i = 0; i < n; ++i) {
    iter->ints().push_back(static_cast<int64_t>(i / 16));
    item->items().push_back(Item::Node(0, static_cast<uint32_t>(i * 3)));
  }
  const std::vector<ColId> part = {InternCol("iter")},
                           order = {InternCol("item")};
  t.AddCol(part[0], std::move(iter));
  t.AddCol(order[0], std::move(item));
  for (auto _ : state) {
    auto col = Mark(t, part, order, pool);
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_MarkPresorted)->Range(1 << 10, 1 << 18);

void BM_SortPermRuns(benchmark::State& state) {
  // A sequence constructor's union: range(1) runs, each sorted by
  // (iter, pos) and carrying its branch number in ord, sorted by
  // (iter, ord, pos) as its ϱ and the element constructor sort it.
  size_t n = static_cast<size_t>(state.range(0));
  const size_t runs = static_cast<size_t>(state.range(1));
  StringPool pool;
  Table t;
  auto iter = Column::MakeInt(n);
  auto ord = Column::MakeInt(n);
  auto pos = Column::MakeInt(n);
  for (size_t r = 0; r < runs; ++r) {
    const size_t len = n / runs + (r < n % runs ? 1 : 0);
    for (size_t i = 0; i < len; ++i) {
      iter->ints().push_back(static_cast<int64_t>(i / 4));
      ord->ints().push_back(static_cast<int64_t>(r));
      pos->ints().push_back(static_cast<int64_t>(i % 4) + 1);
    }
  }
  const std::vector<ColId> keys = {InternCol("iter"), InternCol("ord"),
                                   InternCol("pos")};
  t.AddCol(keys[0], std::move(iter));
  t.AddCol(keys[1], std::move(ord));
  t.AddCol(keys[2], std::move(pos));
  for (auto _ : state) {
    auto perm = SortPerm(t, keys, pool);
    benchmark::DoNotOptimize(perm);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SortPermRuns)->ArgsProduct({{1 << 10, 1 << 13, 1 << 16, 1 << 18},
                                         {2, 4}});

void BM_SortPermRandom(benchmark::State& state) {
  // An order by over unordered keys: random INT keys from a domain of
  // n / 2, so ties occur.
  size_t n = static_cast<size_t>(state.range(0));
  StringPool pool;
  Table t;
  const std::vector<ColId> key = {InternCol("key")};
  t.AddCol(key[0], RandomInts(n, static_cast<int64_t>(n / 2), 12));
  for (auto _ : state) {
    auto perm = SortPerm(t, key, pool);
    benchmark::DoNotOptimize(perm);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SortPermRandom)->Range(1 << 10, 1 << 18);

void BM_DistinctInts(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Table t;
  const std::vector<ColId> k = {InternCol("k")};
  t.AddCol(k[0], RandomInts(n, 256, 9));
  for (auto _ : state) {
    auto idx = DistinctIndices(t, k);
    benchmark::DoNotOptimize(idx);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_DistinctInts)->Range(1 << 10, 1 << 18);

void BM_GroupAggSum(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  StringPool pool;
  Table t;
  const ColId g = InternCol("g"), v = InternCol("v"), sum = InternCol("s");
  t.AddCol(g, RandomInts(n, 1024, 10));
  t.AddCol(v, RandomItems(n, 100, 11));
  for (auto _ : state) {
    auto r = GroupAgg(t, g, v, AggKind::kSum, pool, g, sum);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_GroupAggSum)->Range(1 << 10, 1 << 18);

}  // namespace
}  // namespace pathfinder::bat

BENCHMARK_MAIN();
