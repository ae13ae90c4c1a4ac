// Test helpers: the join kernels' pair chunks flattened into one pair
// list, (li[k], ri[k]) in chunk order — the order the joined table's
// rows take — so tests can check pair order directly.

#ifndef PATHFINDER_TESTS_BAT_JOIN_PAIRS_H_
#define PATHFINDER_TESTS_BAT_JOIN_PAIRS_H_

#include "bat/kernel.h"

namespace pathfinder::bat {

inline void ConcatPairChunks(const JoinPairChunks& pc, IdxVec* li,
                             IdxVec* ri) {
  li->clear();
  ri->clear();
  for (size_t c = 0; c < pc.li.size(); ++c) {
    li->insert(li->end(), pc.li[c].begin(), pc.li[c].end());
    ri->insert(ri->end(), pc.ri[c].begin(), pc.ri[c].end());
  }
}

inline Status HashJoinFlat(const Column& l, const Column& r,
                           const StringPool& pool, IdxVec* li, IdxVec* ri,
                           ThreadPool* tp = nullptr,
                           const KernelTuning& kt = KernelTuning()) {
  JoinPairChunks pc;
  PF_RETURN_NOT_OK(HashJoinPairsChunked(l, r, pool, &pc, tp, kt));
  ConcatPairChunks(pc, li, ri);
  return Status::OK();
}

inline Status ThetaJoinFlat(const Column& l, const Column& r, CmpOp op,
                            const StringPool& pool, IdxVec* li, IdxVec* ri,
                            ThreadPool* tp = nullptr) {
  JoinPairChunks pc;
  PF_RETURN_NOT_OK(ThetaJoinPairsChunked(l, r, op, pool, &pc, tp));
  ConcatPairChunks(pc, li, ri);
  return Status::OK();
}

}  // namespace pathfinder::bat

#endif  // PATHFINDER_TESTS_BAT_JOIN_PAIRS_H_
