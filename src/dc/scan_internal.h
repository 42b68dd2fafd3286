#ifndef CVREPAIR_DC_SCAN_INTERNAL_H_
#define CVREPAIR_DC_SCAN_INTERNAL_H_

// Shared plumbing of the capped violation scans, used by both the
// detector (dc/violation.cc) and the shared evaluation index
// (dc/eval_index.cc). Keeping the shard/merge mechanics in one place is
// what guarantees the two paths stay bit-identical: they split work and
// trim capped prefixes with literally the same code.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "dc/eval_counters.h"
#include "dc/violation.h"

namespace cvrepair {
namespace scan_internal {

// Minimum number of candidate checks (rows or pairs) before a scan fans
// out to the pool; below this the shard bookkeeping costs more than the
// scan.
constexpr int64_t kMinParallelWork = 1 << 13;

// Hash for dictionary-code join keys. Bucket contents are canonicalized
// before enumeration, so bucket order cannot affect results.
struct CodeVecHash {
  size_t operator()(const std::vector<int32_t>& vs) const {
    size_t seed = 0x345678;
    for (int32_t v : vs) {
      seed = seed * 1000003 ^ static_cast<uint32_t>(v);
    }
    return seed;
  }
};

// Output of one shard of a partitioned scan. Shards collect at most
// cap + 1 violations each: the merge keeps the first `cap` in shard order,
// and any surplus anywhere proves the (cap+1)-th violation exists, which
// is exactly the serial `truncated` condition. Eval counters stay in the
// shard (not flushed from inside the ParallelFor body): whether they count
// at all depends on the truncation verdict, which only the merge knows.
struct ShardResult {
  std::vector<Violation> found;
  EvalCounters counters;
};

inline int64_t LocalCap(int64_t cap) {
  return cap == std::numeric_limits<int64_t>::max() ? cap : cap + 1;
}

// Concatenates shard outputs in shard order, trimming to `cap`. Produces
// bit-identical output to the serial scan the shards were split from: the
// shards cover the serial iteration order in contiguous, in-order pieces.
// `truncated` flips exactly when the serial scan would have flipped it —
// total > cap means a (cap+1)-th violation exists; total == cap means the
// scan finished exactly at the cap and is complete. Shard counters are
// flushed here through the same truncation gate as the serial scans
// (eval_counters::AddScan), so the process totals cannot depend on how
// far individual shards over-scanned.
inline void MergeShards(std::vector<ShardResult>& shards, int64_t cap,
                        std::vector<Violation>* out, bool* truncated) {
  int64_t total = 0;
  EvalCounters summed;
  for (const ShardResult& s : shards) {
    total += static_cast<int64_t>(s.found.size());
    summed += s.counters;
  }
  bool hit_cap = total > cap;
  eval_counters::AddScan(summed, hit_cap);
  if (truncated && hit_cap) *truncated = true;
  out->reserve(out->size() + static_cast<size_t>(std::min(total, cap)));
  for (ShardResult& s : shards) {
    for (Violation& v : s.found) {
      if (static_cast<int64_t>(out->size()) >= cap) return;
      out->push_back(std::move(v));
    }
  }
}

}  // namespace scan_internal
}  // namespace cvrepair

#endif  // CVREPAIR_DC_SCAN_INTERNAL_H_
