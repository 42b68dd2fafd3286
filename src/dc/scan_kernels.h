#ifndef CVREPAIR_DC_SCAN_KERNELS_H_
#define CVREPAIR_DC_SCAN_KERNELS_H_

// Branchless block kernels for the violation, suspect and incremental
// scans (dc/violation.cc, dc/incremental.cc) and the shared evaluation
// index (dc/eval_index.cc) — the only scan implementation over I.
//
// Every code-evaluable predicate shape — equality against a constant's
// code, a rank threshold from Dictionary::BoundsOf, or an inequality-join
// probe against one fixed row's code — reduces to one of three primitive
// block predicates over int32 codes:
//
//   kEqCode     code == C                       (the only shape that
//                                                never reads ranks)
//   kNeqCode    class(rank[code]) == cls && code != C
//   kRankRange  lo <= rank[code] <= hi          (packed class|rank
//                                                interval; every order
//                                                threshold and probe
//                                                lands here)
//
// Sentinel codes (NULL/fresh, negative) fail all three — the gathered
// rank is forced to -1 and every interval/class test starts at >= 0 —
// reproducing the "NULL/fv satisfies no predicate" rule without a branch.
//
// Kernel dispatch contract: EvalBlock writes one selection bit per lane
// (bit i of word i/64; the (n+63)/64 output words are fully overwritten,
// bits past lane n - 1 read 0). It runs the AVX2 kernel when the CPU has
// AVX2 (__builtin_cpu_supports, on any x86-64 GCC or Clang build) and
// EvalBlockScalar otherwise. EvalBlockScalar is the portable reference:
// every build compiles it, and the AVX2 kernel matches it bit for bit.
// tests/scan_kernel_test.cc checks both against a per-lane oracle.
//
// MayMatch is the zone-map test: given a block's min/max packed rank
// (EncodedRelation::BlockMeta, or ComputeZone over a gathered candidate
// list), it returns false only when *no* code in that range can satisfy
// the predicate — a sound skip, never required for correctness.

#include <cstdint>

#include "dc/op.h"
#include "relation/encoded.h"

namespace cvrepair {
namespace scan_kernels {

struct BlockPredicate {
  enum class Kind : uint8_t {
    kNever,      ///< statically unsatisfiable (absent constant, empty range)
    kEqCode,     ///< code == `code`
    kNeqCode,    ///< rank class == `cls` && code != `code`
    kRankRange,  ///< lo <= packed rank <= hi
  };

  Kind kind = Kind::kNever;
  Code code = kAbsentCode;  ///< kEqCode / kNeqCode
  int32_t cls = -1;         ///< kNeqCode
  int32_t lo = 0;           ///< kRankRange (packed, inclusive)
  int32_t hi = -1;          ///< kRankRange (packed, inclusive)
};

/// Compiles `cell op c` from the constant's precomputed bounds. Exactly
/// EncodedPredicateEval's kConstant semantics, vectorized.
BlockPredicate CompileConstant(Op op, const Dictionary::ConstantBounds& b);

/// Compiles a same-attribute two-cell predicate with one operand fixed to
/// a concrete row's code: the block ranges over the *other* operand.
/// `fixed_is_lhs` says which side of `op` the fixed code sits on (the
/// varying side is mirrored through FlipOperands). `ranks` is the shared
/// dictionary's packed rank array. A negative (sentinel) fixed code
/// compiles to kNever.
BlockPredicate CompileProbe(Op op, bool fixed_is_lhs, Code fixed,
                            const int32_t* ranks);

/// Zone-map test: can any code whose packed rank lies in
/// [block_min, block_max] satisfy `p`? block_min > block_max means the
/// block holds only sentinels (nothing matches). Conservative in the
/// may-match direction only: a false return is a proof.
bool MayMatch(const BlockPredicate& p, int32_t block_min, int32_t block_max,
              const int32_t* ranks);
inline bool MayMatch(const BlockPredicate& p,
                     const EncodedRelation::BlockMeta& m,
                     const int32_t* ranks) {
  return MayMatch(p, m.min_rank, m.max_rank, ranks);
}

/// Packed-rank extrema of an arbitrary gathered code list (the join-block
/// scans' zone map over partition members). Sentinels are skipped; an
/// all-sentinel list reports min > max.
void ComputeZone(const Code* codes, int n, const int32_t* ranks,
                 int32_t* min_rank, int32_t* max_rank);

/// Evaluates `p` over `codes[0..n)`, writing one selection bit per lane
/// into `bitmap` ((n + 63) / 64 words, fully overwritten). Dispatches to
/// the AVX2 kernel or EvalBlockScalar; see the dispatch contract above.
void EvalBlock(const BlockPredicate& p, const Code* codes, int n,
               const int32_t* ranks, uint64_t* bitmap);

/// The portable reference kernel: EvalBlock's output from a plain per-lane
/// loop, on any CPU.
void EvalBlockScalar(const BlockPredicate& p, const Code* codes, int n,
                     const int32_t* ranks, uint64_t* bitmap);

}  // namespace scan_kernels
}  // namespace cvrepair

#endif  // CVREPAIR_DC_SCAN_KERNELS_H_
