#include "dc/scan_kernels.h"

#include <algorithm>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace cvrepair {
namespace scan_kernels {

namespace {

constexpr int32_t ClassBase(int32_t cls) {
  return cls << Dictionary::kRankBits;
}
constexpr int32_t ClassTop(int32_t cls) {
  return ClassBase(cls) | Dictionary::kRankMask;
}

BlockPredicate Never() { return BlockPredicate{}; }

BlockPredicate RankRange(int32_t lo, int32_t hi) {
  if (lo > hi) return Never();
  BlockPredicate p;
  p.kind = BlockPredicate::Kind::kRankRange;
  p.lo = lo;
  p.hi = hi;
  return p;
}

#if defined(__x86_64__) && defined(__GNUC__)

// The AVX2 kernel: 8 lanes per step with a masked hardware gather.
// Sentinel lanes are masked off, so they never touch memory (an all-NULL
// column has an empty rank array), and read as rank -1. The n % 8 tail
// lanes go through the scalar loop.
__attribute__((target("avx2"))) __m256i GatherRanks(__m256i v,
                                                    const int32_t* ranks) {
  const __m256i minus1 = _mm256_set1_epi32(-1);
  // Lanes with v >= 0 gather; masked-off lanes keep the -1 source.
  __m256i mask = _mm256_cmpgt_epi32(v, minus1);
  return _mm256_mask_i32gather_epi32(minus1, ranks, v, mask, 4);
}

__attribute__((target("avx2"))) void EvalBlockAvx2(const BlockPredicate& p,
                                                   const Code* codes, int n,
                                                   const int32_t* ranks,
                                                   uint64_t* bitmap) {
  std::fill_n(bitmap, (n + 63) >> 6, uint64_t{0});
  int i = 0;
  switch (p.kind) {
    case BlockPredicate::Kind::kNever:
      return;
    case BlockPredicate::Kind::kEqCode: {
      const __m256i target = _mm256_set1_epi32(p.code);
      for (; i + 8 <= n; i += 8) {
        __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
        uint64_t m = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, target))));
        bitmap[i >> 6] |= m << (i & 63);
      }
      break;
    }
    case BlockPredicate::Kind::kNeqCode: {
      const __m256i vcls = _mm256_set1_epi32(p.cls);
      const __m256i vcode = _mm256_set1_epi32(p.code);
      for (; i + 8 <= n; i += 8) {
        __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
        __m256i r = GatherRanks(v, ranks);
        __m256i cls_ok = _mm256_cmpeq_epi32(
            _mm256_srai_epi32(r, Dictionary::kRankBits), vcls);
        __m256i code_eq = _mm256_cmpeq_epi32(v, vcode);
        __m256i hit = _mm256_andnot_si256(code_eq, cls_ok);
        uint64_t m = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(hit)));
        bitmap[i >> 6] |= m << (i & 63);
      }
      break;
    }
    case BlockPredicate::Kind::kRankRange: {
      const __m256i vlo = _mm256_set1_epi32(p.lo);
      const __m256i vhi = _mm256_set1_epi32(p.hi);
      for (; i + 8 <= n; i += 8) {
        __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
        __m256i r = GatherRanks(v, ranks);
        __m256i below = _mm256_cmpgt_epi32(vlo, r);
        __m256i above = _mm256_cmpgt_epi32(r, vhi);
        uint64_t bad = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_or_si256(below, above))));
        bitmap[i >> 6] |= (~bad & 0xFFull) << (i & 63);
      }
      break;
    }
  }
  // i is a multiple of 8, so the < 8 tail lanes fit in bitmap word i / 64.
  if (i < n) {
    uint64_t tail;
    EvalBlockScalar(p, codes + i, n - i, ranks, &tail);
    bitmap[i >> 6] |= tail << (i & 63);
  }
}

bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

#endif  // x86-64 GCC or Clang

}  // namespace

BlockPredicate CompileConstant(Op op, const Dictionary::ConstantBounds& b) {
  if (b.cls < 0) return Never();  // NULL/fresh constant satisfies nothing
  const int32_t base = ClassBase(b.cls);
  const int32_t top = ClassTop(b.cls);
  switch (op) {
    case Op::kEq: {
      if (b.eq == kAbsentCode) return Never();
      BlockPredicate p;
      p.kind = BlockPredicate::Kind::kEqCode;
      p.code = b.eq;
      return p;
    }
    case Op::kNeq: {
      if (b.eq == kAbsentCode) {
        // Constant not in the dictionary: every same-class code differs.
        return RankRange(base, top);
      }
      BlockPredicate p;
      p.kind = BlockPredicate::Kind::kNeqCode;
      p.code = b.eq;
      p.cls = b.cls;
      return p;
    }
    case Op::kLt:
      return RankRange(base, base + b.lower - 1);
    case Op::kLeq:
      return RankRange(base, base + b.upper - 1);
    case Op::kGt:
      return RankRange(base + b.upper, top);
    case Op::kGeq:
      return RankRange(base + b.lower, top);
  }
  return Never();
}

BlockPredicate CompileProbe(Op op, bool fixed_is_lhs, Code fixed,
                            const int32_t* ranks) {
  if (fixed < 0) return Never();  // sentinel operand satisfies nothing
  // The block ranges over v; rewrite `fixed op v` as `v op' fixed`.
  Op vop = fixed_is_lhs ? FlipOperands(op) : op;
  const int32_t pr = ranks[fixed];
  const int32_t cls = pr >> Dictionary::kRankBits;
  const int32_t base = ClassBase(cls);
  const int32_t top = ClassTop(cls);
  switch (vop) {
    case Op::kEq: {
      BlockPredicate p;
      p.kind = BlockPredicate::Kind::kEqCode;
      p.code = fixed;
      return p;
    }
    case Op::kNeq: {
      BlockPredicate p;
      p.kind = BlockPredicate::Kind::kNeqCode;
      p.code = fixed;
      p.cls = cls;
      return p;
    }
    case Op::kLt:
      return RankRange(base, pr - 1);
    case Op::kLeq:
      return RankRange(base, pr);
    case Op::kGt:
      return RankRange(pr + 1, top);
    case Op::kGeq:
      return RankRange(pr, top);
  }
  return Never();
}

bool MayMatch(const BlockPredicate& p, int32_t block_min, int32_t block_max,
              const int32_t* ranks) {
  if (block_min > block_max) return false;  // only sentinels in the block
  switch (p.kind) {
    case BlockPredicate::Kind::kNever:
      return false;
    case BlockPredicate::Kind::kEqCode: {
      int32_t pr = ranks[p.code];
      return block_min <= pr && pr <= block_max;
    }
    case BlockPredicate::Kind::kNeqCode: {
      if (block_max < ClassBase(p.cls) || block_min > ClassTop(p.cls)) {
        return false;  // no code of the constant's class in range
      }
      // A single-rank block equal to the constant itself cannot differ.
      return !(block_min == block_max && block_min == ranks[p.code]);
    }
    case BlockPredicate::Kind::kRankRange:
      return std::max(p.lo, block_min) <= std::min(p.hi, block_max);
  }
  return true;
}

void ComputeZone(const Code* codes, int n, const int32_t* ranks,
                 int32_t* min_rank, int32_t* max_rank) {
  int32_t lo = std::numeric_limits<int32_t>::max();
  int32_t hi = std::numeric_limits<int32_t>::min();
  for (int i = 0; i < n; ++i) {
    Code v = codes[i];
    if (v < 0) continue;
    int32_t r = ranks[v];
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  *min_rank = lo;
  *max_rank = hi;
}

void EvalBlockScalar(const BlockPredicate& p, const Code* codes, int n,
                     const int32_t* ranks, uint64_t* bitmap) {
  std::fill_n(bitmap, (n + 63) >> 6, uint64_t{0});
  // Plain loops over a branch-free boolean, so the compiler's
  // auto-vectorizer can take them.
  switch (p.kind) {
    case BlockPredicate::Kind::kNever:
      return;
    case BlockPredicate::Kind::kEqCode: {
      Code target = p.code;
      for (int i = 0; i < n; ++i) {
        bitmap[i >> 6] |= static_cast<uint64_t>(codes[i] == target)
                          << (i & 63);
      }
      return;
    }
    case BlockPredicate::Kind::kNeqCode: {
      // Sentinels gather rank -1, whose class (-1) matches no cls >= 0.
      for (int i = 0; i < n; ++i) {
        Code v = codes[i];
        int32_t r = v >= 0 ? ranks[v] : -1;
        bool hit = ((r >> Dictionary::kRankBits) == p.cls) & (v != p.code);
        bitmap[i >> 6] |= static_cast<uint64_t>(hit) << (i & 63);
      }
      return;
    }
    case BlockPredicate::Kind::kRankRange: {
      // lo >= 0 always, so the sentinel rank -1 fails the lower bound.
      for (int i = 0; i < n; ++i) {
        Code v = codes[i];
        int32_t r = v >= 0 ? ranks[v] : -1;
        bool hit = (r >= p.lo) & (r <= p.hi);
        bitmap[i >> 6] |= static_cast<uint64_t>(hit) << (i & 63);
      }
      return;
    }
  }
}

void EvalBlock(const BlockPredicate& p, const Code* codes, int n,
               const int32_t* ranks, uint64_t* bitmap) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (HasAvx2()) {
    EvalBlockAvx2(p, codes, n, ranks, bitmap);
    return;
  }
#endif
  EvalBlockScalar(p, codes, n, ranks, bitmap);
}

}  // namespace scan_kernels
}  // namespace cvrepair
