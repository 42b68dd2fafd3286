#ifndef CVREPAIR_DC_SCAN_INTERNAL_H_
#define CVREPAIR_DC_SCAN_INTERNAL_H_

// Shared plumbing of the violation and suspect scans (dc/violation.cc)
// and the incremental row re-scan (dc/incremental.cc).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dc/scan_kernels.h"
#include "relation/encoded.h"

namespace cvrepair {
namespace scan_internal {

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

// A kernel-compiled predicate and the column it reads, for zone-map
// consults and block kernel runs over that column.
struct ZonePred {
  scan_kernels::BlockPredicate bp;
  const int32_t* ranks;
  AttrId attr;
};

inline ZonePred ConstantZone(const EncodedPredicateEval& p) {
  return {scan_kernels::CompileConstant(p.op(), p.bounds()), p.ranks(),
          p.lhs_attr()};
}

// Whether storage block b may hold a row satisfying every predicate of
// `zs` (true for an empty list).
inline bool MayMatchAll(const EncodedRelation& E,
                        const std::vector<ZonePred>& zs, int b) {
  for (const ZonePred& z : zs) {
    if (!scan_kernels::MayMatch(z.bp, E.block_meta(z.attr, b), z.ranks)) {
      return false;
    }
  }
  return true;
}

// The partner zone predicates of fixed row `row` under a two-tuple
// constraint, in predicate order, one list per pair orientation: `fwd`
// for (row, partner), where the partner binds t1, and `rev` for
// (partner, row). Each list holds the constants on the partner's tuple
// variable and every cross-tuple same-attribute predicate as a probe
// against row's code. With `skip_attr`, predicates on a marked attribute
// are left out.
inline void BuildPartnerZones(const EncodedRelation& E,
                              const std::vector<EncodedPredicateEval>& preds,
                              int row, const std::vector<char>* skip_attr,
                              std::vector<ZonePred>* fwd,
                              std::vector<ZonePred>* rev) {
  fwd->clear();
  rev->clear();
  for (const EncodedPredicateEval& pe : preds) {
    const bool probe = pe.is_same_attr() && pe.lhs_tuple() != pe.rhs_tuple();
    if (!pe.is_constant() && !probe) continue;
    if (skip_attr != nullptr &&
        (*skip_attr)[static_cast<size_t>(pe.lhs_attr())]) {
      continue;
    }
    if (pe.is_constant()) {
      (pe.lhs_tuple() == 1 ? fwd : rev)->push_back(ConstantZone(pe));
      continue;
    }
    const Code fixed = E.code(row, pe.lhs_attr());
    fwd->push_back({scan_kernels::CompileProbe(pe.op(), pe.lhs_tuple() == 0,
                                               fixed, pe.ranks()),
                    pe.ranks(), pe.lhs_attr()});
    rev->push_back({scan_kernels::CompileProbe(pe.op(), pe.lhs_tuple() == 1,
                                               fixed, pe.ranks()),
                    pe.ranks(), pe.lhs_attr()});
  }
}

}  // namespace scan_internal
}  // namespace cvrepair

#endif  // CVREPAIR_DC_SCAN_INTERNAL_H_
