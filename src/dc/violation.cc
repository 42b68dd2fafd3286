#include "dc/violation.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "dc/eval_counters.h"
#include "dc/predicate_space.h"
#include "dc/scan_internal.h"
#include "dc/scan_kernels.h"
#include "relation/encoded.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

using scan_internal::CodeVecHash;
using scan_internal::ConstantZone;
using scan_internal::MayMatchAll;
using scan_internal::ZonePred;

// =====================================================================
// Block-vectorized scans over the dictionary-coded columns
// (dc/scan_kernels.h). Every predicate evaluation is counted, in the
// short-circuit order of DenialConstraint::IsViolated, and the result is
// exactly viol(I, φ) (tests/reference_scan.h checks it against a naive
// enumeration). Three levers cut the work:
//   * zone-map skips: blocks no constant predicate (or per-row probe)
//     can match are never entered (blocks_scanned / blocks_skipped);
//   * a lead kernel: the first predicate the kernels can evaluate with
//     the scanned tuple varying runs branchless over the whole block,
//     and only surviving lanes reach the scalar short-circuit tail;
//   * per-row lifting: 2-tuple predicates binding only the fixed tuple
//     are evaluated once per outer row instead of once per pair.
// Counter discipline: upfront zone consults (the skip vectors) flush
// immediately; in-scan consults and kernel lane counts go through the
// AddScan truncation gate like every other scan counter, so a scan cut
// short by its cap publishes only eval.truncated_scans.
// =====================================================================

// Counted scalar evaluation of one compiled predicate.
inline bool EvalPredCounted(const EncodedPredicateEval& p,
                            const std::vector<int>& rows,
                            EvalCounters* local) {
  if (p.on_codes()) {
    ++local->code_predicate_evals;
  } else {
    ++local->predicate_evals;
  }
  return p.Eval(rows);
}

inline bool TestBit(const uint64_t* bitmap, int i) {
  return (bitmap[i >> 6] >> (i & 63)) & 1;
}

// Per-storage-block skip vector from constant zone predicates; one
// consult is counted per block.
void FillBlockSkips(const EncodedRelation& E, const std::vector<ZonePred>& zs,
                    std::vector<char>* skip, EvalCounters* zc) {
  int nb = E.num_blocks();
  skip->assign(static_cast<size_t>(nb), 0);
  for (int b = 0; b < nb; ++b) {
    bool may = MayMatchAll(E, zs, b);
    (*skip)[static_cast<size_t>(b)] = !may;
    if (may) {
      ++zc->blocks_scanned;
    } else {
      ++zc->blocks_skipped;
    }
  }
}

// 1-tuple constraints, blocked: an upfront skip vector from every
// constant predicate, then per block a lead kernel (the first predicate,
// when constant-compiled) whose surviving lanes run the remaining
// predicates in the usual short-circuit order.
void ScanRowsBlocked(const EncodedRelation& E, const EncodedConstraintEval& ev,
                     int index, std::vector<Violation>* out, int64_t cap,
                     bool* truncated) {
  TraceSpan span("scan/rows");
  const std::vector<EncodedPredicateEval>& preds = ev.predicate_evals();
  int nb = E.num_blocks();

  std::vector<ZonePred> zone;
  for (const EncodedPredicateEval& p : preds) {
    if (p.is_constant()) zone.push_back(ConstantZone(p));
  }
  std::vector<char> skip(static_cast<size_t>(nb), 0);
  if (!zone.empty()) {
    EvalCounters zc;
    FillBlockSkips(E, zone, &skip, &zc);
    eval_counters::Add(zc);
  }

  bool lead = !preds.empty() && preds[0].is_constant();
  scan_kernels::BlockPredicate lead_bp;
  if (lead) {
    lead_bp = scan_kernels::CompileConstant(preds[0].op(), preds[0].bounds());
  }

  std::vector<int> rows(1);
  uint64_t bitmap[EncodedRelation::kBlockSize / 64];
  EvalCounters local;
  for (int b = 0; b < nb; ++b) {
    if (skip[static_cast<size_t>(b)]) continue;
    int begin = b << EncodedRelation::kBlockShift;
    int rows_in = E.block_rows(b);
    const uint64_t* sel = nullptr;
    if (lead) {
      scan_kernels::EvalBlock(lead_bp, E.block_codes(preds[0].lhs_attr(), b),
                              rows_in, preds[0].ranks(), bitmap);
      local.code_predicate_evals += rows_in;
      sel = bitmap;
    }
    for (int x = 0; x < rows_in; ++x) {
      if (sel && !TestBit(sel, x)) continue;
      rows[0] = begin + x;
      bool violated = true;
      for (size_t pi = lead ? 1 : 0; pi < preds.size(); ++pi) {
        if (!EvalPredCounted(preds[pi], rows, &local)) {
          violated = false;
          break;
        }
      }
      if (!violated) continue;
      if (static_cast<int64_t>(out->size()) >= cap) {
        if (truncated) *truncated = true;
        eval_counters::AddScan(local, /*truncated=*/true);
        return;
      }
      out->push_back({index, rows});
    }
  }
  eval_counters::AddScan(local, /*truncated=*/false);
}

// A two-tuple constraint's predicates, sorted in their original order by
// how the pair scans evaluate them: the outer row binds t0, the scanned
// inner row t1.
struct PairPredicates {
  std::vector<size_t> t0_consts;  // lifted to once per outer row
  std::vector<size_t> t1_consts;
  std::vector<size_t> probes;  // cross-tuple same-attribute predicates
  // The first predicate not lifted, when a kernel can run it over the
  // inner rows: then it is t1_consts.front() or probes.front(). Else -1.
  int64_t lead = -1;
  std::vector<size_t> rest;  // the scalar rest: every other unlifted one
};

// With `skip_partition_eqs`, the cross-tuple equalities (proven by a join
// block's membership) are left out of every list.
PairPredicates ClassifyPairPredicates(
    const std::vector<EncodedPredicateEval>& preds, bool skip_partition_eqs) {
  PairPredicates out;
  bool first_unlifted = true;
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    const EncodedPredicateEval& p = preds[pi];
    const bool probe = p.is_same_attr() && p.lhs_tuple() != p.rhs_tuple();
    if (probe && skip_partition_eqs && p.op() == Op::kEq) continue;
    if (p.is_constant() && p.lhs_tuple() == 0) {
      out.t0_consts.push_back(pi);
      continue;
    }
    if (p.is_constant()) out.t1_consts.push_back(pi);
    if (probe) out.probes.push_back(pi);
    if (first_unlifted && (p.is_constant() || probe)) {
      out.lead = static_cast<int64_t>(pi);
    } else {
      out.rest.push_back(pi);
    }
    first_unlifted = false;
  }
  return out;
}

// The O(n²) ordered-pair scan (constraints with no equality join),
// blocked: upfront skip vectors over the outer (t0 constants) and inner
// (t1 constants) blocks, a per-(outer row, inner block) probe consult for
// same-attribute predicates, and a lead kernel over each surviving inner
// block.
void ScanAllPairsBlocked(const EncodedRelation& E,
                         const EncodedConstraintEval& ev, int index,
                         std::vector<Violation>* out, int64_t cap,
                         bool* truncated) {
  TraceSpan span("scan/all_pairs");
  const std::vector<EncodedPredicateEval>& preds = ev.predicate_evals();
  const PairPredicates pp =
      ClassifyPairPredicates(preds, /*skip_partition_eqs=*/false);
  int n = E.num_rows();
  int nb = E.num_blocks();

  std::vector<ZonePred> z0, z1;  // constants on t0 (outer) / t1 (inner)
  for (size_t pi : pp.t0_consts) z0.push_back(ConstantZone(preds[pi]));
  for (size_t pi : pp.t1_consts) z1.push_back(ConstantZone(preds[pi]));
  std::vector<char> skip_i(static_cast<size_t>(nb), 0);
  std::vector<char> skip_j(static_cast<size_t>(nb), 0);
  if (!z0.empty() || !z1.empty()) {
    EvalCounters zc;
    if (!z0.empty()) FillBlockSkips(E, z0, &skip_i, &zc);
    if (!z1.empty()) FillBlockSkips(E, z1, &skip_j, &zc);
    eval_counters::Add(zc);
  }
  const bool lead_is_probe =
      pp.lead >= 0 && !preds[static_cast<size_t>(pp.lead)].is_constant();

  std::vector<int> rows(2);
  std::vector<ZonePred> probes(pp.probes.size());  // against the outer row
  uint64_t bitmap[EncodedRelation::kBlockSize / 64];
  EvalCounters local;
  // One outer row against every inner block. Returns false when `out` hit
  // `cap`.
  auto scan_outer = [&](int i) {
    if (skip_i[static_cast<size_t>(i >> EncodedRelation::kBlockShift)]) {
      return true;
    }
    rows[0] = i;
    for (size_t pi : pp.t0_consts) {
      if (!EvalPredCounted(preds[pi], rows, &local)) return true;
    }
    for (size_t s = 0; s < probes.size(); ++s) {
      const EncodedPredicateEval& p = preds[pp.probes[s]];
      probes[s] = {scan_kernels::CompileProbe(p.op(), p.lhs_tuple() == 0,
                                              E.code(i, p.lhs_attr()),
                                              p.ranks()),
                   p.ranks(), p.lhs_attr()};
    }
    const ZonePred* lead = nullptr;
    if (pp.lead >= 0) lead = lead_is_probe ? &probes.front() : &z1.front();
    for (int b = 0; b < nb; ++b) {
      if (skip_j[static_cast<size_t>(b)]) continue;
      int rows_in = E.block_rows(b);
      if (!probes.empty()) {
        if (MayMatchAll(E, probes, b)) {
          ++local.blocks_scanned;
        } else {
          ++local.blocks_skipped;
          continue;
        }
      }
      const uint64_t* sel = nullptr;
      if (lead) {
        scan_kernels::EvalBlock(lead->bp, E.block_codes(lead->attr, b),
                                rows_in, lead->ranks, bitmap);
        local.code_predicate_evals += rows_in;
        sel = bitmap;
      }
      int begin = b << EncodedRelation::kBlockShift;
      for (int x = 0; x < rows_in; ++x) {
        if (sel && !TestBit(sel, x)) continue;
        int j = begin + x;
        if (j == i) continue;
        rows[1] = j;
        bool v = true;
        for (size_t pi : pp.rest) {
          if (!EvalPredCounted(preds[pi], rows, &local)) {
            v = false;
            break;
          }
        }
        if (v) {
          if (static_cast<int64_t>(out->size()) >= cap) return false;
          out->push_back({index, rows});
        }
      }
    }
    return true;
  };

  for (int i = 0; i < n; ++i) {
    if (!scan_outer(i)) {
      if (truncated) *truncated = true;
      eval_counters::AddScan(local, /*truncated=*/true);
      return;
    }
  }
  eval_counters::AddScan(local, /*truncated=*/false);
}

// Blocked enumerator for one hash-partition block of an equality-join
// constraint. The partition equality predicates are proven true by block
// membership and skipped outright; the rest split into t0-bound
// constants (lifted to once per left member), zone-checkable predicates
// (constants and same-attribute probes, consulted against per-attribute
// rank zones computed over the gathered member codes), a lead kernel
// over the gathered codes, and the scalar tail in predicate order.
class BlockedJoinEnumerator {
 public:
  BlockedJoinEnumerator(const EncodedRelation& E,
                        const EncodedConstraintEval& ev, int index)
      : E_(&E),
        preds_(&ev.predicate_evals()),
        index_(index),
        pp_(ClassifyPairPredicates(ev.predicate_evals(),
                                   /*skip_partition_eqs=*/true)) {
    const std::vector<EncodedPredicateEval>& preds = *preds_;
    for (const std::vector<size_t>* list : {&pp_.t0_consts, &pp_.t1_consts}) {
      for (size_t pi : *list) {
        const EncodedPredicateEval& p = preds[pi];
        consts_.push_back(
            {pi, scan_kernels::CompileConstant(p.op(), p.bounds()),
             GatherSlot(p.lhs_attr())});
      }
    }
    for (size_t pi : pp_.probes) {
      const EncodedPredicateEval& p = preds[pi];
      probes_.push_back({pi, p.op(), p.lhs_tuple() == 0,
                         GatherSlot(p.lhs_attr())});
    }
    if (pp_.lead >= 0 && preds[static_cast<size_t>(pp_.lead)].is_constant()) {
      lead_const_ = static_cast<int64_t>(pp_.t0_consts.size());
    }
  }

  bool operator()(const std::vector<int>& members, int64_t cap,
                  std::vector<int>* rows, std::vector<Violation>* out,
                  EvalCounters* local) const {
    const std::vector<EncodedPredicateEval>& preds = *preds_;
    int m = static_cast<int>(members.size());
    // Gather member codes per referenced attribute, plus their zones.
    std::vector<std::vector<Code>> g(attrs_.size());
    std::vector<int32_t> zmin(attrs_.size()), zmax(attrs_.size());
    for (size_t s = 0; s < attrs_.size(); ++s) {
      g[s].resize(static_cast<size_t>(m));
      for (int x = 0; x < m; ++x) {
        g[s][static_cast<size_t>(x)] =
            E_->code(members[static_cast<size_t>(x)], attrs_[s]);
      }
      scan_kernels::ComputeZone(g[s].data(), m,
                                E_->dict(attrs_[s]).rank_data(), &zmin[s],
                                &zmax[s]);
    }
    // One consult for all constant predicates: no member satisfying one
    // (whichever tuple it binds) means no violating pair in this block.
    if (!consts_.empty()) {
      bool may = true;
      for (const ConstPred& cp : consts_) {
        if (!scan_kernels::MayMatch(cp.bp, zmin[cp.slot], zmax[cp.slot],
                                    preds[cp.pi].ranks())) {
          may = false;
          break;
        }
      }
      if (!may) {
        ++local->blocks_skipped;
        return true;
      }
      ++local->blocks_scanned;
    }
    std::vector<uint64_t> bitmap((static_cast<size_t>(m) + 63) / 64);
    std::vector<scan_kernels::BlockPredicate> pbuf(probes_.size());
    for (int xi = 0; xi < m; ++xi) {
      int i = members[static_cast<size_t>(xi)];
      (*rows)[0] = i;
      bool alive = true;
      for (size_t pi : pp_.t0_consts) {
        if (!EvalPredCounted(preds[pi], *rows, local)) {
          alive = false;
          break;
        }
      }
      if (!alive) continue;
      if (!probes_.empty()) {
        bool may = true;
        for (size_t s = 0; s < probes_.size(); ++s) {
          const Probe& pr = probes_[s];
          pbuf[s] = scan_kernels::CompileProbe(pr.op, pr.fixed_is_lhs,
                                               E_->code(i, attrs_[pr.slot]),
                                               preds[pr.pi].ranks());
          if (may && !scan_kernels::MayMatch(pbuf[s], zmin[pr.slot],
                                             zmax[pr.slot],
                                             preds[pr.pi].ranks())) {
            may = false;
          }
        }
        if (!may) {
          ++local->blocks_skipped;
          continue;
        }
        ++local->blocks_scanned;
      }
      const uint64_t* sel = nullptr;
      if (pp_.lead >= 0) {
        // The lead is t1_consts.front() or probes_.front().
        const size_t lc = static_cast<size_t>(lead_const_);
        const scan_kernels::BlockPredicate& lead_bp =
            lead_const_ >= 0 ? consts_[lc].bp : pbuf.front();
        const size_t slot =
            lead_const_ >= 0 ? consts_[lc].slot : probes_.front().slot;
        scan_kernels::EvalBlock(lead_bp, g[slot].data(), m,
                                preds[static_cast<size_t>(pp_.lead)].ranks(),
                                bitmap.data());
        local->code_predicate_evals += m;
        sel = bitmap.data();
      }
      for (int xj = 0; xj < m; ++xj) {
        if (sel && !TestBit(sel, xj)) continue;
        int j = members[static_cast<size_t>(xj)];
        if (j == i) continue;
        (*rows)[1] = j;
        bool v = true;
        for (size_t pi : pp_.rest) {
          if (!EvalPredCounted(preds[pi], *rows, local)) {
            v = false;
            break;
          }
        }
        if (v) {
          if (static_cast<int64_t>(out->size()) >= cap) return false;
          out->push_back({index_, *rows});
        }
      }
    }
    return true;
  }

 private:
  struct ConstPred {
    size_t pi;
    scan_kernels::BlockPredicate bp;
    size_t slot;
  };
  struct Probe {
    size_t pi;
    Op op;
    bool fixed_is_lhs;  // the left member binds the lhs operand
    size_t slot;
  };

  size_t GatherSlot(AttrId a) {
    for (size_t s = 0; s < attrs_.size(); ++s) {
      if (attrs_[s] == a) return s;
    }
    attrs_.push_back(a);
    return attrs_.size() - 1;
  }

  const EncodedRelation* E_;
  const std::vector<EncodedPredicateEval>* preds_;
  int index_;
  PairPredicates pp_;
  std::vector<AttrId> attrs_;  // attributes gathered per block
  std::vector<ConstPred> consts_;  // t0 constants, then t1 constants
  std::vector<Probe> probes_;
  // The lead's index in consts_ (t1_consts.front()), or -1.
  int64_t lead_const_ = -1;
};

// Hash-partition blocks on the join attributes: the join scan's blocks
// and the suspect scan's equality groups. A single join attribute
// buckets densely by code (codes are 0..dict.size()-1); multi-attribute
// joins hash the code vector. Codes identify exactly the EvalOp equality
// classes, so two rows share a block iff they agree on every join
// attribute under '='. Rows NULL/fresh on a join attribute (negative
// sentinel codes) never satisfy '=' and are excluded. Members are in
// ascending row order; the blocks are in no particular order.
std::vector<std::vector<int>> BuildJoinBlocks(const EncodedRelation& E,
                                              const std::vector<AttrId>& join) {
  int n = E.num_rows();
  std::vector<std::vector<int>> blocks;
  if (join.size() == 1) {
    std::vector<std::vector<int>> by_code(
        static_cast<size_t>(E.dict(join[0]).size()));
    int nb = E.num_blocks();
    for (int b = 0; b < nb; ++b) {
      const Code* seg = E.block_codes(join[0], b);
      int rows_in = E.block_rows(b);
      int begin = b << EncodedRelation::kBlockShift;
      for (int x = 0; x < rows_in; ++x) {
        Code a = seg[x];
        if (a >= 0) by_code[static_cast<size_t>(a)].push_back(begin + x);
      }
    }
    for (std::vector<int>& members : by_code) {
      if (!members.empty()) blocks.push_back(std::move(members));
    }
    return blocks;
  }
  std::unordered_map<std::vector<Code>, std::vector<int>, CodeVecHash> buckets;
  for (int i = 0; i < n; ++i) {
    std::vector<Code> key;
    key.reserve(join.size());
    bool usable = true;
    for (AttrId a : join) {
      Code v = E.code(i, a);
      if (v < 0) {
        usable = false;
        break;
      }
      key.push_back(v);
    }
    if (usable) buckets[std::move(key)].push_back(i);
  }
  blocks.reserve(buckets.size());
  for (auto& [key, members] : buckets) {
    (void)key;
    blocks.push_back(std::move(members));
  }
  return blocks;
}

// Scans the >=2-member blocks of a join partition in canonical order
// (blocks sorted by first member, members ascending). `enumerate` emits
// each block's violations in (i, j) member order and returns false once
// `cap` of them have been collected.
void ScanJoinBlocks(std::vector<std::vector<int>>& all_blocks,
                    const BlockedJoinEnumerator& enumerate,
                    std::vector<Violation>* out, int64_t cap,
                    bool* truncated) {
  std::vector<const std::vector<int>*> blocks;
  for (const std::vector<int>& members : all_blocks) {
    if (members.size() >= 2) blocks.push_back(&members);
  }
  // Blocks sorted by first member — a canonical scan order that does not
  // depend on hash-bucket order. Members are ascending within a block, so
  // first-member order is well-defined and unique.
  std::sort(blocks.begin(), blocks.end(),
            [](const std::vector<int>* a, const std::vector<int>* b) {
              return a->front() < b->front();
            });
  TraceSpan span("scan/join_blocks");
  span.AddArg("blocks", static_cast<int64_t>(blocks.size()));
  std::vector<int> rows(2);
  EvalCounters local;
  for (const std::vector<int>* members : blocks) {
    if (!enumerate(*members, cap, &rows, out, &local)) {
      if (truncated) *truncated = true;
      eval_counters::AddScan(local, /*truncated=*/true);
      return;
    }
  }
  eval_counters::AddScan(local, /*truncated=*/false);
}

}  // namespace

std::vector<Cell> ViolationCells(const DenialConstraint& constraint,
                                 const std::vector<int>& rows) {
  std::vector<Cell> cells;
  for (const Predicate& p : constraint.predicates()) {
    for (const Cell& c : p.Cells(rows)) {
      if (std::find(cells.begin(), cells.end(), c) == cells.end()) {
        cells.push_back(c);
      }
    }
  }
  return cells;
}

ViolationsByPosition ViewsByPosition(const std::vector<Violation>& violations,
                                     size_t positions) {
  ViolationsByPosition views;
  views.reserve(positions);
  auto begin = violations.begin();
  for (size_t k = 0; k < positions; ++k) {
    auto end = std::find_if(begin, violations.end(), [&](const Violation& v) {
      return v.constraint_index != static_cast<int>(k);
    });
    views.emplace_back(begin, end);
    begin = end;
  }
  assert(begin == violations.end() && "violations not canonical");
  return views;
}

std::vector<Violation> FindViolationsOf(const EncodedRelation& E,
                                        const DenialConstraint& constraint,
                                        int constraint_index) {
  return FindViolationsOfCapped(E, constraint, constraint_index,
                                std::numeric_limits<int64_t>::max(), nullptr);
}

std::vector<Violation> FindViolationsOfCapped(
    const EncodedRelation& E, const DenialConstraint& constraint,
    int constraint_index, int64_t max_violations, bool* truncated) {
  assert(E.in_sync());
  std::vector<Violation> out;
  if (truncated) *truncated = false;
  if (constraint.predicates().empty()) return out;
  EncodedConstraintEval ev(E, constraint);
  if (constraint.NumTupleVars() == 1) {
    ScanRowsBlocked(E, ev, constraint_index, &out, max_violations, truncated);
    return out;
  }
  std::vector<AttrId> join = EqualityJoinAttrs(constraint.predicates());
  if (!join.empty()) {
    std::vector<std::vector<int>> blocks;
    {
      TraceSpan span("scan/build_join_blocks");
      EvalCounters delta;
      delta.partition_builds = 1;
      eval_counters::Add(delta);
      blocks = BuildJoinBlocks(E, join);
    }
    BlockedJoinEnumerator enumerate(E, ev, constraint_index);
    ScanJoinBlocks(blocks, enumerate, &out, max_violations, truncated);
    return out;
  }
  ScanAllPairsBlocked(E, ev, constraint_index, &out, max_violations,
                      truncated);
  return out;
}

std::vector<Violation> FindViolations(const EncodedRelation& E,
                                      const ConstraintSet& sigma) {
  std::vector<Violation> out;
  for (size_t k = 0; k < sigma.size(); ++k) {
    std::vector<Violation> part =
        FindViolationsOf(E, sigma[k], static_cast<int>(k));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

bool Satisfies(const EncodedRelation& E, const ConstraintSet& sigma) {
  assert(E.in_sync());
  for (size_t k = 0; k < sigma.size(); ++k) {
    const DenialConstraint& c = sigma[k];
    if (c.predicates().empty()) continue;
    if (c.NumTupleVars() == 1) {
      EncodedConstraintEval ev(E, c);
      std::vector<int> rows(1);
      for (int i = 0; i < E.num_rows(); ++i) {
        rows[0] = i;
        if (ev.IsViolated(rows)) return false;
      }
    } else {
      // Reuse the bucketed enumerator; one violation suffices.
      bool truncated = false;
      std::vector<Violation> part =
          FindViolationsOfCapped(E, c, static_cast<int>(k), 1, &truncated);
      if (!part.empty()) return false;
    }
  }
  return true;
}

std::vector<Violation> FindViolations(const Relation& I,
                                      const ConstraintSet& sigma) {
  return FindViolations(EncodedRelation(I), sigma);
}

bool Satisfies(const Relation& I, const ConstraintSet& sigma) {
  return Satisfies(EncodedRelation(I), sigma);
}

namespace {

// The suspect condition sc(rows; φ) of one constraint on the coded
// columns, plus the zone-map partner pruning of the no-equality-join loop.
struct SuspectOps {
  const EncodedRelation* E;
  const ConstraintSet* sigma;
  // The changing set C as a dense bitmap over row * num_attributes + attr.
  const std::vector<char>* changing;
  EvalCounters* zone_counts;  // nullptr: the process-wide counters
  const DenialConstraint* c = nullptr;
  std::vector<EncodedPredicateEval> evals{};
  std::vector<char> attr_changing{};  // attrs owning any changing cell
  std::vector<ZonePred> fwd{}, rev{};  // PartnerBlockSkips' scratch

  void SetConstraint(size_t k) {
    c = &(*sigma)[k];
    evals.clear();
    evals.reserve(c->predicates().size());
    for (const Predicate& p : c->predicates()) evals.emplace_back(*E, p);
  }

  bool IsChanging(int row, AttrId attr) const {
    return (*changing)[static_cast<size_t>(row) * E->num_attributes() + attr];
  }

  // Evaluates the suspect condition sc(rows; φ) w.r.t. the changing set
  // and reports whether any predicate involves a changing cell.
  bool Condition(const std::vector<int>& rows, bool* touches_changing) const {
    *touches_changing = false;
    const std::vector<Predicate>& preds = c->predicates();
    for (size_t pi = 0; pi < preds.size(); ++pi) {
      const Predicate& p = preds[pi];
      bool on_changing = IsChanging(rows[p.lhs().tuple], p.lhs().attr);
      if (!on_changing && !p.has_constant()) {
        on_changing = IsChanging(rows[p.rhs_cell().tuple], p.rhs_cell().attr);
      }
      if (on_changing) {
        *touches_changing = true;
        continue;  // predicate on C: excluded from the suspect condition
      }
      if (!evals[pi].Eval(rows)) return false;
    }
    return true;
  }

  // Zone-prunes partner storage blocks against r. Only predicates on
  // attributes without any changing cell participate: those can never be
  // excluded from the suspect condition, so a block they rule out for
  // *both* pair orientations holds no suspect partner of r. One consult
  // is counted per block.
  void PartnerBlockSkips(int r, std::vector<char>* skip) {
    skip->clear();
    scan_internal::BuildPartnerZones(*E, evals, r, &attr_changing, &fwd, &rev);
    // A block is skippable only when both orientations are ruled out;
    // an orientation with no pruning predicates is never ruled out.
    if (fwd.empty() || rev.empty()) return;
    int nb = E->num_blocks();
    skip->assign(static_cast<size_t>(nb), 0);
    EvalCounters zc;
    for (int b = 0; b < nb; ++b) {
      bool may = MayMatchAll(*E, fwd, b) || MayMatchAll(*E, rev, b);
      (*skip)[static_cast<size_t>(b)] = !may;
      if (may) {
        ++zc.blocks_scanned;
      } else {
        ++zc.blocks_skipped;
      }
    }
    if (zone_counts) {
      *zone_counts += zc;
    } else {
      eval_counters::Add(zc);
    }
  }
};

}  // namespace

void ForEachSuspect(const EncodedRelation& E, const ConstraintSet& sigma,
                    const std::vector<Cell>& changing,
                    const SuspectVisitor& visit, EvalCounters* zone_counts) {
  assert(E.in_sync());
  const int n = E.num_rows();
  const int num_attributes = E.num_attributes();
  // C ∩ cells(I), deduplicated, as a list and as a dense bitmap over
  // row * num_attributes + attr. A cell outside the instance lies in no
  // tuple list (Definition 6), so it is dropped here, and every loop below
  // reads only `cells` and `in_c`.
  const size_t m = static_cast<size_t>(num_attributes);
  std::vector<char> in_c(static_cast<size_t>(n) * m, 0);
  std::vector<Cell> cells;
  cells.reserve(changing.size());
  for (const Cell& cell : changing) {
    if (cell.row < 0 || cell.row >= n || cell.attr < 0 ||
        cell.attr >= num_attributes) {
      continue;
    }
    char& bit = in_c[static_cast<size_t>(cell.row) * m + cell.attr];
    if (bit) continue;
    bit = 1;
    cells.push_back(cell);
  }
  SuspectOps ops{&E, &sigma, &in_c, zone_counts};
  ops.attr_changing.assign(m, 0);
  for (const Cell& cell : cells) ops.attr_changing[cell.attr] = 1;
  // One buffer for every emitted suspect: `rows` is its tuple list.
  Violation suspect;
  std::vector<int>& rows = suspect.rows;
  // Row flags of one constraint; each constraint clears the previous
  // constraint's entries first.
  std::vector<bool> in_rwc(n, false);
  std::vector<bool> eq_cell_changing(n, false);
  std::vector<bool> seen_partner(n, false);
  std::vector<int> rwc;
  std::vector<int> eq_changing_rows;
  std::vector<int> partners;
  std::vector<int> group_of;  // row -> index of its equality group, or -1
  for (size_t k = 0; k < sigma.size(); ++k) {
    for (int r : rwc) in_rwc[r] = false;
    for (int r : eq_changing_rows) eq_cell_changing[r] = false;
    rwc.clear();
    eq_changing_rows.clear();
    const DenialConstraint& c = sigma[k];
    if (c.predicates().empty()) continue;
    ops.SetConstraint(k);
    suspect.constraint_index = static_cast<int>(k);

    // Attributes the constraint's predicates can instantiate.
    std::vector<bool> used_attr(num_attributes, false);
    for (const Predicate& p : c.predicates()) {
      used_attr[p.lhs().attr] = true;
      if (!p.has_constant()) used_attr[p.rhs_cell().attr] = true;
    }
    // Rows owning a changing cell on a used attribute.
    for (const Cell& cell : cells) {
      if (used_attr[cell.attr] && !in_rwc[cell.row]) {
        in_rwc[cell.row] = true;
        rwc.push_back(cell.row);
      }
    }
    if (rwc.empty()) continue;
    std::sort(rwc.begin(), rwc.end());

    bool touches = false;
    if (c.NumTupleVars() == 1) {
      rows.resize(1);
      for (int r : rwc) {
        rows[0] = r;
        if (ops.Condition(rows, &touches) && touches) visit(suspect);
      }
      continue;
    }

    // Fast path for constraints with equality-join predicates: a suspect
    // pair must agree on every equality attribute whose cells are outside
    // C, so partner candidates shrink to the row's hash group plus the
    // rows owning a changing cell on a join attribute.
    const std::vector<AttrId> eq_attrs = EqualityJoinAttrs(c.predicates());

    rows.resize(2);
    auto check_pair = [&](int r, int j) {
      rows[0] = r;
      rows[1] = j;
      if (ops.Condition(rows, &touches) && touches) visit(suspect);
      rows[0] = j;
      rows[1] = r;
      if (ops.Condition(rows, &touches) && touches) visit(suspect);
    };

    if (eq_attrs.empty()) {
      std::vector<char> pskip;
      for (int r : rwc) {
        ops.PartnerBlockSkips(r, &pskip);
        for (int j = 0; j < n; ++j) {
          if (!pskip.empty() &&
              pskip[static_cast<size_t>(j >> EncodedRelation::kBlockShift)]) {
            continue;
          }
          if (j == r) continue;
          // Pairs with both rows in rwc are produced from the smaller
          // row's iteration only, to avoid duplicates.
          if (in_rwc[j] && j < r) continue;
          check_pair(r, j);
        }
      }
      continue;
    }

    // Equality groups: the join scan's code partition on the equality
    // attributes, members ascending.
    const std::vector<std::vector<int>> groups = BuildJoinBlocks(E, eq_attrs);
    group_of.assign(static_cast<size_t>(n), -1);
    for (size_t g = 0; g < groups.size(); ++g) {
      for (int i : groups[g]) {
        group_of[static_cast<size_t>(i)] = static_cast<int>(g);
      }
    }
    // Rows whose equality-attribute cells are in C: their join values may
    // change, so they pair with anything.
    for (const Cell& cell : cells) {
      if (eq_cell_changing[cell.row]) continue;
      if (std::find(eq_attrs.begin(), eq_attrs.end(), cell.attr) !=
          eq_attrs.end()) {
        eq_cell_changing[cell.row] = true;
        eq_changing_rows.push_back(cell.row);
      }
    }
    // Ascending, so partner (and therefore suspect) order never depends
    // on the order of the changing set.
    std::sort(eq_changing_rows.begin(), eq_changing_rows.end());

    for (int r : rwc) {
      // Collect candidate partners (deduplicated via seen_partner).
      partners.clear();
      auto add_partner = [&](int j) {
        if (j == r || seen_partner[j]) return;
        if (in_rwc[j] && j < r) return;  // produced from j's iteration
        seen_partner[j] = true;
        partners.push_back(j);
      };
      if (eq_cell_changing[r]) {
        // This row's join cells change: every row is a candidate.
        for (int j = 0; j < n; ++j) add_partner(j);
      } else {
        const int g = group_of[static_cast<size_t>(r)];
        if (g >= 0) {
          for (int j : groups[static_cast<size_t>(g)]) add_partner(j);
        }
        for (int j : eq_changing_rows) add_partner(j);
      }
      for (int j : partners) check_pair(r, j);
      for (int j : partners) seen_partner[j] = false;
    }
  }
}

std::vector<Violation> FindSuspects(const EncodedRelation& E,
                                    const ConstraintSet& sigma,
                                    const CellSet& changing) {
  std::vector<Violation> out;
  ForEachSuspect(E, sigma, std::vector<Cell>(changing.begin(), changing.end()),
                 [&out](const Violation& s) { out.push_back(s); });
  return out;
}

}  // namespace cvrepair
