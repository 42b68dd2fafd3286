#include "dc/eval_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "dc/predicate_space.h"
#include "dc/scan_internal.h"
#include "dc/scan_kernels.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

using scan_internal::CodeVecHash;

bool IsPartitionPredicate(const Predicate& p) {
  return !p.has_constant() && p.op() == Op::kEq &&
         p.IsSameAttributeAcrossTuples();
}

// The row's code key on `attrs`: dictionary codes identify exactly the
// EvalOp equality classes. *usable is false when any cell is NULL/fresh
// (negative sentinel codes; such rows never satisfy '=' and are excluded
// from partitions).
std::vector<Code> RowCodeKey(const EncodedRelation& E, int row,
                             const std::vector<AttrId>& attrs, bool* usable) {
  std::vector<Code> key;
  key.reserve(attrs.size());
  *usable = true;
  for (AttrId a : attrs) {
    Code v = E.code(row, a);
    if (v < 0) {
      *usable = false;
      return key;
    }
    key.push_back(v);
  }
  return key;
}

// Counted single-predicate evaluation on the coded columns, attributed to
// the counter matching the evaluator's kind.
bool EvalCounted(const EncodedPredicateEval& ev, const std::vector<int>& rows,
                 EvalCounters* local) {
  if (ev.on_codes()) {
    ++local->code_predicate_evals;
  } else {
    ++local->predicate_evals;
  }
  return ev.Eval(rows);
}

void CanonicalizeBlocks(std::vector<std::vector<int>>* blocks) {
  std::sort(blocks->begin(), blocks->end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
}

}  // namespace

EvalIndex::EvalIndex(const Relation& I, const DenialConstraint& base,
                     int64_t memo_budget, const EncodedRelation* encoded)
    : E_(encoded), base_(base), n_(I.num_rows()), memo_budget_(memo_budget) {
  assert(&E_->relation() == &I && E_->in_sync());
  if (base_.predicates().empty()) return;
  if (base_.NumTupleVars() == 2) {
    base_eq_ = EqualityJoinAttrs(base_.predicates());
    for (const Predicate& p : base_.predicates()) {
      if (!IsPartitionPredicate(p)) memo_preds_.push_back(p);
    }
  } else {
    memo_preds_ = base_.predicates();
  }
  GetOrDerive(base_eq_);
  BuildMemo();
}

void EvalIndex::BuildMemo() {
  if (memo_preds_.empty() ||
      memo_preds_.size() > 32) {
    return;
  }
  TraceSpan span("index/build_memo");
  span.AddArg("memo_preds", static_cast<int64_t>(memo_preds_.size()));
  EvalCounters local;
  std::vector<EncodedPredicateEval> enc;
  enc.reserve(memo_preds_.size());
  for (const Predicate& p : memo_preds_) enc.emplace_back(*E_, p);
  // All predicates are evaluated (no short-circuit): the memo answers
  // any subset of them, and the build cost is deterministic.
  auto bits_of = [&](const std::vector<int>& rows) {
    uint32_t bits = 0;
    for (size_t p = 0; p < memo_preds_.size(); ++p) {
      if (EvalCounted(enc[p], rows, &local)) bits |= uint32_t{1} << p;
    }
    return bits;
  };
  std::vector<int> rows;
  if (base_.NumTupleVars() == 1) {
    if (static_cast<int64_t>(n_) > memo_budget_) return;
    row_memo_.assign(static_cast<size_t>(n_), 0);
    // Constant predicates fill their memo bit one block at a time
    // (zone-skipped blocks keep the bit 0 — the predicate provably holds
    // for no row there); other predicates run the row loop.
    int nb = E_->num_blocks();
    std::vector<uint64_t> bitmap(
        static_cast<size_t>(EncodedRelation::kBlockSize) / 64);
    rows.assign(1, 0);
    for (size_t p = 0; p < memo_preds_.size(); ++p) {
      if (enc[p].is_constant()) {
        scan_kernels::BlockPredicate bp =
            scan_kernels::CompileConstant(enc[p].op(), enc[p].bounds());
        for (int b = 0; b < nb; ++b) {
          if (!scan_kernels::MayMatch(bp, E_->block_meta(enc[p].lhs_attr(), b),
                                      enc[p].ranks())) {
            ++local.blocks_skipped;
            continue;
          }
          ++local.blocks_scanned;
          int rows_in = E_->block_rows(b);
          int begin = b << EncodedRelation::kBlockShift;
          scan_kernels::EvalBlock(bp, E_->block_codes(enc[p].lhs_attr(), b),
                                  rows_in, enc[p].ranks(), bitmap.data());
          local.code_predicate_evals += rows_in;
          for (int x = 0; x < rows_in; ++x) {
            row_memo_[static_cast<size_t>(begin + x)] |=
                static_cast<uint32_t>((bitmap[x >> 6] >> (x & 63)) & 1) << p;
          }
        }
        continue;
      }
      for (int i = 0; i < n_; ++i) {
        rows[0] = i;
        if (EvalCounted(enc[p], rows, &local)) {
          row_memo_[static_cast<size_t>(i)] |= uint32_t{1} << p;
        }
      }
    }
    row_memo_built_ = true;
    eval_counters::Add(local);
    return;
  }
  const Partition& base_part = partitions_.at(base_eq_);
  int64_t pairs = 0;
  for (const std::vector<int>& b : base_part.blocks) {
    if (b.size() < 2) continue;
    pairs += static_cast<int64_t>(b.size()) * (static_cast<int64_t>(b.size()) - 1);
  }
  if (pairs > memo_budget_) return;
  pair_memo_.reserve(static_cast<size_t>(pairs));
  rows.assign(2, 0);
  for (const std::vector<int>& b : base_part.blocks) {
    if (b.size() < 2) continue;
    for (int i : b) {
      for (int j : b) {
        if (i == j) continue;
        rows[0] = i;
        rows[1] = j;
        pair_memo_.emplace(PairKey(i, j), bits_of(rows));
      }
    }
  }
  pair_memo_built_ = true;
  eval_counters::Add(local);
}

const std::vector<int>& EvalIndex::NullRows(AttrId attr) {
  auto it = null_rows_.find(attr);
  if (it != null_rows_.end()) return it->second;
  std::vector<int>& rows = null_rows_[attr];
  // Blocks whose zone map reports no sentinel hold no NULL/fresh row; the
  // bit is exact (eagerly maintained), not merely conservative.
  int nb = E_->num_blocks();
  for (int b = 0; b < nb; ++b) {
    if (!E_->block_meta(attr, b).has_sentinel) continue;
    const Code* seg = E_->block_codes(attr, b);
    int rows_in = E_->block_rows(b);
    int begin = b << EncodedRelation::kBlockShift;
    for (int x = 0; x < rows_in; ++x) {
      if (seg[x] < 0) rows.push_back(begin + x);
    }
  }
  return rows;
}

EvalIndex::Partition EvalIndex::BuildByScan(const std::vector<AttrId>& attrs,
                                            EvalCounters* local) const {
  Partition out;
  if (attrs.empty()) {
    // Trivial partition: one block of every row. Not counted as a build —
    // the plain scan builds no hash partition for join-free constraints
    // either.
    std::vector<int> all(static_cast<size_t>(n_));
    for (int i = 0; i < n_; ++i) all[static_cast<size_t>(i)] = i;
    out.blocks.push_back(std::move(all));
    return out;
  }
  ++local->partition_builds;
  if (attrs.size() == 1) {
    // Single-attribute build: bucket densely by code, one storage block's
    // segment at a time (same layout the violation scans use). Codes are
    // 0..dict.size()-1, rows ascend, and the canonical sort erases the
    // bucket-order difference from the hashed build.
    std::vector<std::vector<int>> by_code(
        static_cast<size_t>(E_->dict(attrs[0]).size()));
    int nb = E_->num_blocks();
    for (int b = 0; b < nb; ++b) {
      const Code* seg = E_->block_codes(attrs[0], b);
      int rows_in = E_->block_rows(b);
      int begin = b << EncodedRelation::kBlockShift;
      for (int x = 0; x < rows_in; ++x) {
        if (seg[x] >= 0) {
          by_code[static_cast<size_t>(seg[x])].push_back(begin + x);
        }
      }
    }
    for (std::vector<int>& members : by_code) {
      if (!members.empty()) out.blocks.push_back(std::move(members));
    }
    CanonicalizeBlocks(&out.blocks);
    return out;
  }
  std::unordered_map<std::vector<Code>, std::vector<int>, CodeVecHash> buckets;
  for (int i = 0; i < n_; ++i) {
    bool usable = false;
    std::vector<Code> key = RowCodeKey(*E_, i, attrs, &usable);
    if (usable) buckets[std::move(key)].push_back(i);
  }
  out.blocks.reserve(buckets.size());
  for (auto& [key, members] : buckets) {
    (void)key;
    out.blocks.push_back(std::move(members));
  }
  CanonicalizeBlocks(&out.blocks);
  return out;
}

EvalIndex::Partition EvalIndex::RefineFrom(const Partition& src,
                                           const std::vector<AttrId>& src_attrs,
                                           const std::vector<AttrId>& target) const {
  std::vector<AttrId> added;
  std::set_difference(target.begin(), target.end(), src_attrs.begin(),
                      src_attrs.end(), std::back_inserter(added));
  Partition out;
  std::unordered_map<std::vector<Code>, std::vector<int>, CodeVecHash> sub;
  for (const std::vector<int>& block : src.blocks) {
    sub.clear();
    for (int i : block) {
      bool usable = false;
      std::vector<Code> key = RowCodeKey(*E_, i, added, &usable);
      // Rows NULL/fresh on an added attribute drop out of the refined
      // partition entirely, exactly as a fresh scan would exclude them.
      if (usable) sub[std::move(key)].push_back(i);
    }
    for (auto& [key, members] : sub) {
      (void)key;
      out.blocks.push_back(std::move(members));
    }
  }
  CanonicalizeBlocks(&out.blocks);
  return out;
}

EvalIndex::Partition EvalIndex::MergeFrom(const Partition& src,
                                          const std::vector<AttrId>& src_attrs,
                                          const std::vector<AttrId>& target) {
  std::vector<AttrId> dropped;
  std::set_difference(src_attrs.begin(), src_attrs.end(), target.begin(),
                      target.end(), std::back_inserter(dropped));
  std::unordered_map<std::vector<Code>, std::vector<int>, CodeVecHash> groups;
  for (const std::vector<int>& block : src.blocks) {
    bool usable = false;
    std::vector<Code> key = RowCodeKey(*E_, block.front(), target, &usable);
    // Members agree (and are non-NULL) on every src attribute, and
    // target ⊆ src, so the front row's key is the block's key.
    std::vector<int>& g = groups[std::move(key)];
    g.insert(g.end(), block.begin(), block.end());
    (void)usable;
  }
  // Rows absent from src because they are NULL/fresh on a *dropped*
  // attribute may still be valid under the coarser key: recover them.
  std::vector<bool> recovered(static_cast<size_t>(n_), false);
  for (AttrId a : dropped) {
    for (int r : NullRows(a)) recovered[static_cast<size_t>(r)] = true;
  }
  for (int r = 0; r < n_; ++r) {
    if (!recovered[static_cast<size_t>(r)]) continue;
    bool usable = false;
    std::vector<Code> key = RowCodeKey(*E_, r, target, &usable);
    if (usable) groups[std::move(key)].push_back(r);
  }
  Partition out;
  out.blocks.reserve(groups.size());
  for (auto& [key, members] : groups) {
    (void)key;
    std::sort(members.begin(), members.end());
    out.blocks.push_back(std::move(members));
  }
  CanonicalizeBlocks(&out.blocks);
  return out;
}

const EvalIndex::Partition& EvalIndex::GetOrDerive(
    const std::vector<AttrId>& attrs) {
  auto it = partitions_.find(attrs);
  EvalCounters local;
  if (it != partitions_.end()) {
    ++local.partition_hits;
    eval_counters::Add(local);
    return it->second;
  }
  TraceSpan span("index/derive_partition");
  span.AddArg("attrs", static_cast<int64_t>(attrs.size()));
  if (attrs.empty()) {
    return partitions_.emplace(attrs, BuildByScan(attrs, &local))
        .first->second;
  }
  // Prefer merging from the smallest cached superset (fewest dropped
  // attributes, cheapest NULL recovery); partitions_ is an ordered map, so
  // ties resolve deterministically.
  const std::vector<AttrId>* super_attrs = nullptr;
  const Partition* super = nullptr;
  for (const auto& [cached_attrs, part] : partitions_) {
    if (cached_attrs.size() <= attrs.size()) continue;
    if (std::includes(cached_attrs.begin(), cached_attrs.end(), attrs.begin(),
                      attrs.end())) {
      if (!super_attrs || cached_attrs.size() < super_attrs->size()) {
        super_attrs = &cached_attrs;
        super = &part;
      }
    }
  }
  if (super) {
    ++local.partition_merges;
    Partition merged = MergeFrom(*super, *super_attrs, attrs);
    eval_counters::Add(local);
    return partitions_.emplace(attrs, std::move(merged)).first->second;
  }
  // No cached superset: refine from the partition on attrs ∩ base_eq
  // (derived recursively — it is the base partition, a merge of it, or the
  // trivial partition). Refining from the trivial partition is a full
  // grouping scan and is counted as a build.
  std::vector<AttrId> shared;
  std::set_intersection(attrs.begin(), attrs.end(), base_eq_.begin(),
                        base_eq_.end(), std::back_inserter(shared));
  if (shared.size() == attrs.size()) {
    // attrs ⊆ base_eq with no cached superset: only possible for the very
    // first request (the base partition itself) — a genuine scan.
    Partition built = BuildByScan(attrs, &local);
    eval_counters::Add(local);
    return partitions_.emplace(attrs, std::move(built)).first->second;
  }
  const Partition& coarse = GetOrDerive(shared);
  if (shared.empty()) {
    ++local.partition_builds;
  } else {
    ++local.partition_refines;
  }
  Partition refined = RefineFrom(coarse, shared, attrs);
  eval_counters::Add(local);
  return partitions_.emplace(attrs, std::move(refined)).first->second;
}

void EvalIndex::Prepare(const DenialConstraint& variant) {
  if (variant.predicates().empty()) return;
  if (variant.NumTupleVars() != base_.NumTupleVars()) return;  // fallback path
  if (variant.NumTupleVars() == 1) return;  // row memo needs no per-variant prep
  GetOrDerive(EqualityJoinAttrs(variant.predicates()));
}

void EvalIndex::SplitPredicates(const DenialConstraint& variant,
                                uint32_t* shared_mask,
                                std::vector<const Predicate*>* shared,
                                std::vector<const Predicate*>* delta) const {
  *shared_mask = 0;
  bool two_tuple = base_.NumTupleVars() == 2;
  for (const Predicate& p : variant.predicates()) {
    if (two_tuple && IsPartitionPredicate(p)) continue;  // partition-handled
    auto it = std::find(memo_preds_.begin(), memo_preds_.end(), p);
    if (it != memo_preds_.end()) {
      *shared_mask |= uint32_t{1} << (it - memo_preds_.begin());
      shared->push_back(&p);
    } else {
      delta->push_back(&p);
    }
  }
}

bool EvalIndex::ViolatedViaIndex(
    const std::vector<int>& rows, uint32_t shared_mask,
    const std::vector<EncodedPredicateEval>& shared,
    const std::vector<EncodedPredicateEval>& delta,
    EvalCounters* local) const {
  if (shared_mask != 0) {
    bool answered = false;
    if (base_.NumTupleVars() == 1) {
      if (row_memo_built_) {
        ++local->memo_hits;
        if ((row_memo_[static_cast<size_t>(rows[0])] & shared_mask) !=
            shared_mask) {
          return false;
        }
        answered = true;
      }
    } else if (pair_memo_built_) {
      auto it = pair_memo_.find(PairKey(rows[0], rows[1]));
      if (it != pair_memo_.end()) {
        ++local->memo_hits;
        if ((it->second & shared_mask) != shared_mask) return false;
        answered = true;
      }
    }
    if (!answered) {
      for (const EncodedPredicateEval& p : shared) {
        if (!EvalCounted(p, rows, local)) return false;
      }
    }
  }
  for (const EncodedPredicateEval& p : delta) {
    if (!EvalCounted(p, rows, local)) return false;
  }
  return true;
}

std::vector<Violation> EvalIndex::FindViolationsCapped(
    const DenialConstraint& variant, int constraint_index, int64_t cap,
    bool* truncated) const {
  std::vector<Violation> out;
  if (truncated) *truncated = false;
  if (variant.predicates().empty()) return out;
  if (variant.NumTupleVars() != base_.NumTupleVars()) {
    // A variant that dropped to a different arity (e.g. every remaining
    // predicate references one tuple variable) shares no scan structure
    // with the base; defer to the plain detector.
    return FindViolationsOfCapped(*E_, variant, constraint_index, cap,
                                  truncated);
  }
  uint32_t shared_mask = 0;
  std::vector<const Predicate*> shared_preds;
  std::vector<const Predicate*> delta_preds;
  SplitPredicates(variant, &shared_mask, &shared_preds, &delta_preds);
  // Compiled per call (not per pair): the evaluators only read the coded
  // columns, which keeps this scan valid across concurrent use.
  std::vector<EncodedPredicateEval> shared;
  std::vector<EncodedPredicateEval> delta;
  shared.reserve(shared_preds.size());
  for (const Predicate* p : shared_preds) shared.emplace_back(*E_, *p);
  delta.reserve(delta_preds.size());
  for (const Predicate* p : delta_preds) delta.emplace_back(*E_, *p);

  if (variant.NumTupleVars() == 1) {
    TraceSpan span("index/scan_rows");
    // Upfront zone skips from every constant predicate, shared or delta:
    // a block one of them cannot match holds no violating row (sound even
    // for memo-answered predicates — the memo would return the same
    // verdict). Consults are counted here, once per scan.
    std::vector<char> skip_block;
    struct Zone {
      scan_kernels::BlockPredicate bp;
      const int32_t* ranks;
      AttrId attr;
    };
    std::vector<Zone> zs;
    for (const std::vector<EncodedPredicateEval>* v : {&shared, &delta}) {
      for (const EncodedPredicateEval& pe : *v) {
        if (pe.is_constant()) {
          zs.push_back({scan_kernels::CompileConstant(pe.op(), pe.bounds()),
                        pe.ranks(), pe.lhs_attr()});
        }
      }
    }
    if (!zs.empty()) {
      int nb = E_->num_blocks();
      skip_block.assign(static_cast<size_t>(nb), 0);
      EvalCounters zc;
      for (int b = 0; b < nb; ++b) {
        bool may = true;
        for (const Zone& z : zs) {
          if (!scan_kernels::MayMatch(z.bp, E_->block_meta(z.attr, b),
                                      z.ranks)) {
            may = false;
            break;
          }
        }
        skip_block[static_cast<size_t>(b)] = !may;
        if (may) {
          ++zc.blocks_scanned;
        } else {
          ++zc.blocks_skipped;
        }
      }
      eval_counters::Add(zc);
    }
    auto row_skipped = [&](int i) {
      return !skip_block.empty() &&
             skip_block[static_cast<size_t>(i >> EncodedRelation::kBlockShift)];
    };
    std::vector<int> rows(1);
    EvalCounters local;
    bool hit_cap = false;
    for (int i = 0; i < n_; ++i) {
      if (row_skipped(i)) continue;
      rows[0] = i;
      if (ViolatedViaIndex(rows, shared_mask, shared, delta, &local)) {
        if (static_cast<int64_t>(out.size()) >= cap) {
          if (truncated) *truncated = true;
          hit_cap = true;
          break;
        }
        out.push_back({constraint_index, rows});
      }
    }
    eval_counters::AddScan(local, hit_cap);
    return out;
  }

  std::vector<AttrId> eq = EqualityJoinAttrs(variant.predicates());
  auto part_it = partitions_.find(eq);
  if (part_it == partitions_.end()) {
    // Prepare() was not called for this signature; stay correct.
    return FindViolationsOfCapped(*E_, variant, constraint_index, cap,
                                  truncated);
  }
  const Partition& part = part_it->second;

  // From here on the scan mirrors the detector's join-block scan: same
  // block order (sorted by first member), same capped prefix — only the
  // per-pair verdict comes from the index.
  std::vector<const std::vector<int>*> blocks;
  for (const std::vector<int>& members : part.blocks) {
    if (members.size() >= 2) blocks.push_back(&members);
  }
  TraceSpan span("index/scan_join_blocks");
  span.AddArg("blocks", static_cast<int64_t>(blocks.size()));
  std::vector<int> rows(2);
  EvalCounters local;
  // False once a violation past the cap turns up.
  auto scan_block = [&](const std::vector<int>& members) {
    for (int i : members) {
      for (int j : members) {
        if (i == j) continue;
        rows[0] = i;
        rows[1] = j;
        if (ViolatedViaIndex(rows, shared_mask, shared, delta, &local)) {
          if (static_cast<int64_t>(out.size()) >= cap) return false;
          out.push_back({constraint_index, rows});
        }
      }
    }
    return true;
  };
  bool hit_cap = false;
  for (const std::vector<int>* members : blocks) {
    if (!scan_block(*members)) {
      if (truncated) *truncated = true;
      hit_cap = true;
      break;
    }
  }
  eval_counters::AddScan(local, hit_cap);
  return out;
}

}  // namespace cvrepair
