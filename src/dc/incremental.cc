#include "dc/incremental.h"

#include <algorithm>

#include "dc/eval_counters.h"
#include "dc/predicate_space.h"
#include "dc/scan_internal.h"
#include "dc/scan_kernels.h"

namespace cvrepair {

namespace {

// A row's equality-join group hash: sentinel codes are negative (NULL/fv
// join keys cannot violate), and codes are stable under dictionary growth,
// so a row's group hash only changes when one of its keyed cells changes.
size_t HashCodes(const EncodedRelation& E, int row,
                 const std::vector<AttrId>& attrs, bool* usable) {
  *usable = true;
  size_t seed = 0x9e3779b97f4a7c15ULL;
  for (AttrId a : attrs) {
    Code c = E.code(row, a);
    if (c < 0) {
      *usable = false;
      return 0;
    }
    seed = seed * 1000003 ^ static_cast<size_t>(static_cast<uint32_t>(c));
  }
  return seed;
}

}  // namespace

ViolationIndex::ViolationIndex(const Relation& I, const ConstraintSet& sigma,
                               bool /*ignored*/)
    : relation_(I), sigma_(sigma), encoded_(relation_) {
  groups_.resize(sigma_.size());
  alive_by_constraint_.assign(sigma_.size(), 0);
  violation_epochs_.assign(sigma_.size(), 0);
  for (size_t k = 0; k < sigma_.size(); ++k) {
    if (sigma_[k].NumTupleVars() < 2) continue;
    groups_[k].attrs = EqualityJoinAttrs(sigma_[k].predicates());
    for (int i = 0; i < relation_.num_rows(); ++i) GroupInsert(k, i);
  }
  for (size_t k = 0; k < sigma_.size(); ++k) {
    std::vector<Violation> initial =
        FindViolationsOf(encoded_, sigma_[k], static_cast<int>(k));
    for (Violation& v : initial) AddViolation(std::move(v));
  }
  EnsureEvalsCurrent();
}

size_t ViolationIndex::GroupHash(size_t k, int row, bool* usable) const {
  return HashCodes(encoded_, row, groups_[k].attrs, usable);
}

void ViolationIndex::EnsureEvalsCurrent() {
  if (!evals_built_) {
    evals_.clear();
    evals_.reserve(sigma_.size());
    for (size_t k = 0; k < sigma_.size(); ++k) {
      evals_.emplace_back(encoded_, sigma_[k]);
    }
    evals_recompiled_ += static_cast<int64_t>(sigma_.size());
    evals_built_ = true;
    return;
  }
  // Recompile per constraint, keyed on the epochs each evaluator actually
  // cached: growth in a dictionary none of a constraint's predicates read
  // leaves that evaluator untouched.
  for (size_t k = 0; k < sigma_.size(); ++k) {
    if (evals_[k].valid_for(encoded_)) continue;
    evals_[k] = EncodedConstraintEval(encoded_, sigma_[k]);
    ++evals_recompiled_;
  }
}

void ViolationIndex::GroupInsert(size_t k, int row) {
  if (groups_[k].attrs.empty()) return;
  bool usable = false;
  size_t h = GroupHash(k, row, &usable);
  if (usable) groups_[k].rows_by_hash[h].push_back(row);
}

void ViolationIndex::GroupErase(size_t k, int row) {
  if (groups_[k].attrs.empty()) return;
  bool usable = false;
  size_t h = GroupHash(k, row, &usable);
  if (!usable) return;
  auto it = groups_[k].rows_by_hash.find(h);
  if (it == groups_[k].rows_by_hash.end()) return;
  auto& rows = it->second;
  rows.erase(std::remove(rows.begin(), rows.end(), row), rows.end());
  if (rows.empty()) groups_[k].rows_by_hash.erase(it);
}

void ViolationIndex::AddViolation(Violation v) {
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    store_[slot] = {std::move(v), true};
  } else {
    slot = static_cast<int>(store_.size());
    store_.push_back({std::move(v), true});
  }
  for (int row : store_[slot].violation.rows) {
    auto& ids = by_row_[row];
    if (ids.empty() || ids.back() != slot) ids.push_back(slot);
  }
  ++alive_count_;
  ++alive_by_constraint_[store_[slot].violation.constraint_index];
  ++violation_epochs_[store_[slot].violation.constraint_index];
}

void ViolationIndex::RemoveViolationsOfRow(int row) {
  auto it = by_row_.find(row);
  if (it == by_row_.end()) return;
  for (int slot : it->second) {
    StoredViolation& sv = store_[slot];
    if (!sv.alive) continue;
    bool involves = std::find(sv.violation.rows.begin(),
                              sv.violation.rows.end(),
                              row) != sv.violation.rows.end();
    if (!involves) continue;  // slot reused for another violation
    sv.alive = false;
    --alive_count_;
    --alive_by_constraint_[sv.violation.constraint_index];
    ++violation_epochs_[sv.violation.constraint_index];
    free_slots_.push_back(slot);
  }
  it->second.clear();
}

void ViolationIndex::ScanRow(size_t k, int row,
                             const std::vector<char>& skip_partner) {
  const EncodedConstraintEval& ev = evals_[k];
  ++rows_rechecked_;
  if (sigma_[k].NumTupleVars() < 2) {
    std::vector<int> rows = {row};
    if (ev.IsViolated(rows)) {
      AddViolation({static_cast<int>(k), rows});
    }
    return;
  }
  std::vector<int> rows(2);
  auto check = [&](int j) {
    if (j == row) return;
    if (skip_partner[static_cast<size_t>(j)]) {
      return;  // j's own scan already covered both orientations
    }
    rows[0] = row;
    rows[1] = j;
    if (ev.IsViolated(rows)) {
      AddViolation({static_cast<int>(k), rows});
    }
    rows[0] = j;
    rows[1] = row;
    if (ev.IsViolated(rows)) {
      AddViolation({static_cast<int>(k), rows});
    }
  };
  if (!groups_[k].attrs.empty()) {
    bool usable = false;
    size_t h = GroupHash(k, row, &usable);
    if (!usable) return;  // NULL/fv join key: cannot violate
    auto it = groups_[k].rows_by_hash.find(h);
    if (it == groups_[k].rows_by_hash.end()) return;
    // Hash collisions only add candidates; IsViolated validates.
    for (int j : it->second) check(j);
    return;
  }
  // Blocked partner loop (no equality join to narrow the candidates):
  // per pair orientation, the predicates the kernels can evaluate with
  // the partner varying — constants binding the partner's tuple variable
  // and same-attribute probes against this row's codes — first rule
  // whole partner blocks out through the zone maps (a block is skipped
  // only when *both* orientations are impossible); a surviving block
  // then runs one lead kernel per orientation so only matching lanes
  // reach the full re-check. Partners are visited in ascending j, (row, j)
  // before (j, row).
  const EncodedRelation& E = encoded_;
  std::vector<scan_internal::ZonePred> fwd, rev;  // partner binds t1 / t0
  scan_internal::BuildPartnerZones(E, ev.predicate_evals(), row,
                                   /*skip_attr=*/nullptr, &fwd, &rev);
  EvalCounters zc;
  uint64_t bm_fwd[EncodedRelation::kBlockSize / 64];
  uint64_t bm_rev[EncodedRelation::kBlockSize / 64];
  int nb = E.num_blocks();
  for (int b = 0; b < nb; ++b) {
    bool may_fwd = scan_internal::MayMatchAll(E, fwd, b);
    bool may_rev = scan_internal::MayMatchAll(E, rev, b);
    if (!fwd.empty() || !rev.empty()) {
      if (may_fwd || may_rev) {
        ++zc.blocks_scanned;
      } else {
        ++zc.blocks_skipped;
      }
    }
    if (!may_fwd && !may_rev) continue;
    int rows_in = E.block_rows(b);
    int begin = b << EncodedRelation::kBlockShift;
    const uint64_t* sel_fwd = nullptr;
    const uint64_t* sel_rev = nullptr;
    if (may_fwd && !fwd.empty()) {
      scan_kernels::EvalBlock(fwd.front().bp, E.block_codes(fwd.front().attr, b),
                              rows_in, fwd.front().ranks, bm_fwd);
      sel_fwd = bm_fwd;
    }
    if (may_rev && !rev.empty()) {
      scan_kernels::EvalBlock(rev.front().bp, E.block_codes(rev.front().attr, b),
                              rows_in, rev.front().ranks, bm_rev);
      sel_rev = bm_rev;
    }
    for (int x = 0; x < rows_in; ++x) {
      int j = begin + x;
      if (j == row || skip_partner[static_cast<size_t>(j)]) continue;
      if (may_fwd && (!sel_fwd || ((sel_fwd[x >> 6] >> (x & 63)) & 1))) {
        rows[0] = row;
        rows[1] = j;
        if (ev.IsViolated(rows)) AddViolation({static_cast<int>(k), rows});
      }
      if (may_rev && (!sel_rev || ((sel_rev[x >> 6] >> (x & 63)) & 1))) {
        rows[0] = j;
        rows[1] = row;
        if (ev.IsViolated(rows)) AddViolation({static_cast<int>(k), rows});
      }
    }
  }
  if (zc.blocks_scanned || zc.blocks_skipped) eval_counters::Add(zc);
}

void ViolationIndex::ApplyChange(const Cell& cell, Value value) {
  ApplyBatch({RowEdit::Update(cell.row, cell.attr, std::move(value))});
}

int ViolationIndex::AppendRowInternal(std::vector<Value> values) {
  int row = relation_.AddRow(std::move(values));
  encoded_.AppendRow();
  for (size_t k = 0; k < sigma_.size(); ++k) GroupInsert(k, row);
  return row;
}

std::vector<int> ViolationIndex::ApplyBatch(const std::vector<RowEdit>& edits) {
  // Phase 1 — mutate. Every edit updates the working copy, the coded
  // mirror, and the equality-join groups immediately (group keys must be
  // erased under the pre-edit values), but violation re-detection is
  // deferred: a row edited five times is re-scanned once.
  std::vector<int> touched;
  std::vector<char> is_touched(static_cast<size_t>(relation_.num_rows()), 0);
  auto mark = [&](int row) {
    if (row < static_cast<int>(is_touched.size()) &&
        is_touched[static_cast<size_t>(row)]) {
      return;
    }
    if (row >= static_cast<int>(is_touched.size())) {
      is_touched.resize(static_cast<size_t>(row) + 1, 0);
    }
    is_touched[static_cast<size_t>(row)] = 1;
    touched.push_back(row);
    RemoveViolationsOfRow(row);
  };
  for (const RowEdit& e : edits) {
    if (e.insert) {
      mark(AppendRowInternal(e.values));
      continue;
    }
    mark(e.row);
    for (size_t k = 0; k < sigma_.size(); ++k) {
      if (std::find(groups_[k].attrs.begin(), groups_[k].attrs.end(),
                    e.attr) != groups_[k].attrs.end()) {
        GroupErase(k, e.row);
      }
    }
    relation_.SetValue(e.row, e.attr, e.value);
    encoded_.ApplyChange(e.row, e.attr);
    for (size_t k = 0; k < sigma_.size(); ++k) {
      if (std::find(groups_[k].attrs.begin(), groups_[k].attrs.end(),
                    e.attr) != groups_[k].attrs.end()) {
        GroupInsert(k, e.row);
      }
    }
  }
  // Phase 2 — re-detect. Each touched row is scanned once against the
  // final state; a pair of touched rows is fully covered (both
  // orientations) by whichever of them scans first, so the second skips
  // it instead of duplicating the violation.
  EnsureEvalsCurrent();
  std::sort(touched.begin(), touched.end());
  std::vector<char> scanned(static_cast<size_t>(relation_.num_rows()), 0);
  for (int row : touched) {
    for (size_t k = 0; k < sigma_.size(); ++k) ScanRow(k, row, scanned);
    scanned[static_cast<size_t>(row)] = 1;
  }
  return touched;
}

std::vector<Violation> ViolationIndex::CurrentViolations() {
  std::vector<Violation> out;
  out.reserve(alive_count_);
  for (const StoredViolation& sv : store_) {
    if (sv.alive) out.push_back(sv.violation);
  }
  // Deterministic order regardless of maintenance history.
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.constraint_index != b.constraint_index) {
                return a.constraint_index < b.constraint_index;
              }
              return a.rows < b.rows;
            });
  return out;
}

std::vector<Violation> ViolationIndex::ViolationsOf(int k) const {
  std::vector<Violation> out;
  out.reserve(static_cast<size_t>(alive_by_constraint_[k]));
  for (const StoredViolation& sv : store_) {
    if (sv.alive && sv.violation.constraint_index == k) {
      out.push_back(sv.violation);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              return a.rows < b.rows;
            });
  return out;
}

bool ViolationIndex::HasViolations() { return alive_count_ > 0; }

}  // namespace cvrepair
