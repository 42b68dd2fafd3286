#include "solver/repair_context.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "relation/encoded.h"

namespace cvrepair {

namespace {

// Collects the atoms of one repair context as they arrive. Most arrivals
// repeat an atom already collected (the same predicate reached through
// another suspect, orientation or constraint of Σ'), so an exact duplicate
// is dropped on an integer key before any Value is copied:
//
//   * a var-var atom keys on (lhs var, op, rhs var);
//   * a DC constant on (lhs var, op, constraint, predicate);
//   * a fixed cell's value on (lhs var, op, attribute, dictionary code,
//     ValueKind) — codes are EvalOp-equality classes, so the kind keeps
//     Int(1) and Double(1.0) apart, as Value::operator== does. An Int of
//     magnitude 2^53 or more is not keyed: one code can hold two of them.
//
// Kept atoms go into a vector that Finish stable-sorts and deduplicates, so
// equal atoms the keys cannot see (one value from two attributes, a
// constant equal to a cell value) collapse there, and of equal atoms the
// first arrival stays, as in an ordered set. A numeric bound atom (>, >=,
// <, <= against a numeric constant) skips the keys — almost every bound is
// a distinct value — and competes for its (variable, operator) slot, which
// keeps the tightest bound and, among equally tight ones, the smallest
// RcAtom: the atom a pass over the sorted, deduplicated atoms would keep,
// whatever the arrival order.
class AtomCollector {
 public:
  // `E` mirrors the instance and supplies the dictionary codes. The key
  // table starts at a few slots per variable of C and doubles as it fills,
  // so a small changing set keeps a small table.
  AtomCollector(const EncodedRelation& E, size_t num_vars)
      : I_(E.relation()), E_(E) {
    size_t slots = 16;
    while (slots < 8 * num_vars) slots *= 2;
    keys_.assign(slots, Key{});
  }

  // The inverse of a two-cell predicate between two variables, lhs < rhs.
  void AddVars(int lhs, Op op, int rhs) {
    if (!Insert(MakeKey(lhs, op, kVarTag, static_cast<uint32_t>(rhs)))) return;
    atoms_.push_back(RcAtom{lhs, op, true, rhs, {}});
  }

  // `var op c` for the constant of predicate `predicate` of constraint
  // `constraint`.
  void AddConstant(int var, Op op, int constraint, size_t predicate,
                   const Value& c) {
    if (c.is_null() || c.is_fresh()) return;
    if (IsBound(op, c)) {
      AddBound(var, op, c);
      return;
    }
    const uint64_t where = (static_cast<uint64_t>(constraint) << 32) |
                           static_cast<uint64_t>(predicate);
    if (!Insert(MakeKey(var, op, kConstantTag, where))) return;
    atoms_.push_back(RcAtom{var, op, false, 0, c});
  }

  // `var op I(fixed)` for a cell outside C.
  void AddCell(int var, Op op, const Cell& fixed) {
    const Value& v = I_.Get(fixed);
    // A NULL/fv fixed operand makes the original predicate
    // unconditionally false, so the inverse constraint is vacuous.
    if (v.is_null() || v.is_fresh()) return;
    if (IsBound(op, v)) {
      AddBound(var, op, v);
      return;
    }
    if (Keyable(v)) {
      const uint64_t code =
          static_cast<uint32_t>(E_.code(fixed.row, fixed.attr));
      assert(fixed.attr < (1 << 24));
      const uint64_t where = (static_cast<uint64_t>(fixed.attr) << 40) |
                             (code << 8) | static_cast<uint64_t>(v.kind());
      if (!Insert(MakeKey(var, op, kCellTag, where))) return;
    }
    atoms_.push_back(RcAtom{var, op, false, 0, v});
  }

  // Arrivals the keys dropped as exact duplicates.
  int64_t duplicates() const { return duplicates_; }

  // The collected atoms in ascending RcAtom order.
  std::vector<RcAtom> Finish() {
    std::vector<RcAtom> out = std::move(atoms_);
    for (auto& [var, slots] : bounds_) {
      (void)var;
      for (std::optional<RcAtom>& a : slots) {
        if (a) out.push_back(std::move(*a));
      }
    }
    std::stable_sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  // hi = (lhs var, tag, op), lo = the rest of the key; hi == 0 marks an
  // empty slot (every tag is nonzero).
  struct Key {
    uint64_t hi = 0;
    uint64_t lo = 0;
  };
  static constexpr uint64_t kVarTag = 1;
  static constexpr uint64_t kConstantTag = 2;
  static constexpr uint64_t kCellTag = 3;

  static Key MakeKey(int var, Op op, uint64_t tag, uint64_t lo) {
    return {(static_cast<uint64_t>(static_cast<uint32_t>(var)) << 32) |
                (tag << 8) | static_cast<uint64_t>(op),
            lo};
  }

  static uint64_t Hash(const Key& k) {
    uint64_t h = k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
  }

  // True iff `k` was not in the table (and now is); counts a duplicate
  // otherwise. Open addressing at load factor <= 1/2.
  bool Insert(const Key& k) {
    const size_t mask = keys_.size() - 1;
    size_t slot = static_cast<size_t>(Hash(k)) & mask;
    for (; keys_[slot].hi != 0; slot = (slot + 1) & mask) {
      if (keys_[slot].hi == k.hi && keys_[slot].lo == k.lo) {
        ++duplicates_;
        return false;
      }
    }
    keys_[slot] = k;
    if (2 * ++used_ > keys_.size()) Grow();
    return true;
  }

  void Grow() {
    const std::vector<Key> old =
        std::exchange(keys_, std::vector<Key>(keys_.size() * 2));
    const size_t mask = keys_.size() - 1;
    for (const Key& k : old) {
      if (k.hi == 0) continue;
      size_t slot = static_cast<size_t>(Hash(k)) & mask;
      while (keys_[slot].hi != 0) slot = (slot + 1) & mask;
      keys_[slot] = k;
    }
  }

  // An Int's code identifies it only below 2^53 in magnitude, where the
  // double widening EvalOp compares by is exact.
  static bool Keyable(const Value& v) {
    if (v.kind() != ValueKind::kInt) return true;
    constexpr int64_t kExact = int64_t{1} << 53;
    return v.as_int() > -kExact && v.as_int() < kExact;
  }

  static bool IsBound(Op op, const Value& c) {
    return c.is_numeric() && BoundSlot(op) >= 0;
  }

  // 0..3 for >, >=, <, <=; -1 otherwise.
  static int BoundSlot(Op op) {
    switch (op) {
      case Op::kGt:
        return 0;
      case Op::kGeq:
        return 1;
      case Op::kLt:
        return 2;
      case Op::kLeq:
        return 3;
      default:
        return -1;
    }
  }

  // Numeric bound `var op c` into its slot if it is tighter than the
  // incumbent, or equally tight and the smaller RcAtom (the atoms differ
  // only in their constants then).
  void AddBound(int var, Op op, const Value& c) {
    std::optional<RcAtom>& best = bounds_[var][BoundSlot(op)];
    if (best) {
      const double x = c.numeric();
      const double y = best->rhs_const.numeric();
      const bool lower = op == Op::kGt || op == Op::kGeq;
      if (lower ? x < y : x > y) return;             // looser
      if (x == y && !(c < best->rhs_const)) return;  // not smaller
    }
    best = RcAtom{var, op, false, 0, c};
  }

  const Relation& I_;
  const EncodedRelation& E_;
  std::vector<Key> keys_;
  size_t used_ = 0;
  int64_t duplicates_ = 0;
  std::vector<RcAtom> atoms_;
  std::unordered_map<int, std::array<std::optional<RcAtom>, 4>> bounds_;
};

// Adds the atoms suspect `s` contributes to rc(C, Σ): the inverse of each
// predicate of its constraint that touches a changing cell; predicates
// between two non-changing cells belong to the suspect condition. `var_of`
// is RepairContext::SetCells' dense variable-id array of I.
void CollectSuspectAtoms(const Relation& I, const ConstraintSet& sigma,
                         const std::vector<int>& var_of, const Violation& s,
                         AtomCollector* atoms) {
  const size_t m = static_cast<size_t>(I.num_attributes());
  auto var = [&](const Cell& cell) {
    return var_of[static_cast<size_t>(cell.row) * m + cell.attr];
  };
  const std::vector<Predicate>& preds =
      sigma[s.constraint_index].predicates();
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    const Predicate& p = preds[pi];
    const Cell lhs{s.rows[p.lhs().tuple], p.lhs().attr};
    const int lv = var(lhs);
    const Op inv = Inverse(p.op());
    if (p.has_constant()) {
      if (lv >= 0) {
        atoms->AddConstant(lv, inv, s.constraint_index, pi, p.constant());
      }
      continue;
    }
    const Cell rhs{s.rows[p.rhs_cell().tuple], p.rhs_cell().attr};
    const int rv = var(rhs);
    if (lv >= 0 && rv >= 0) {
      if (lv == rv) continue;  // degenerate self-comparison
      // Canonical order: smaller var id on the left.
      if (lv < rv) {
        atoms->AddVars(lv, inv, rv);
      } else {
        atoms->AddVars(rv, FlipOperands(inv), lv);
      }
    } else if (lv >= 0) {
      atoms->AddCell(lv, inv, rhs);
    } else if (rv >= 0) {
      // I(lhs) inv I'(rhs)  ==>  I'(rhs) flip(inv) I(lhs)
      atoms->AddCell(rv, FlipOperands(inv), lhs);
    }
  }
}

}  // namespace

std::vector<int> RepairContext::SetCells(const std::vector<Cell>& changing,
                                         int num_rows, int num_attributes) {
  cells_ = changing;
  std::sort(cells_.begin(), cells_.end());
  cells_.erase(std::unique(cells_.begin(), cells_.end()), cells_.end());
  const size_t m = static_cast<size_t>(num_attributes);
  std::vector<int> var_of(static_cast<size_t>(num_rows) * m, -1);
  for (int v = 0; v < static_cast<int>(cells_.size()); ++v) {
    const Cell& cell = cells_[v];
    assert(cell.row >= 0 && cell.row < num_rows && cell.attr >= 0 &&
           cell.attr < num_attributes);  // C ⊆ cells(I)
    var_of[static_cast<size_t>(cell.row) * m + cell.attr] = v;
  }
  return var_of;
}

template <typename Suspects>
RepairContext RepairContext::Collect(const EncodedRelation& E,
                                     const ConstraintSet& sigma,
                                     const std::vector<Cell>& changing,
                                     const Suspects& for_each_suspect,
                                     int64_t* duplicate_atoms) {
  assert(E.in_sync());
  const Relation& I = E.relation();
  RepairContext rc;
  const std::vector<int> var_of =
      rc.SetCells(changing, I.num_rows(), I.num_attributes());
  AtomCollector atoms(E, rc.cells_.size());
  for_each_suspect(rc.cells_, [&](const Violation& s) {
    CollectSuspectAtoms(I, sigma, var_of, s, &atoms);
  });
  rc.atoms_ = atoms.Finish();
  if (duplicate_atoms) *duplicate_atoms = atoms.duplicates();
  return rc;
}

RepairContext RepairContext::Build(const Relation& I,
                                   const ConstraintSet& sigma,
                                   const std::vector<Cell>& changing,
                                   const std::vector<Violation>& suspects) {
  return Build(EncodedRelation(I), sigma, changing, suspects);
}

RepairContext RepairContext::Build(const EncodedRelation& E,
                                   const ConstraintSet& sigma,
                                   const std::vector<Cell>& changing,
                                   const std::vector<Violation>& suspects) {
  return Collect(E, sigma, changing,
                 [&](const std::vector<Cell>&, const auto& visit) {
                   for (const Violation& s : suspects) visit(s);
                 },
                 nullptr);
}

RepairContext RepairContext::BuildFromScan(const EncodedRelation& E,
                                           const ConstraintSet& sigma,
                                           const std::vector<Cell>& changing,
                                           int64_t* suspects,
                                           int64_t* duplicate_atoms,
                                           EvalCounters* zone_counts) {
  int64_t count = 0;
  RepairContext rc = Collect(
      E, sigma, changing,
      [&](const std::vector<Cell>& cells, const auto& visit) {
        ForEachSuspect(
            E, sigma, cells,
            [&](const Violation& s) {
              ++count;
              visit(s);
            },
            zone_counts);
      },
      duplicate_atoms);
  if (suspects) *suspects = count;
  return rc;
}

std::string RepairContext::ToString(const Relation& I) const {
  const Schema& schema = I.schema();
  std::ostringstream os;
  auto cell_name = [&](const Cell& c) {
    return "t" + std::to_string(c.row) + "." + schema.name(c.attr);
  };
  for (const RcAtom& a : atoms_) {
    os << "I'(" << cell_name(cells_[a.lhs_var]) << ")" << OpToString(a.op);
    if (a.rhs_is_var) {
      os << "I'(" << cell_name(cells_[a.rhs_var]) << ")";
    } else {
      os << a.rhs_const.ToString();
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cvrepair
