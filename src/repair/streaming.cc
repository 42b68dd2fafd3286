#include "repair/streaming.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <utility>

#include "dc/predicate_space.h"
#include "graph/bounds.h"
#include "graph/conflict_hypergraph.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

/// Cached "stream." counter handles (handles are stable for the process
/// lifetime; ResetAll only zeroes values).
struct StreamCounters {
  MetricCounter* batches;
  MetricCounter* edits;
  MetricCounter* rows_ingested;
  MetricCounter* rows_rechecked;
  MetricCounter* components_resolved;
  MetricCounter* cells_changed;
  MetricCounter* variant_reopens;
  MetricCounter* bound_updates;
  MetricCounter* cache_invalidations;

  static const StreamCounters& Get() {
    static StreamCounters c = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      StreamCounters out;
      out.batches = r.GetCounter("stream.batches");
      out.edits = r.GetCounter("stream.edits");
      out.rows_ingested = r.GetCounter("stream.rows_ingested");
      out.rows_rechecked = r.GetCounter("stream.rows_rechecked");
      out.components_resolved = r.GetCounter("stream.components_resolved");
      out.cells_changed = r.GetCounter("stream.cells_changed");
      out.variant_reopens = r.GetCounter("stream.variant_reopens");
      out.bound_updates = r.GetCounter("stream.bound_updates");
      out.cache_invalidations = r.GetCounter("stream.cache_invalidations");
      return out;
    }();
    return c;
  }
};

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// FNV-1a over the shard-key values of a row. Deliberately not Value::Hash
/// or std::hash: the shard a row lands in decides which index detects its
/// violations, and the serve CI baselines pin exact per-shard counts, so
/// the hash must be identical across standard libraries and platforms.
/// Numerics hash their canonical double bit pattern (Int 5 and Double 5.0
/// satisfy the same equality predicates, so they must share a shard; -0.0
/// is folded into +0.0 for the same reason); strings hash their bytes.
uint64_t HashKeyValue(uint64_t h, const Value& v) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  auto mix_byte = [&](unsigned char b) {
    h ^= b;
    h *= kPrime;
  };
  if (v.is_numeric()) {
    mix_byte('n');
    double d = v.numeric();
    if (d == 0.0) d = 0.0;  // fold -0.0
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &d, sizeof(double));
    for (unsigned char b : bytes) mix_byte(b);
  } else {
    mix_byte('s');
    for (char c : v.ToString()) mix_byte(static_cast<unsigned char>(c));
  }
  return h;
}

/// A tombstoned (deleted) row: every cell NULL — what the delete and
/// hybrid repair strategies leave behind (repair/subset.h). Such a row
/// satisfies no predicate, so no index can ever implicate it in a
/// violation again; its shard placement is irrelevant for detection.
bool IsTombstone(const Relation& I, int row) {
  for (AttrId a = 0; a < I.num_attributes(); ++a) {
    if (!I.Get(row, a).is_null()) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// VariantTracker

VariantTracker::VariantTracker(const Relation& dirty,
                               const ConstraintSet& sigma,
                               const CVTolerantOptions& options)
    : sigma_(sigma), options_(options) {
  TraceSpan span("stream/variant_tracker_build");
  // CVTolerantRepair's enumeration; the family is enumerated once, against
  // the stream's starting dirty instance, and stays fixed for the
  // tracker's lifetime.
  variants_ = EnumerateVariants(dirty, sigma_, options_);

  auto enqueue = [&](const DenialConstraint& c) {
    auto [it, inserted] = family_pos_.try_emplace(c, family_.size());
    if (inserted) family_.push_back(c);
    return it->second;
  };
  for (const DenialConstraint& phi : sigma_) enqueue(phi);
  members_.resize(variants_.size());
  for (size_t vi = 0; vi < variants_.size(); ++vi) {
    for (const DenialConstraint& phi : variants_[vi].constraints) {
      members_[vi].push_back(enqueue(phi));
    }
  }
  span.AddArg("family", static_cast<int64_t>(family_.size()));

  index_ = std::make_unique<ViolationIndex>(dirty, family_);
  facts_.resize(family_.size());
  seen_epochs_.assign(family_.size(), -1);
  changed_gen_.assign(family_.size(), 0);
  solved_costs_.assign(variants_.size(),
                       std::numeric_limits<double>::quiet_NaN());
  solved_gen_.assign(variants_.size(), -1);
  abort_bounds_.assign(variants_.size(),
                       std::numeric_limits<double>::quiet_NaN());
  abort_gen_.assign(variants_.size(), -1);
  for (size_t k = 0; k < family_.size(); ++k) RefreshFacts(k);
}

int64_t VariantTracker::ViolationCap() const {
  return options_.max_violations_per_tuple > 0
             ? static_cast<int64_t>(
                   options_.max_violations_per_tuple *
                   std::max(index_->relation().num_rows(), 1))
             : std::numeric_limits<int64_t>::max();
}

void VariantTracker::RefreshFacts(size_t k) {
  VariantFacts& f = facts_[k];
  f = VariantFacts{};
  if (index_->ViolationCountOf(static_cast<int>(k)) > ViolationCap()) {
    // Mirrors the exact-cap semantics of FindViolationsOfCapped: strictly
    // more violations than the cap is hopeless.
    f.hopeless = true;
    f.delta_l = std::numeric_limits<double>::infinity();
    f.delta_u = std::numeric_limits<double>::infinity();
  } else {
    f.violations = index_->ViolationsOf(static_cast<int>(k));
    // Facts carry position-free violations (constraint_index 0), exactly
    // like the per-constraint scans of ScanVariantFacts; the search
    // re-stamps candidate positions when it assembles a union set.
    for (Violation& v : f.violations) v.constraint_index = 0;
    if (!f.violations.empty()) {
      ConflictHypergraph g = ConflictHypergraph::Build(
          index_->relation(), {family_[k]}, f.violations, options_.vfree.cost);
      RepairCostBounds bounds = ComputeBounds(
          g, family_[k].Degree(), options_.vfree.cost, options_.vfree.cover);
      f.delta_l = bounds.lower;
      f.delta_u = bounds.upper;
    }
  }
  seen_epochs_[k] = index_->ViolationEpochOf(static_cast<int>(k));
  changed_gen_[k] = generation_;
}

int VariantTracker::Ingest(const std::vector<RowEdit>& edits) {
  TraceSpan span("stream/tracker_ingest");
  // Drop updates that rewrite a cell of D with its current value: the
  // index's kill-and-rescan of a touched row bumps violation epochs even
  // when the violation set comes back unchanged, and a no-op edit must not
  // invalidate solved-cost bounds (the quiet-batch drift test pins this).
  std::vector<RowEdit> changing;
  changing.reserve(edits.size());
  std::set<std::pair<int, AttrId>> edited;  // cells rewritten earlier in batch
  for (const RowEdit& e : edits) {
    // Only the first edit of a cell can be judged against the pre-batch
    // state; later ones see whatever the earlier edit left behind.
    if (!e.insert && e.row < index_->relation().num_rows() &&
        edited.insert({e.row, e.attr}).second &&
        index_->relation().Get(e.row, e.attr) == e.value) {
      continue;
    }
    changing.push_back(e);
  }
  index_->ApplyBatch(changing);
  ++generation_;
  int updates = 0;
  const int64_t cap = ViolationCap();
  for (size_t k = 0; k < family_.size(); ++k) {
    const bool epoch_moved =
        index_->ViolationEpochOf(static_cast<int>(k)) != seen_epochs_[k];
    // Inserts grow the violation cap, so a hopeless verdict can flip even
    // when the constraint's violation set did not change.
    const bool hopeless_now =
        index_->ViolationCountOf(static_cast<int>(k)) > cap;
    if (!epoch_moved && hopeless_now == facts_[k].hopeless) continue;
    RefreshFacts(k);
    ++updates;
  }
  span.AddArg("bound_updates", updates);
  return updates;
}

void VariantTracker::RecordSearch(const VariantSearchResult& result) {
  for (size_t vi = 0; vi < variants_.size(); ++vi) {
    if (vi < result.solved_costs.size() &&
        !std::isnan(result.solved_costs[vi])) {
      solved_costs_[vi] = result.solved_costs[vi];
      solved_gen_[vi] = generation_;
    }
    if (vi < result.abort_bounds.size() &&
        !std::isnan(result.abort_bounds[vi])) {
      abort_bounds_[vi] = result.abort_bounds[vi];
      abort_gen_[vi] = generation_;
    }
  }
}

double VariantTracker::BestRivalBound(const ConstraintSet& incumbent) const {
  double best = std::numeric_limits<double>::infinity();
  for (size_t vi = 0; vi < variants_.size(); ++vi) {
    if (variants_[vi].constraints == incumbent) continue;
    double lb = 0.0;
    bool hopeless = false;
    bool solved_valid = solved_gen_[vi] >= 0 && !std::isnan(solved_costs_[vi]);
    bool abort_valid = abort_gen_[vi] >= 0 && !std::isnan(abort_bounds_[vi]);
    for (size_t k : members_[vi]) {
      hopeless |= facts_[k].hopeless;
      lb = std::max(lb, facts_[k].delta_l);
      // A recorded realized cost (or abort threshold) holds only while
      // every member's facts are unchanged since the search that produced
      // it.
      solved_valid &= changed_gen_[k] <= solved_gen_[vi];
      abort_valid &= changed_gen_[k] <= abort_gen_[vi];
    }
    if (hopeless) continue;
    if (solved_valid) lb = std::max(lb, solved_costs_[vi]);
    if (abort_valid) lb = std::max(lb, abort_bounds_[vi]);
    best = std::min(best, lb);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Shard planning

ShardPlan PlanShards(const ConstraintSet& variant) {
  ShardPlan plan;
  // Candidate keys: every two-tuple constraint's non-empty equality-join
  // attribute set, plus each of its single-attribute subsets (a smaller key
  // can cover constraints whose full sets differ but intersect).
  std::set<std::vector<AttrId>> candidates;
  std::vector<std::vector<AttrId>> eq_sets(variant.size());
  for (size_t k = 0; k < variant.size(); ++k) {
    if (variant[k].NumTupleVars() < 2) continue;
    eq_sets[k] = EqualityJoinAttrs(variant[k].predicates());
    if (eq_sets[k].empty()) continue;
    candidates.insert(eq_sets[k]);
    for (AttrId a : eq_sets[k]) candidates.insert({a});
  }
  // Winner: localizes the most two-tuple constraints (its attributes are a
  // subset of the constraint's equality-join set); ties prefer fewer key
  // attributes, then the lexicographically smaller set — all deterministic.
  int best_score = 0;
  for (const std::vector<AttrId>& key : candidates) {
    int score = 0;
    for (size_t k = 0; k < variant.size(); ++k) {
      if (variant[k].NumTupleVars() < 2) continue;
      if (std::includes(eq_sets[k].begin(), eq_sets[k].end(), key.begin(),
                        key.end())) {
        ++score;
      }
    }
    const bool wins =
        score > best_score ||
        (score == best_score && score > 0 &&
         (key.size() < plan.key.size() ||
          (key.size() == plan.key.size() && key < plan.key)));
    if (wins) {
      best_score = score;
      plan.key = key;
    }
  }
  for (size_t k = 0; k < variant.size(); ++k) {
    const bool is_local =
        variant[k].NumTupleVars() < 2 ||
        (!plan.key.empty() &&
         std::includes(eq_sets[k].begin(), eq_sets[k].end(), plan.key.begin(),
                       plan.key.end()));
    (is_local ? plan.local : plan.straddling).push_back(static_cast<int>(k));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// StreamingRepairer

StreamingRepairer::StreamingRepairer(const Relation& I,
                                     const ConstraintSet& sigma,
                                     const StreamingOptions& options)
    : options_(options) {
  TraceSpan span("stream/initial_repair");
  options_.num_shards = std::max(1, options_.num_shards);
  span.AddArg("shards", static_cast<int64_t>(options_.num_shards));
  RepairResult initial;
  if (options_.reopen_variants) {
    // The unfrozen path runs the factored search over tracker-maintained
    // facts from the start, so every later reopen — and the from-scratch
    // twin the drift tests compare against — goes through the identical
    // candidate loop. The Σ fallback and the stats are CVTolerantRepair's.
    tracker_ = std::make_unique<VariantTracker>(I, sigma, options_.repair);
    RepairStats stats;
    VariantSearchResult sr = CVTolerantSearchWithFacts(
        I, sigma, tracker_->variants(), tracker_->FactsFn(), options_.repair,
        &fresh_counter_, tracker_->encoded(), &stats);
    tracker_->RecordSearch(sr);
    initial =
        FinishCVTolerantRepair(I, sigma, std::move(sr), options_.repair, stats);
    realized_cost_ = initial.stats.repair_cost;
  } else {
    initial = CVTolerantRepair(I, sigma, options_.repair);
  }
  variant_ = initial.satisfied_constraints;
  initial_stats_ = initial.stats;
  Adopt(initial.repaired);
}

void StreamingRepairer::Adopt(const Relation& repaired) {
  // Continue fresh ids above any the adopted instance holds (the Σ
  // fallback draws its own from 1), so streamed fixes never alias an
  // existing fv.
  for (int r = 0; r < repaired.num_rows(); ++r) {
    for (AttrId a = 0; a < repaired.num_attributes(); ++a) {
      const Value& v = repaired.Get(r, a);
      if (v.is_fresh()) {
        fresh_counter_ = std::max(fresh_counter_, v.fresh_id() + 1);
      }
    }
  }
  // The replaced indexes' re-scans stay counted, so rows_rechecked is
  // monotone across a variant switch.
  if (master_) retired_rechecked_ = RowsRechecked();
  shards_.clear();
  if (options_.num_shards == 1) {
    master_ = std::make_unique<ViolationIndex>(repaired, variant_);
    return;
  }
  plan_ = PlanShards(variant_);
  local_sigma_.clear();
  ConstraintSet straddling_sigma;
  for (int k : plan_.local) local_sigma_.push_back(variant_[k]);
  for (int k : plan_.straddling) straddling_sigma.push_back(variant_[k]);
  master_ = std::make_unique<ViolationIndex>(repaired, straddling_sigma);
  home_.resize(static_cast<size_t>(repaired.num_rows()));
  for (int r = 0; r < repaired.num_rows(); ++r) {
    home_[static_cast<size_t>(r)] = RouteOf(r);
  }
  shards_.resize(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) RebuildShard(s);
}

int StreamingRepairer::RouteOf(int row) const {
  const int num_shards = options_.num_shards;
  if (!plan_.key.empty()) {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    bool concrete = true;
    for (AttrId a : plan_.key) {
      const Value& v = master_->relation().Get(row, a);
      if (v.is_null() || v.is_fresh()) {
        concrete = false;
        break;
      }
      h = HashKeyValue(h, v);
    }
    if (concrete) {
      return static_cast<int>(h % static_cast<uint64_t>(num_shards));
    }
  }
  return row % num_shards;
}

void StreamingRepairer::RebuildShard(int s) {
  Shard& shard = shards_[static_cast<size_t>(s)];
  if (shard.index != nullptr) {
    shard.retired_rechecked += shard.index->rows_rechecked();
  }
  shard.rows.clear();
  shard.local_of.clear();
  const Relation& master = master_->relation();
  Relation sub(master.schema());
  for (int r = 0; r < master.num_rows(); ++r) {
    if (home_[static_cast<size_t>(r)] != s) continue;
    shard.local_of.emplace(r, static_cast<int>(shard.rows.size()));
    shard.rows.push_back(r);
    sub.AddRow(master.row(r));
  }
  shard.index = std::make_unique<ViolationIndex>(sub, local_sigma_);
}

bool StreamingRepairer::IsViolationFree() const {
  if (master_->HasViolations()) return false;
  for (const Shard& shard : shards_) {
    if (shard.index->HasViolations()) return false;
  }
  return true;
}

int64_t StreamingRepairer::RowsRechecked() const {
  int64_t total = retired_rechecked_ + master_->rows_rechecked();
  for (const Shard& shard : shards_) {
    total += shard.retired_rechecked + shard.index->rows_rechecked();
  }
  return total;
}

std::vector<char> StreamingRepairer::Rehome(const std::vector<int>& rows,
                                            int old_rows,
                                            StreamBatchResult* out) {
  // Inserted rows join their shard, and other rows whose key cells now
  // hash elsewhere migrate. A migration invalidates the source shard's
  // sub-relation (ViolationIndex has no row removal), so both endpoints
  // rebuild from the master copy. A tombstoned row keeps the home it died
  // in: its all-NULL cells can never join a violation again, and moving it
  // to the round-robin slot its NULL key falls back to would rebuild two
  // shards per deletion — under the delete strategy nearly every batch
  // deletes.
  const Relation& master = master_->relation();
  home_.resize(static_cast<size_t>(master.num_rows()), -1);
  std::vector<char> rebuild(static_cast<size_t>(options_.num_shards), 0);
  for (int r : rows) {
    const int target = RouteOf(r);
    int& home = home_[static_cast<size_t>(r)];
    if (r >= old_rows) {
      home = target;
    } else if (home != target && !IsTombstone(master, r)) {
      rebuild[static_cast<size_t>(home)] = 1;
      rebuild[static_cast<size_t>(target)] = 1;
      home = target;
      ++out->rows_migrated;
    }
  }
  return rebuild;
}

void StreamingRepairer::SyncShards(const std::vector<int>& touched,
                                   int old_rows,
                                   const std::vector<char>& rebuild) {
  // Each shard catches up independently (a thread-pool slice each; the
  // master copy is read-only here). Synthesized per-shard edits carry the
  // master's post-batch values, so repeated edits of one cell collapse and
  // shard state converges to the master's regardless of in-batch ordering.
  const Relation& master = master_->relation();
  ThreadPool::ParallelFor(
      options_.num_shards,
      [&](int64_t si) {
        const int s = static_cast<int>(si);
        if (rebuild[static_cast<size_t>(s)] != 0) {
          RebuildShard(s);
          return;
        }
        Shard& shard = shards_[static_cast<size_t>(s)];
        std::vector<RowEdit> shard_edits;
        for (int r : touched) {
          if (r < old_rows || home_[static_cast<size_t>(r)] != s) continue;
          shard.local_of.emplace(r, static_cast<int>(shard.rows.size()));
          shard.rows.push_back(r);
          shard_edits.push_back(RowEdit::Insert(master.row(r)));
        }
        for (int r : touched) {
          if (r >= old_rows || home_[static_cast<size_t>(r)] != s) continue;
          const int local = shard.local_of.at(r);
          for (AttrId a = 0; a < master.num_attributes(); ++a) {
            const Value& now = master.Get(r, a);
            if (shard.index->relation().Get(local, a) == now) continue;
            shard_edits.push_back(RowEdit::Update(local, a, now));
          }
        }
        if (!shard_edits.empty()) shard.index->ApplyBatch(shard_edits);
      },
      options_.repair.threads);
}

std::vector<Violation> StreamingRepairer::CollectViolations() {
  std::vector<Violation> out = master_->CurrentViolations();
  if (shards_.empty()) return out;
  for (Violation& v : out) {
    v.constraint_index =
        plan_.straddling[static_cast<size_t>(v.constraint_index)];
  }
  for (Shard& shard : shards_) {
    for (Violation& v : shard.index->CurrentViolations()) {
      v.constraint_index =
          plan_.local[static_cast<size_t>(v.constraint_index)];
      for (int& row : v.rows) row = shard.rows[static_cast<size_t>(row)];
      out.push_back(std::move(v));
    }
  }
  CanonicalizeViolations(&out);
  return out;
}

void StreamingRepairer::CountComponents(
    const std::vector<Violation>& violations, StreamBatchResult* out) const {
  // Union-find over the violations' rows; a component spans shards when
  // its rows have two homes.
  std::unordered_map<int, int> parent;
  for (const Violation& v : violations) {
    for (int r : v.rows) parent.emplace(r, r);
  }
  auto find = [&parent](int r) {
    while (parent[r] != r) r = parent[r] = parent[parent[r]];
    return r;
  };
  for (const Violation& v : violations) {
    for (int r : v.rows) parent[find(r)] = find(v.rows[0]);
  }
  std::unordered_map<int, int> home_of;  // root -> home, -1 once it spans
  for (const auto& [row, unused] : parent) {
    auto [it, inserted] = home_of.try_emplace(find(row), HomeOf(row));
    if (it->second != HomeOf(row)) it->second = -1;
  }
  for (const auto& [root, home] : home_of) {
    ++(home < 0 ? out->cross_shard_components : out->shard_local_components);
  }
}

void StreamingRepairer::EvictForEdits(const std::vector<RowEdit>& edits,
                                      StreamBatchResult* out) {
  std::vector<int> rows;
  std::vector<AttrId> attrs;
  for (const RowEdit& e : edits) {
    if (e.insert) {
      // An insert shifts every attribute's active domain and frequency
      // ranking, so no prior solution's solver inputs are reproducible.
      out->cache_invalidations += cross_batch_cache_.Clear();
      return;
    }
    rows.push_back(e.row);
    attrs.push_back(e.attr);
  }
  SortUnique(&rows);
  SortUnique(&attrs);
  out->cache_invalidations += cross_batch_cache_.EvictTouching(rows, attrs);
}

StreamBatchResult StreamingRepairer::ApplyBatch(
    const std::vector<RowEdit>& edits) {
  auto start = std::chrono::steady_clock::now();
  TraceSpan span("stream/apply_batch");
  span.AddArg("edits", static_cast<int64_t>(edits.size()));

  StreamBatchResult out;
  out.edits = static_cast<int>(edits.size());
  const int64_t rechecked_before = RowsRechecked();

  // Everything materialized before this batch becomes prior-epoch: from
  // here on it answers lookups only on exact atom equality, and only if it
  // survives the staleness evictions below.
  cross_batch_cache_.BeginEpoch();
  if (options_.cross_batch_cache) EvictForEdits(edits, &out);
  if (tracker_) out.bound_updates = tracker_->Ingest(edits);

  // The master copy absorbs the raw batch first; shards then follow its
  // post-batch values, so a mid-batch shard-key edit can never leave
  // detection running against a stale home.
  const int old_rows = master_->relation().num_rows();
  std::vector<int> touched = master_->ApplyBatch(edits);
  out.rows_touched = static_cast<int>(touched.size());
  if (!shards_.empty()) {
    SyncShards(touched, old_rows, Rehome(touched, old_rows, &out));
  }

  std::vector<Violation> violations = CollectViolations();
  out.violations = static_cast<int>(violations.size());

  if (!violations.empty()) {
    // Dirty closure: the touched rows plus every row sharing a violation
    // with them. (The instance was violation-free before the batch, so
    // every live violation involves a touched row.)
    {
      std::vector<int> dirty = touched;
      for (const Violation& v : violations) {
        dirty.insert(dirty.end(), v.rows.begin(), v.rows.end());
      }
      SortUnique(&dirty);
      out.dirty_rows = static_cast<int>(dirty.size());
    }
    if (!shards_.empty()) CountComponents(violations, &out);

    const Relation& W = master_->relation();
    // Recomputed per batch so the scoped solve sees exactly the stats a
    // from-scratch repair of the accumulated instance would — the contract
    // is bit-identity with scratch, and frequencies steer the solver.
    DomainStats stats_of_W(W);
    RepairStats batch_stats;
    MaterializedCache local_cache;
    MaterializedCache* cache =
        options_.cross_batch_cache ? &cross_batch_cache_ : &local_cache;
    std::optional<ScopedRepair> fix = CVTolerantResolveComponents(
        W, stats_of_W, variant_, std::move(violations), options_.repair,
        cache, &batch_stats, &fresh_counter_, *master_->encoded());
    // delta_min defaults to +inf, so the scoped solve cannot abort.
    assert(fix.has_value());
    out.components = fix->components;
    out.repair_cost = fix->cost;
    std::vector<int> fix_rows;
    std::vector<AttrId> fix_attrs;
    for (auto& [cell, value] : fix->assignments) {
      // Solutions may keep a cell's current value; skip those entirely —
      // the instance is unchanged, so no violation can have appeared and
      // no re-scan is owed.
      if (master_->relation().Get(cell) == value) continue;
      ++out.cells_changed;
      fix_rows.push_back(cell.row);
      fix_attrs.push_back(cell.attr);
      if (!shards_.empty()) {
        Shard& shard = shards_[static_cast<size_t>(HomeOf(cell.row))];
        shard.index->ApplyChange(
            Cell{shard.local_of.at(cell.row), cell.attr}, value);
      }
      master_->ApplyChange(cell, std::move(value));
    }
    SortUnique(&fix_rows);
    SortUnique(&fix_attrs);
    if (!shards_.empty()) {
      // Rows whose key cells the fixes rewrote re-home; the write-backs
      // above already reached every other shard.
      std::vector<char> rebuild =
          Rehome(fix_rows, master_->relation().num_rows(), &out);
      for (int s = 0; s < options_.num_shards; ++s) {
        if (rebuild[static_cast<size_t>(s)] != 0) RebuildShard(s);
      }
    }
    // Every live violation had a covering cell assigned a changed value
    // (atoms force it), and that cell's write-backs retired it.
    assert(IsViolationFree());
    if (options_.cross_batch_cache && !fix_rows.empty()) {
      // The fixes themselves changed cells (and domain frequencies) that
      // prior entries — including ones stored moments ago in this batch —
      // may depend on.
      out.cache_invalidations +=
          cross_batch_cache_.EvictTouching(fix_rows, fix_attrs);
    }
  }

  if (tracker_) MaybeReopen(&out);

  out.rows_rechecked = RowsRechecked() - rechecked_before;
  out.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  span.AddArg("components", out.components);
  span.AddArg("rows_rechecked", out.rows_rechecked);

  totals_.batches += 1;
  totals_.edits += out.edits;
  totals_.rows_ingested += out.rows_touched;
  totals_.rows_rechecked += out.rows_rechecked;
  totals_.components_resolved += out.components;
  totals_.cells_changed += out.cells_changed;
  totals_.shard_local_components += out.shard_local_components;
  totals_.cross_shard_components += out.cross_shard_components;
  totals_.rows_migrated += out.rows_migrated;
  totals_.variant_reopens += out.reopened ? 1 : 0;
  totals_.variant_switches += out.variant_switched ? 1 : 0;
  totals_.bound_updates += out.bound_updates;
  totals_.cache_invalidations += out.cache_invalidations;

  const StreamCounters& c = StreamCounters::Get();
  c.batches->Increment();
  c.edits->Add(out.edits);
  c.rows_ingested->Add(out.rows_touched);
  c.rows_rechecked->Add(out.rows_rechecked);
  c.components_resolved->Add(out.components);
  c.cells_changed->Add(out.cells_changed);
  if (out.reopened) c.variant_reopens->Increment();
  c.bound_updates->Add(out.bound_updates);
  c.cache_invalidations->Add(out.cache_invalidations);
  return out;
}

void StreamingRepairer::MaybeReopen(StreamBatchResult* out) {
  const CostModel& cost = options_.repair.vfree.cost;
  realized_cost_ = RepairCost(tracker_->dirty(), master_->relation(), cost);
  out->realized_cost = realized_cost_;
  out->rival_bound = tracker_->BestRivalBound(variant_);
  // Skip only when every rival bound clears realized + margin: any bound
  // at or above that line — δ_l, a recorded solved cost, or an abort
  // threshold — puts the rival's true cost strictly above the incumbent's,
  // so it cannot win even the search's deterministic tie-break. A rival
  // whose bound merely *ties* the incumbent (bound below the margin line)
  // could win that tie-break (candidates in ascending-δ_l order,
  // strict-min cost), and the contract is that the held variant always
  // equals what the from-scratch search would choose — so it re-opens.
  if (out->rival_bound >= realized_cost_ + options_.reopen_margin) return;

  TraceSpan span("stream/variant_reopen");
  out->reopened = true;
  VariantSearchResult sr = CVTolerantSearchWithFacts(
      tracker_->dirty(), tracker_->sigma(), tracker_->variants(),
      tracker_->FactsFn(), options_.repair, &fresh_counter_,
      tracker_->encoded());
  tracker_->RecordSearch(sr);
  if (!sr.have_result || sr.variant == variant_) {
    // The incumbent stood. Keep the incrementally repaired instance — its
    // realized cost can even undercut the search's from-scratch solve of
    // the incumbent (components were solved against intermediate states) —
    // and rely on the recorded candidate costs to lift the rivals' bounds
    // until their facts next change.
    return;
  }

  out->variant_switched = true;
  span.AddArg("cost", sr.cost);
  if (options_.cross_batch_cache) {
    if (!IsRefinedBy(variant_, sr.variant)) {
      // Definition 7 lifted to the sets: some constraint of the new Σ'
      // refines no constraint of the old one, so stored contexts carry no
      // reusable guarantee — drop everything.
      out->cache_invalidations += cross_batch_cache_.Clear();
    } else {
      // The new Σ' refines the old one; entries survive unless the newly
      // adopted repair rewrote cells (or attribute domains) under them.
      std::vector<int> diff_rows;
      std::vector<AttrId> diff_attrs;
      const Relation& old_W = master_->relation();
      for (int r = 0; r < old_W.num_rows(); ++r) {
        for (AttrId a = 0; a < old_W.num_attributes(); ++a) {
          if (old_W.Get(r, a) == sr.repaired.Get(r, a)) continue;
          diff_rows.push_back(r);
          diff_attrs.push_back(a);
        }
      }
      SortUnique(&diff_rows);
      SortUnique(&diff_attrs);
      out->cache_invalidations +=
          cross_batch_cache_.EvictTouching(diff_rows, diff_attrs);
    }
  }
  variant_ = std::move(sr.variant);
  realized_cost_ = sr.cost;
  out->realized_cost = realized_cost_;
  Adopt(sr.repaired);
}

ReplayWorkload MakeReplayWorkload(const Relation& dirty, int num_batches,
                                  int batch_size, uint64_t seed) {
  ReplayWorkload out;
  const int n = dirty.num_rows();
  const int num_attrs = dirty.num_attributes();
  const int total_edits = num_batches * batch_size;
  // Hold out at most half the edits — and at most a quarter of the rows —
  // as insert replays; everything else is an update of a live row.
  const int inserts = std::min(total_edits / 2, n / 4);
  const int base_rows = n - inserts;
  out.base = dirty;
  out.base.Truncate(base_rows);

  std::mt19937_64 rng(seed);
  int next_insert = base_rows;  // next held-out row to replay
  int live_rows = base_rows;    // rows present at apply time
  // Spread the inserts evenly over the stream.
  const int stride = inserts > 0 ? std::max(1, total_edits / inserts) : 0;

  out.batches.resize(static_cast<size_t>(num_batches));
  int edit_index = 0;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<RowEdit>& batch = out.batches[static_cast<size_t>(b)];
    batch.reserve(static_cast<size_t>(batch_size));
    for (int i = 0; i < batch_size; ++i, ++edit_index) {
      const bool do_insert =
          next_insert < n && stride > 0 && edit_index % stride == 0;
      if (do_insert) {
        batch.push_back(RowEdit::Insert(dirty.row(next_insert)));
        ++next_insert;
        ++live_rows;
        continue;
      }
      // Typo-style noise: copy another tuple's value of the same attribute
      // into a random live cell. Drawing the source from all of `dirty`
      // keeps the value distribution of the generator.
      const int row = static_cast<int>(rng() % static_cast<uint64_t>(
                                                   std::max(1, live_rows)));
      const AttrId attr = static_cast<AttrId>(
          rng() % static_cast<uint64_t>(std::max(1, num_attrs)));
      const int src =
          static_cast<int>(rng() % static_cast<uint64_t>(std::max(1, n)));
      batch.push_back(RowEdit::Update(row, attr, dirty.Get(src, attr)));
    }
  }
  return out;
}

ReplayWorkload MakeDriftWorkload(const Relation& dirty, int num_batches,
                                 int batch_size, uint64_t seed) {
  ReplayWorkload out;
  const int n = dirty.num_rows();
  const int num_attrs = dirty.num_attributes();
  const int total_edits = num_batches * batch_size;
  const int inserts = std::min(total_edits / 2, n / 4);
  const int base_rows = n - inserts;
  out.base = dirty;
  out.base.Truncate(base_rows);

  std::mt19937_64 rng(seed);
  int next_insert = base_rows;
  int live_rows = base_rows;
  const int stride = inserts > 0 ? std::max(1, total_edits / inserts) : 0;
  // The source window covers a quarter of the relation and slides from its
  // head to its tail over the stream, so early batches copy values from
  // one part of the distribution and late batches from another — that
  // skews per-attribute frequencies (and with them Eq. 2 weighted costs
  // and the per-variant bounds) monotonically over time.
  const int window = std::max(1, n / 4);

  out.batches.resize(static_cast<size_t>(num_batches));
  int edit_index = 0;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<RowEdit>& batch = out.batches[static_cast<size_t>(b)];
    batch.reserve(static_cast<size_t>(batch_size));
    const int window_start =
        num_batches > 1
            ? static_cast<int>(static_cast<int64_t>(n - window) * b /
                               (num_batches - 1))
            : 0;
    for (int i = 0; i < batch_size; ++i, ++edit_index) {
      const bool do_insert =
          next_insert < n && stride > 0 && edit_index % stride == 0;
      if (do_insert) {
        batch.push_back(RowEdit::Insert(dirty.row(next_insert)));
        ++next_insert;
        ++live_rows;
        continue;
      }
      const int row = static_cast<int>(rng() % static_cast<uint64_t>(
                                                   std::max(1, live_rows)));
      const AttrId attr = static_cast<AttrId>(
          rng() % static_cast<uint64_t>(std::max(1, num_attrs)));
      const int src =
          window_start +
          static_cast<int>(rng() % static_cast<uint64_t>(window));
      batch.push_back(
          RowEdit::Update(row, attr, dirty.Get(std::min(src, n - 1), attr)));
    }
  }
  return out;
}

}  // namespace cvrepair
