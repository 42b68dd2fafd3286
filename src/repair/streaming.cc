#include "repair/streaming.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <utility>

#include "graph/bounds.h"
#include "graph/conflict_hypergraph.h"
#include "util/metrics.h"
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
// StreamingRepairer

StreamingRepairer::StreamingRepairer(const Relation& I,
                                     const ConstraintSet& sigma,
                                     const StreamingOptions& options)
    : options_(options) {
  TraceSpan span("stream/initial_repair");
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
  // The replaced index's re-scans stay counted, so rows_rechecked is
  // monotone across a variant switch.
  if (index_) retired_rechecked_ = RowsRechecked();
  index_ = std::make_unique<ViolationIndex>(repaired, variant_);
}

int64_t StreamingRepairer::RowsRechecked() const {
  return retired_rechecked_ + index_->rows_rechecked();
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

  std::vector<int> touched = index_->ApplyBatch(edits);
  out.rows_touched = static_cast<int>(touched.size());

  std::vector<Violation> violations = index_->CurrentViolations();
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

    const Relation& W = index_->relation();
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
        cache, &batch_stats, &fresh_counter_, *index_->encoded());
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
      if (index_->relation().Get(cell) == value) continue;
      ++out.cells_changed;
      fix_rows.push_back(cell.row);
      fix_attrs.push_back(cell.attr);
      index_->ApplyChange(cell, std::move(value));
    }
    SortUnique(&fix_rows);
    SortUnique(&fix_attrs);
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
  realized_cost_ = RepairCost(tracker_->dirty(), index_->relation(), cost);
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
      const Relation& old_W = index_->relation();
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

namespace {

/// The loop behind MakeReplayWorkload and MakeDriftWorkload. Update edits
/// copy the value of a source row drawn from a `window`-row range that
/// slides from the head of `dirty` (first batch) to its tail (last batch);
/// a window of all n rows stays put. 1 <= window <= n whenever n >= 1.
ReplayWorkload BuildReplay(const Relation& dirty, int num_batches,
                           int batch_size, uint64_t seed, int window) {
  ReplayWorkload out;
  out.base = dirty;
  out.batches.resize(static_cast<size_t>(num_batches));
  const int n = dirty.num_rows();
  const int num_attrs = dirty.num_attributes();
  // No cell to copy a value from or into: every batch stays empty.
  if (n == 0 || num_attrs == 0) return out;
  const int total_edits = num_batches * batch_size;
  // Hold out at most half the edits — and at most a quarter of the rows —
  // as insert replays; everything else is an update of a live row.
  const int inserts = std::min(total_edits / 2, n / 4);
  const int base_rows = n - inserts;
  out.base.Truncate(base_rows);

  std::mt19937_64 rng(seed);
  int next_insert = base_rows;  // next held-out row to replay
  int live_rows = base_rows;    // rows present at apply time
  // Spread the inserts evenly over the stream.
  const int stride = inserts > 0 ? std::max(1, total_edits / inserts) : 0;

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
      // Typo-style noise: copy another tuple's value of the same attribute
      // into a random live cell.
      const int row =
          static_cast<int>(rng() % static_cast<uint64_t>(live_rows));
      const AttrId attr =
          static_cast<AttrId>(rng() % static_cast<uint64_t>(num_attrs));
      const int src =
          window_start +
          static_cast<int>(rng() % static_cast<uint64_t>(window));
      batch.push_back(RowEdit::Update(row, attr, dirty.Get(src, attr)));
    }
  }
  return out;
}

}  // namespace

ReplayWorkload MakeReplayWorkload(const Relation& dirty, int num_batches,
                                  int batch_size, uint64_t seed) {
  // Drawing sources from all of `dirty` keeps the generator's value
  // distribution.
  return BuildReplay(dirty, num_batches, batch_size, seed,
                     /*window=*/dirty.num_rows());
}

ReplayWorkload MakeDriftWorkload(const Relation& dirty, int num_batches,
                                 int batch_size, uint64_t seed) {
  // The source window covers a quarter of the relation, so early batches
  // copy values from one part of the distribution and late batches from
  // another — that skews per-attribute frequencies (and with them Eq. 2
  // weighted costs and the per-variant bounds) monotonically over time.
  return BuildReplay(dirty, num_batches, batch_size, seed,
                     /*window=*/std::max(1, dirty.num_rows() / 4));
}

}  // namespace cvrepair
