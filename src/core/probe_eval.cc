#include "core/probe_eval.h"

#include <algorithm>
#include <array>

#include "common/metrics.h"
#include "core/lce.h"
#include "index/posting_blocks.h"

namespace gks {
namespace {

struct ProbeMetrics {
  Counter* events;
  Counter* gathered;

  static const ProbeMetrics& Get() {
    static const ProbeMetrics metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ProbeMetrics{
          r.GetCounter("gks.search.plan.probe_events_total"),
          r.GetCounter("gks.search.plan.gathered_postings_total")};
    }();
    return metrics;
  }
};

/// Random-access boundary queries over one atom occurrence list, with two
/// backends: an eager PackedIds (materialized/borrowed lists) or a
/// BlockPostingsView whose skip table answers block-level comparisons and
/// whose payload blocks decode lazily into a small LRU. Unlike
/// PostingCursor this is not forward-only: event processing needs
/// *predecessor* lookups that move backwards between probes.
class ProbeList {
 public:
  void InitEager(const PackedIds* ids) {
    eager_ = ids;
    view_ = nullptr;
  }
  void InitBlocks(const BlockPostingsView* view) {
    view_ = view;
    eager_ = nullptr;
  }

  size_t size() const {
    if (eager_ != nullptr) return eager_->size();
    return view_ != nullptr ? view_->id_count() : 0;
  }

  /// First index with id >= / > `id` in document order.
  size_t LowerBound(DeweySpan id) { return Bound(id, Mode::kLower); }
  size_t UpperBound(DeweySpan id) { return Bound(id, Mode::kUpper); }
  /// Bounds of the contiguous subtree range of `prefix`.
  size_t SubtreeBegin(DeweySpan prefix) {
    return Bound(prefix, Mode::kSubtreeBegin);
  }
  size_t SubtreeEnd(DeweySpan prefix) { return Bound(prefix, Mode::kSubtreeEnd); }

  /// Owned copy of the id at index `i` (a span into the block cache would
  /// dangle at the next decode).
  DeweyId Get(size_t i) {
    if (eager_ != nullptr) return eager_->IdAt(i);
    size_t b = BlockOf(i);
    const PackedIds& block = *Block(b);
    size_t off = i - view_->block_id_begin(b);
    if (off >= block.size()) return DeweyId();  // decode failure: degrade
    return block.IdAt(off);
  }

  /// Appends ids [begin, end) to `out` in order. Fully-covered blocks
  /// decode straight into `out`; boundary blocks go through the cache.
  void AppendRangeTo(size_t begin, size_t end, PackedIds* out) {
    if (begin >= end) return;
    if (eager_ != nullptr) {
      out->AppendRange(*eager_, begin, end);
      return;
    }
    size_t b = BlockOf(begin);
    while (b < view_->block_count()) {
      const size_t b_begin = view_->block_id_begin(b);
      if (b_begin >= end) break;
      const size_t b_size = view_->block_size(b);
      if (begin <= b_begin && end >= b_begin + b_size) {
        (void)view_->DecodeBlock(b, out);  // whole block, no copy-through
      } else {
        const PackedIds& block = *Block(b);
        size_t from = begin > b_begin ? begin - b_begin : 0;
        size_t to = std::min(end - b_begin, block.size());
        if (to > from) out->AppendRange(block, from, to);
      }
      ++b;
    }
  }

 private:
  enum class Mode { kLower, kUpper, kSubtreeBegin, kSubtreeEnd };

  // True when `id` still sorts before the boundary the mode describes.
  static bool BeforeBoundary(DeweySpan id, DeweySpan key, Mode mode) {
    switch (mode) {
      case Mode::kLower: return id.Compare(key) < 0;
      case Mode::kUpper: return id.Compare(key) <= 0;
      case Mode::kSubtreeBegin: return id.CompareToSubtree(key) < 0;
      case Mode::kSubtreeEnd: return id.CompareToSubtree(key) <= 0;
    }
    return false;
  }

  size_t Bound(DeweySpan key, Mode mode) {
    if (eager_ != nullptr) {
      size_t lo = 0;
      size_t hi = eager_->size();
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (BeforeBoundary(eager_->At(mid), key, mode)) lo = mid + 1;
        else hi = mid;
      }
      return lo;
    }
    if (view_ == nullptr || view_->id_count() == 0) return 0;
    // Block-level binary search on the skip table: find the first block
    // whose last id reaches the boundary. Blocks before it lie entirely
    // below; if its first id already reaches it, no decode is needed.
    size_t lo = 0;
    size_t hi = view_->block_count();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (BeforeBoundary(view_->block_last(mid), key, mode)) lo = mid + 1;
      else hi = mid;
    }
    if (lo == view_->block_count()) return view_->id_count();
    if (!BeforeBoundary(view_->block_first(lo), key, mode)) {
      return view_->block_id_begin(lo);
    }
    const PackedIds& block = *Block(lo);
    size_t in_lo = 0;
    size_t in_hi = block.size();
    while (in_lo < in_hi) {
      size_t mid = in_lo + (in_hi - in_lo) / 2;
      if (BeforeBoundary(block.At(mid), key, mode)) in_lo = mid + 1;
      else in_hi = mid;
    }
    return view_->block_id_begin(lo) + in_lo;
  }

  // Block containing global id index `i`.
  size_t BlockOf(size_t i) const {
    size_t lo = 0;
    size_t hi = view_->block_count();
    while (hi - lo > 1) {
      size_t mid = lo + (hi - lo) / 2;
      if (view_->block_id_begin(mid) <= i) lo = mid;
      else hi = mid;
    }
    return lo;
  }

  const PackedIds* Block(size_t b) {
    for (Slot& slot : cache_) {
      if (slot.block == b) return &slot.ids;
    }
    Slot& slot = cache_[clock_++ % cache_.size()];
    slot.ids.Clear();
    slot.block = b;
    if (!view_->DecodeBlock(b, &slot.ids).ok()) slot.ids.Clear();
    return &slot.ids;
  }

  struct Slot {
    size_t block = static_cast<size_t>(-1);
    PackedIds ids;
  };

  const PackedIds* eager_ = nullptr;
  const BlockPostingsView* view_ = nullptr;
  std::array<Slot, 8> cache_;
  size_t clock_ = 0;
};

}  // namespace

void CountDepthPrefixes(const PackedIds& ids, size_t lo, size_t hi,
                        DeweySpan path, uint64_t* totals) {
  const uint32_t depth = path.size;
  if (depth == 0 || lo >= hi) return;
  // Histogram of lcp depths (capped at `depth`), then suffix sums: an id
  // with lcp exactly e lies in the subtree of every prefix of length
  // d <= e.
  thread_local std::vector<uint64_t> hist;
  hist.assign(depth + 1, 0);
  for (size_t j = lo; j < hi; ++j) {
    const DeweySpan id = ids.At(j);
    const uint32_t m = std::min(depth, id.size);
    uint32_t d = 0;
    while (d < m && id.data[d] == path.data[d]) ++d;
    ++hist[d];
  }
  uint64_t cum = 0;
  for (uint32_t d = depth; d >= 1; --d) {
    cum += hist[d];
    totals[d] += cum;
  }
}

/// One query atom's occurrence list inside the evaluator: either borrowed
/// from the index (eager/materialized), owned after decoding or phrase/tag
/// filtering, or left block-lazy behind the ProbeList.
struct ProbeEvaluator::AtomList {
  PackedIds owned;                           // arena scratch when active
  bool owned_active = false;
  const PackedIds* eager = nullptr;          // borrowed eager store
  const BlockPostingsView* view = nullptr;   // lazy block backend
  ProbeList probe;
  size_t size = 0;
  bool anchor = false;
};

ProbeEvaluator::ProbeEvaluator(const XmlIndex& index, const Query& query,
                               uint32_t s, const ProbeOptions& options,
                               QueryArena* arena)
    : index_(index), query_(query), s_(s), options_(options), arena_(arena) {}

ProbeEvaluator::~ProbeEvaluator() {
  if (arena_ == nullptr) return;
  for (std::unique_ptr<AtomList>& al : lists_) {
    if (al != nullptr && al->owned_active) arena_->PutIds(std::move(al->owned));
  }
}

size_t ProbeEvaluator::merged_size() const {
  size_t total = 0;
  for (size_t size : atom_sizes_) total += size;
  return total;
}

void ProbeEvaluator::PrepareLists() {
  const size_t n = query_.size();
  lists_.reserve(n);
  atom_sizes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const QueryAtom& atom = query_.atoms()[i];
    auto al = std::make_unique<AtomList>();
    const bool constrained =
        atom.terms.size() > 1 || !atom.tag_constraint.empty();
    if (constrained) {
      // Phrase/tag atoms change list membership, so they always
      // materialize through the shared occurrence builder.
      al->owned = arena_ != nullptr ? arena_->TakeIds() : PackedIds();
      AtomOccurrencesInto(index_, atom, &al->owned);
      al->owned_active = true;
      al->size = al->owned.size();
    } else if (const PostingList* pl = index_.inverted.Find(atom.terms[0])) {
      if (pl->materialized()) {
        al->eager = &pl->materialized_ids();
      } else {
        al->view = pl->block_view();
      }
      al->size = pl->size();
    }
    atom_sizes_.push_back(al->size);
    lists_.push_back(std::move(al));
  }

  // Anchor set: the n-s+1 smallest lists (size, then atom index for
  // determinism). Every window with s unique atoms intersects it.
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (atom_sizes_[a] != atom_sizes_[b]) {
      return atom_sizes_[a] < atom_sizes_[b];
    }
    return a < b;
  });
  const size_t anchor_count = n >= s_ ? n - s_ + 1 : n;
  anchors_.assign(order.begin(), order.begin() + anchor_count);
  std::sort(anchors_.begin(), anchors_.end());

  auto materialize = [&](AtomList* al) {
    if (al->owned_active || al->view == nullptr) return;
    al->owned = arena_ != nullptr ? arena_->TakeIds() : PackedIds();
    (void)al->view->DecodeAll(&al->owned);
    al->owned_active = true;
    al->view = nullptr;
  };

  for (uint32_t a : anchors_) {
    AtomList& al = *lists_[a];
    al.anchor = true;
    // Anchors are iterated exhaustively anyway; decode them up front so
    // the discovery walk reads a flat array.
    materialize(&al);
    anchor_postings_ += al.size;
  }
  if (options_.materialize_below > 0) {
    for (std::unique_ptr<AtomList>& al : lists_) {
      if (!al->anchor && al->size <= options_.materialize_below) {
        materialize(al.get());
      }
    }
  }
  for (std::unique_ptr<AtomList>& al : lists_) {
    if (al->owned_active) al->probe.InitEager(&al->owned);
    else if (al->eager != nullptr) al->probe.InitEager(al->eager);
    else if (al->view != nullptr) al->probe.InitBlocks(al->view);
  }
}

void ProbeEvaluator::RunVirtualScan() {
  const size_t n = query_.size();
  if (n == 0 || s_ == 0) return;

  // Walk the anchor union in ascending (id, atom) order. For each anchor
  // occurrence, the first c-occurrence at-or-after it (for every atom c)
  // is a window end event; consecutive anchors resolving to the same
  // index dedup via last_idx (event indices ascend with the anchors).
  struct AnchorCursor {
    uint32_t atom;
    size_t pos;
    const PackedIds* store;
  };
  std::vector<AnchorCursor> cursors;
  for (uint32_t a : anchors_) {
    AtomList& al = *lists_[a];
    if (al.size == 0) continue;
    cursors.push_back(
        AnchorCursor{a, 0, al.owned_active ? &al.owned : al.eager});
  }
  std::vector<size_t> last_idx(n, static_cast<size_t>(-1));

  while (true) {
    int best = -1;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].pos >= cursors[i].store->size()) continue;
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      int cmp = cursors[i].store->At(cursors[i].pos).Compare(
          cursors[best].store->At(cursors[best].pos));
      if (cmp < 0 || (cmp == 0 && cursors[i].atom < cursors[best].atom)) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    AnchorCursor& ac = cursors[best];
    DeweySpan a_id = ac.store->At(ac.pos);
    const uint32_t a_atom = ac.atom;

    for (uint32_t c = 0; c < n; ++c) {
      AtomList& al = *lists_[c];
      if (al.size == 0) continue;
      // First index of list c at position >= (a_id, a_atom): same-id
      // entries count only when c sorts at-or-after the anchor's atom.
      size_t idx = c >= a_atom ? al.probe.LowerBound(a_id)
                               : al.probe.UpperBound(a_id);
      if (idx >= al.size || last_idx[c] == idx) continue;
      last_idx[c] = idx;
      DeweyId id = al.probe.Get(idx);
      DeweyId prev = idx > 0 ? al.probe.Get(idx - 1) : DeweyId();
      ++events_;
      ProcessEndEvent(c, DeweySpan::Of(id), idx > 0, DeweySpan::Of(prev));
    }
    ++ac.pos;
  }

  candidates_.reserve(counts_.size());
  for (const auto& [components, count] : counts_) {
    candidates_.push_back(
        LcpCandidate{DeweyId(components), static_cast<uint32_t>(count)});
  }
  ProbeMetrics::Get().events->Add(events_);
}

void ProbeEvaluator::ProcessEndEvent(uint32_t c, DeweySpan p, bool has_prev,
                                     DeweySpan prev) {
  const size_t n = query_.size();
  // A position in S_L is the pair (id, atom); document order on the id,
  // atom index breaking ties — exactly the merge kernel's entry order.
  struct Pos {
    DeweyId id;
    uint32_t atom;
  };
  auto pos_less = [](const Pos& a, const Pos& b) {
    int cmp = DeweySpan::Of(a.id).Compare(DeweySpan::Of(b.id));
    if (cmp != 0) return cmp < 0;
    return a.atom < b.atom;
  };

  // Per other atom: the last occurrence strictly before position (p, c).
  std::vector<Pos> bounds;
  bounds.reserve(n > 0 ? n - 1 : 0);
  for (uint32_t i = 0; i < n; ++i) {
    if (i == c) continue;
    AtomList& al = *lists_[i];
    if (al.size == 0) continue;
    size_t at = i > c ? al.probe.LowerBound(p) : al.probe.UpperBound(p);
    if (at == 0) continue;
    bounds.push_back(Pos{al.probe.Get(at - 1), i});
  }
  // The window [l, p] needs s-1 other unique atoms before p.
  if (s_ >= 2 && bounds.size() < static_cast<size_t>(s_) - 1) return;
  std::sort(bounds.begin(), bounds.end(),
            [&](const Pos& a, const Pos& b) { return pos_less(b, a); });

  // Valid starts l lie in (L, M]: at-or-before the (s-1)-th largest other
  // predecessor T_{s-1} (every start in (T_s... must see s-1 others), and
  // after both the previous c-occurrence (else a later window ends here)
  // and T_s (else an s-th other atom would fit and the window would not
  // be minimal... it would end earlier). T_0 is p itself (s = 1: the
  // single-entry window [p, p]).
  Pos m;
  if (s_ == 1) {
    m = Pos{p.ToDeweyId(), c};
  } else {
    m = bounds[s_ - 2];
  }
  bool has_l = false;
  Pos l;
  if (has_prev) {
    l = Pos{prev.ToDeweyId(), c};
    has_l = true;
  }
  if (bounds.size() >= s_) {
    Pos& t = bounds[s_ - 1];
    if (!has_l || pos_less(l, t)) {
      l = t;
      has_l = true;
    }
  }
  if (has_l && !pos_less(l, m)) return;  // empty interval

  // First index of list i strictly after position x.
  auto first_after = [&](uint32_t i, const Pos& x) -> size_t {
    AtomList& al = *lists_[i];
    DeweySpan xid = DeweySpan::Of(x.id);
    return i > x.atom ? al.probe.LowerBound(xid) : al.probe.UpperBound(xid);
  };

  // Per-list bounds of the interval (L, M]; every S_L entry inside it is
  // one valid window start.
  std::vector<size_t> lo(n, 0);
  std::vector<size_t> hi(n, 0);
  uint64_t interval_total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (lists_[i]->size == 0) continue;
    lo[i] = has_l ? first_after(i, l) : 0;
    hi[i] = first_after(i, m);
    if (hi[i] > lo[i]) interval_total += hi[i] - lo[i];
  }
  if (interval_total == 0) return;

  // lcp(start, p) has depth >= d iff start lies in subtree(p[0..d)); the
  // count with depth exactly d is the difference against depth d+1.
  // Eager-backed lists with small intervals take CountDepthPrefixes — one
  // pass over the interval covers every depth at once. The rest keep
  // per-depth subtree-boundary searches, deepest first, with a per-list
  // stop once a prefix's subtree swallows that list's whole interval
  // (subtree ranges nest, so every shallower prefix covers it too).
  const uint32_t depth = p.size;
  constexpr size_t kDepthScanLinearMax = 256;
  depth_totals_.assign(depth + 1, 0);
  for (uint32_t i = 0; i < n; ++i) {
    AtomList& al = *lists_[i];
    if (al.size == 0 || hi[i] <= lo[i]) continue;
    const PackedIds* eager = al.owned_active ? &al.owned : al.eager;
    if (eager != nullptr && hi[i] - lo[i] <= kDepthScanLinearMax) {
      CountDepthPrefixes(*eager, lo[i], hi[i], p, depth_totals_.data());
      continue;
    }
    const uint64_t span = hi[i] - lo[i];
    for (uint32_t d = depth; d >= 1; --d) {
      DeweySpan q{p.data, d};
      size_t b = std::max(lo[i], al.probe.SubtreeBegin(q));
      size_t e = std::min(hi[i], al.probe.SubtreeEnd(q));
      if (e <= b) continue;
      const uint64_t inside = e - b;
      depth_totals_[d] += inside;
      if (inside == span) {
        for (uint32_t d2 = d - 1; d2 >= 1; --d2) depth_totals_[d2] += inside;
        break;
      }
    }
  }
  uint64_t deeper = 0;
  for (uint32_t d = depth; d >= 1; --d) {
    const uint64_t total = depth_totals_[d];
    if (total > deeper) {
      counts_[std::vector<uint32_t>(p.data, p.data + d)] += total - deeper;
    }
    deeper = total;
    if (total == interval_total) break;
  }
}

void ProbeEvaluator::PruneCandidates() {
  const size_t n = query_.size();
  masks_.reserve(candidates_.size());
  for (const LcpCandidate& candidate : candidates_) {
    DeweySpan span = DeweySpan::Of(candidate.node);
    uint64_t mask = 0;
    for (uint32_t i = 0; i < n; ++i) {
      AtomList& al = *lists_[i];
      if (al.size == 0) continue;
      if (al.probe.SubtreeBegin(span) < al.probe.SubtreeEnd(span)) {
        mask |= 1ull << i;
      }
    }
    masks_.push_back(mask);
  }
  pruned_ = PruneCoveredAncestorsMasked(candidates_, masks_);
}

void ProbeEvaluator::GatherReduced() {
  const size_t n = query_.size();
  // Coverage prefix per survivor: the subtree the LCE stage will read for
  // this candidate's response node — its lowest entity ancestor after the
  // attribute lift, or the lifted candidate itself when no entity exists.
  std::vector<std::vector<uint32_t>> prefixes;
  prefixes.reserve(pruned_.size());
  for (const LcpCandidate& candidate : pruned_) {
    DeweySpan span = DeweySpan::Of(candidate.node);
    std::vector<uint32_t> components(span.data, span.data + span.size);
    const NodeInfo* info = index_.nodes.Find(span);
    if (info != nullptr && info->is_attribute() && components.size() > 1) {
      components.pop_back();
    }
    DeweySpan lifted{components.data(),
                     static_cast<uint32_t>(components.size())};
    std::vector<uint32_t> entity;
    if (LowestEntityOf(index_, lifted, &entity)) {
      prefixes.push_back(std::move(entity));
    } else {
      prefixes.push_back(std::move(components));
    }
  }
  // Document order == lexicographic component order; a prefix covered by
  // the previous maximal one is redundant (anything between an ancestor
  // and its descendant in document order shares the ancestor prefix, so
  // one back-check suffices).
  std::sort(prefixes.begin(), prefixes.end());
  std::vector<std::vector<uint32_t>> maximal;
  for (std::vector<uint32_t>& prefix : prefixes) {
    if (!maximal.empty()) {
      const std::vector<uint32_t>& last = maximal.back();
      if (last.size() <= prefix.size() &&
          std::equal(last.begin(), last.end(), prefix.begin())) {
        continue;
      }
    }
    maximal.push_back(std::move(prefix));
  }

  // Reduced S_L: each atom's postings restricted to the coverage
  // subtrees, k-way merged in exact S_L entry order. Downstream masks,
  // witnesses and ranks over any response-node subtree are then identical
  // to the full merge — the entries there are the same, in the same
  // order — while everything outside the coverage stays undecoded.
  std::vector<PackedIds> gathered;
  gathered.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    gathered.push_back(arena_ != nullptr ? arena_->TakeIds() : PackedIds());
  }
  for (uint32_t i = 0; i < n; ++i) {
    AtomList& al = *lists_[i];
    if (al.size == 0) continue;
    for (const std::vector<uint32_t>& prefix : maximal) {
      DeweySpan q{prefix.data(), static_cast<uint32_t>(prefix.size())};
      al.probe.AppendRangeTo(al.probe.SubtreeBegin(q), al.probe.SubtreeEnd(q),
                             &gathered[i]);
    }
  }
  std::vector<const PackedIds*> ptrs;
  ptrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) ptrs.push_back(&gathered[i]);
  reduced_ = MergedList::FromParts(ptrs, atom_sizes_, arena_);
  if (arena_ != nullptr) {
    for (PackedIds& g : gathered) arena_->PutIds(std::move(g));
  }
  ProbeMetrics::Get().gathered->Add(reduced_.size());
}

}  // namespace gks
