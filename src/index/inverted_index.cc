#include "index/inverted_index.h"

#include <algorithm>

#include "common/varint.h"
#include "index/block_max.h"
#include "index/lazy_section.h"
#include "index/posting_blocks.h"

namespace gks {

InvertedIndex::InvertedIndex() = default;
InvertedIndex::~InvertedIndex() = default;
InvertedIndex::InvertedIndex(InvertedIndex&&) noexcept = default;
InvertedIndex& InvertedIndex::operator=(InvertedIndex&&) noexcept = default;

void InvertedIndex::AttachEncoded(std::string_view bytes, bool lz,
                                  std::shared_ptr<const void> owner) {
  pending_ = std::make_unique<EncodedSection>();
  pending_->bytes = bytes;
  pending_->lz = lz;
  pending_->owner = std::move(owner);
}

Status InvertedIndex::EnsureDecoded() const {
  EncodedSection* cell = pending_.get();
  if (cell == nullptr) return Status::OK();
  return EnsureSectionDecoded(cell, [this, cell](std::string_view in) {
    InvertedIndex decoded;
    GKS_RETURN_IF_ERROR(DecodeFromBlocks(&in, cell->owner, &decoded));
    if (!in.empty()) {
      return Status::Corruption("trailing bytes after inverted index section");
    }
    // Rank bounds validate against the freshly parsed skip tables, so they
    // apply before any materialization can detach the block views. The
    // bounds are copied out by value — the section bytes are not retained.
    if (const EncodedSection* bounds = pending_bounds_.get()) {
      std::string raw;
      std::string_view payload = bounds->bytes;
      if (bounds->lz) {
        GKS_RETURN_IF_ERROR(LzDecompress(bounds->bytes, &raw));
        payload = raw;
      }
      GKS_RETURN_IF_ERROR(decoded.ApplyRankBounds(payload));
    }
    // An LZ-wrapped section decodes into a temporary buffer that dies with
    // this lambda, so the lists cannot keep block views into it. (The
    // writer never LZ-wraps this section, precisely so blocks can decode
    // straight from the mapped file.)
    if (cell->lz) decoded.MaterializeAll();
    // Single-writer under call_once; readers are gated on the ready flag.
    const_cast<InvertedIndex*>(this)->lists_ = std::move(decoded.lists_);
    return Status::OK();
  });
}

void InvertedIndex::Add(std::string_view term, const DeweyId& id) {
  RequireDecoded();
  auto it = lists_.find(term);
  if (it == lists_.end()) {
    it = lists_.emplace(std::string(term), PostingList()).first;
  }
  it->second.Add(id);
}

void InvertedIndex::Finalize(ThreadPool* pool) {
  RequireDecoded();
  if (pool == nullptr || pool->size() <= 1 || lists_.size() < 2) {
    for (auto& [term, list] : lists_) {
      (void)term;
      list.Finalize();
    }
    return;
  }
  // Per-keyword sorts are independent; fan them across the pool. The
  // gather order is the map's iteration order, but every schedule produces
  // the same per-list result, so finalization stays deterministic.
  std::vector<PostingList*> lists;
  lists.reserve(lists_.size());
  for (auto& [term, list] : lists_) {
    (void)term;
    lists.push_back(&list);
  }
  ParallelFor(pool, lists.size(), [&lists](size_t i) {
    lists[i]->Finalize();
  });
}

const PostingList* InvertedIndex::Find(std::string_view term) const {
  RequireDecoded();
  auto it = lists_.find(term);
  return it == lists_.end() ? nullptr : &it->second;
}

PostingList* InvertedIndex::MutableList(std::string_view term) {
  RequireDecoded();
  auto it = lists_.find(term);
  if (it == lists_.end()) {
    it = lists_.emplace(std::string(term), PostingList()).first;
  }
  return &it->second;
}

uint64_t InvertedIndex::posting_count() const {
  RequireDecoded();
  uint64_t total = 0;
  for (const auto& [term, list] : lists_) {
    (void)term;
    total += list.size();
  }
  return total;
}

size_t InvertedIndex::MemoryUsage() const {
  RequireDecoded();
  size_t bytes = 0;
  for (const auto& [term, list] : lists_) {
    bytes += term.capacity() + list.MemoryUsage() + sizeof(list) +
             sizeof(void*) * 2;
  }
  return bytes;
}

Status InvertedIndex::DecodeFrom(std::string_view* input, InvertedIndex* out) {
  *out = InvertedIndex();
  uint64_t count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string term;
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(input, &term));
    PostingList list;
    GKS_RETURN_IF_ERROR(PostingList::DecodeFrom(input, &list));
    out->lists_.emplace(std::move(term), std::move(list));
  }
  return Status::OK();
}

namespace {

// Lexicographic term order — the iteration order EncodeToBlocks writes
// and the bounds section must mirror entry for entry. The serialized index
// is then a deterministic function of the logical contents, independent of
// hash-map iteration or build schedule — what lets the parallel build be
// verified byte-identical against the sequential one, and keeps on-disk
// indexes diffable across runs.
template <typename Map>
std::vector<const std::string*> SortedTermPointers(const Map& lists) {
  std::vector<const std::string*> terms;
  terms.reserve(lists.size());
  for (const auto& [term, list] : lists) {
    (void)list;
    terms.push_back(&term);
  }
  std::sort(terms.begin(), terms.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  return terms;
}

}  // namespace

void InvertedIndex::EncodeToBlocks(std::string* dst) const {
  RequireDecoded();
  PutVarint64(dst, lists_.size());
  for (const std::string* term : SortedTermPointers(lists_)) {
    PutLengthPrefixed(dst, *term);
    lists_.find(*term)->second.EncodeBlocksTo(dst);
  }
}

Status InvertedIndex::DecodeFromBlocks(std::string_view* input,
                                       std::shared_ptr<const void> owner,
                                       InvertedIndex* out) {
  *out = InvertedIndex();
  uint64_t count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string term;
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(input, &term));
    PostingList list;
    GKS_RETURN_IF_ERROR(
        PostingList::FromEncodedBlocks(input, owner, &list));
    out->lists_.emplace(std::move(term), std::move(list));
  }
  return Status::OK();
}

void InvertedIndex::MaterializeAll() {
  RequireDecoded();
  for (auto& [term, list] : lists_) {
    (void)term;
    list.Materialize();
  }
}

void InvertedIndex::EncodeRankBoundsTo(const NodeInfoTable& nodes,
                                       std::string* dst) const {
  RequireDecoded();
  PutVarint64(dst, lists_.size());
  for (const std::string* term : SortedTermPointers(lists_)) {
    const PostingList& list = lists_.find(*term)->second;
    std::vector<BlockRankBound> bounds =
        ComputeBlockRankBounds(list.materialized_ids(), nodes);
    PutVarint64(dst, bounds.size());
    for (const BlockRankBound& bound : bounds) {
      PutVarint32(dst, bound.weight_scaled);
      PutVarint32(dst, bound.min_depth);
      PutVarint32(dst, bound.max_depth);
    }
  }
}

Status InvertedIndex::ApplyRankBounds(std::string_view section) {
  RequireDecoded();
  std::string_view in = section;
  auto at = [&section](std::string_view rest) {
    return " at section byte " + std::to_string(section.size() - rest.size());
  };
  auto read64 = [&](uint64_t* v) {
    return GetVarint64(&in, v).ok()
               ? Status::OK()
               : Status::Corruption("rank_bounds section truncated" + at(in));
  };
  auto read32 = [&](uint32_t* v) {
    return GetVarint32(&in, v).ok()
               ? Status::OK()
               : Status::Corruption("rank_bounds section truncated" + at(in));
  };

  uint64_t term_count = 0;
  GKS_RETURN_IF_ERROR(read64(&term_count));
  if (term_count != lists_.size()) {
    return Status::Corruption(
        "rank_bounds section lists " + std::to_string(term_count) +
        " terms, inverted index has " + std::to_string(lists_.size()) +
        at(in));
  }
  for (const std::string* term : SortedTermPointers(lists_)) {
    PostingList* list = &lists_.find(*term)->second;
    uint64_t block_count = 0;
    GKS_RETURN_IF_ERROR(read64(&block_count));
    const uint64_t expected =
        (list->size() + kPostingBlockSize - 1) / kPostingBlockSize;
    if (block_count != expected) {
      return Status::Corruption(
          "rank_bounds block count " + std::to_string(block_count) +
          " for term '" + *term + "' (list has " + std::to_string(expected) +
          " blocks)" + at(in));
    }
    std::vector<BlockRankBound> bounds(block_count);
    const BlockPostingsView* view = list->block_view();
    if (view != nullptr && view->block_count() != block_count) {
      return Status::Corruption(
          "rank_bounds block count " + std::to_string(block_count) +
          " for term '" + *term + "' does not match the skip table (" +
          std::to_string(view->block_count()) + " blocks)" + at(in));
    }
    for (uint64_t b = 0; b < block_count; ++b) {
      BlockRankBound& bound = bounds[b];
      GKS_RETURN_IF_ERROR(read32(&bound.weight_scaled));
      GKS_RETURN_IF_ERROR(read32(&bound.min_depth));
      GKS_RETURN_IF_ERROR(read32(&bound.max_depth));
      if (bound.weight_scaled == 0 || bound.weight_scaled > kRankWeightOne) {
        return Status::Corruption("rank_bounds weight " +
                                  std::to_string(bound.weight_scaled) +
                                  " out of range" + at(in));
      }
      if (bound.min_depth > bound.max_depth) {
        return Status::Corruption("rank_bounds depth range inverted" + at(in));
      }
      if (view == nullptr) continue;
      // Bounds describe fixed kPostingBlockSize blocks; a skip table
      // blocked any other way cannot line up with them index for index.
      if (view->block_id_begin(b) != b * kPostingBlockSize) {
        return Status::Corruption(
            "rank_bounds blocking does not match the skip table of term '" +
            *term + "'" + at(in));
      }
      // The skip table is ground truth for at least the block's first and
      // last id: a depth envelope excluding either cannot bound the block.
      if (view->block_first(b).size < bound.min_depth ||
          view->block_first(b).size > bound.max_depth ||
          view->block_last(b).size < bound.min_depth ||
          view->block_last(b).size > bound.max_depth) {
        return Status::Corruption("rank_bounds bound contradicts block " +
                                  std::to_string(b) + " of term '" + *term +
                                  "'" + at(in));
      }
    }
    list->set_rank_bounds(std::move(bounds));
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes after rank_bounds section" +
                              at(in));
  }
  return Status::OK();
}

void InvertedIndex::AttachRankBounds(std::string_view bytes, bool lz,
                                     std::shared_ptr<const void> owner) {
  pending_bounds_ = std::make_unique<EncodedSection>();
  pending_bounds_->bytes = bytes;
  pending_bounds_->lz = lz;
  pending_bounds_->owner = std::move(owner);
}

AttrDirectory::AttrDirectory() = default;
AttrDirectory::~AttrDirectory() = default;
AttrDirectory::AttrDirectory(AttrDirectory&&) noexcept = default;
AttrDirectory& AttrDirectory::operator=(AttrDirectory&&) noexcept = default;

void AttrDirectory::AttachEncoded(std::string_view bytes, bool lz,
                                  std::shared_ptr<const void> owner) {
  pending_ = std::make_unique<EncodedSection>();
  pending_->bytes = bytes;
  pending_->lz = lz;
  pending_->owner = std::move(owner);
}

Status AttrDirectory::EnsureDecoded() const {
  return EnsureSectionDecoded(pending_.get(), [this](std::string_view in) {
    AttrDirectory decoded;
    GKS_RETURN_IF_ERROR(DecodeFrom(&in, &decoded));
    if (!in.empty()) {
      return Status::Corruption("trailing bytes after attr directory section");
    }
    AttrDirectory* self = const_cast<AttrDirectory*>(this);
    self->ids_ = std::move(decoded.ids_);
    self->tag_ids_ = std::move(decoded.tag_ids_);
    self->value_ids_ = std::move(decoded.value_ids_);
    return Status::OK();
  });
}

void AttrDirectory::Add(const DeweyId& id, uint32_t tag_id,
                        uint32_t value_id) {
  RequireDecoded();
  ids_.Add(id);
  tag_ids_.push_back(tag_id);
  value_ids_.push_back(value_id);
}

void AttrDirectory::Finalize() {
  RequireDecoded();
  std::vector<uint32_t> perm = ids_.SortPermutation();
  std::vector<uint32_t> tags(perm.size());
  std::vector<uint32_t> values(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    tags[i] = tag_ids_[perm[i]];
    values[i] = value_ids_[perm[i]];
  }
  ids_.ApplyPermutation(perm);
  tag_ids_ = std::move(tags);
  value_ids_ = std::move(values);
}

void AttrDirectory::EncodeTo(std::string* dst) const {
  RequireDecoded();
  ids_.EncodeTo(dst);
  PutVarint64(dst, tag_ids_.size());
  for (uint32_t tag : tag_ids_) PutVarint32(dst, tag);
  for (uint32_t value : value_ids_) PutVarint32(dst, value);
}

Status AttrDirectory::DecodeFrom(std::string_view* input, AttrDirectory* out) {
  *out = AttrDirectory();
  GKS_RETURN_IF_ERROR(PackedIds::DecodeFrom(input, &out->ids_));
  uint64_t count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &count));
  if (count != out->ids_.size()) {
    return Status::Corruption("attr directory size mismatch");
  }
  out->tag_ids_.resize(count);
  out->value_ids_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    GKS_RETURN_IF_ERROR(GetVarint32(input, &out->tag_ids_[i]));
  }
  for (uint64_t i = 0; i < count; ++i) {
    GKS_RETURN_IF_ERROR(GetVarint32(input, &out->value_ids_[i]));
  }
  return Status::OK();
}

}  // namespace gks
