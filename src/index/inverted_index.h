#ifndef GKS_INDEX_INVERTED_INDEX_H_
#define GKS_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dewey/dewey_id.h"
#include "index/posting_list.h"

namespace gks {

struct EncodedSection;  // lazy_section.h
class NodeInfoTable;    // node_info_table.h

/// Keyword -> posting-list map (Sec. 2.4). Terms are already analyzed
/// (lower-cased, stop-worded, stemmed) by the index builder; each posting
/// is the Dewey id of the element that directly contains the keyword
/// (text) or carries it as its tag name.
class InvertedIndex {
 public:
  InvertedIndex();
  ~InvertedIndex();
  InvertedIndex(InvertedIndex&&) noexcept;
  InvertedIndex& operator=(InvertedIndex&&) noexcept;

  /// Lazy-load support (format v2 mmap path): attaches the still-encoded
  /// block-format section and defers parsing the term table until first
  /// use. `owner` anchors the bytes (the mapped file) and is threaded into
  /// every posting list, whose payload blocks decode even later.
  void AttachEncoded(std::string_view bytes, bool lz,
                     std::shared_ptr<const void> owner);
  /// Forces the deferred term-table parse now (thread-safe, idempotent).
  Status EnsureDecoded() const;

  void Add(std::string_view term, const DeweyId& id);

  /// Sorts and deduplicates every list. Must be called once after the last
  /// Add and before any Find. With a pool, the per-keyword sorts fan out
  /// across its workers (each list's finalize is independent, so the
  /// result is identical regardless of scheduling).
  void Finalize(ThreadPool* pool = nullptr);

  /// Posting list for `term`, or nullptr if the term never occurs.
  const PostingList* Find(std::string_view term) const;

  /// Existing-or-new mutable list for `term` (parallel-build delta merge).
  PostingList* MutableList(std::string_view term);

  size_t term_count() const {
    RequireDecoded();
    return lists_.size();
  }
  uint64_t posting_count() const;

  /// Iterates (term, list) pairs in unspecified order.
  template <typename F>
  void ForEach(F f) const {
    RequireDecoded();
    for (const auto& [term, list] : lists_) f(term, list);
  }

  size_t MemoryUsage() const;

  /// Format v1 reader: v1 files written by older builds still load.
  static Status DecodeFrom(std::string_view* input, InvertedIndex* out);

  /// Format v2: terms in lexicographic order, each followed by its
  /// block-postings blob (posting_blocks.h). Deterministic: the bytes
  /// depend only on the index contents, never on the build schedule.
  void EncodeToBlocks(std::string* dst) const;
  /// Parses a block-format section from the front of `*input`. Each list
  /// keeps a view into the input bytes (skip table parsed, payloads
  /// deferred); `owner` must keep those bytes alive, or the caller must
  /// Materialize() every list before they go away.
  static Status DecodeFromBlocks(std::string_view* input,
                                 std::shared_ptr<const void> owner,
                                 InvertedIndex* out);
  /// Forces every block-backed list into its eager form (the eager v2
  /// deserialization path, where the encoded buffer is about to go away).
  void MaterializeAll();

  /// Format v2 rank_bounds section (block_max.h): per term in
  /// lexicographic order — mirroring EncodeToBlocks, terms are not
  /// repeated — a varint block count followed by one
  /// (weight_scaled, min_depth, max_depth) varint triple per posting
  /// block.
  void EncodeRankBoundsTo(const NodeInfoTable& nodes, std::string* dst) const;

  /// Parses a rank_bounds section payload, validates it against the
  /// loaded lists (term/block counts must line up; bounds must not
  /// contradict the skip table), and attaches the bounds to each list.
  /// Corruption with a section byte offset on any mismatch. Lists must
  /// already be decoded (call on the eager path before MaterializeAll,
  /// while block views can still be cross-checked).
  Status ApplyRankBounds(std::string_view section);

  /// Lazy variant (mmap path): parks the still-encoded section — LZ-
  /// wrapped when `lz` — and applies it inside EnsureDecoded, right after
  /// the term table parses. `owner` anchors the bytes.
  void AttachRankBounds(std::string_view bytes, bool lz,
                        std::shared_ptr<const void> owner);

 private:
  /// Accessor guard: one pointer test on eager indexes, plus one acquire
  /// load once a lazy index has parsed its term table.
  void RequireDecoded() const {
    if (pending_ != nullptr) (void)EnsureDecoded();
  }

  std::unique_ptr<EncodedSection> pending_;
  std::unique_ptr<EncodedSection> pending_bounds_;  // rank_bounds, mmap path
  std::unordered_map<std::string, PostingList, TransparentStringHash,
                     std::equal_to<>>
      lists_;
};

/// Directory of all attribute nodes, sorted in document order, with their
/// interned tag and value ids aligned by position. DI discovery (Sec. 6.2)
/// range-scans it to find the attribute nodes under an LCE node.
class AttrDirectory {
 public:
  AttrDirectory();
  ~AttrDirectory();
  AttrDirectory(AttrDirectory&&) noexcept;
  AttrDirectory& operator=(AttrDirectory&&) noexcept;

  /// Lazy-load support (format v2 mmap path); see NodeInfoTable.
  void AttachEncoded(std::string_view bytes, bool lz,
                     std::shared_ptr<const void> owner);
  Status EnsureDecoded() const;

  void Add(const DeweyId& id, uint32_t tag_id, uint32_t value_id);

  /// Sorts entries into document order. Call once after building.
  void Finalize();

  size_t size() const {
    RequireDecoded();
    return ids_.size();
  }
  DeweySpan IdAt(size_t i) const {
    RequireDecoded();
    return ids_.At(i);
  }
  uint32_t TagAt(size_t i) const {
    RequireDecoded();
    return tag_ids_[i];
  }
  uint32_t ValueAt(size_t i) const {
    RequireDecoded();
    return value_ids_[i];
  }

  /// Contiguous [begin, end) range of attribute nodes inside `prefix`'s
  /// subtree.
  std::pair<size_t, size_t> SubtreeRange(DeweySpan prefix) const {
    RequireDecoded();
    return {ids_.SubtreeBegin(prefix), ids_.SubtreeEnd(prefix)};
  }

  size_t MemoryUsage() const {
    RequireDecoded();
    return ids_.MemoryUsage() + tag_ids_.capacity() * sizeof(uint32_t) +
           value_ids_.capacity() * sizeof(uint32_t);
  }

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(std::string_view* input, AttrDirectory* out);

 private:
  void RequireDecoded() const {
    if (pending_ != nullptr) (void)EnsureDecoded();
  }

  std::unique_ptr<EncodedSection> pending_;
  PackedIds ids_;
  std::vector<uint32_t> tag_ids_;
  std::vector<uint32_t> value_ids_;
};

}  // namespace gks

#endif  // GKS_INDEX_INVERTED_INDEX_H_
