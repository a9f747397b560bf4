#ifndef GKS_INDEX_NODE_INFO_TABLE_H_
#define GKS_INDEX_NODE_INFO_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "dewey/dewey_id.h"
#include "index/node_kind.h"
#include "index/posting_list.h"

namespace gks {

struct EncodedSection;  // lazy_section.h

/// The paper keeps two hash tables — `entityHash` (entity nodes) and
/// `elementHash` (repeating + connecting nodes) — each mapping a Dewey id
/// to the node's direct-child count (Sec. 2.4). This class stores one map
/// of Dewey id -> NodeInfo (flags + child count + tag + optional attribute
/// value) and exposes the paper's `isEntity` / `isElement` functions on
/// top, plus tag/value dictionaries shared with DI discovery.
///
/// Beside the map it keeps a derived *entity directory*: every entity node
/// in document order, each with the directory position of its nearest
/// entity ancestor. It answers "which entity owns this node" (the LCE
/// mapping, Sec. 4.2, and DI's owner check, Sec. 6.2) without one map
/// probe per ancestor level. It is never serialized: DecodeFrom builds it
/// in its document-order pass, and writers call RebuildEntityDirectory
/// once their Put / AddFlags calls are done (until then it is stale).
class NodeInfoTable {
 public:
  /// Directory position meaning "no entity".
  static constexpr uint32_t kNoEntity = 0xffffffffu;

  NodeInfoTable();
  ~NodeInfoTable();
  NodeInfoTable(NodeInfoTable&&) noexcept;
  NodeInfoTable& operator=(NodeInfoTable&&) noexcept;

  /// Lazy-load support (format v2 mmap path): attaches the still-encoded
  /// section bytes — LZ-wrapped when `lz` — and defers the decode until
  /// the first accessor call. `owner` anchors the bytes (the mapped file).
  void AttachEncoded(std::string_view bytes, bool lz,
                     std::shared_ptr<const void> owner);
  /// Forces the deferred decode now (thread-safe, idempotent) and returns
  /// its status. A failed decode leaves the table readable but empty.
  Status EnsureDecoded() const;

  /// Interns `tag`, returning a dense id. Idempotent per distinct string.
  uint32_t InternTag(std::string_view tag);
  /// Looks up an already-interned tag without interning; false if unknown.
  bool FindTag(std::string_view tag, uint32_t* tag_id) const;
  const std::string& TagName(uint32_t tag_id) const {
    RequireDecoded();
    return tags_[tag_id];
  }
  size_t tag_count() const {
    RequireDecoded();
    return tags_.size();
  }

  /// Stores an attribute value for DI discovery; returns its dense id.
  uint32_t AddValue(std::string value);
  /// Deduplicating variant: returns the existing id when the same string
  /// was interned before (the reverse map is built lazily, so it also
  /// works on indexes loaded from disk).
  uint32_t InternValue(std::string_view value);
  const std::string& Value(uint32_t value_id) const {
    RequireDecoded();
    return values_[value_id];
  }
  size_t value_count() const {
    RequireDecoded();
    return values_.size();
  }

  void Put(DeweySpan id, const NodeInfo& info);
  void Put(const DeweyId& id, const NodeInfo& info) {
    Put(DeweySpan::Of(id), info);
  }

  /// Returns the node's info or nullptr if the id names no element.
  const NodeInfo* Find(DeweySpan id) const;
  const NodeInfo* Find(const DeweyId& id) const {
    return Find(DeweySpan::Of(id));
  }

  /// Paper API: number of direct children if the node is an entity node,
  /// 0 otherwise ("returns ... if true, null otherwise").
  uint32_t IsEntity(DeweySpan id) const;
  /// Paper API: child count if the node is a repeating/connecting node.
  uint32_t IsElement(DeweySpan id) const;

  size_t size() const {
    RequireDecoded();
    return map_.size();
  }

  /// Iterates every (id, info) pair in unspecified order. The DeweySpan is
  /// valid only during the callback.
  template <typename F>
  void ForEach(F f) const {
    RequireDecoded();
    std::vector<uint32_t> components;
    for (const auto& [key, info] : map_) {
      DecodeKey(key, &components);
      f(DeweySpan{components.data(),
                  static_cast<uint32_t>(components.size())},
        info);
    }
  }

  /// Adds category flags to an existing node (used by the schema-aware
  /// reconciliation pass); returns false if the node is unknown. Clears
  /// the connecting flag when a positive category is added and keeps the
  /// category tallies consistent.
  bool AddFlags(DeweySpan id, uint8_t flags);

  /// Re-derives the entity directory from the node flags. Call once after
  /// a batch of Put / AddFlags calls, before the table is queried.
  void RebuildEntityDirectory();

  /// The entity directory: every entity node's id, in document order.
  const PackedIds& entities() const {
    RequireDecoded();
    return entities_;
  }
  /// Directory position of the deepest self-or-ancestor entity of `id`,
  /// or kNoEntity. The last entity at or before `id` in document order
  /// lies inside the subtree of that answer, so the walk up its parent
  /// links meets the answer first.
  uint32_t LowestEntity(DeweySpan id) const;

  /// Category tallies for the Table 5 experiment. A node with both EN and
  /// RN flags counts toward both tallies, mirroring the paper ("its entry
  /// is present in both the hash tables").
  struct CategoryCounts {
    uint64_t attribute = 0;
    uint64_t repeating = 0;
    uint64_t entity = 0;
    uint64_t connecting = 0;
    uint64_t total = 0;  // total categorized element nodes
  };
  const CategoryCounts& counts() const {
    RequireDecoded();
    return counts_;
  }

  /// Approximate heap footprint for index-size reporting.
  size_t MemoryUsage() const;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(std::string_view* input, NodeInfoTable* out);

 private:
  static std::string EncodeKey(DeweySpan id);
  static void DecodeKey(const std::string& key,
                        std::vector<uint32_t>* components);
  /// Adopts `entities` (already in document order) as the entity directory
  /// and links each entry to its nearest entity ancestor.
  void SetEntityDirectory(PackedIds entities);

  /// Accessor guard: one pointer test on eager tables, plus one acquire
  /// load once a lazy table has decoded.
  void RequireDecoded() const {
    if (pending_ != nullptr) (void)EnsureDecoded();
  }

  std::unique_ptr<EncodedSection> pending_;
  std::unordered_map<std::string, NodeInfo, TransparentStringHash,
                     std::equal_to<>>
      map_;
  std::vector<std::string> tags_;
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      tag_ids_;
  std::vector<std::string> values_;
  // Lazy reverse map for InternValue; rebuilt on first use after a load.
  std::unordered_map<std::string, uint32_t, TransparentStringHash,
                     std::equal_to<>>
      value_ids_;
  CategoryCounts counts_;
  // Entity directory (see the class comment): ids in document order and,
  // per entry, the position of its nearest entity ancestor or kNoEntity.
  PackedIds entities_;
  std::vector<uint32_t> entity_parent_;
};

}  // namespace gks

#endif  // GKS_INDEX_NODE_INFO_TABLE_H_
