#include "index/node_info_table.h"

#include <algorithm>

#include "common/varint.h"
#include "index/lazy_section.h"

namespace gks {
namespace {

// Fixed-width big-endian components keep keys compact and unambiguous.
void EncodeKeyTo(DeweySpan id, char* out) {
  for (uint32_t i = 0; i < id.size; ++i) {
    uint32_t c = id.data[i];
    out[4 * i] = static_cast<char>(c >> 24);
    out[4 * i + 1] = static_cast<char>(c >> 16);
    out[4 * i + 2] = static_cast<char>(c >> 8);
    out[4 * i + 3] = static_cast<char>(c);
  }
}

// A lookup key encoded on the stack: ids of 4 or more components miss the
// small-string buffer, so a std::string key would cost one heap allocation
// per probe. Only ids deeper than kInline components fall back to the heap.
class LookupKey {
 public:
  explicit LookupKey(DeweySpan id) : size_(id.size * sizeof(uint32_t)) {
    char* out = inline_;
    if (id.size > kInline) {
      heap_.resize(size_);
      out = heap_.data();
    }
    EncodeKeyTo(id, out);
  }
  std::string_view view() const {
    return {heap_.empty() ? inline_ : heap_.data(), size_};
  }

 private:
  static constexpr uint32_t kInline = 32;
  char inline_[kInline * sizeof(uint32_t)];
  std::string heap_;
  size_t size_;
};

}  // namespace

NodeInfoTable::NodeInfoTable() = default;
NodeInfoTable::~NodeInfoTable() = default;
NodeInfoTable::NodeInfoTable(NodeInfoTable&&) noexcept = default;
NodeInfoTable& NodeInfoTable::operator=(NodeInfoTable&&) noexcept = default;

void NodeInfoTable::AttachEncoded(std::string_view bytes, bool lz,
                                  std::shared_ptr<const void> owner) {
  pending_ = std::make_unique<EncodedSection>();
  pending_->bytes = bytes;
  pending_->lz = lz;
  pending_->owner = std::move(owner);
}

Status NodeInfoTable::EnsureDecoded() const {
  return EnsureSectionDecoded(pending_.get(), [this](std::string_view in) {
    NodeInfoTable decoded;
    GKS_RETURN_IF_ERROR(DecodeFrom(&in, &decoded));
    if (!in.empty()) {
      return Status::Corruption("trailing bytes after node table section");
    }
    // Single-writer under call_once; readers are gated on the ready flag,
    // so adopting the decoded state through const is safe.
    NodeInfoTable* self = const_cast<NodeInfoTable*>(this);
    self->map_ = std::move(decoded.map_);
    self->tags_ = std::move(decoded.tags_);
    self->tag_ids_ = std::move(decoded.tag_ids_);
    self->values_ = std::move(decoded.values_);
    self->value_ids_ = std::move(decoded.value_ids_);
    self->counts_ = decoded.counts_;
    self->entities_ = std::move(decoded.entities_);
    self->entity_parent_ = std::move(decoded.entity_parent_);
    return Status::OK();
  });
}

std::string NodeInfoTable::EncodeKey(DeweySpan id) {
  std::string key(id.size * sizeof(uint32_t), '\0');
  EncodeKeyTo(id, key.data());
  return key;
}

void NodeInfoTable::DecodeKey(const std::string& key,
                              std::vector<uint32_t>* components) {
  components->clear();
  for (size_t i = 0; i + 4 <= key.size(); i += 4) {
    components->push_back(
        (static_cast<uint32_t>(static_cast<uint8_t>(key[i])) << 24) |
        (static_cast<uint32_t>(static_cast<uint8_t>(key[i + 1])) << 16) |
        (static_cast<uint32_t>(static_cast<uint8_t>(key[i + 2])) << 8) |
        static_cast<uint32_t>(static_cast<uint8_t>(key[i + 3])));
  }
}

bool NodeInfoTable::AddFlags(DeweySpan id, uint8_t flags) {
  RequireDecoded();
  auto it = map_.find(LookupKey(id).view());
  if (it == map_.end()) return false;
  NodeInfo& info = it->second;
  uint8_t before = info.flags;
  info.flags |= flags;
  if ((flags & (kFlagAttribute | kFlagRepeating | kFlagEntity)) != 0 &&
      (info.flags & kFlagConnecting) != 0) {
    info.flags = static_cast<uint8_t>(info.flags & ~kFlagConnecting);
  }
  // Keep the Table 5 tallies in sync with the flag changes.
  if (!(before & kFlagAttribute) && (info.flags & kFlagAttribute)) {
    ++counts_.attribute;
  }
  if (!(before & kFlagRepeating) && (info.flags & kFlagRepeating)) {
    ++counts_.repeating;
  }
  if (!(before & kFlagEntity) && (info.flags & kFlagEntity)) {
    ++counts_.entity;
  }
  if ((before & kFlagConnecting) && !(info.flags & kFlagConnecting)) {
    --counts_.connecting;
  }
  return true;
}

uint32_t NodeInfoTable::InternTag(std::string_view tag) {
  RequireDecoded();
  auto it = tag_ids_.find(tag);
  if (it != tag_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(tags_.size());
  tags_.emplace_back(tag);
  tag_ids_.emplace(std::string(tag), id);
  return id;
}

bool NodeInfoTable::FindTag(std::string_view tag, uint32_t* tag_id) const {
  RequireDecoded();
  auto it = tag_ids_.find(tag);
  if (it == tag_ids_.end()) return false;
  *tag_id = it->second;
  return true;
}

uint32_t NodeInfoTable::AddValue(std::string value) {
  RequireDecoded();
  values_.push_back(std::move(value));
  return static_cast<uint32_t>(values_.size() - 1);
}

uint32_t NodeInfoTable::InternValue(std::string_view value) {
  RequireDecoded();
  if (value_ids_.size() != values_.size()) {
    // First use after construction/deserialization: build the reverse map.
    value_ids_.clear();
    for (size_t i = 0; i < values_.size(); ++i) {
      value_ids_.emplace(values_[i], static_cast<uint32_t>(i));
    }
  }
  auto it = value_ids_.find(value);
  if (it != value_ids_.end()) return it->second;
  uint32_t id = AddValue(std::string(value));
  value_ids_.emplace(values_.back(), id);
  return id;
}

void NodeInfoTable::Put(DeweySpan id, const NodeInfo& info) {
  RequireDecoded();
  map_[EncodeKey(id)] = info;
  ++counts_.total;
  if (info.is_attribute()) ++counts_.attribute;
  if (info.is_repeating()) ++counts_.repeating;
  if (info.is_entity()) ++counts_.entity;
  if (info.is_connecting()) ++counts_.connecting;
}

const NodeInfo* NodeInfoTable::Find(DeweySpan id) const {
  RequireDecoded();
  auto it = map_.find(LookupKey(id).view());
  return it == map_.end() ? nullptr : &it->second;
}

void NodeInfoTable::RebuildEntityDirectory() {
  RequireDecoded();
  std::vector<const std::string*> keys;
  keys.reserve(counts_.entity);
  for (const auto& [key, info] : map_) {
    if (info.is_entity()) keys.push_back(&key);
  }
  // Byte-wise order of the fixed-width big-endian keys IS document order.
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  PackedIds entities;
  std::vector<uint32_t> components;
  for (const std::string* key : keys) {
    DecodeKey(*key, &components);
    entities.Add(DeweySpan{components.data(),
                           static_cast<uint32_t>(components.size())});
  }
  SetEntityDirectory(std::move(entities));
}

void NodeInfoTable::SetEntityDirectory(PackedIds entities) {
  entities_ = std::move(entities);
  entity_parent_.assign(entities_.size(), kNoEntity);
  // Stack of the open entity subtrees, outermost first.
  std::vector<uint32_t> open;
  for (uint32_t i = 0; i < entities_.size(); ++i) {
    DeweySpan id = entities_.At(i);
    while (!open.empty() && !entities_.At(open.back()).IsPrefixOf(id)) {
      open.pop_back();
    }
    if (!open.empty()) entity_parent_[i] = open.back();
    open.push_back(i);
  }
}

uint32_t NodeInfoTable::LowestEntity(DeweySpan id) const {
  RequireDecoded();
  // Binary search for the first entity after `id` in document order.
  size_t lo = 0;
  size_t hi = entities_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (entities_.At(mid).Compare(id) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  uint32_t entity = lo == 0 ? kNoEntity : static_cast<uint32_t>(lo - 1);
  while (entity != kNoEntity && !entities_.At(entity).IsPrefixOf(id)) {
    entity = entity_parent_[entity];
  }
  return entity;
}

uint32_t NodeInfoTable::IsEntity(DeweySpan id) const {
  const NodeInfo* info = Find(id);
  return (info != nullptr && info->is_entity()) ? info->child_count : 0;
}

uint32_t NodeInfoTable::IsElement(DeweySpan id) const {
  const NodeInfo* info = Find(id);
  if (info == nullptr) return 0;
  return (info->is_repeating() || info->is_connecting()) ? info->child_count
                                                         : 0;
}

size_t NodeInfoTable::MemoryUsage() const {
  RequireDecoded();
  size_t bytes = 0;
  for (const auto& [key, info] : map_) {
    bytes += key.capacity() + sizeof(info) + sizeof(void*) * 2;
  }
  for (const auto& tag : tags_) bytes += tag.capacity() + sizeof(tag);
  for (const auto& value : values_) bytes += value.capacity() + sizeof(value);
  bytes += entities_.MemoryUsage() +
           entity_parent_.capacity() * sizeof(uint32_t);
  return bytes;
}

void NodeInfoTable::EncodeTo(std::string* dst) const {
  RequireDecoded();
  PutVarint64(dst, tags_.size());
  for (const std::string& tag : tags_) PutLengthPrefixed(dst, tag);
  PutVarint64(dst, values_.size());
  for (const std::string& value : values_) PutLengthPrefixed(dst, value);
  // Emit nodes in document order and front-code the Dewey keys: adjacent
  // nodes share most of their path, so each entry stores the shared prefix
  // length plus the fresh suffix components as varints.
  std::vector<const std::string*> ordered;
  ordered.reserve(map_.size());
  for (const auto& [key, info] : map_) {
    (void)info;
    ordered.push_back(&key);
  }
  // Byte-wise order of the fixed-width big-endian keys IS document order.
  std::sort(ordered.begin(), ordered.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  PutVarint64(dst, map_.size());
  std::vector<uint32_t> previous;
  std::vector<uint32_t> current;
  for (const std::string* key : ordered) {
    DecodeKey(*key, &current);
    uint32_t shared = 0;
    uint32_t limit =
        static_cast<uint32_t>(std::min(previous.size(), current.size()));
    while (shared < limit && previous[shared] == current[shared]) ++shared;
    PutVarint32(dst, shared);
    PutVarint32(dst, static_cast<uint32_t>(current.size()) - shared);
    for (size_t i = shared; i < current.size(); ++i) {
      PutVarint32(dst, current[i]);
    }
    previous = current;

    const NodeInfo& info = map_.find(*key)->second;
    dst->push_back(static_cast<char>(info.flags));
    PutVarint32(dst, info.child_count);
    PutVarint32(dst, info.tag_id);
    PutVarint32(dst, info.value_id == kNoValue ? 0 : info.value_id + 1);
  }
}

Status NodeInfoTable::DecodeFrom(std::string_view* input, NodeInfoTable* out) {
  *out = NodeInfoTable();
  uint64_t tag_count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &tag_count));
  for (uint64_t i = 0; i < tag_count; ++i) {
    std::string tag;
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(input, &tag));
    out->tags_.push_back(tag);
    out->tag_ids_.emplace(std::move(tag), static_cast<uint32_t>(i));
  }
  uint64_t value_count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &value_count));
  for (uint64_t i = 0; i < value_count; ++i) {
    std::string value;
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(input, &value));
    out->values_.push_back(std::move(value));
  }
  uint64_t node_count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &node_count));
  std::vector<uint32_t> previous;
  // Nodes arrive in document order, so the entity directory fills in this
  // same pass.
  PackedIds entities;
  for (uint64_t i = 0; i < node_count; ++i) {
    uint32_t shared = 0;
    uint32_t fresh = 0;
    GKS_RETURN_IF_ERROR(GetVarint32(input, &shared));
    GKS_RETURN_IF_ERROR(GetVarint32(input, &fresh));
    if (shared > previous.size()) {
      return Status::Corruption("front-coded node key exceeds predecessor");
    }
    if (fresh > 1u << 20) {
      return Status::Corruption("implausible node key length");
    }
    // The key must sort after its predecessor: it extends the shared
    // prefix, and past a diverging component its first fresh one is larger.
    const bool diverges = shared < previous.size();
    const uint32_t diverged = diverges ? previous[shared] : 0;
    previous.resize(shared);
    for (uint32_t j = 0; j < fresh; ++j) {
      uint32_t component = 0;
      GKS_RETURN_IF_ERROR(GetVarint32(input, &component));
      previous.push_back(component);
    }
    if (i > 0 && (fresh == 0 || (diverges && previous[shared] <= diverged))) {
      return Status::Corruption("node keys out of document order");
    }
    std::string key = EncodeKey(DeweySpan{
        previous.data(), static_cast<uint32_t>(previous.size())});
    if (input->size() < 1) return Status::Corruption("truncated node info");
    NodeInfo info;
    info.flags = static_cast<uint8_t>(input->front());
    input->remove_prefix(1);
    GKS_RETURN_IF_ERROR(GetVarint32(input, &info.child_count));
    GKS_RETURN_IF_ERROR(GetVarint32(input, &info.tag_id));
    uint32_t value_plus_one = 0;
    GKS_RETURN_IF_ERROR(GetVarint32(input, &value_plus_one));
    info.value_id = value_plus_one == 0 ? kNoValue : value_plus_one - 1;
    if (info.tag_id >= out->tags_.size()) {
      return Status::Corruption("node tag id out of range");
    }
    if (info.value_id != kNoValue && info.value_id >= out->values_.size()) {
      return Status::Corruption("node value id out of range");
    }
    ++out->counts_.total;
    if (info.is_attribute()) ++out->counts_.attribute;
    if (info.is_repeating()) ++out->counts_.repeating;
    if (info.is_entity()) ++out->counts_.entity;
    if (info.is_connecting()) ++out->counts_.connecting;
    if (info.is_entity()) {
      entities.Add(
          DeweySpan{previous.data(), static_cast<uint32_t>(previous.size())});
    }
    out->map_.emplace(std::move(key), info);
  }
  out->SetEntityDirectory(std::move(entities));
  return Status::OK();
}

}  // namespace gks
