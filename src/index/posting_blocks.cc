#include "index/posting_blocks.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/varint.h"

namespace gks {
namespace {

// v2 storage instruments (docs/OBSERVABILITY.md): every payload decode is
// one unit of the work the lazy path defers; the counter is how you see a
// query's touched-block footprint.
Counter* BlocksDecodedCounter() {
  static Counter* counter = MetricsRegistry::Global().GetCounter(
      "gks.index.v2.blocks_decoded_total");
  return counter;
}

size_t SharedPrefix(DeweySpan a, DeweySpan b) {
  size_t n = std::min(a.size, b.size);
  size_t s = 0;
  while (s < n && a.data[s] == b.data[s]) ++s;
  return s;
}

void EncodeDeltaId(DeweySpan prev, DeweySpan id, std::string* dst) {
  const uint32_t shared = static_cast<uint32_t>(SharedPrefix(prev, id));
  const uint32_t fresh = id.size - shared;  // >= 1: ids are distinct + sorted
  if (shared < 15 && fresh < 15) {
    dst->push_back(static_cast<char>((shared << 4) | fresh));
  } else {
    dst->push_back(static_cast<char>(0xff));
    PutVarint32(dst, shared);
    PutVarint32(dst, fresh);
  }
  uint32_t c = shared;
  if (shared < prev.size) {
    // Document order guarantees id[shared] > prev[shared] when the ids
    // diverge before prev ends, so the delta is stored off-by-one.
    PutVarint32(dst, id.data[c] - prev.data[c] - 1);
    ++c;
  }
  for (; c < id.size; ++c) PutVarint32(dst, id.data[c]);
}

// Decodes one delta-coded id in place over its predecessor's components.
Status DecodeDeltaId(std::string_view* in, std::vector<uint32_t>* comps) {
  uint8_t header = 0;
  if (in->empty()) return Status::Corruption("posting block truncated");
  header = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  uint32_t shared, fresh;
  if (header != 0xff) {
    shared = header >> 4;
    fresh = header & 0x0f;
  } else {
    GKS_RETURN_IF_ERROR(GetVarint32(in, &shared));
    GKS_RETURN_IF_ERROR(GetVarint32(in, &fresh));
  }
  if (fresh == 0 || shared > comps->size() ||
      shared + fresh > (1u << 20)) {
    return Status::Corruption("posting block delta header out of range");
  }
  uint32_t first = 0;
  GKS_RETURN_IF_ERROR(GetVarint32(in, &first));
  if (shared < comps->size()) first += (*comps)[shared] + 1;
  comps->resize(shared + fresh);
  (*comps)[shared] = first;
  for (uint32_t c = shared + 1; c < shared + fresh; ++c) {
    GKS_RETURN_IF_ERROR(GetVarint32(in, &(*comps)[c]));
  }
  return Status::OK();
}

void PutRawId(DeweySpan id, std::string* dst) {
  PutVarint32(dst, id.size);
  for (uint32_t c = 0; c < id.size; ++c) PutVarint32(dst, id.data[c]);
}

}  // namespace

void EncodeBlockPostings(const PackedIds& ids, std::string* dst) {
  const size_t n = ids.size();
  const size_t blocks = (n + kPostingBlockSize - 1) / kPostingBlockSize;
  PutVarint64(dst, n);
  PutVarint64(dst, blocks);

  // Encode payloads first (into a scratch buffer) so the skip table can
  // record exact payload extents.
  std::string payloads;
  std::vector<uint32_t> payload_lens;
  payload_lens.reserve(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * kPostingBlockSize;
    const size_t end = std::min(n, begin + kPostingBlockSize);
    const size_t before = payloads.size();
    for (size_t i = begin + 1; i < end; ++i) {
      EncodeDeltaId(ids.At(i - 1), ids.At(i), &payloads);
    }
    payload_lens.push_back(static_cast<uint32_t>(payloads.size() - before));
  }

  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * kPostingBlockSize;
    const size_t end = std::min(n, begin + kPostingBlockSize);
    DeweySpan first = ids.At(begin);
    DeweySpan last = ids.At(end - 1);
    PutVarint32(dst, static_cast<uint32_t>(end - begin));
    PutVarint32(dst, payload_lens[b]);
    PutRawId(first, dst);
    const uint32_t shared = static_cast<uint32_t>(SharedPrefix(first, last));
    PutVarint32(dst, shared);
    PutVarint32(dst, last.size - shared);
    for (uint32_t c = shared; c < last.size; ++c) {
      PutVarint32(dst, last.data[c]);
    }
  }
  dst->append(payloads);
}

Status BlockPostingsView::Parse(std::string_view* input,
                                BlockPostingsView* out) {
  const std::string_view blob = *input;
  auto at = [&blob](std::string_view rest) {
    return " at blob byte " + std::to_string(blob.size() - rest.size());
  };
  std::string_view in = blob;
  uint64_t id_count = 0, block_count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(&in, &id_count));
  GKS_RETURN_IF_ERROR(GetVarint64(&in, &block_count));
  if (block_count > id_count || id_count > (1ull << 40)) {
    return Status::Corruption("posting blob counts implausible" + at(in));
  }
  if (id_count > 0 && block_count == 0) {
    return Status::Corruption("posting blob has ids but no blocks" + at(in));
  }
  out->id_count_ = id_count;
  out->counts_.clear();
  out->counts_.reserve(block_count);
  out->payload_begin_.assign(1, 0);
  out->payload_begin_.reserve(block_count + 1);
  out->id_begins_.clear();
  out->id_begins_.reserve(block_count);
  out->firsts_ = PackedIds();
  out->lasts_ = PackedIds();

  std::vector<uint32_t> comps;
  uint64_t ids_seen = 0;
  uint64_t payload_total = 0;
  for (uint64_t b = 0; b < block_count; ++b) {
    uint32_t count = 0, payload_len = 0;
    GKS_RETURN_IF_ERROR(GetVarint32(&in, &count));
    GKS_RETURN_IF_ERROR(GetVarint32(&in, &payload_len));
    if (count == 0 || count > kPostingBlockSize) {
      return Status::Corruption("posting block count out of range" + at(in));
    }
    uint32_t ncomps = 0;
    GKS_RETURN_IF_ERROR(GetVarint32(&in, &ncomps));
    if (ncomps == 0 || ncomps > (1u << 20)) {
      return Status::Corruption("posting block first id malformed" + at(in));
    }
    comps.resize(ncomps);
    for (uint32_t c = 0; c < ncomps; ++c) {
      GKS_RETURN_IF_ERROR(GetVarint32(&in, &comps[c]));
    }
    out->firsts_.Add(DeweySpan{comps.data(), ncomps});
    uint32_t shared = 0, fresh = 0;
    GKS_RETURN_IF_ERROR(GetVarint32(&in, &shared));
    GKS_RETURN_IF_ERROR(GetVarint32(&in, &fresh));
    // shared==ncomps && fresh==0 means last == first, impossible for a
    // multi-id block of distinct sorted ids.
    if (shared > ncomps || shared + fresh > (1u << 20) ||
        (count > 1 && fresh == 0 && shared == ncomps)) {
      return Status::Corruption("posting block last id malformed" + at(in));
    }
    comps.resize(shared + fresh);
    for (uint32_t c = shared; c < shared + fresh; ++c) {
      GKS_RETURN_IF_ERROR(GetVarint32(&in, &comps[c]));
    }
    out->lasts_.Add(
        DeweySpan{comps.data(), static_cast<uint32_t>(comps.size())});
    out->counts_.push_back(count);
    out->id_begins_.push_back(static_cast<uint32_t>(ids_seen));
    ids_seen += count;
    payload_total += payload_len;
    out->payload_begin_.push_back(static_cast<uint32_t>(payload_total));
  }
  if (ids_seen != id_count) {
    return Status::Corruption("posting blob block counts sum to " +
                              std::to_string(ids_seen) + ", header says " +
                              std::to_string(id_count));
  }
  if (in.size() < payload_total) {
    return Status::Corruption("posting blob payloads truncated" + at(in));
  }
  out->payloads_ = in.substr(0, payload_total);
  in.remove_prefix(payload_total);
  out->encoded_size_ = blob.size() - in.size();
  *input = in;
  return Status::OK();
}

size_t BlockPostingsView::FindBlockLowerBound(DeweySpan id) const {
  // First block whose last id >= id; blocks are sorted, so binary search
  // over the skip table's `lasts_`.
  size_t lo = 0, hi = block_count();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (lasts_.At(mid).Compare(id) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status BlockPostingsView::DecodeBlock(size_t b, PackedIds* out) const {
  DeweySpan first = firsts_.At(b);
  out->Add(first);
  std::string_view payload = payloads_.substr(
      payload_begin_[b], payload_begin_[b + 1] - payload_begin_[b]);
  const uint32_t count = counts_[b];
  if (count > 1) {
    thread_local std::vector<uint32_t> comps;
    comps.assign(first.data, first.data + first.size);
    for (uint32_t i = 1; i < count; ++i) {
      GKS_RETURN_IF_ERROR(DecodeDeltaId(&payload, &comps));
      out->Add(DeweySpan{comps.data(), static_cast<uint32_t>(comps.size())});
    }
  }
  if (!payload.empty()) {
    return Status::Corruption("posting block " + std::to_string(b) +
                              " has trailing bytes");
  }
  BlocksDecodedCounter()->Add(1);
  return Status::OK();
}

Status BlockPostingsView::DecodeAll(PackedIds* out) const {
  for (size_t b = 0; b < block_count(); ++b) {
    GKS_RETURN_IF_ERROR(DecodeBlock(b, out));
  }
  return Status::OK();
}

}  // namespace gks
