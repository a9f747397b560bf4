#include "common/varint.h"

namespace gks {

void PutVarint32(std::string* dst, uint32_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

Status GetVarint64(std::string_view* input, uint64_t* value) {
  uint64_t result = 0;
  int consumed = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (input->empty()) {
      return Status::Corruption("truncated varint after byte " +
                                std::to_string(consumed));
    }
    uint8_t byte = static_cast<uint8_t>(input->front());
    input->remove_prefix(1);
    ++consumed;
    // The 10th byte only has room for bit 63: anything above 0x01 would
    // shift data past the top of a uint64 and silently truncate.
    if (shift == 63 && byte > 0x01) {
      return Status::Corruption("varint overflows 64 bits at byte " +
                                std::to_string(consumed - 1));
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject overlong (non-canonical) encodings such as 0x80 0x00: a
      // trailing zero byte after a continuation adds no payload bits, and
      // accepting it would let one value have many encodings — a classic
      // parser-differential hazard for checksummed/signed payloads.
      if (byte == 0 && consumed > 1) {
        return Status::Corruption("overlong varint encoding at byte " +
                                  std::to_string(consumed - 1));
      }
      *value = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint continues past byte " +
                            std::to_string(consumed - 1) +
                            " (max 10 bytes)");
}

Status GetMultiByteVarint32(std::string_view* input, uint32_t* value) {
  uint64_t wide = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &wide));
  if (wide > UINT32_MAX) {
    return Status::Corruption("varint32 overflow (value " +
                              std::to_string(wide) + ")");
  }
  *value = static_cast<uint32_t>(wide);
  return Status::OK();
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Status GetLengthPrefixed(std::string_view* input, std::string* value) {
  uint64_t len = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(input, &len));
  if (input->size() < len) {
    return Status::Corruption("truncated length-prefixed string");
  }
  value->assign(input->data(), len);
  input->remove_prefix(len);
  return Status::OK();
}

}  // namespace gks
