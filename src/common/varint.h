#ifndef GKS_COMMON_VARINT_H_
#define GKS_COMMON_VARINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gks {

/// LEB128-style variable-length integer encoding used by the on-disk index
/// format. Small values (the common case for Dewey components and deltas)
/// take one byte.
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);

/// Decodes a varint from the front of `*input`, advancing it past the
/// consumed bytes. Returns Corruption on truncated or overlong input.
Status GetVarint64(std::string_view* input, uint64_t* value);
/// GetVarint32's out-of-line path: every input that does not start with a
/// one-byte value, including empty (truncated) input.
Status GetMultiByteVarint32(std::string_view* input, uint32_t* value);
/// One-byte values, most Dewey components and posting deltas, decode
/// inline: posting-block decode runs through here once per component.
inline Status GetVarint32(std::string_view* input, uint32_t* value) {
  if (!input->empty() && static_cast<uint8_t>(input->front()) < 0x80) {
    *value = static_cast<uint8_t>(input->front());
    input->remove_prefix(1);
    return Status::OK();
  }
  return GetMultiByteVarint32(input, value);
}

/// Length-prefixed string helpers built on the varints above.
void PutLengthPrefixed(std::string* dst, std::string_view value);
Status GetLengthPrefixed(std::string_view* input, std::string* value);

}  // namespace gks

#endif  // GKS_COMMON_VARINT_H_
