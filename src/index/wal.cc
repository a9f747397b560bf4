#include "index/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/varint.h"

namespace gks {
namespace {

/// Little-endian u32 framing — fixed width so a reader can tell "header
/// incomplete" from "payload incomplete" without guessing.
void PutFixed32(uint32_t value, std::string* dst) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  dst->append(buf, 4);
}

uint32_t GetFixed32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

Status WriteAllFd(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wal write: ") +
                             std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

uint32_t WalCrc32(std::string_view bytes) {
  // Table-driven CRC-32 (IEEE 802.3, reflected). Built once; 1KiB.
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
      }
      table[i] = crc;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char c : bytes) {
    crc = kTable[(crc ^ c) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodeWalRecord(const WalRecord& record, std::string* dst) {
  std::string payload;
  payload.push_back(static_cast<char>(record.type));
  PutVarint32(&payload, record.doc_id);
  PutLengthPrefixed(&payload, record.name);
  if (record.type == WalRecordType::kInsert) {
    PutLengthPrefixed(&payload, record.xml);
  }
  PutFixed32(WalCrc32(payload), dst);
  PutFixed32(static_cast<uint32_t>(payload.size()), dst);
  dst->append(payload);
}

Status DecodeWalRecord(std::string_view* input, WalRecord* out) {
  if (input->size() < 8) {
    return Status::Corruption("wal record: truncated frame header");
  }
  uint32_t crc = GetFixed32(input->data());
  uint32_t length = GetFixed32(input->data() + 4);
  if (input->size() < 8 + static_cast<size_t>(length)) {
    return Status::Corruption("wal record: truncated payload");
  }
  std::string_view payload = input->substr(8, length);
  if (WalCrc32(payload) != crc) {
    return Status::Corruption("wal record: crc mismatch");
  }
  if (payload.empty()) {
    return Status::Corruption("wal record: empty payload");
  }
  WalRecord record;
  uint8_t type = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  if (type != static_cast<uint8_t>(WalRecordType::kInsert) &&
      type != static_cast<uint8_t>(WalRecordType::kDelete)) {
    return Status::Corruption("wal record: unknown type " +
                              std::to_string(type));
  }
  record.type = static_cast<WalRecordType>(type);
  GKS_RETURN_IF_ERROR(GetVarint32(&payload, &record.doc_id));
  GKS_RETURN_IF_ERROR(GetLengthPrefixed(&payload, &record.name));
  if (record.type == WalRecordType::kInsert) {
    GKS_RETURN_IF_ERROR(GetLengthPrefixed(&payload, &record.xml));
  }
  if (!payload.empty()) {
    return Status::Corruption("wal record: trailing bytes in payload");
  }
  input->remove_prefix(8 + length);
  *out = std::move(record);
  return Status::OK();
}

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      fsync_(other.fsync_),
      path_(std::move(other.path_)),
      bytes_(other.bytes_),
      records_(other.records_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    fsync_ = other.fsync_;
    path_ = std::move(other.path_);
    bytes_ = other.bytes_;
    records_ = other.records_;
    other.fd_ = -1;
  }
  return *this;
}

Result<WalWriter> WalWriter::Open(const std::string& path, bool fsync,
                                  int64_t expected_bytes) {
  int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) {
    return Status::IOError("wal open '" + path + "': " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("wal stat '" + path + "': " +
                           std::strerror(errno));
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  if (expected_bytes >= 0 && size > static_cast<uint64_t>(expected_bytes)) {
    // Cut the torn tail recovery identified before the first new append.
    if (::ftruncate(fd, expected_bytes) != 0) {
      ::close(fd);
      return Status::IOError("wal truncate '" + path + "': " +
                             std::strerror(errno));
    }
    size = static_cast<uint64_t>(expected_bytes);
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.fsync_ = fsync;
  writer.path_ = path;
  writer.bytes_ = size;
  if (size == 0) {
    if (Status status = WriteAllFd(fd, kWalMagic); !status.ok()) {
      return status;
    }
    writer.bytes_ = kWalMagic.size();
    if (fsync) GKS_RETURN_IF_ERROR(writer.Sync());
  } else if (::lseek(fd, 0, SEEK_END) < 0) {
    return Status::IOError("wal seek '" + path + "': " +
                           std::strerror(errno));
  }
  return writer;
}

Status WalWriter::Append(const WalRecord& record) {
  if (fd_ < 0) return Status::IOError("wal writer is closed");
  std::string framed;
  EncodeWalRecord(record, &framed);
  GKS_RETURN_IF_ERROR(WriteAllFd(fd_, framed));
  bytes_ += framed.size();
  ++records_;
  if (fsync_) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::IOError("wal writer is closed");
  if (::fsync(fd_) != 0) {
    return Status::IOError("wal fsync '" + path_ + "': " +
                           std::strerror(errno));
  }
  return Status::OK();
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WalReplay> ReplayWal(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("wal file '" + path + "' does not exist");
    }
    return Status::IOError("wal open '" + path + "': " +
                           std::strerror(errno));
  }
  std::string contents;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("wal read '" + path + "': " +
                             std::strerror(errno));
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  if (contents.size() < kWalMagic.size() ||
      std::string_view(contents).substr(0, kWalMagic.size()) != kWalMagic) {
    // An empty or foreign file is not a WAL; refusing loudly beats
    // silently treating user data as an empty log.
    return Status::Corruption("'" + path + "' is not a GKSWAL01 file");
  }

  WalReplay replay;
  std::string_view input(contents);
  input.remove_prefix(kWalMagic.size());
  replay.valid_bytes = kWalMagic.size();
  while (!input.empty()) {
    WalRecord record;
    std::string_view before = input;
    if (!DecodeWalRecord(&input, &record).ok()) {
      // Torn or corrupt tail: keep the verified prefix, report the cut.
      (void)before;
      replay.clean = false;
      break;
    }
    replay.valid_bytes += before.size() - input.size();
    replay.records.push_back(std::move(record));
  }
  return replay;
}

Status SyncDirOf(const std::string& path) {
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::OK();  // best effort
  (void)::fsync(fd);
  ::close(fd);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("create '" + tmp + "': " + std::strerror(errno));
  }
  std::string_view remaining = bytes;
  while (!remaining.empty()) {
    ssize_t n = ::write(fd, remaining.data(), remaining.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("write '" + tmp + "': " + std::strerror(errno));
    }
    remaining.remove_prefix(static_cast<size_t>(n));
  }
  bool sync_failed = ::fsync(fd) != 0;
  ::close(fd);
  if (sync_failed) {
    return Status::IOError("fsync '" + tmp + "': " + std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename '" + tmp + "' -> '" + path + "': " +
                           std::strerror(errno));
  }
  return SyncDirOf(path);
}

}  // namespace gks
