#include "binlog/binlog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/bytes.h"
#include "common/check.h"

namespace radar::binlog {
namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = BuildCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

BinlogWriter::~BinlogWriter() { Close(); }

bool BinlogWriter::Open(const std::string& path, FsyncPolicy fsync_policy,
                        std::string* error) {
  Close();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = path + ": open failed: " + std::strerror(errno);
    }
    return false;
  }
  fd_ = fd;
  fsync_policy_ = fsync_policy;
  path_ = path;
  return true;
}

bool BinlogWriter::Append(std::int64_t time_us, std::int32_t src,
                          std::int32_t dst, const std::uint8_t* payload,
                          std::size_t payload_size) {
  RADAR_CHECK(is_open());
  RADAR_CHECK_LE(payload_size, static_cast<std::size_t>(kMaxRecordPayload));
  scratch_.resize(kRecordHeaderSize + payload_size);
  ByteWriter({scratch_.data(), kRecordHeaderSize})
      .Put(kRecordMagic, static_cast<std::uint32_t>(payload_size),
           Crc32(payload, payload_size), std::uint32_t{0} /* reserved */,
           time_us, src, dst);
  std::copy_n(payload, payload_size, scratch_.begin() + kRecordHeaderSize);

  // One write per record: a record is torn only if the OS tears the
  // single write (the reader handles that), never by interleaving.
  std::size_t off = 0;
  while (off < scratch_.size()) {
    const ssize_t n = ::write(fd_, scratch_.data() + off, scratch_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (fsync_policy_ == FsyncPolicy::kEveryRecord) {
    if (::fsync(fd_) != 0) return false;
  }
  ++records_written_;
  return true;
}

bool BinlogWriter::Reset() {
  RADAR_CHECK(is_open());
  if (::ftruncate(fd_, 0) != 0) return false;
  if (fsync_policy_ == FsyncPolicy::kEveryRecord) {
    if (::fsync(fd_) != 0) return false;
  }
  return true;
}

void BinlogWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
}

std::optional<ReadResult> ReadBinlog(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  const std::uint8_t* data =
      reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::size_t size = bytes.size();

  ReadResult result;
  std::size_t pos = 0;
  while (pos < size) {
    const std::size_t remaining = size - pos;
    if (remaining < kRecordHeaderSize) {
      result.clean = false;
      result.stop_reason = "torn-header";
      break;
    }
    std::uint32_t magic = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t crc = 0;
    std::uint32_t reserved = 0;
    Record record;
    ByteReader({data + pos, kRecordHeaderSize})
        .Get(magic, payload_len, crc, reserved, record.time_us, record.src,
             record.dst);
    if (magic != kRecordMagic) {
      result.clean = false;
      result.stop_reason = "bad-magic";
      break;
    }
    if (payload_len > kMaxRecordPayload) {
      result.clean = false;
      result.stop_reason = "bad-length";
      break;
    }
    if (remaining - kRecordHeaderSize < payload_len) {
      result.clean = false;
      result.stop_reason = "torn-payload";
      break;
    }
    const std::uint8_t* payload = data + pos + kRecordHeaderSize;
    if (crc != Crc32(payload, payload_len)) {
      result.clean = false;
      result.stop_reason = "bad-crc";
      break;
    }
    record.payload.assign(payload, payload + payload_len);
    result.records.push_back(std::move(record));
    pos += kRecordHeaderSize + payload_len;
  }
  result.valid_bytes = pos;
  return result;
}

}  // namespace radar::binlog
