// Status-returning file I/O for everything the library persists: the
// release store's segments and manifest, and the CSV reader/writers.
// Library code never touches iostreams or raw descriptors for durable
// data — it goes through Env, which
//
//   * surfaces every failure (open, read, short write, fsync, truncate)
//     as a Status::IOError carrying the path and errno,
//   * funnels each primitive through a named failpoint
//     (common/failpoint.h), so tests can deterministically inject faults
//     at every I/O site the process has,
//   * exposes the durability primitives (Sync, SyncDir, append-mode
//     open, TruncateFile) the store's append-only manifest is built on
//     (docs/ARCHITECTURE.md, "Durability contract").
//
// The eep-lint rule `raw-file-io` enforces the funnel: direct
// ifstream/ofstream/fopen/open(2) use outside src/common/ is a finding.
#ifndef EEP_COMMON_FILE_H_
#define EEP_COMMON_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace eep {

/// \brief Sequential append-only handle to one open file.
///
/// Writes are buffered by the kernel only (no userspace buffer): Append
/// issues write(2) directly, so a short write injected by a failpoint
/// leaves exactly the prefix it claims on disk.
class WritableFile {
 public:
  ~WritableFile();
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  /// Appends `n` bytes; loops on partial write(2). On an injected short
  /// write the stated prefix reaches the file and an IOError surfaces.
  Status Append(const char* data, size_t n);
  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }

  /// fsync(2): the bytes appended so far are durable when this returns OK.
  Status Sync();

  /// Closes the descriptor; further operations fail. Idempotent.
  Status Close();

  /// Bytes successfully appended so far (the flush-then-verify length).
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  friend class Env;
  WritableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_;
  uint64_t bytes_written_ = 0;
};

/// \brief Positioned reads from one open file.
class RandomAccessFile {
 public:
  ~RandomAccessFile();
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  /// Reads exactly `n` bytes at `offset` into *out (resized). Reading past
  /// EOF — even partially — is an IOError: callers read framed blocks
  /// whose lengths they know, so a short read means truncation.
  Status Read(uint64_t offset, size_t n, std::string* out) const;

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  friend class Env;
  RandomAccessFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_;
  uint64_t size_;
};

/// \brief The filesystem entry points (POSIX). One process-wide instance;
/// fault injection happens through the failpoint registry, not by
/// subclassing.
class Env {
 public:
  static Env* Default();

  /// Creates/truncates `path` for appending.
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path);
  /// Opens `path` (creating it if missing) for appending after its current
  /// end; never truncates. bytes_written() counts this handle's appends.
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path);
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path);

  /// Whole-file convenience wrappers over the handles above.
  Result<std::string> ReadFileToString(const std::string& path);
  /// Write + (optionally) fsync + close; on success the file holds exactly
  /// `data`.
  Status WriteStringToFile(const std::string& path, const std::string& data,
                           bool sync);

  /// Cuts `path` to its first `size` bytes and fsyncs it: recovery's
  /// removal of a torn manifest tail.
  Status TruncateFile(const std::string& path, uint64_t size);
  Status RemoveFile(const std::string& path);
  Status CreateDirIfMissing(const std::string& path);
  /// fsync on the directory itself, making a prior create/remove durable.
  Status SyncDir(const std::string& path);

  Result<bool> FileExists(const std::string& path);
  Result<uint64_t> FileSize(const std::string& path);
  /// Regular-file names directly under `path`, sorted.
  Result<std::vector<std::string>> ListDir(const std::string& path);

 private:
  Env() = default;
  Result<std::unique_ptr<WritableFile>> OpenWritable(const std::string& path,
                                                     int mode_flag);
};

}  // namespace eep

#endif  // EEP_COMMON_FILE_H_
