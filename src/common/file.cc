#include "common/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"

namespace eep {
namespace {

Status PosixError(const std::string& what, const std::string& path,
                  int err) {
  return Status::IOError(what + " '" + path + "': " +
                         std::strerror(err) + " (errno " +
                         std::to_string(err) + ")");
}

}  // namespace

// ---------------------------------------------------------------------------
// WritableFile
// ---------------------------------------------------------------------------

WritableFile::~WritableFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status WritableFile::Append(const char* data, size_t n) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("Append on closed file '" + path_ +
                                      "'");
  }
  FailpointDecision fp = FailpointRegistry::Instance().Consult("file/append");
  if (fp.fire && fp.fault == FailpointFault::kShortWrite) {
    // Write the stated prefix for real so the torn tail exists on disk,
    // then surface the error — exactly what a disk-full mid-write does.
    n = std::min(n, fp.partial_bytes);
  } else if (fp.fire) {
    return fp.status;
  }
  size_t done = 0;
  while (done < n) {
    const ssize_t wrote = ::write(fd_, data + done, n - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return PosixError("write", path_, errno);
    }
    done += static_cast<size_t>(wrote);
    bytes_written_ += static_cast<uint64_t>(wrote);
  }
  if (fp.fire) return fp.status;  // the injected short write
  return Status::OK();
}

Status WritableFile::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("Sync on closed file '" + path_ + "'");
  }
  EEP_FAILPOINT("file/sync");
  if (::fsync(fd_) != 0) return PosixError("fsync", path_, errno);
  return Status::OK();
}

Status WritableFile::Close() {
  if (fd_ < 0) return Status::OK();
  EEP_FAILPOINT("file/close");
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return PosixError("close", path_, errno);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RandomAccessFile
// ---------------------------------------------------------------------------

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status RandomAccessFile::Read(uint64_t offset, size_t n,
                              std::string* out) const {
  EEP_FAILPOINT("file/read");
  out->resize(n);
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::pread(fd_, out->data() + done, n - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return PosixError("pread", path_, errno);
    }
    if (got == 0) {
      return Status::IOError("short read '" + path_ + "': wanted " +
                             std::to_string(n) + " bytes at offset " +
                             std::to_string(offset) + ", file ends after " +
                             std::to_string(done));
    }
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

Env* Env::Default() {
  static Env* env = new Env();
  return env;
}

Result<std::unique_ptr<WritableFile>> Env::OpenWritable(
    const std::string& path, int mode_flag) {
  FailpointDecision fp =
      FailpointRegistry::Instance().Consult("file/open-write");
  if (fp.fire) return fp.status;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | mode_flag, 0644);
  if (fd < 0) return PosixError("open for writing", path, errno);
  return std::unique_ptr<WritableFile>(new WritableFile(path, fd));
}

Result<std::unique_ptr<WritableFile>> Env::NewWritableFile(
    const std::string& path) {
  return OpenWritable(path, O_TRUNC);
}

Result<std::unique_ptr<WritableFile>> Env::NewAppendableFile(
    const std::string& path) {
  return OpenWritable(path, O_APPEND);
}

Result<std::unique_ptr<RandomAccessFile>> Env::NewRandomAccessFile(
    const std::string& path) {
  FailpointDecision fp =
      FailpointRegistry::Instance().Consult("file/open-read");
  if (fp.fire) return fp.status;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return PosixError("open for reading", path, errno);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return PosixError("fstat", path, err);
  }
  return std::unique_ptr<RandomAccessFile>(new RandomAccessFile(
      path, fd, static_cast<uint64_t>(st.st_size)));
}

Result<std::string> Env::ReadFileToString(const std::string& path) {
  EEP_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                       NewRandomAccessFile(path));
  std::string data;
  EEP_RETURN_NOT_OK(file->Read(0, file->size(), &data));
  return data;
}

Status Env::WriteStringToFile(const std::string& path,
                              const std::string& data, bool sync) {
  EEP_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       NewWritableFile(path));
  EEP_RETURN_NOT_OK(file->Append(data));
  if (sync) EEP_RETURN_NOT_OK(file->Sync());
  return file->Close();
}

Status Env::TruncateFile(const std::string& path, uint64_t size) {
  EEP_FAILPOINT("file/truncate");
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return PosixError("open for truncating", path, errno);
  Status status = Status::OK();
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    status = PosixError("ftruncate", path, errno);
  } else if (::fsync(fd) != 0) {
    status = PosixError("fsync", path, errno);
  }
  if (::close(fd) != 0 && status.ok()) {
    status = PosixError("close", path, errno);
  }
  return status;
}

Status Env::RemoveFile(const std::string& path) {
  EEP_FAILPOINT("file/remove");
  if (::unlink(path.c_str()) != 0) return PosixError("unlink", path, errno);
  return Status::OK();
}

Status Env::CreateDirIfMissing(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0) return Status::OK();
  if (errno == EEXIST) {
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      return Status::OK();
    }
    return Status::IOError("not a directory: '" + path + "'");
  }
  return PosixError("mkdir", path, errno);
}

Status Env::SyncDir(const std::string& path) {
  EEP_FAILPOINT("file/sync-dir");
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return PosixError("open directory", path, errno);
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return PosixError("fsync directory", path, err);
  }
  if (::close(fd) != 0) return PosixError("close directory", path, errno);
  return Status::OK();
}

Result<bool> Env::FileExists(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) return true;
  if (errno == ENOENT || errno == ENOTDIR) return false;
  return PosixError("stat", path, errno);
}

Result<uint64_t> Env::FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return PosixError("stat", path, errno);
  return static_cast<uint64_t>(st.st_size);
}

Result<std::vector<std::string>> Env::ListDir(const std::string& path) {
  EEP_FAILPOINT("file/open-read");
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return PosixError("opendir", path, errno);
  std::vector<std::string> names;
  struct dirent* entry;
  errno = 0;
  while ((entry = ::readdir(dir)) != nullptr) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (::stat((path + "/" + name).c_str(), &st) == 0 &&
        S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
    errno = 0;
  }
  const int err = errno;
  ::closedir(dir);
  if (err != 0) return PosixError("readdir", path, err);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace eep
