#include "cache/file_block_provider.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

#include "common/macros.h"

namespace dbtouch::cache {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path, int err) {
  const std::string msg =
      op + " '" + path + "': " + std::strerror(err);
  switch (err) {
    // Transient: the next attempt may succeed (signal, backpressure).
    case EAGAIN:
    case EINTR:
      return Status::ResourceExhausted(msg);
    case ENOENT:
      return Status::NotFound(msg);
    default:
      // EACCES, EBADF, EIO, ...: permanent for the fetch path — shed the
      // stalled gesture instead of spinning retries against a dead file.
      return Status::Internal(msg);
  }
}

/// Full-coverage pread: loops over short kernel reads and EINTR. Returns
/// bytes actually read (< size only at EOF).
Result<std::int64_t> PreadFully(int fd, std::byte* dst, std::int64_t size,
                                std::int64_t offset,
                                const std::string& path) {
  std::int64_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, dst + done,
                              static_cast<std::size_t>(size - done),
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("pread", path, errno);
    }
    if (n == 0) {
      break;  // EOF: the file is shorter than the extent table claims.
    }
    done += n;
  }
  return done;
}

/// Full-coverage pwrite: loops over short writes and EINTR.
Status PwriteFully(int fd, const std::byte* src, std::int64_t size,
                   std::int64_t offset, const std::string& path) {
  std::int64_t done = 0;
  while (done < size) {
    const ssize_t n = ::pwrite(fd, src + done,
                               static_cast<std::size_t>(size - done),
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("pwrite", path, errno);
    }
    done += n;
  }
  return Status::OK();
}

}  // namespace

// ---- BlockFileWriter --------------------------------------------------------

BlockFileWriter::BlockFileWriter(std::string path,
                                 const BlockGeometry& geometry,
                                 std::vector<storage::DataType> columns)
    : path_(std::move(path)),
      geometry_(geometry),
      columns_(std::move(columns)) {
  DBTOUCH_CHECK(geometry_.rows_per_block > 0);
  // The geometry must agree with the layout the columns imply — the
  // reader reconstructs minipage offsets from the column directory alone.
  const storage::PaxLayout layout(columns_);
  DBTOUCH_CHECK(geometry_.type == layout.type(0));
  DBTOUCH_CHECK(geometry_.width() == layout.row_bytes());
  fd_ = ::open(path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) {
    open_status_ = ErrnoStatus("open", path_, errno);
    return;
  }
  // Header + extent table + column directory are sealed by Finish, so a
  // crashed spill leaves an invalid (zero-magic) file, never a
  // half-readable one. Payload writes are positioned (pwrite), so nothing
  // needs pre-extending.
  bytes_written_ =
      static_cast<std::int64_t>(sizeof(BlockFileHeader)) +
      geometry_.num_blocks() *
          static_cast<std::int64_t>(sizeof(BlockExtent)) +
      static_cast<std::int64_t>(columns_.size() * sizeof(std::uint32_t));
  extents_.reserve(static_cast<std::size_t>(geometry_.num_blocks()));
}

BlockFileWriter::~BlockFileWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status BlockFileWriter::Append(const std::byte* data, std::size_t size) {
  DBTOUCH_RETURN_IF_ERROR(open_status_);
  if (finished_) {
    return Status::FailedPrecondition("block file already finished");
  }
  if (next_block_ >= geometry_.num_blocks()) {
    return Status::OutOfRange("append past the last block of '" + path_ +
                              "'");
  }
  const std::int64_t expected =
      geometry_.BlockRowCount(next_block_) *
      static_cast<std::int64_t>(geometry_.width());
  if (static_cast<std::int64_t>(size) != expected) {
    return Status::InvalidArgument(
        "block " + std::to_string(next_block_) + " of '" + path_ +
        "' is " + std::to_string(size) + " bytes, expected " +
        std::to_string(expected));
  }
  const std::int64_t offset = bytes_written_;
  DBTOUCH_RETURN_IF_ERROR(PwriteFully(
      fd_, data, static_cast<std::int64_t>(size), offset, path_));
  extents_.push_back(BlockExtent{offset, static_cast<std::int64_t>(size)});
  bytes_written_ = offset + static_cast<std::int64_t>(size);
  ++next_block_;
  return Status::OK();
}

Status BlockFileWriter::Finish() {
  DBTOUCH_RETURN_IF_ERROR(open_status_);
  if (finished_) {
    return Status::FailedPrecondition("block file already finished");
  }
  if (next_block_ != geometry_.num_blocks()) {
    return Status::FailedPrecondition(
        "finish after " + std::to_string(next_block_) + " of " +
        std::to_string(geometry_.num_blocks()) + " blocks of '" + path_ +
        "'");
  }
  const std::int64_t extent_bytes =
      geometry_.num_blocks() * static_cast<std::int64_t>(sizeof(BlockExtent));
  std::vector<std::uint32_t> dir;
  dir.reserve(columns_.size());
  for (const storage::DataType type : columns_) {
    dir.push_back(static_cast<std::uint32_t>(type));
  }
  const auto dir_bytes =
      static_cast<std::int64_t>(dir.size() * sizeof(std::uint32_t));
  BlockFileHeader header;
  header.type = static_cast<std::uint32_t>(geometry_.type);
  header.width = static_cast<std::uint32_t>(geometry_.width());
  header.row_count = geometry_.row_count;
  header.rows_per_block = geometry_.rows_per_block;
  header.num_blocks = geometry_.num_blocks();
  header.payload_offset =
      static_cast<std::int64_t>(sizeof(BlockFileHeader)) + extent_bytes +
      dir_bytes;
  header.num_columns = static_cast<std::uint32_t>(dir.size());
  DBTOUCH_RETURN_IF_ERROR(PwriteFully(
      fd_, reinterpret_cast<const std::byte*>(extents_.data()), extent_bytes,
      static_cast<std::int64_t>(sizeof(BlockFileHeader)), path_));
  DBTOUCH_RETURN_IF_ERROR(PwriteFully(
      fd_, reinterpret_cast<const std::byte*>(dir.data()), dir_bytes,
      static_cast<std::int64_t>(sizeof(BlockFileHeader)) + extent_bytes,
      path_));
  // The header goes last: its magic is the commit record.
  DBTOUCH_RETURN_IF_ERROR(PwriteFully(
      fd_, reinterpret_cast<const std::byte*>(&header), sizeof(header), 0,
      path_));
  if (::close(fd_) != 0) {
    fd_ = -1;
    return ErrnoStatus("close", path_, errno);
  }
  fd_ = -1;
  finished_ = true;
  return Status::OK();
}

// ---- FileFaultInjector ------------------------------------------------------

void FileFaultInjector::FailNextReads(int n, Fault fault) {
  const std::lock_guard<std::mutex> lock(mu_);
  fail_next_ = n;
  next_fault_ = fault;
}

void FileFaultInjector::set_fail_every(int n, Fault fault) {
  const std::lock_guard<std::mutex> lock(mu_);
  fail_every_ = n;
  every_fault_ = fault;
}

FileFaultInjector::Fault FileFaultInjector::Next() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++reads_;
  Fault fault = Fault::kNone;
  if (fail_next_ > 0) {
    --fail_next_;
    fault = next_fault_;
  } else if (fail_every_ > 0 && reads_ % fail_every_ == 0) {
    fault = every_fault_;
  }
  if (fault != Fault::kNone) {
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  return fault;
}

// ---- FileBlockProvider ------------------------------------------------------

Result<std::shared_ptr<FileBlockProvider>> FileBlockProvider::Open(
    const std::string& path,
    std::vector<std::shared_ptr<storage::Dictionary>> dictionaries) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return ErrnoStatus("open", path, errno);
  }
  // From here every early return must close fd (no RAII wrapper needed
  // for this one linear function).
  const auto fail = [&](Status status) -> Result<
                        std::shared_ptr<FileBlockProvider>> {
    ::close(fd);
    return status;
  };
  const auto inconsistent = [&] {
    return fail(Status::InvalidArgument("'" + path +
                                        "' has an inconsistent header"));
  };

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    return fail(ErrnoStatus("fstat", path, errno));
  }
  BlockFileHeader header;
  if (st.st_size < static_cast<off_t>(sizeof(header))) {
    return fail(Status::InvalidArgument("'" + path +
                                        "' is too small for a block file "
                                        "header"));
  }
  const Result<std::int64_t> header_read =
      PreadFully(fd, reinterpret_cast<std::byte*>(&header), sizeof(header),
                 0, path);
  if (!header_read.ok()) {
    return fail(header_read.status());
  }
  if (*header_read != sizeof(header) ||
      std::memcmp(header.magic, BlockFileHeader::kMagic, 4) != 0) {
    return fail(Status::InvalidArgument("'" + path +
                                        "' is not a dbTouch block file "
                                        "(bad magic)"));
  }
  if (header.version != BlockFileHeader::kVersion) {
    return fail(Status::InvalidArgument(
        "'" + path + "' has block-file version " +
        std::to_string(header.version) + ", expected " +
        std::to_string(BlockFileHeader::kVersion)));
  }
  if (header.flags != 0) {
    return fail(Status::InvalidArgument(
        "'" + path + "' carries unknown block-file flags " +
        std::to_string(header.flags)));
  }
  if (header.type > static_cast<std::uint32_t>(storage::DataType::kString)) {
    return fail(Status::InvalidArgument(
        "'" + path + "' has unknown type code " +
        std::to_string(header.type)));
  }
  if (header.rows_per_block <= 0 || header.row_count < 0 ||
      header.num_blocks < 0 || header.width == 0 ||
      header.num_columns == 0) {
    return inconsistent();
  }
  // Every size below derives from header counts: bound each by the file's
  // real size before it is multiplied or allocated, so a hostile header
  // fails validation instead of overflowing or exhausting memory. The
  // extent table and column directory must fit behind the header, and
  // every row needs `width` payload bytes.
  const std::int64_t file_bytes = static_cast<std::int64_t>(st.st_size);
  const std::int64_t room =
      file_bytes - static_cast<std::int64_t>(sizeof(BlockFileHeader));
  constexpr auto kExtentBytes =
      static_cast<std::int64_t>(sizeof(BlockExtent));
  constexpr auto kDirEntryBytes =
      static_cast<std::int64_t>(sizeof(std::uint32_t));
  if (header.num_blocks > room / kExtentBytes ||
      static_cast<std::int64_t>(header.num_columns) >
          (room - header.num_blocks * kExtentBytes) / kDirEntryBytes ||
      header.row_count > file_bytes / header.width ||
      header.rows_per_block >
          std::numeric_limits<std::int64_t>::max() - header.row_count) {
    return fail(Status::InvalidArgument("'" + path +
                                        "' has a header its size cannot "
                                        "hold"));
  }
  const std::int64_t extent_bytes = header.num_blocks * kExtentBytes;
  const std::int64_t dir_bytes =
      static_cast<std::int64_t>(header.num_columns) * kDirEntryBytes;
  if (header.payload_offset !=
      static_cast<std::int64_t>(sizeof(BlockFileHeader)) + extent_bytes +
          dir_bytes) {
    return inconsistent();
  }

  // The column directory (after the extent table) is the source of truth
  // for the row layout; it must reproduce the header's row width, and its
  // first column the header's type.
  std::vector<std::uint32_t> dir(header.num_columns);
  const Result<std::int64_t> dir_read = PreadFully(
      fd, reinterpret_cast<std::byte*>(dir.data()), dir_bytes,
      static_cast<std::int64_t>(sizeof(BlockFileHeader)) + extent_bytes,
      path);
  if (!dir_read.ok()) {
    return fail(dir_read.status());
  }
  if (*dir_read != dir_bytes) {
    return fail(Status::InvalidArgument("'" + path +
                                        "' column directory is "
                                        "truncated"));
  }
  std::vector<storage::DataType> types;
  types.reserve(dir.size());
  for (const std::uint32_t code : dir) {
    if (code > static_cast<std::uint32_t>(storage::DataType::kString)) {
      return fail(Status::InvalidArgument(
          "'" + path + "' column directory has unknown type code " +
          std::to_string(code)));
    }
    types.push_back(static_cast<storage::DataType>(code));
  }
  storage::PaxLayout layout(std::move(types));
  BlockGeometry geometry;
  geometry.type = static_cast<storage::DataType>(header.type);
  geometry.row_count = header.row_count;
  geometry.rows_per_block = header.rows_per_block;
  geometry.row_bytes = layout.row_bytes();
  if (layout.type(0) != geometry.type || header.width != geometry.width() ||
      header.num_blocks != geometry.num_blocks()) {
    return inconsistent();
  }

  auto provider =
      std::shared_ptr<FileBlockProvider>(new FileBlockProvider());
  provider->path_ = path;
  provider->dictionaries_ = std::move(dictionaries);
  if (layout.num_columns() > 1) {
    provider->pax_layout_ = std::move(layout);
  }
  provider->geometry_ = geometry;
  provider->extents_.resize(static_cast<std::size_t>(header.num_blocks));
  const Result<std::int64_t> extents_read =
      PreadFully(fd, reinterpret_cast<std::byte*>(provider->extents_.data()),
                 extent_bytes, sizeof(BlockFileHeader), path);
  if (!extents_read.ok()) {
    return fail(extents_read.status());
  }
  if (*extents_read != extent_bytes) {
    return fail(Status::InvalidArgument("'" + path +
                                        "' extent table is truncated"));
  }
  // Extents must tile [payload_offset, ...) back to back with the sizes
  // the geometry dictates. That determinism is what lets ReadRange span
  // adjacent blocks with one read.
  std::int64_t expected_offset = header.payload_offset;
  for (std::int64_t b = 0; b < header.num_blocks; ++b) {
    const BlockExtent& extent =
        provider->extents_[static_cast<std::size_t>(b)];
    const std::int64_t expected_bytes =
        geometry.BlockRowCount(b) *
        static_cast<std::int64_t>(geometry.width());
    if (extent.offset != expected_offset ||
        extent.bytes != expected_bytes) {
      return fail(Status::InvalidArgument(
          "'" + path + "' extent " + std::to_string(b) +
          " does not tile the payload"));
    }
    expected_offset = extent.offset + extent.bytes;
  }
  provider->fd_ = fd;
  return provider;
}

FileBlockProvider::~FileBlockProvider() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status FileBlockProvider::ReadAt(std::int64_t offset, std::byte* dst,
                                 std::int64_t size,
                                 const std::string& what) {
  if (FileFaultInjector* injector =
          injector_.load(std::memory_order_acquire)) {
    switch (injector->Next()) {
      case FileFaultInjector::Fault::kNone:
        break;
      case FileFaultInjector::Fault::kShortRead:
        return Status::Aborted("injected short read of " + what +
                               " from '" + path_ + "'");
      case FileFaultInjector::Fault::kIoError:
        return Status::ResourceExhausted("injected I/O error reading " +
                                         what + " from '" + path_ + "'");
      case FileFaultInjector::Fault::kPermissionDenied:
        return Status::Internal("injected permission error reading " +
                                what + " from '" + path_ + "'");
    }
  }
  const Result<std::int64_t> read = PreadFully(fd_, dst, size, offset, path_);
  DBTOUCH_RETURN_IF_ERROR(read.status());
  if (*read != size) {
    // The file ended before the extent did (e.g. truncated underneath
    // us). Transient by contract: the spill may still be completing or
    // the file healing; bounded retries decide when to give up.
    return Status::Aborted("short read of " + what + " from '" + path_ +
                           "': got " + std::to_string(*read) + " of " +
                           std::to_string(size) + " bytes");
  }
  return Status::OK();
}

Result<std::vector<std::byte>> FileBlockProvider::Fetch(std::int64_t block) {
  if (block < 0 || block >= geometry_.num_blocks()) {
    return Status::OutOfRange("block " + std::to_string(block) +
                              " out of range");
  }
  const BlockExtent& extent = extents_[static_cast<std::size_t>(block)];
  std::vector<std::byte> payload(static_cast<std::size_t>(extent.bytes));
  DBTOUCH_RETURN_IF_ERROR(ReadAt(extent.offset, payload.data(),
                                 extent.bytes,
                                 "block " + std::to_string(block)));
  reads_.fetch_add(1, std::memory_order_relaxed);
  blocks_read_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(extent.bytes, std::memory_order_relaxed);
  return payload;
}

Result<std::vector<std::byte>> FileBlockProvider::ReadRange(
    std::int64_t first_block, std::int64_t count) {
  DBTOUCH_RETURN_IF_ERROR(CheckBlockRange(geometry_, first_block, count));
  const BlockExtent& first = extents_[static_cast<std::size_t>(first_block)];
  const BlockExtent& last =
      extents_[static_cast<std::size_t>(first_block + count - 1)];
  const std::int64_t bytes = last.offset + last.bytes - first.offset;
  std::vector<std::byte> payload(static_cast<std::size_t>(bytes));
  DBTOUCH_RETURN_IF_ERROR(
      ReadAt(first.offset, payload.data(), bytes,
             "blocks " + std::to_string(first_block) + ".." +
                 std::to_string(first_block + count - 1)));
  reads_.fetch_add(1, std::memory_order_relaxed);
  if (count > 1) {
    ranged_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  blocks_read_.fetch_add(count, std::memory_order_relaxed);
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  return payload;
}

}  // namespace dbtouch::cache
