#pragma once
// Crash-safe whole-file writes. write_file_atomic publishes `content`
// under `path` via write-temp + flush(+fsync) + atomic rename, so readers
// never observe a truncated or half-written file: they see either the old
// content or the new content, even if the writer dies mid-write. Used by
// the svc checkpoint journal (compaction and summaries), the server's
// upload spool, the metrics exporter, flight-recorder dumps and
// bench/bench_large's JSON snapshot.

#include <cstdio>
#include <string>

namespace fixedpart::util {

/// Atomically replaces (or creates) `path` with `content`. The temporary
/// sibling is named `path` + ".tmp" and is removed on failure. Throws
/// std::runtime_error naming the path on any IO error.
void write_file_atomic(const std::string& path, const std::string& content);

/// Flushes `content` to an open FILE-descriptor-backed stream and fsyncs
/// it (no-op fsync on platforms without one). Shared by write_file_atomic
/// and the append-mode checkpoint journal.
void flush_and_sync(std::FILE* file, const std::string& path);

/// Fsyncs the directory containing `path`, making a just-created or
/// just-renamed entry durable (rename alone is atomic but not durable on
/// ext4/xfs). Filesystems that cannot fsync directories (EINVAL/ENOTSUP)
/// are tolerated; other errors throw std::runtime_error. No-op on
/// platforms without directory fds.
void sync_parent_dir(const std::string& path);

}  // namespace fixedpart::util
