#pragma once
// Crash-safe checkpoint journal for batch fleets (svc::run_batch): an
// append-only JSONL file with one JobOutcome per line. Durability model
// (docs/ROBUSTNESS.md):
//
//  * every append is flushed and fsynced before run_batch counts the
//    job as checkpointed, so a kill -9 mid-sweep loses at most the jobs
//    that were still in flight;
//  * a crash can leave at most one torn (partial) trailing line; load()
//    discards it and open_for_append() compacts the journal through the
//    write-temp + flush + atomic-rename helper (util::write_file_atomic),
//    so the on-disk file is a complete, valid snapshot before any new
//    outcome is appended;
//  * a *complete* line that fails to parse is data corruption, not a torn
//    write, and load() throws hg::ParseError with line context.
//
// canonical_journal() reduces a journal to its order- and timing-
// independent form (sorted canonical lines) for the determinism guard.

#include <cstdio>
#include <string>
#include <vector>

#include "svc/job.hpp"

namespace fixedpart::svc {

/// The untyped durability core every journal in svc shares: an
/// append-only file of complete '\n'-terminated lines, fsynced per
/// append, with the torn trailing line a crash can leave discarded on
/// load and compacted away (atomically) before new appends. What the
/// lines *mean* is the caller's business — CheckpointJournal stores
/// JobOutcomes, svc::PartitionServer stores event-tagged job records.
class LineJournal {
 public:
  /// No file is touched until load()/open_for_append()/append().
  explicit LineJournal(std::string path);
  ~LineJournal();

  LineJournal(const LineJournal&) = delete;
  LineJournal& operator=(const LineJournal&) = delete;

  /// Every complete line, in file order (missing file = empty journal).
  /// A torn trailing line — no newline terminator — is discarded.
  std::vector<std::string> load() const;

  /// Compacts the journal to its complete lines (atomic replace + parent
  /// directory fsync) and opens it for appending. Returns the survivors.
  std::vector<std::string> open_for_append();

  /// Appends one line (terminator added here) and makes it durable
  /// (flush + fsync) before returning. Opens the file first if
  /// open_for_append was not called.
  void append(const std::string& line);

  /// Replaces the journal's entire content with `lines` atomically
  /// (write-temp + rename + parent fsync) and reopens it for appending:
  /// how a long-lived writer compacts away superseded lines without a
  /// window where a crash loses the journal. Appends made by other
  /// threads must be excluded by the caller's lock.
  void rewrite(const std::vector<std::string>& lines);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

class CheckpointJournal {
 public:
  /// No file is touched until load()/open_for_append()/append().
  explicit CheckpointJournal(std::string path);

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Parses every completed outcome (missing file = empty journal). A
  /// torn trailing line — no newline terminator — is discarded.
  std::vector<JobOutcome> load() const;

  /// Compacts the journal to the parseable prefix (atomically) and opens
  /// it for appending. Returns the outcomes that survived, i.e. the jobs
  /// --resume may skip.
  std::vector<JobOutcome> open_for_append();

  /// Appends one outcome and makes it durable (flush + fsync) before
  /// returning. Opens the file first if open_for_append was not called.
  void append(const JobOutcome& outcome);

  const std::string& path() const { return lines_.path(); }

 private:
  LineJournal lines_;
};

/// Sorted, timing-stripped journal lines: byte-identical for a given
/// manifest and seed regardless of worker count or completion order.
std::vector<std::string> canonical_journal(
    const std::vector<JobOutcome>& outcomes);

}  // namespace fixedpart::svc
