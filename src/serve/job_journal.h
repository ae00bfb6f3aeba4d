#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/serve_protocol.h"
#include "util/durable_file.h"

namespace lmp::serve {

/// One job as reconstructed from (or about to enter) the journal. The
/// journal is the server's source of truth across crashes: everything a
/// restarted server needs to re-admit and resume the job lives here —
/// the script text, retry budget, deadline, accumulated attempts, and
/// the newest checkpoint a resumed attempt should restart from.
struct JournalJob {
  std::uint64_t id = 0;
  std::string tenant;
  std::string name;
  std::string script;
  std::uint32_t deadline_ms = 0;
  std::uint16_t max_attempts = 0;
  JobState state = JobState::kPending;
  std::uint16_t attempts = 0;
  std::int32_t completed_steps = 0;
  std::string restart_file;  ///< newest durable checkpoint ("" = from scratch)
  std::string detail;        ///< terminal outcome / last failure text
  // Per-job silent-corruption history (journal v2), accumulated over
  // every run of every incarnation: how often the integrity guards
  // tripped and how many rollback+recompute cycles healed the job.
  std::uint64_t integrity_detections = 0;
  std::uint64_t integrity_rollbacks = 0;
};

/// What recovery found when the journal was opened.
struct RecoveryInfo {
  std::uint64_t jobs_seen = 0;        ///< distinct job ids in the log
  std::uint64_t requeued = 0;         ///< non-terminal jobs returned pending
  std::uint64_t torn_bytes = 0;       ///< trailing partial record truncated
  bool compacted = false;             ///< log was rewritten on open
};

/// Durable append-only job journal.
///
/// File format: the msg_codec frame format (magic + CRC per record) with
/// a private type range so protocol frames and journal records can never
/// be confused:
///   0x4A00 header  — format version, written first in every file
///   0x4A01 submit  — full JournalJob at admission (state kPending)
///   0x4A02 state   — {id, state, attempts, completed_steps,
///                     restart_file, detail} transition
/// Every append is fsync'd before the state change it records is acted
/// on (write-ahead). Recovery replays the log, truncates a torn tail
/// (partial final record after a crash mid-append), folds transitions
/// into the submit records, requeues non-terminal jobs as kPending, and
/// compacts: the folded table is rewritten atomically
/// (write_file_durable) and the append log reopened on the compact file,
/// so the journal does not grow without bound across restarts and
/// terminal jobs shed their script text.
class JobJournal {
 public:
  JobJournal() = default;

  /// Opens (creating if absent) and recovers the journal at `path`.
  /// Throws std::runtime_error on I/O failure or an unreadable record
  /// that is not a clean torn tail (mid-file corruption is refused, not
  /// skipped — a journal that lies is worse than one that fails loudly).
  void open(const std::string& path);
  bool is_open() const { return log_.is_open(); }
  const std::string& path() const { return path_; }

  /// Recovery outcome of the most recent open().
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Folded job table, keyed by id, in id order.
  const std::map<std::uint64_t, JournalJob>& jobs() const { return jobs_; }

  /// Smallest id not yet used (max existing + 1; 1 for a fresh journal).
  std::uint64_t next_id() const;

  /// Durably records a new job (write-ahead: returns only after fsync).
  /// The job must have a fresh id; state is forced to kPending.
  void record_submit(const JournalJob& job);

  /// Durably records a transition for an existing id. `restart_file`,
  /// `detail`, and the integrity counters overwrite the stored values
  /// (pass the previous ones to keep them).
  void record_state(std::uint64_t id, JobState state, std::uint16_t attempts,
                    std::int32_t completed_steps,
                    const std::string& restart_file, const std::string& detail,
                    std::uint64_t integrity_detections = 0,
                    std::uint64_t integrity_rollbacks = 0);

  void close() { log_.close(); }

 private:
  void compact();

  util::AppendLog log_;
  std::string path_;
  std::map<std::uint64_t, JournalJob> jobs_;
  RecoveryInfo recovery_;
};

}  // namespace lmp::serve
