// Durable budget-ledger checkpoints for the serving layer.
//
// The paper's guarantee (Theorem 1, sequential composition) only holds if
// spent epsilon is never forgotten: a service that loses its ledger state
// on restart silently re-grants budget that was already spent — a privacy
// bug, not an ops gap. This module makes the per-feed ledgers durable:
//
//   - ServiceCheckpoint / FeedCheckpoint: the snapshot image. Per feed it
//     carries exactly the state FeedBudgetCarry already hands across idle
//     eviction — the wholesale spent total, the ledger's maximum spend
//     (per_object_floor), the cumulative window count, and the
//     session-generation counter. Recovery therefore flows through the
//     SAME conservative-carry path eviction uses: the successor session
//     floors its one ledger (ObjectBudgetAccountant::PreloadFloor) at
//     FeedBudgetCarry::LedgerFloor — per_object_floor under a per-object
//     budget, wholesale_spent otherwise — so every key of a recovered
//     feed is assumed to have spent it, and a crash can only under-grant
//     remaining budget, never over-grant.
//
//   - Encode/Decode: a versioned, line-oriented text format ending in an
//     FNV-1a 64 checksum line. Decoding is strict — wrong magic, missing
//     fields, trailing garbage, a truncated tail, or a checksum mismatch
//     all fail — so a torn or corrupted snapshot is rejected instead of
//     silently seeding wrong ledgers.
//
//   - CheckpointStore: atomic persistence. Write() serializes to
//     <dir>/budget_ledgers.ckpt.tmp, fsyncs the file, renames it over
//     <dir>/budget_ledgers.ckpt, and fsyncs the directory, so the snapshot
//     on disk is always a complete old or complete new image. Load()
//     returns nullopt when no snapshot exists (first boot) and an error
//     for unreadable/corrupt snapshots.
//
// Write-ahead discipline (enforced by ServiceDispatcher, documented here
// because the format is the contract): a snapshot covering a window's
// spend is made durable BEFORE that window's output is handed to the
// sink. Whatever the crash point, the ledger state on disk is then always
// >= the epsilon actually published, which is exactly the invariant the
// kill-recover tests assert.

#ifndef FRT_SERVICE_CHECKPOINT_H_
#define FRT_SERVICE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace frt {

/// One feed's durable budget state — the same fields FeedBudgetCarry
/// hands from an evicted session to its successor.
struct FeedCheckpoint {
  std::string feed;
  /// Session generations created so far; a recovered feed's next session
  /// continues the count (fresh RNG stream, continued window indices).
  uint64_t generations = 0;
  /// Windows closed across all generations (window indices keep rising).
  uint64_t windows_closed = 0;
  /// Exact sum of every window's spend — the floor of a recovered feed
  /// without a per-object budget.
  double wholesale_spent = 0.0;
  /// The ledger's maximum cumulative spend
  /// (ObjectBudgetAccountant::max_spent()) — the floor every object of a
  /// feed recovered under a per-object budget starts at.
  double per_object_floor = 0.0;
};

/// A whole service snapshot: every feed's ledger state plus the budget
/// configuration it was taken under (recorded for diagnostics; recovery
/// carries spend regardless — spent epsilon stays spent even if the
/// operator changes budgets across the restart).
struct ServiceCheckpoint {
  /// Monotone snapshot counter; survives restarts (recovery resumes it).
  uint64_t sequence = 0;
  double total_budget = 0.0;
  double per_object_budget = 0.0;
  std::vector<FeedCheckpoint> feeds;
};

/// \brief Serializes a snapshot into the versioned text format, checksum
/// line included.
std::string EncodeCheckpoint(const ServiceCheckpoint& checkpoint);

/// \brief Strictly parses a snapshot. Any deviation — bad magic/version,
/// malformed numbers, duplicate feeds, truncation before the checksum
/// line, checksum mismatch, bytes after the checksum — is an error.
Result<ServiceCheckpoint> DecodeCheckpoint(std::string_view text);

/// \brief Atomic snapshot persistence in one state directory (see file
/// comment). Not thread-safe; the dispatcher thread owns it.
class CheckpointStore {
 public:
  /// \brief Opens (creating if needed) the state directory.
  static Result<CheckpointStore> Open(const std::string& dir);

  /// \brief Reads and verifies the current snapshot. nullopt when none
  /// exists yet; an error when one exists but cannot be trusted.
  Result<std::optional<ServiceCheckpoint>> Load() const;

  /// \brief Durably replaces the snapshot: write temp, fsync, atomic
  /// rename, fsync directory. Every step's failure — the directory
  /// fsync included — is an IOError: a rename that is not yet durable
  /// would silently void the write-ahead guarantee on power loss.
  Status Write(const ServiceCheckpoint& checkpoint);

  /// \brief Makes the latest rename durable: open + fsync + close of the
  /// state directory. Split out of Write() so the failure paths (a
  /// deleted or unreadable state directory) are testable directly.
  Status SyncDir() const;

  /// Snapshot path (<dir>/budget_ledgers.ckpt).
  const std::string& path() const { return path_; }

 private:
  explicit CheckpointStore(std::string dir);

  std::string dir_;
  std::string path_;
  std::string tmp_path_;
};

}  // namespace frt

#endif  // FRT_SERVICE_CHECKPOINT_H_
