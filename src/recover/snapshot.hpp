// Step-granular checkpoint snapshots (DESIGN.md "Recovery model").
//
// A snapshot is one opaque byte blob: a fixed 64-byte header followed by a
// checksummed payload the factor core serializes/deserializes itself. The
// header pins everything that must match for a restore to be meaningful —
// magic, format version, factorization kind, scalar type, problem shape
// (n, v) and grid (px, py, pz) — plus the step the snapshot was taken at,
// the payload size, and a chunked word-FNV checksum of the payload (fixed
// 4 MB chunks digested independently — in parallel over the pool on both
// the save and restore paths — then folded in order). SnapshotReader
// validates ALL of it before a single payload byte is interpreted; any
// mismatch, truncation, or checksum failure is a typed
// status_error(kCheckpointInvalid), never undefined behaviour.
//
// Snapshots are taken at drained step boundaries (every ckpt_every outer
// steps, after the pool has retired all tasks that write state the snapshot
// covers), so a restore followed by re-execution of the remaining steps is
// bitwise identical to the uninterrupted run.
//
// Storage is a process-wide latest-snapshot registry keyed by the
// SnapshotKey (one live snapshot per distinct factorization shape; a newer
// snapshot of the same key replaces the older — restart only ever wants the
// latest). When Options::ckpt_dir is set, each store also mirrors the blob
// to "<dir>/<key>.ckpt" via write-to-temp + rename, so a killed process can
// be resumed by a fresh one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.hpp"
#include "tensor/matrix.hpp"

namespace conflux::recover {

/// Default-initializing allocator: SnapshotWriter::put_space grows the blob
/// without a serial zero-fill, so parallel row copies fault its pages in.
using Blob = std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>>;

enum class FactorKind : std::uint8_t {
  kLu = 1,
  kCholesky = 2,
};

/// Identity of a factorization for snapshot matching: two runs share
/// snapshots iff their keys are equal.
struct SnapshotKey {
  FactorKind kind = FactorKind::kLu;
  char scalar = 'd';  ///< 'd' = double, 'f' = float
  std::int64_t n = 0;
  std::int64_t v = 0;  ///< block size
  std::int32_t px = 0, py = 0, pz = 0;

  /// Stable registry/file key, e.g. "lu-d-n2048-v64-g4x4x4".
  std::string to_string() const;

  bool operator==(const SnapshotKey&) const = default;
};

/// Serializes one snapshot. Usage: construct, put_* the payload in a fixed
/// order, seal() to patch the header (payload size + checksum) and take the
/// blob. The writer is append-only; the put_* order IS the format, and the
/// reader must consume in the same order.
class SnapshotWriter {
 public:
  SnapshotWriter(const SnapshotKey& key, std::int64_t step);

  void put_i64(std::int64_t value);
  void put_f64(double value);
  void put_bytes(const void* data, std::size_t bytes);
  /// Append `bytes` of unwritten payload and return where it starts. The
  /// caller writes all of it, possibly from several threads, before the
  /// next put_* or seal(); bulk rows then need no serial copy.
  std::uint8_t* put_space(std::size_t bytes);
  /// Length-prefixed raw dump of an index vector.
  void put_indices(const std::vector<index_t>& values);

  /// Finalize: write payload size and checksum into the header and
  /// surrender the blob. The writer must not be used afterwards.
  Blob seal() &&;

 private:
  Blob blob_;
};

/// Validates and deserializes one snapshot. The constructor checks the
/// header against `key` (magic, version, kind, scalar, shape, grid), the
/// payload size against the blob, and the checksum against the payload;
/// every get_* bounds-checks. All failures throw
/// status_error(kCheckpointInvalid).
class SnapshotReader {
 public:
  SnapshotReader(const SnapshotKey& key, const Blob& blob);

  /// Outer step the snapshot was taken at (restart resumes here).
  std::int64_t step() const { return step_; }

  std::int64_t get_i64();
  double get_f64();
  void get_bytes(void* out, std::size_t bytes);
  std::vector<index_t> get_indices();

  /// Unread payload bytes (step-0 marker snapshots must carry none).
  std::size_t remaining() const { return blob_.size() - pos_; }

 private:
  const Blob& blob_;
  std::size_t pos_ = 0;
  std::int64_t step_ = 0;
};

/// Register `blob` as the latest snapshot for `key` (and mirror it to
/// Options::ckpt_dir when set). Counts recover.ckpt.saves/bytes.
void store_blob(const SnapshotKey& key, Blob blob);

/// The latest snapshot for `key`: the in-memory registry first, then the
/// ckpt_dir file (a fresh process resuming a killed one). Empty when none.
Blob latest_blob(const SnapshotKey& key);

/// True when latest_blob(key) would return a non-empty blob.
bool has_latest(const SnapshotKey& key);

/// Test hook: install raw bytes (possibly garbage) as the latest snapshot
/// for `key`, bypassing the save counters — corrupt-snapshot legs use this
/// to prove restore rejects bad blobs with a typed Status.
void inject_blob(const SnapshotKey& key, Blob raw);

/// Drop every registered snapshot (in-memory only; files are left behind).
void clear();

}  // namespace conflux::recover
