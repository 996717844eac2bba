#include "recover/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "recover/options.hpp"
#include "sched/taskpool.hpp"
#include "support/metrics.hpp"

namespace conflux::recover {

namespace {

// 64-byte header layout (all fields little-endian, the only byte order the
// toolchain targets):
//   [ 0] u32 magic "CFXK"      [ 4] u32 version
//   [ 8] u8  kind              [ 9] u8  scalar    [10] u16 reserved
//   [12] i32 px                [16] i32 py        [20] i32 pz
//   [24] i64 n                 [32] i64 v         [40] i64 step
//   [48] u64 payload size      [56] u64 chunked word-FNV checksum of payload
constexpr std::uint32_t kMagic = 0x4b584643u;  // "CFXK"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 64;

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kLaneInit[4] = {
    0xcbf29ce484222325ULL, 0x9e3779b97f4a7c15ULL,
    0xc2b2ae3d27d4eb4fULL, 0x165667b19e3779f9ULL};

/// One chunk's digest: FNV-1a over 8-byte words, interleaved across four
/// independent lanes so the multiply chains pipeline (a single chain runs
/// at ~5 cycles/word), lanes folded with the non-word tail and avalanched.
std::uint64_t digest_range(const std::uint8_t* data, std::size_t bytes) {
  std::uint64_t lanes[4] = {kLaneInit[0], kLaneInit[1], kLaneInit[2],
                            kLaneInit[3]};
  std::size_t i = 0;
  std::uint64_t word_ix = 0;
  for (; i + 8 <= bytes; i += 8, ++word_ix) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    const auto l = static_cast<std::size_t>(word_ix & 3);
    lanes[l] = (lanes[l] ^ w) * kFnvPrime;
  }
  std::uint64_t h = lanes[0];
  h = (h ^ lanes[1]) * kFnvPrime;
  h = (h ^ lanes[2]) * kFnvPrime;
  h = (h ^ lanes[3]) * kFnvPrime;
  for (; i < bytes; ++i) h = (h ^ data[i]) * kFnvPrime;
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  return h;
}

/// Payload checksum: the payload is split at fixed 4 MB boundaries, each
/// chunk digested independently (in parallel over the pool — at checkpoint
/// sizes, tens of MB, a serial scan alone would bust the bench's
/// checkpoint-overhead gate), and the ordered chunk digests FNV-folded into
/// one value. Chunk boundaries depend only on the payload size, so the
/// checksum is a pure function of the bytes at any thread count.
constexpr std::size_t kChecksumChunkBytes = std::size_t{4} << 20;

std::uint64_t payload_checksum(const std::uint8_t* data, std::size_t bytes) {
  const std::size_t nchunks =
      bytes == 0 ? 0 : (bytes - 1) / kChecksumChunkBytes + 1;
  std::vector<std::uint64_t> digests(nchunks);
  const auto n = static_cast<index_t>(nchunks);
  sched::TaskPool::instance().parallel_for(n, [&](index_t c) {
    const std::size_t lo = static_cast<std::size_t>(c) * kChecksumChunkBytes;
    const std::size_t len = std::min(kChecksumChunkBytes, bytes - lo);
    digests[static_cast<std::size_t>(c)] = digest_range(data + lo, len);
  });
  std::uint64_t h = kLaneInit[0];
  for (const std::uint64_t d : digests) h = (h ^ d) * kFnvPrime;
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  return h;
}

template <typename T>
void write_at(Blob& blob, std::size_t off, T value) {
  std::memcpy(blob.data() + off, &value, sizeof(T));
}

template <typename T>
T read_at(const Blob& blob, std::size_t off) {
  T value;
  std::memcpy(&value, blob.data() + off, sizeof(T));
  return value;
}

[[noreturn]] void reject(const std::string& what) {
  throw status_error(Status(StatusCode::kCheckpointInvalid, what));
}

const metrics::Counter& saves_counter() {
  static const metrics::Counter c("recover.ckpt.saves");
  return c;
}
const metrics::Counter& bytes_counter() {
  static const metrics::Counter c("recover.ckpt.bytes");
  return c;
}

struct Registry {
  std::mutex mu;
  std::map<std::string, Blob> blobs;
  // Replaced snapshots, kept for their capacity: the next SnapshotWriter of
  // the same key reuses the allocation, so steady-state checkpointing does
  // no large allocations (and takes no fresh-page faults).
  std::map<std::string, Blob> scratch;
};

Registry& registry() {
  static Registry r;
  return r;
}

Blob take_scratch(const SnapshotKey& key) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.scratch.find(key.to_string());
  if (it == r.scratch.end()) return {};
  Blob b = std::move(it->second);
  r.scratch.erase(it);
  return b;
}

std::string file_path(const std::string& dir, const SnapshotKey& key) {
  return dir + "/" + key.to_string() + ".ckpt";
}

/// Atomic file mirror: write the whole blob to "<path>.tmp", then rename.
/// A reader never sees a half-written snapshot; at worst the rename is lost
/// and the previous snapshot survives. Failures are swallowed — the
/// in-memory registry already holds the blob, and a missing file mirror
/// only matters to a cross-process resume, which will then report "no
/// snapshot" rather than read garbage.
void mirror_to_file(const std::string& dir, const SnapshotKey& key,
                    const Blob& blob) {
  const std::string path = file_path(dir, key);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  const bool ok =
      std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  const bool closed = std::fclose(f) == 0;
  if (ok && closed) {
    std::rename(tmp.c_str(), path.c_str());
  } else {
    std::remove(tmp.c_str());
  }
}

Blob load_from_file(const std::string& dir, const SnapshotKey& key) {
  std::FILE* f = std::fopen(file_path(dir, key).c_str(), "rb");
  if (f == nullptr) return {};
  Blob blob;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    blob.insert(blob.end(), buf, buf + got);
  }
  std::fclose(f);
  return blob;
}

}  // namespace

std::string SnapshotKey::to_string() const {
  std::string out = kind == FactorKind::kLu ? "lu" : "chol";
  out += '-';
  out += scalar;
  out += "-n" + std::to_string(n) + "-v" + std::to_string(v);
  out += "-g" + std::to_string(px) + "x" + std::to_string(py) + "x" +
         std::to_string(pz);
  return out;
}

SnapshotWriter::SnapshotWriter(const SnapshotKey& key, std::int64_t step)
    : blob_(take_scratch(key)) {
  blob_.assign(kHeaderBytes, 0);  // assign keeps the recycled capacity
  write_at<std::uint32_t>(blob_, 0, kMagic);
  write_at<std::uint32_t>(blob_, 4, kVersion);
  blob_[8] = static_cast<std::uint8_t>(key.kind);
  blob_[9] = static_cast<std::uint8_t>(key.scalar);
  write_at<std::int32_t>(blob_, 12, key.px);
  write_at<std::int32_t>(blob_, 16, key.py);
  write_at<std::int32_t>(blob_, 20, key.pz);
  write_at<std::int64_t>(blob_, 24, key.n);
  write_at<std::int64_t>(blob_, 32, key.v);
  write_at<std::int64_t>(blob_, 40, step);
}

void SnapshotWriter::put_i64(std::int64_t value) {
  put_bytes(&value, sizeof(value));
}

void SnapshotWriter::put_f64(double value) { put_bytes(&value, sizeof(value)); }

void SnapshotWriter::put_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  blob_.insert(blob_.end(), p, p + bytes);
}

void SnapshotWriter::put_indices(const std::vector<index_t>& values) {
  put_i64(static_cast<std::int64_t>(values.size()));
  put_bytes(values.data(), values.size() * sizeof(index_t));
}

Blob SnapshotWriter::seal() && {
  const std::uint64_t payload = blob_.size() - kHeaderBytes;
  write_at<std::uint64_t>(blob_, 48, payload);
  write_at<std::uint64_t>(
      blob_, 56, payload_checksum(blob_.data() + kHeaderBytes, payload));
  return std::move(blob_);
}

SnapshotReader::SnapshotReader(const SnapshotKey& key, const Blob& blob)
    : blob_(blob), pos_(kHeaderBytes) {
  if (blob.size() < kHeaderBytes) reject("snapshot shorter than its header");
  if (read_at<std::uint32_t>(blob, 0) != kMagic) reject("bad snapshot magic");
  if (read_at<std::uint32_t>(blob, 4) != kVersion) {
    reject("unsupported snapshot version " +
           std::to_string(read_at<std::uint32_t>(blob, 4)));
  }
  SnapshotKey got;
  got.kind = static_cast<FactorKind>(blob[8]);
  got.scalar = static_cast<char>(blob[9]);
  got.px = read_at<std::int32_t>(blob, 12);
  got.py = read_at<std::int32_t>(blob, 16);
  got.pz = read_at<std::int32_t>(blob, 20);
  got.n = read_at<std::int64_t>(blob, 24);
  got.v = read_at<std::int64_t>(blob, 32);
  if (!(got == key)) {
    reject("snapshot is for " + got.to_string() + ", expected " +
           key.to_string());
  }
  step_ = read_at<std::int64_t>(blob, 40);
  if (step_ < 0) reject("negative snapshot step");
  const std::uint64_t payload = read_at<std::uint64_t>(blob, 48);
  if (payload != blob.size() - kHeaderBytes) {
    reject("snapshot payload size mismatch (header says " +
           std::to_string(payload) + ", blob carries " +
           std::to_string(blob.size() - kHeaderBytes) + ")");
  }
  const std::uint64_t want = read_at<std::uint64_t>(blob, 56);
  const std::uint64_t have = payload_checksum(blob.data() + kHeaderBytes, payload);
  if (want != have) reject("snapshot checksum mismatch");
}

std::int64_t SnapshotReader::get_i64() {
  std::int64_t value;
  get_bytes(&value, sizeof(value));
  return value;
}

double SnapshotReader::get_f64() {
  double value;
  get_bytes(&value, sizeof(value));
  return value;
}

void SnapshotReader::get_bytes(void* out, std::size_t bytes) {
  if (bytes > blob_.size() - pos_) reject("snapshot payload underrun");
  std::memcpy(out, blob_.data() + pos_, bytes);
  pos_ += bytes;
}

std::vector<index_t> SnapshotReader::get_indices() {
  const std::int64_t count = get_i64();
  if (count < 0 ||
      static_cast<std::uint64_t>(count) >
          (blob_.size() - pos_) / sizeof(index_t)) {
    reject("snapshot index vector overruns the payload");
  }
  std::vector<index_t> values(static_cast<std::size_t>(count));
  get_bytes(values.data(), values.size() * sizeof(index_t));
  return values;
}

void store_blob(const SnapshotKey& key, Blob blob) {
  saves_counter().add(1.0);
  bytes_counter().add(static_cast<double>(blob.size()));
  const Options opt = options();
  if (!opt.ckpt_dir.empty()) mirror_to_file(opt.ckpt_dir, key, blob);
  Registry& r = registry();
  const std::string name = key.to_string();
  std::lock_guard<std::mutex> lock(r.mu);
  Blob& slot = r.blobs[name];
  r.scratch[name] = std::move(slot);  // recycle the replaced allocation
  slot = std::move(blob);
}

Blob latest_blob(const SnapshotKey& key) {
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.blobs.find(key.to_string());
    if (it != r.blobs.end()) return it->second;
  }
  const Options opt = options();
  if (!opt.ckpt_dir.empty()) return load_from_file(opt.ckpt_dir, key);
  return {};
}

bool has_latest(const SnapshotKey& key) { return !latest_blob(key).empty(); }

void inject_blob(const SnapshotKey& key, Blob raw) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.blobs[key.to_string()] = std::move(raw);
}

void clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.blobs.clear();
  r.scratch.clear();
}

}  // namespace conflux::recover
