// WAL-layer instrumentation from outside the engine: a wal::Vfs that
// forwards to Vfs::Posix() and counts appends, bytes and syncs per file
// kind. Handed to the engine through WalOptions::vfs. When a SpanRecorder
// is attached, every append and sync also becomes a `wal.append` /
// `wal.sync` span, nested under whatever span the calling thread has open
// (the benchmark's `tx.commit`).
#ifndef PGT_PERFBENCH_WAL_PROBE_H_
#define PGT_PERFBENCH_WAL_PROBE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/trace.h"
#include "src/wal/vfs.h"

namespace perfbench {

/// Which file an operation hit: a log segment (`wal-*.log`) or a snapshot
/// (`snap-*.pgs`, including its `.tmp` before the publishing rename).
enum class WalFileKind { kLog = 0, kSnapshot = 1, kOther = 2 };

inline WalFileKind KindOfPath(std::string_view path) {
  const size_t slash = path.rfind('/');
  const std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  if (name.substr(0, 4) == "wal-") return WalFileKind::kLog;
  if (name.substr(0, 5) == "snap-") return WalFileKind::kSnapshot;
  return WalFileKind::kOther;
}

struct WalCounters {
  uint64_t appends = 0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
};

class WalProbe final : public pgt::wal::Vfs {
 public:
  WalProbe() : base_(pgt::wal::Vfs::Posix()) {}

  /// Spans go to `rec` from now on (nullptr: count only).
  void set_recorder(SpanRecorder* rec) { rec_.store(rec); }

  WalCounters counters(WalFileKind kind) const {
    const Slot& s = slots_[static_cast<int>(kind)];
    return WalCounters{s.appends.load(), s.bytes.load(), s.syncs.load()};
  }
  /// Snapshots published (renamed into place).
  uint64_t snapshots_published() const { return published_.load(); }

  pgt::Result<std::unique_ptr<pgt::wal::WritableFile>> OpenAppend(
      const std::string& path) override {
    auto file = base_->OpenAppend(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<pgt::wal::WritableFile>(new File(
        this, std::move(file).value(), &slots_[static_cast<int>(KindOfPath(path))]));
  }
  pgt::Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  pgt::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  pgt::Status Delete(const std::string& path) override {
    return base_->Delete(path);
  }
  pgt::Status Rename(const std::string& from, const std::string& to) override {
    pgt::Status st = base_->Rename(from, to);
    if (st.ok() && KindOfPath(to) == WalFileKind::kSnapshot) ++published_;
    return st;
  }
  pgt::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  pgt::Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  pgt::Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }

 private:
  struct Slot {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> syncs{0};
  };

  class File final : public pgt::wal::WritableFile {
   public:
    File(WalProbe* probe, std::unique_ptr<pgt::wal::WritableFile> base,
         Slot* slot)
        : probe_(probe), base_(std::move(base)), slot_(slot) {}

    pgt::Status Append(std::string_view data) override {
      SpanRecorder* rec = probe_->rec_.load();
      const SpanId span = rec != nullptr ? rec->Begin("wal.append", 0) : kNoSpan;
      pgt::Status st = base_->Append(data);
      if (rec != nullptr) rec->End(span);
      slot_->appends.fetch_add(1, std::memory_order_relaxed);
      slot_->bytes.fetch_add(data.size(), std::memory_order_relaxed);
      return st;
    }
    pgt::Status Sync() override {
      SpanRecorder* rec = probe_->rec_.load();
      const SpanId span = rec != nullptr ? rec->Begin("wal.sync", 0) : kNoSpan;
      pgt::Status st = base_->Sync();
      if (rec != nullptr) rec->End(span);
      slot_->syncs.fetch_add(1, std::memory_order_relaxed);
      return st;
    }
    pgt::Status Close() override { return base_->Close(); }
    uint64_t Size() const override { return base_->Size(); }

   private:
    WalProbe* probe_;
    std::unique_ptr<pgt::wal::WritableFile> base_;
    Slot* slot_;
  };

  pgt::wal::Vfs* base_;
  std::atomic<SpanRecorder*> rec_{nullptr};
  Slot slots_[3];
  std::atomic<uint64_t> published_{0};
};

}  // namespace perfbench

#endif  // PGT_PERFBENCH_WAL_PROBE_H_
