// Span recorder and self-time summarizer for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it, and the request (one benchmark write or read) it belongs to.
// Spans are kept in per-thread buffers in memory and written out when the
// run ends; nothing is formatted while the workload runs.
//
// Self time of a span is its duration minus the part of its interval that
// its child spans cover (children clipped to the parent, overlapping
// children counted once). A child may run on another thread than its
// parent (an explicit `parent` passed to Begin).
#ifndef PGT_PERFBENCH_TRACE_H_
#define PGT_PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Identifies a span: (thread buffer index << 32) | index in that buffer.
/// kNoSpan marks a root.
using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = ~0ull;

struct Span {
  std::string_view name;  // must outlive the recorder (string literals)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanId parent = kNoSpan;
  uint64_t request = 0;
  uint32_t thread = 0;
};

/// Per-name aggregate of self times.
struct SelfTime {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  uint64_t count = 0;
};

/// Records spans from any number of threads. A disabled recorder records
/// nothing and Begin returns kNoSpan, so untraced runs pay one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), serial_(NextSerial()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span. Its parent is `parent` when given, else the innermost
  /// span this thread has open on this recorder; request 0 takes the
  /// request of that innermost span.
  SpanId Begin(std::string_view name, uint64_t request,
               SpanId parent = kNoSpan) {
    if (!enabled_) return kNoSpan;
    ThreadLog& log = Local();
    if (parent == kNoSpan && !log.open.empty()) {
      parent = log.open.back();
      if (request == 0) request = log.spans[parent & 0xffffffffu].request;
    }
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.thread = log.index;
    const SpanId id = (static_cast<SpanId>(log.index) << 32) | log.spans.size();
    log.open.push_back(id);
    s.start_ns = NowNs();
    log.spans.push_back(s);
    return id;
  }

  /// Closes `id`, which must be the innermost span open on this thread.
  void End(SpanId id) {
    if (id == kNoSpan) return;
    const int64_t now = NowNs();
    ThreadLog& log = Local();
    log.spans[id & 0xffffffffu].end_ns = now;
    if (!log.open.empty() && log.open.back() == id) log.open.pop_back();
  }

  /// Adds an already-measured span (tests build synthetic trees with it).
  SpanId Add(std::string_view name, int64_t start_ns, int64_t end_ns,
             SpanId parent, uint64_t request, uint32_t thread) {
    std::lock_guard<std::mutex> lock(mu_);
    while (logs_.size() <= thread) {
      logs_.push_back(std::make_unique<ThreadLog>());
      logs_.back()->index = static_cast<uint32_t>(logs_.size() - 1);
    }
    ThreadLog& log = *logs_[thread];
    const SpanId id = (static_cast<SpanId>(thread) << 32) | log.spans.size();
    log.spans.push_back(Span{name, start_ns, end_ns, parent, request, thread});
    return id;
  }

  /// All spans, indexed so that spans[i] has SpanId ids[i]. Call only after
  /// every recording thread has stopped.
  void Collect(std::vector<Span>* spans, std::vector<SpanId>* ids) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& log : logs_) {
      for (size_t i = 0; i < log->spans.size(); ++i) {
        spans->push_back(log->spans[i]);
        ids->push_back((static_cast<SpanId>(log->index) << 32) | i);
      }
    }
  }

  /// Self time aggregated by span name.
  std::map<std::string, SelfTime, std::less<>> Summarize() const {
    std::vector<Span> spans;
    std::vector<SpanId> ids;
    Collect(&spans, &ids);
    const std::vector<int64_t> self = ComputeSelfTimes(spans, ids);
    std::map<std::string, SelfTime, std::less<>> out;
    for (size_t i = 0; i < spans.size(); ++i) {
      SelfTime& t = out[std::string(spans[i].name)];
      t.self_ns += self[i];
      t.total_ns += spans[i].end_ns - spans[i].start_ns;
      ++t.count;
    }
    return out;
  }

  /// Writes one tab-separated line per span: name, start, end (ns), span
  /// id, parent id (-1 for roots), request, thread.
  bool WriteTsv(const std::string& path) const {
    std::vector<Span> spans;
    std::vector<SpanId> ids;
    Collect(&spans, &ids);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\trequest\tthread\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%.*s\t%lld\t%lld\t%llu\t%lld\t%llu\t%u\n",
                   static_cast<int>(s.name.size()), s.name.data(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(ids[i]),
                   s.parent == kNoSpan ? -1LL
                                       : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.thread);
    }
    return std::fclose(f) == 0;
  }

  /// Self time of each span: duration minus the union of its children's
  /// intervals clipped to it. `ids[i]` is the SpanId of `spans[i]`.
  static std::vector<int64_t> ComputeSelfTimes(const std::vector<Span>& spans,
                                               const std::vector<SpanId>& ids) {
    std::map<SpanId, size_t> index;
    for (size_t i = 0; i < ids.size(); ++i) index[ids[i]] = i;
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const Span& s : spans) {
      if (s.parent == kNoSpan) continue;
      auto it = index.find(s.parent);
      if (it == index.end()) continue;
      const Span& p = spans[it->second];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (lo < hi) kids[it->second].emplace_back(lo, hi);
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0;
      int64_t cur_lo = 0, cur_hi = 0;
      bool have = false;
      for (const auto& [lo, hi] : iv) {
        if (have && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (have) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        have = true;
      }
      if (have) covered += cur_hi - cur_lo;
      self[i] = spans[i].end_ns - spans[i].start_ns - covered;
    }
    return self;
  }

 private:
  struct ThreadLog {
    uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<SpanId> open;
  };

  ThreadLog& Local() {
    // One cached buffer per thread; a thread that records into a second
    // recorder (a later phase) registers a fresh buffer there. Recorders
    // are told apart by serial, not address: a later recorder may reuse a
    // destroyed one's address.
    thread_local uint64_t owner = 0;
    thread_local ThreadLog* log = nullptr;
    if (owner != serial_) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<ThreadLog>());
      logs_.back()->index = static_cast<uint32_t>(logs_.size() - 1);
      logs_.back()->spans.reserve(1 << 16);
      log = logs_.back().get();
      owner = serial_;
    }
    return *log;
  }

  static uint64_t NextSerial() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  const bool enabled_;
  const uint64_t serial_;
  mutable std::mutex mu_;  // guards logs_ (the vector, not each buffer)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, std::string_view name, uint64_t request)
      : rec_(rec), id_(rec.Begin(name, request)) {}
  ~SpanScope() { rec_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  SpanId id_;
};

}  // namespace perfbench

#endif  // PGT_PERFBENCH_TRACE_H_
