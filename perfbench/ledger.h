// Span ledger of the traced benchmark run.
//
// The benchmark measures every layer from outside: it records a span
// around each call it makes into a layer (client frame, wire codec,
// in-process admit, standalone scheduler and kernel, block-provider
// decorator, spill). Spans of one frame share an id; a span may name a
// parent, and a layer's self time is its spans' time minus the time their
// child spans cover. Spans stay in memory (one buffer per recording
// thread, no locks on the hot path) and are written out as JSON next to
// the server's own TraceRecorder dump when the run ends.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t id = 0;
  /// Index of the parent span in the same buffer, or -1.
  std::int32_t parent = -1;
  /// Static string: the layer and call, e.g. "gateway.client_submit".
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of one recording thread.
class SpanBuffer {
 public:
  /// Opens a span now; returns its index for Close and as a parent.
  std::int32_t Open(const char* layer, std::int64_t id,
                    std::int32_t parent = -1) {
    return Add(layer, id, NowNs(), 0, parent);
  }
  void Close(std::int32_t index) { spans_[index].end_ns = NowNs(); }
  /// Records an already-measured span.
  std::int32_t Add(const char* layer, std::int64_t id, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1) {
    spans_.push_back(Span{id, parent, layer, start_ns, end_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct LayerTime {
  std::int64_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Ledger {
 public:
  /// A buffer owned by the ledger, for one thread's exclusive use.
  SpanBuffer* NewBuffer();

  /// Self time per layer name across every buffer.
  std::map<std::string, LayerTime> SelfTimes() const;

  /// {"bench_spans":[...],"server_trace":<server_trace_json>} to `path`.
  bool WriteJson(const std::string& path,
                 const std::string& server_trace_json) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
