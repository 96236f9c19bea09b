#include "ledger.h"

#include <cstdio>

#include "obs/json.h"

namespace perfbench {

SpanBuffer* Ledger::NewBuffer() {
  const std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>());
  return buffers_.back().get();
}

std::map<std::string, LayerTime> Ledger::SelfTimes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTime> out;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    // Children of one parent run one after another on the recording
    // thread, so their durations add up to the time they cover.
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
      LayerTime& t = out[spans[i].layer];
      ++t.spans;
      t.total_ms += static_cast<double>(dur) / 1e6;
      t.self_ms += static_cast<double>(dur - covered[i]) / 1e6;
    }
  }
  return out;
}

bool Ledger::WriteJson(const std::string& path,
                       const std::string& server_trace_json) const {
  dbtouch::obs::JsonWriter w;
  w.BeginArray();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      for (const Span& s : buffer->spans()) {
        w.BeginObject();
        w.Field("id", s.id);
        w.Field("layer", s.layer);
        w.Field("parent_layer",
                s.parent >= 0 ? buffer->spans()[s.parent].layer : "");
        w.Field("start_ns", s.start_ns);
        w.Field("end_ns", s.end_ns);
        w.EndObject();
      }
    }
  }
  w.EndArray();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string spans = std::move(w).str();
  std::fputs("{\"bench_spans\":", f);
  std::fputs(spans.c_str(), f);
  std::fputs(",\"server_trace\":", f);
  std::fputs(server_trace_json.empty() ? "null" : server_trace_json.c_str(),
             f);
  std::fputs("}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
