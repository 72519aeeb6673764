#include "perfbench/ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include "core/json.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> SpanLog::DurationsUs(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

void SpanLog::WriteChromeJson(const std::string& path,
                              const char* collapse) const {
  etsc::json::Writer w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  const auto emit = [&](const std::string& name, uint64_t id, int64_t start,
                        int64_t end, uint64_t calls) {
    w.BeginObject();
    w.Field("name", name);
    w.Field("cat", std::string("perfbench"));
    w.Field("ph", std::string("X"));
    w.Field("ts", static_cast<double>(start - epoch) * 1e-3);
    w.Field("dur", static_cast<double>(end - start) * 1e-3);
    w.Field("pid", uint64_t{1});
    w.Field("tid", uint64_t{1});
    w.Key("args").BeginObject();
    w.Field("id", id);
    w.Field("calls", calls);
    w.EndObject();
    w.EndObject();
  };
  for (size_t i = 0; i < spans_.size();) {
    const Span& first = spans_[i];
    size_t j = i + 1;
    if (std::strcmp(first.name, collapse) == 0) {
      while (j < spans_.size() && std::strcmp(spans_[j].name, collapse) == 0) ++j;
    }
    emit(first.name, first.id, first.start_ns, spans_[j - 1].end_ns, j - i);
    i = j;
  }
  w.EndArray();
  w.EndObject();
  std::ofstream(path, std::ios::trunc) << w.str() << "\n";
}

std::vector<double> SampleBuffer::Values() const {
  const size_t n = std::min(count(), samples_.size());
  return std::vector<double>(samples_.begin(), samples_.begin() + n);
}

}  // namespace perfbench
