#include "perfbench/src/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

struct Tracer::Buffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> stack;  // open span ids, innermost last
};

namespace {

std::mutex& buffers_mu() {
  static std::mutex mu;
  return mu;
}

// Owns every thread's buffer for the life of the process, so a buffer
// outlives the thread that filled it and collect() can read it after join.
std::vector<std::unique_ptr<Tracer::Buffer>>& owned() {
  static std::vector<std::unique_ptr<Tracer::Buffer>> v;
  return v;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

std::uint64_t Span::now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    buf = b.get();
    std::lock_guard<std::mutex> g(buffers_mu());
    owned().push_back(std::move(b));
  }
  return *buf;
}

std::uint64_t Tracer::open(std::uint64_t explicit_parent,
                           std::uint64_t& parent_out) {
  Buffer& b = local();
  parent_out = explicit_parent != 0 ? explicit_parent
               : b.stack.empty()    ? 0
                                    : b.stack.back();
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  b.stack.push_back(id);
  return id;
}

std::uint64_t Tracer::innermost() {
  Buffer& b = local();
  return b.stack.empty() ? 0 : b.stack.back();
}

std::uint64_t Span::current_id() {
  return Tracer::get().enabled() ? Tracer::get().innermost() : 0;
}

void Tracer::close(const SpanRecord& rec) {
  Buffer& b = local();
  if (!b.stack.empty()) b.stack.pop_back();
  SpanRecord r = rec;
  r.tid = b.tid;
  b.spans.push_back(r);
}

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard<std::mutex> g(buffers_mu());
  std::vector<SpanRecord> all;
  for (const auto& b : owned())
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

std::size_t Tracer::count() const {
  std::lock_guard<std::mutex> g(buffers_mu());
  std::size_t n = 0;
  for (const auto& b : owned()) n += b->spans.size();
  return n;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<SpanRecord> all = collect();
  // Time covered by same-thread children, keyed by parent id.
  std::unordered_map<std::uint64_t, std::uint32_t> tid_of;
  tid_of.reserve(all.size());
  for (const SpanRecord& s : all) tid_of[s.id] = s.tid;
  std::unordered_map<std::uint64_t, double> covered;
  for (const SpanRecord& s : all) {
    if (s.parent == 0) continue;
    const auto it = tid_of.find(s.parent);
    if (it == tid_of.end() || it->second != s.tid) continue;
    covered[s.parent] +=
        static_cast<double>(s.end_ns - s.start_ns) * s.weight;
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : all) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * s.weight;
    const auto c = covered.find(s.id);
    const double self = dur - (c == covered.end() ? 0.0 : c->second);
    out[layer_of(s.name)] += std::max(self, 0.0) / 1e9;
  }
  return out;
}

bool Tracer::dump(const std::string& path, std::size_t max_spans) const {
  const std::vector<SpanRecord> all = collect();
  std::ofstream f(path);
  if (!f) return false;
  const std::uint64_t t0 = all.empty() ? 0 : all.front().start_ns;
  const std::size_t n = std::min(all.size(), max_spans);
  f << "{\"displayTimeUnit\":\"ns\",\"spans_recorded\":" << all.size()
    << ",\"spans_dropped\":" << all.size() - n << ",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = all[i];
    f << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
      << layer_of(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
      << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
      << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"group\":" << s.group << ",\"weight\":" << s.weight << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
