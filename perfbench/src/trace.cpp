#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point& epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<int> g_next_thread{0};

struct ThreadBuffer {
  int tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> open;  ///< indices into spans of the open ones
  std::map<std::string, TallyTotal> tallies;
};

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = thread_index();
    ThreadBuffer* raw = owned.get();
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

int thread_index() {
  thread_local const int index = g_next_thread.fetch_add(1);
  return index;
}

std::string SpanRecord::layer() const { return layer_of(name); }

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t parent) {
  if (!tracing()) return;
  ThreadBuffer& tb = local_buffer();
  SpanRecord r;
  r.name = name;
  r.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  r.parent = parent != 0 ? parent : tb.open.empty() ? 0 : tb.spans[tb.open.back()].id;
  id_ = r.id;
  r.tid = tb.tid;
  buffer_ = &tb.spans;
  index_ = tb.spans.size();
  tb.open.push_back(index_);
  r.start = now_s();
  tb.spans.push_back(r);
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  (*buffer_)[index_].end = now_s();
  local_buffer().open.pop_back();
}

Tally::Tally(const char* name) {
  if (!tracing()) return;
  name_ = name;
  start_ = now_s();
}

Tally::~Tally() {
  if (name_ == nullptr) return;
  const double seconds = now_s() - start_;
  ThreadBuffer& tb = local_buffer();
  TallyTotal& total = tb.tallies[name_];
  total.seconds += seconds;
  ++total.count;
  if (!tb.open.empty()) tb.spans[tb.open.back()].tallied += seconds;
}

std::vector<SpanRecord> collect_spans() {
  std::vector<SpanRecord> all;
  {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& tb : g_registry) {
      all.insert(all.end(), tb->spans.begin(), tb->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start < b.start;
            });
  return all;
}

std::map<std::string, TallyTotal> collect_tallies() {
  std::map<std::string, TallyTotal> all;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& tb : g_registry) {
    for (const auto& [name, t] : tb->tallies) {
      all[name].seconds += t.seconds;
      all[name].count += t.count;
    }
  }
  return all;
}

void clear_spans() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& tb : g_registry) {
    tb->spans.clear();
    tb->tallies.clear();
  }
}

double span_seconds(const std::vector<SpanRecord>& spans, const char* name) {
  const std::string wanted(name);
  double total = 0.0;
  for (const SpanRecord& s : spans) {
    if (wanted == s.name) total += s.seconds();
  }
  return total;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans,
    const std::map<std::string, TallyTotal>& tallies) {
  // Spans arrive sorted by start, so each child list is sorted too.
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    double covered = 0.0;
    double reach = s.start;  // end of the union of children seen so far
    for (const SpanRecord* c : children[s.id]) {
      const double from = std::max(c->start, reach);
      const double to = std::min(c->end, s.end);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(c->end, s.end));
    }
    self[s.layer()] += s.seconds() - covered - s.tallied;
  }
  for (const auto& [name, t] : tallies) self[layer_of(name)] += t.seconds;
  return self;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out.precision(3);
  out << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer() << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << s.seconds() * 1e6
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
