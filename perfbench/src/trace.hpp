// Span tracer for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public functions; the library itself is not instrumented.
// A name starts with its layer ("kernels.scalar.advance" belongs to layer
// "kernels"). Calls made once per engine round are timed with a Tally
// instead of a Span: a tally adds its duration to a per-name total and
// credits it to the enclosing span, but stores no record, so a traced
// paper-scale run keeps thousands of spans rather than millions. Each
// thread appends to its own buffer, so recording takes no lock; buffers
// outlive their threads (the sweep scheduler's workers exit when a job
// ends) and are merged by the collect functions. Nothing is recorded while
// tracing is disabled, so the untraced run pays one branch per site.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Small dense id of the calling thread (0 for the first thread seen).
int thread_index();

struct SpanRecord {
  const char* name = nullptr;  ///< string literal, "<layer>.<what>"
  double start = 0.0;          ///< now_s() at entry
  double end = 0.0;            ///< now_s() at exit
  std::uint64_t id = 0;        ///< unique per process, from 1
  std::uint64_t parent = 0;    ///< enclosing span, or 0
  int tid = 0;
  double tallied = 0.0;        ///< seconds of tallies made directly inside

  double seconds() const { return end - start; }
  std::string layer() const;
};

/// Turns recording on or off for every thread.
void set_tracing(bool on);
bool tracing();

/// RAII span: records [construction, destruction) when tracing is on. Its
/// parent is the innermost open span on the same thread, unless one is
/// given (a sweep job's trials run on worker threads but belong to the job).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id; 0 when tracing is off.
  std::uint64_t id() const { return id_; }

 private:
  std::vector<SpanRecord>* buffer_ = nullptr;
  std::size_t index_ = 0;
  std::uint64_t id_ = 0;
};

/// RAII timer for a call made once per engine round; see the file comment.
class Tally {
 public:
  explicit Tally(const char* name);
  ~Tally();
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;

 private:
  const char* name_ = nullptr;
  double start_ = 0.0;
};

struct TallyTotal {
  double seconds = 0.0;
  std::uint64_t count = 0;
};

/// Every span recorded so far, from all threads, ordered by start time.
std::vector<SpanRecord> collect_spans();
/// Every tally so far, summed over threads, by name.
std::map<std::string, TallyTotal> collect_tallies();
/// Forgets all spans and tallies.
void clear_spans();

/// Sum of durations of the spans named exactly `name`.
double span_seconds(const std::vector<SpanRecord>& spans, const char* name);

/// Self time per layer: each span's duration minus its tallies and the part
/// of it that its direct child spans cover (children on several threads may
/// overlap; their union counts once), plus every tally's whole duration.
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans,
    const std::map<std::string, TallyTotal>& tallies);

/// Writes Chrome trace-event JSON ("X" complete events), loadable in
/// Perfetto or chrome://tracing.
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans);

}  // namespace perfbench
