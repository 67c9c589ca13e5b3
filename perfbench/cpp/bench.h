/// \file bench.h
/// Shared pieces of soda's end-to-end benchmark: command-line options,
/// sample statistics, the in-memory span tracer, the metric report, and
/// the correctness-oracle failure path.
///
/// The benchmark is outside-in: it only calls soda's public headers
/// (Engine, Server, the module entry points) and records spans around
/// those calls from its own code.

#ifndef SODA_PERFBENCH_BENCH_H_
#define SODA_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace soda::perfbench {

// --- options ---------------------------------------------------------------

/// Dataset sizes. `Full` is the benchmark proper; `Tiny` exists for the
/// benchmark's own smoke tests and keeps every code path but not the cost.
struct Sizes {
  size_t points;         ///< layer-4 k-means points (x 10 dims)
  size_t sql_points;     ///< layer-3 k-means points (x 10 dims)
  size_t labeled;        ///< Naive Bayes rows (x 10 dims)
  size_t graph_vertices; ///< LDBC-like graph; avg directed degree 92
  size_t orders;         ///< serving: sealed orders rows
  size_t customers;      ///< serving: customers rows
  size_t auto_checkpoint_records;  ///< serving: WAL records per checkpoint
  static Sizes Full();
  static Sizes Tiny();
};

inline constexpr size_t kDims = 10;
inline constexpr size_t kClusters = 5;
inline constexpr int64_t kKMeansIterations = 3;
inline constexpr int64_t kPageRankIterations = 45;
inline constexpr double kDamping = 0.85;
inline constexpr size_t kGraphDegree = 92;
inline constexpr int kServingClients = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "main" = the workload run; "analytics" = only the direct analytics
  /// calls (the traced run's second process at SODA_THREADS=1).
  std::string part = "main";
  bool tiny = false;
  std::string tmp_dir;     ///< scratch root for durable data dirs
  std::string spans_path;  ///< where the traced run writes its spans
  std::string perturb;     ///< oracle whose observed value is perturbed
  Sizes sizes = Sizes::Full();
};

/// Derives an independent generator seed from the run seed. Generators
/// receive only values derived from `--seed`.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  return x * 0x94D049BB133111EBULL + stream + 1;
}

// --- timing and statistics -------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}
inline double UsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e3;
}

/// Set-up or probe failure (not a wrong result): prints and exits with 2.
[[noreturn]] void Die(const std::string& what, const Status& st);

template <typename T>
T OrDie(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return r.MoveValueOrDie();
}

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();
/// Returns freed heap to the system and resets VmHWM to the current
/// resident set, so PeakRssMb() covers only what runs afterwards. False
/// when the kernel refuses the reset.
bool ResetPeakRss();

// --- tracing ---------------------------------------------------------------

/// One traced interval. `parent` is the index of the enclosing span on the
/// same thread (-1 at the root); spans of one statement share `stmt`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t stmt = -1;
};

/// Keeps spans in memory; written out once at the end of the run. When
/// disabled, Begin/End are no-ops so the untraced loop pays nothing.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  int64_t Begin(const std::string& name, int64_t stmt);
  void End(int64_t id);

  /// Durations in microseconds of every closed span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Self time per span: duration minus the union of its children.
  std::vector<double> SelfTimesUs() const;
  /// Median self time per span name, for the run summary.
  std::map<std::string, double> MedianSelfUsByName() const;
  /// One JSON object per line: name, start/end (ns), parent, stmt, self_us.
  bool WriteJsonl(const std::string& path) const;

  static Tracer& Global();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the global tracer; nests under the thread's open span.
class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, int64_t stmt = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_ = -1;
  int64_t prev_ = -1;
};

/// Statement ids shared by a statement's spans.
int64_t NextStatementId();

// --- report ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 1;
};

/// Everything the binary prints as its last stdout line. `metrics` holds
/// the bounded metrics of the mode (end-to-end or per-layer);
/// `detail` holds the per-statement end-to-end figures.
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> detail;
  std::map<std::string, std::string> info;

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Detail(const std::string& name, double value, const std::string& unit,
              size_t samples = 1) {
    detail[name] = Metric{value, unit, samples};
  }
  std::string ToJson() const;
};

// --- correctness oracles ---------------------------------------------------

/// Records a mismatch: prints "ORACLE FAILED <oracle>: <why>" (once per
/// oracle) and marks the run incorrect. The run still finishes, so its
/// result line reports `"correct": false` next to the measurements.
void OracleFail(const std::string& oracle, const std::string& why);
/// Number of mismatches so far, and the names of the oracles that failed.
size_t OracleFailures();
std::string FailedOracles();

/// The perturbation hook the benchmark's own tests use to prove that each
/// oracle rejects a wrong result: when `--perturb <oracle>` names this
/// oracle, the observed value is shifted before it is compared.
double Perturbed(const std::string& oracle, double observed);
void SetPerturbation(const std::string& oracle);

}  // namespace soda::perfbench

#endif  // SODA_PERFBENCH_BENCH_H_
