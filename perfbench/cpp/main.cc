// soda_perfbench: one workload, one seed, one mode per process.
//
//   soda_perfbench --workload layer4_ops|layer3_sql|serving_mixed
//                  --seed N --seconds S --trace 0|1
//                  [--part main|analytics] [--scale full|tiny]
//                  [--tmp DIR] [--spans FILE] [--perturb ORACLE]
//
// Prints one JSON object as its last stdout line (see bench.h Report);
// perfbench/run.py turns it into the benchmark's result line. Exit codes:
// 0 finished (the result says whether every oracle held), 1 usage,
// 2 set-up or probe failure.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "probes.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace soda::perfbench {
namespace {

constexpr int kSetupRepeats = 9;
constexpr double kWarmUpSeconds = 1.0;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "soda_perfbench: %s\n", msg);
  std::exit(1);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--part") {
      o.part = v;
    } else if (a == "--scale") {
      if (v != "full" && v != "tiny") Usage("--scale is full or tiny");
      o.tiny = v == "tiny";
    } else if (a == "--tmp") {
      o.tmp_dir = v;
    } else if (a == "--spans") {
      o.spans_path = v;
    } else if (a == "--perturb") {
      o.perturb = v;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "layer4_ops" && o.workload != "layer3_sql" &&
      o.workload != "serving_mixed") {
    Usage("--workload is layer4_ops, layer3_sql or serving_mixed");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  if (o.part != "main" && o.part != "analytics") Usage("bad --part");
  if (o.tmp_dir.empty()) o.tmp_dir = ".bench_build/tmp";
  o.sizes = o.tiny ? Sizes::Tiny() : Sizes::Full();
  return o;
}

/// Geometric mean of the per-class median latencies: every statement
/// class weighs the same, whatever its absolute cost.
double GeomeanOfMedians(const std::map<std::string, std::vector<double>>& m,
                        double scale) {
  double log_sum = 0;
  size_t n = 0;
  for (const auto& [cls, v] : m) {
    if (v.empty()) continue;
    log_sum += std::log(Median(v) * scale);
    ++n;
  }
  return n ? std::exp(log_sum / static_cast<double>(n)) : 0;
}

size_t TotalSamples(const std::map<std::string, std::vector<double>>& m) {
  size_t n = 0;
  for (const auto& [cls, v] : m) n += v.size();
  return n;
}

/// Runs `setup` kSetupRepeats times, keeping the last result; reports the
/// median wall time as setup_s. Each repetition starts cold, as the first
/// does in a fresh process: the previous one's pages go back to the
/// system, so every repetition page-faults its tables in. Reused pages
/// would make the figure depend on what the allocator happens to keep.
template <typename F>
auto TimedSetup(F&& setup, Report* report) {
  std::vector<double> times;
  decltype(setup(0)) kept{};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    kept = {};  // release the previous repetition first
    malloc_trim(0);
    const int64_t t0 = NowNs();
    kept = setup(rep);
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  report->Set("setup_s", Median(times), "s", times.size());
  std::string reps;
  for (double t : times) reps += (reps.empty() ? "" : " ") + std::to_string(t);
  report->info["setup_reps_s"] = reps;
  return kept;
}

/// Starts peak_rss_mb at the loop: the resident tables count, the
/// set-up repetitions and the oracle references built before do not.
void StartPeakRss(Report* report) {
  report->info["peak_rss_from"] = ResetPeakRss() ? "warm-up" : "process start";
}

/// The untimed warm-up before the measured loop (one cycle, or one second
/// of serving) fills the caches and the allocator; its statements are
/// checked and counted like the measured ones.
template <typename Stats>
void CountWarmUp(const Stats& st, Report* report) {
  report->attempted += st.attempted;
  report->failed += st.failed;
}

void AnalyticsLoopMetrics(const LoopStats& st, Report* report) {
  report->attempted += st.attempted;
  report->failed += st.failed;
  report->Set("stmts_per_s",
              static_cast<double>(st.attempted - st.failed) / st.elapsed_s,
              "1/s", st.attempted);
  report->Set("class_p50_geomean_ms", GeomeanOfMedians(st.latency_s, 1e3),
              "ms", TotalSamples(st.latency_s));
  for (const auto& [name, v] : st.latency_s) {
    report->Detail(name + "_s", Median(v), "s", v.size());
  }
  report->Detail("error_rate",
                 static_cast<double>(st.failed) /
                     static_cast<double>(st.attempted),
                 "ratio", st.attempted);
  report->info["cycles"] = std::to_string(st.cycles);
}

void ServingLoopMetrics(const ServingStats& st, Report* report) {
  report->attempted += st.attempted;
  report->failed += st.failed;
  const double ok = static_cast<double>(st.attempted - st.failed);
  report->Set("stmts_per_s", ok / st.elapsed_s, "1/s", st.attempted);
  report->Set("class_p50_geomean_ms", GeomeanOfMedians(st.latency_ms, 1.0),
              "ms", TotalSamples(st.latency_ms));
  std::vector<double> reads, writes;
  for (const auto& [cls, v] : st.latency_ms) {
    auto& dst = cls == "write" ? writes : reads;
    dst.insert(dst.end(), v.begin(), v.end());
  }
  report->Detail("serving_stmts_per_s", ok / st.elapsed_s, "1/s",
                 st.attempted);
  // The measured mix: each class's share of the completed statements.
  const size_t completed = TotalSamples(st.latency_ms);
  for (const char* cls : kServingClasses) {
    const auto it = st.latency_ms.find(cls);
    const size_t n = it == st.latency_ms.end() ? 0 : it->second.size();
    report->Detail(std::string("share.") + cls,
                   static_cast<double>(n) / static_cast<double>(completed),
                   "ratio", completed);
  }
  report->Detail("read_p50_ms", Median(reads), "ms", reads.size());
  report->Detail("read_p99_ms", Quantile(reads, 0.99), "ms", reads.size());
  report->Detail("write_p50_ms", Median(writes), "ms", writes.size());
  report->Detail("write_p99_ms", Quantile(writes, 0.99), "ms", writes.size());
  report->Detail("error_rate",
                 static_cast<double>(st.failed) /
                     static_cast<double>(st.attempted),
                 "ratio", st.attempted);
  report->info["shed"] = std::to_string(st.shed);
}

int Main(int argc, char** argv) {
  Options opt = ParseArgs(argc, argv);
  // Pins glibc's mmap threshold at its 128 KiB default, which turns off its
  // dynamic raise: every large buffer is mapped fresh and unmapped on free.
  // With the raise, the order of a process's early frees put it in a fast
  // or a 20%-slower mode and moved peak RSS in steps (see README.md).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  SetPerturbation(opt.perturb);
  Report report;
  report.info["workload"] = opt.workload;
  report.info["seed"] = std::to_string(opt.seed);
  report.info["scale"] = opt.tiny ? "tiny" : "full";
  report.info["pool_threads"] =
      std::to_string(ThreadPool::Global().num_threads());
  report.info["flush_policy"] =
      "wal_fsync=group, auto_checkpoint_records=" +
      std::to_string(opt.sizes.auto_checkpoint_records);
#ifdef SODA_PERFBENCH_BUILD_TYPE
  report.info["build_type"] = SODA_PERFBENCH_BUILD_TYPE;
#endif

  if (opt.trace) {
    Tracer::Global().set_enabled(true);
    if (opt.part == "analytics") {
      RunAnalyticsProbes(opt, &report);
    } else {
      RunTracedSuite(opt, &report);
    }
  } else if (opt.workload == "serving_mixed") {
    auto s = TimedSetup(
        [&](int rep) {
          return SetupServing(opt, "setup" + std::to_string(rep));
        },
        &report);
    StartPeakRss(&report);
    CountWarmUp(RunServingLoop(*s, kWarmUpSeconds), &report);
    ServingLoopMetrics(RunServingLoop(*s, opt.seconds), &report);
    ReopenAndVerify(*s);
  } else {
    const bool l4 = opt.workload == "layer4_ops";
    AnalyticsSetup s = TimedSetup(
        [&](int) { return l4 ? SetupLayer4(opt) : SetupLayer3(opt); },
        &report);
    std::vector<Stmt> stmts = l4 ? Layer4Statements(s) : Layer3Statements(s);
    if (!l4) {
      report.Detail("known_defect.unmodified_kmeans_sql_wrong",
                    static_cast<double>(s.unmodified_kmeans_sql_wrong),
                    "count", 2);
    }
    StartPeakRss(&report);
    CountWarmUp(RunClosedLoop(*s.engine, stmts, 0), &report);
    AnalyticsLoopMetrics(RunClosedLoop(*s.engine, stmts, opt.seconds),
                         &report);
  }
  if (!opt.trace) report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace soda::perfbench

int main(int argc, char** argv) { return soda::perfbench::Main(argc, argv); }
