#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

namespace soda::perfbench {

Sizes Sizes::Full() {
  return Sizes{500000, 100000, 500000, 4990, 200000, 10000, 1000};
}

Sizes Sizes::Tiny() { return Sizes{5000, 2000, 5000, 200, 5000, 500, 100}; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // 5: reset the peak RSS (VmHWM) to the current RSS
  out.flush();
  return static_cast<bool>(out);
}

// --- tracer ----------------------------------------------------------------

namespace {
thread_local int64_t t_open_span = -1;
std::atomic<int64_t> g_next_stmt{0};
std::string g_perturb;
}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const std::string& name, int64_t stmt) {
  if (!enabled()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.parent = t_open_span;
  s.stmt = stmt >= 0 || t_open_span < 0 ? stmt : spans_[t_open_span].stmt;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns > 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfTimesUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(i);
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      iv.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                      std::min(spans_[c].end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return self;
}

std::map<std::string, double> Tracer::MedianSelfUsByName() const {
  std::vector<double> self = SelfTimesUs();
  std::map<std::string, std::vector<double>> by_name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name].push_back(self[i]);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : by_name) out[name] = Median(v);
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::vector<double> self = SelfTimesUs();
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"stmt\": " << s.stmt
        << ", \"self_us\": " << self[i] << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const std::string& name, int64_t stmt) {
  Tracer& t = Tracer::Global();
  if (!t.enabled()) return;
  id_ = t.Begin(name, stmt);
  prev_ = t_open_span;
  t_open_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  Tracer::Global().End(id_);
  t_open_span = prev_;
}

int64_t NextStatementId() { return g_next_stmt.fetch_add(1); }

// --- report ----------------------------------------------------------------

namespace {
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": {\"value\": " + Num(metric.value) +
           ", \"unit\": " + Quote(metric.unit) +
           ", \"samples\": " + std::to_string(metric.samples) + "}";
  }
  return out + "}";
}
}  // namespace

std::string Report::ToJson() const {
  std::string info_json = "{";
  for (const auto& [k, v] : info) {
    if (info_json.size() > 1) info_json += ", ";
    info_json += Quote(k) + ": " + Quote(v);
  }
  info_json += "}";
  return "{\"correct\": " + std::string(OracleFailures() ? "false" : "true") +
         ", \"oracle_failures\": " + std::to_string(OracleFailures()) +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsJson(metrics) +
         ", \"detail\": " + MetricsJson(detail) + ", \"info\": " + info_json +
         "}";
}

void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench failed (%s): %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

// --- oracles ---------------------------------------------------------------

namespace {
std::mutex g_oracle_mu;
size_t g_oracle_failures = 0;
std::set<std::string> g_failed_oracles;
}  // namespace

void OracleFail(const std::string& oracle, const std::string& why) {
  std::lock_guard<std::mutex> lock(g_oracle_mu);
  ++g_oracle_failures;
  if (g_failed_oracles.insert(oracle).second) {
    std::fprintf(stderr, "ORACLE FAILED %s: %s\n", oracle.c_str(), why.c_str());
  }
}

size_t OracleFailures() {
  std::lock_guard<std::mutex> lock(g_oracle_mu);
  return g_oracle_failures;
}

std::string FailedOracles() {
  std::lock_guard<std::mutex> lock(g_oracle_mu);
  std::string out;
  for (const std::string& o : g_failed_oracles) {
    out += (out.empty() ? "" : ",") + o;
  }
  return out;
}

void SetPerturbation(const std::string& oracle) { g_perturb = oracle; }

double Perturbed(const std::string& oracle, double observed) {
  if (g_perturb.empty() || g_perturb != oracle) return observed;
  return observed + (std::abs(observed) * 1e-3 + 1e-3);
}

}  // namespace soda::perfbench
