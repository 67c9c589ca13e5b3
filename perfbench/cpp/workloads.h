/// \file workloads.h
/// The benchmark's three workloads: their seeded set-up, their statement
/// mixes with correctness checks, and the closed loops that time them.
///
///  - layer4_ops:    KMEANS / PAGERANK / NAIVE_BAYES_TRAIN operators.
///  - layer3_sql:    the same algorithms as ITERATE, WITH RECURSIVE and a
///                   GROUP BY.
///  - serving_mixed: three wire clients over an in-process soda::Server on
///                   a durable engine (reads, prepared reads, joins,
///                   aggregates over a table being written, and inserts).

#ifndef SODA_PERFBENCH_WORKLOADS_H_
#define SODA_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/engine.h"
#include "graph/ldbc_generator.h"
#include "server/server.h"

namespace soda::perfbench {

/// Executes `sql`, exiting on error (set-up and probe statements).
QueryResult RunOrDie(Engine& engine, const std::string& sql);
TablePtr TableOrDie(Engine& engine, const std::string& name);

/// One statement of a single-client loop and the oracle run on its result.
struct Stmt {
  std::string name;
  std::string sql;
  std::function<void(const QueryResult&)> check;
};

/// Set-up of layer4_ops or layer3_sql: one engine holding the workload's
/// tables. The graph's edge list is kept for the direct CSR probe.
struct AnalyticsSetup {
  std::unique_ptr<Engine> engine;
  GeneratedGraph graph;
  double generate_s = 0;
  double load_s = 0;
  /// layer3_sql: how many of workloads::KMeans{Iterate,RecursiveCte}Sql,
  /// run once unmodified, returned wrong centers (see WithArgminSlack).
  size_t unmodified_kmeans_sql_wrong = 0;
};

AnalyticsSetup SetupLayer4(const Options& opt);
AnalyticsSetup SetupLayer3(const Options& opt);

/// The layer-3 k-means SQL the benchmark times:
/// workloads::KMeans{Iterate,RecursiveCte}Sql with each argmin match
/// `(distance) = m.mind` relaxed to `(distance) <= m.mind + slack`.
/// Those texts evaluate the centers subquery twice per step, once for the
/// distances and once for their minimum. The engine's parallel avg()
/// merges partial sums in a varying order, so the two evaluations differ
/// in the last bits, and an exact match drops most tuples from the
/// assignment. The slack (1e-8) is far above that noise (about 1e-10 on
/// distances near 1e4) and far below the gap between a tuple's two
/// nearest centers on all but a negligible share of tuples. Text without
/// the pattern is returned unchanged.
std::string WithArgminSlack(std::string sql);

/// Builds the statement mix and, untimed, the references its oracles
/// compare against. Runs the one-off full-graph PageRank oracle.
std::vector<Stmt> Layer4Statements(AnalyticsSetup& s);
std::vector<Stmt> Layer3Statements(AnalyticsSetup& s);

/// Per-statement latencies of a closed loop (seconds).
struct LoopStats {
  std::map<std::string, std::vector<double>> latency_s;
  size_t attempted = 0;
  size_t failed = 0;
  size_t cycles = 0;
  double elapsed_s = 0;
};

/// One client, whole cycles through `stmts` until `seconds` have passed
/// (at least one cycle). Every result is checked.
LoopStats RunClosedLoop(Engine& engine, const std::vector<Stmt>& stmts,
                        double seconds);

/// A feature-only copy of `t` (drops the leading id / label column), the
/// input shape the direct analytics calls and contenders take.
TablePtr FeatureView(const Table& t);

// --- serving_mixed -------------------------------------------------------

inline constexpr const char* kServingClasses[] = {
    "read_adhoc", "read_prepared", "read_join", "read_events", "write"};
inline constexpr uint64_t kNumServingClasses =
    sizeof(kServingClasses) / sizeof(kServingClasses[0]);

inline constexpr int kRegions = 8;       ///< customers.region in r0..r7
inline constexpr int kJoinRegions = 4;   ///< read_join picks r0..r3
inline constexpr int kEventKinds = 4;

/// The durable engine and the wire server of serving_mixed, plus what the
/// oracles need to know about the generated tables.
struct ServingSetup {
  ServingSetup() = default;
  /// Stops the server, closes the engine and deletes data_dir.
  ~ServingSetup();
  ServingSetup(const ServingSetup&) = delete;
  ServingSetup& operator=(const ServingSetup&) = delete;

  Options opt;
  std::string data_dir;
  EngineOptions engine_options;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
  uint64_t seed = 0;
  size_t orders = 0;
  size_t customers = 0;
  /// Per region literal: orders joined to customers of that region.
  std::vector<int64_t> join_count;
  std::vector<double> join_sum;
  double generate_s = 0;
  double load_s = 0;
  std::atomic<int64_t> next_event_id{0};
  std::atomic<int64_t> events_sent[kEventKinds] = {};
  std::atomic<int64_t> events_acked[kEventKinds] = {};
  std::mutex acked_mu;
  std::vector<int64_t> acked_ids;
};

/// Generated order columns, recomputable from (seed, o_id) alone.
int64_t OrderCustomer(uint64_t seed, int64_t o_id, size_t customers);
double OrderAmount(uint64_t seed, int64_t o_id);
int64_t OrderStatus(uint64_t seed, int64_t o_id);
int CustomerRegion(uint64_t seed, int64_t c_id);

/// Creates a fresh data_dir under opt.tmp_dir/<tag>, loads and seals the
/// tables, checkpoints them and starts the server.
std::unique_ptr<ServingSetup> SetupServing(const Options& opt,
                                           const std::string& tag);

/// Three closed-loop wire clients for `seconds`. Latencies per class (ms).
struct ServingStats {
  std::map<std::string, std::vector<double>> latency_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t shed = 0;
  double elapsed_s = 0;
};
ServingStats RunServingLoop(ServingSetup& s, double seconds);

/// SQL text of one statement of `cls` (not read_prepared) drawn from `rng`
/// state `r`; also used by the in-process probes.
std::string ServingSql(ServingSetup& s, const std::string& cls, uint64_t r,
                       int64_t* event_id, int* kind);

/// Shuts the server down, reopens data_dir in a new engine (timed) and
/// checks that every acknowledged insert and a sample of orders survived.
double ReopenAndVerify(ServingSetup& s);

/// Wire round-trip times (us) of `sql` sent `n` times on one connection.
std::vector<double> WireLatenciesUs(ServingSetup& s, const std::string& sql,
                                    int n);

/// Removes a directory tree under the benchmark's scratch root.
void RemoveTree(const std::string& path);

}  // namespace soda::perfbench

#endif  // SODA_PERFBENCH_WORKLOADS_H_
