// The traced run: outside-in spans around each module's public entry points.

#include "probes.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "analytics/kmeans.h"
#include "analytics/naive_bayes.h"
#include "analytics/pagerank.h"
#include "analytics/stats.h"
#include "bench_support/workloads.h"
#include "contenders/contender.h"
#include "exec/physical_plan.h"
#include "exec/plan_verifier.h"
#include "graph/csr.h"
#include "sql/binder.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "util/rng.h"
#include "workloads.h"

namespace soda::perfbench {

namespace {

/// Wall time of `f` in microseconds, `n` times, inside span `name`.
template <typename F>
std::vector<double> TimeUs(const std::string& name, int n, F&& f) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(name, NextStatementId());
      f();
    }
    out.push_back(UsSince(t0));
  }
  return out;
}

/// One statement's phases, each a call into the sql or exec module.
struct Phases {
  double parse_us = 0, bind_us = 0, optimize_us = 0;
  double lower_us = 0, verify_us = 0, execute_us = 0;
  ExecStats stats;
  TablePtr result;
  double FrontEnd() const { return parse_us + bind_us + optimize_us; }
  double BackEnd() const { return lower_us + verify_us + execute_us; }
};

/// Runs `sql` phase by phase as the engine would for a plan-cache miss:
/// ParseStatement, Binder::BindSelectStatement, OptimizePlan, LowerPlan,
/// VerifyPlan, PhysicalPlan::Execute. An INSERT ... SELECT runs only its
/// SELECT: the phases stop before storage, so nothing is written.
Phases RunPhases(Engine& engine, const std::string& sql, int64_t stmt) {
  Phases p;
  ScopedSpan root("probe.phases", stmt);
  Catalog* catalog = &engine.catalog();
  int64_t t0 = NowNs();
  Result<Statement> parsed = [&] {
    ScopedSpan span("sql.ParseStatement");
    return ParseStatement(sql);
  }();
  p.parse_us = UsSince(t0);
  if (!parsed.ok()) Die("parse", parsed.status());
  const Statement& st = parsed.ValueOrDie();
  const SelectStmt* select = st.kind == StatementKind::kInsert
                                 ? st.insert->select.get()
                                 : st.select.get();
  if (select == nullptr) Die("phases", Status::InvalidArgument(sql));

  t0 = NowNs();
  Result<PlanPtr> bound = [&] {
    ScopedSpan span("sql.Binder::BindSelectStatement");
    Binder binder(catalog);
    return binder.BindSelectStatement(*select);
  }();
  p.bind_us = UsSince(t0);
  if (!bound.ok()) Die("bind", bound.status());
  PlanPtr plan = bound.MoveValueOrDie();

  t0 = NowNs();
  {
    ScopedSpan span("sql.OptimizePlan");
    plan = OptimizePlan(std::move(plan), catalog);
  }
  p.optimize_us = UsSince(t0);

  t0 = NowNs();
  Result<PhysicalPlan> lowered = [&] {
    ScopedSpan span("exec.LowerPlan");
    return LowerPlan(*plan);
  }();
  p.lower_us = UsSince(t0);
  if (!lowered.ok()) Die("lower", lowered.status());
  PhysicalPlan physical = lowered.MoveValueOrDie();

  t0 = NowNs();
  Status verdict = [&] {
    ScopedSpan span("exec.VerifyPlan");
    return VerifyPlan(*plan, physical);
  }();
  p.verify_us = UsSince(t0);
  if (!verdict.ok()) Die("verify", verdict);

  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.max_iterations = engine.options().max_iterations;
  ctx.verify_plans = false;  // verified above
  ctx.ht_recycler = &engine.ht_recycler();
  t0 = NowNs();
  Status executed = [&] {
    ScopedSpan span("exec.PhysicalPlan::Execute");
    return physical.Execute(ctx);
  }();
  p.execute_us = UsSince(t0);
  if (!executed.ok()) Die("execute", executed);
  p.stats = ctx.stats;
  p.result = physical.result();
  return p;
}

/// The three ITERATE((init), (step), (stop)) arguments of `sql`.
std::vector<std::string> IterateArgs(const std::string& sql) {
  std::vector<std::string> args;
  size_t pos = sql.find("ITERATE(");
  if (pos == std::string::npos) return args;
  int depth = 0;
  size_t start = 0;
  for (size_t i = pos + 8; i < sql.size() && args.size() < 3; ++i) {
    if (sql[i] == '(') {
      if (depth++ == 0) start = i + 1;
    } else if (sql[i] == ')' && --depth == 0) {
      args.push_back(sql.substr(start, i - start));
    }
  }
  return args;
}

/// Replaces the identifier `from` (whole words only) by `to`.
std::string ReplaceWord(const std::string& text, const std::string& from,
                        const std::string& to) {
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    if (text.compare(i, from.size(), from) == 0 &&
        (i == 0 || !ident(text[i - 1])) &&
        (i + from.size() == text.size() || !ident(text[i + from.size()]))) {
      out += to;
      i += from.size();
    } else {
      out += text[i++];
    }
  }
  return out;
}

/// Median step time of the loop of `iterate_sql` run as a standalone
/// SELECT over its init relation materialized into `state`.
double StepMs(Engine& engine, const std::string& iterate_sql,
              const std::string& state, const std::string& schema, int n) {
  std::vector<std::string> args = IterateArgs(iterate_sql);
  if (args.size() != 3) Die("step", Status::Internal("no ITERATE arguments"));
  RunOrDie(engine, "CREATE TABLE " + state + " (" + schema + ")");
  RunOrDie(engine, "INSERT INTO " + state + " " + args[0]);
  const std::string step = ReplaceWord(args[1], "iterate", state);
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    ms.push_back(RunPhases(engine, step, NextStatementId()).execute_us / 1e3);
  }
  return Median(ms);
}

/// Decomposes every statement of a single-client mix; checks each result.
void ProbeStatements(Engine& engine, const std::vector<Stmt>& stmts, int n,
                     Report* report, std::map<std::string, Phases>* last) {
  for (const Stmt& stmt : stmts) {
    std::vector<double> ms;
    for (int i = 0; i < n; ++i) {
      Phases p = RunPhases(engine, stmt.sql, NextStatementId());
      stmt.check(QueryResult(p.result, p.stats));
      ms.push_back(p.execute_us / 1e3);
      (*last)[stmt.name] = p;
    }
    report->Set("exec.execute_ms." + stmt.name, Median(ms), "ms", ms.size());
  }
}

/// Direct calls of the analytics operators on the layer-4 tables.
void AnalyticsDirect(AnalyticsSetup& l4, int n, Report* report) {
  Engine& engine = *l4.engine;
  auto table = [&](const char* name) { return TableOrDie(engine, name); };
  TablePtr points = FeatureView(*table("points"));
  TablePtr centers = FeatureView(*table("centers"));
  TablePtr edges = table("edges");
  TablePtr labeled = table("labeled");

  KMeansOptions km;
  km.max_iterations = kKMeansIterations;
  int64_t km_iters = 0;
  std::vector<double> kmeans = TimeUs("analytics.RunKMeans", n, [&] {
    Result<KMeansResult> r = RunKMeans(*points, *centers, km);
    if (!r.ok()) Die("RunKMeans", r.status());
    km_iters = r.ValueOrDie().iterations_run;
  });
  PageRankOptions pr;
  pr.damping = kDamping;
  pr.epsilon = 0;
  pr.max_iterations = kPageRankIterations;
  PageRankStats pr_stats;
  std::vector<double> pagerank = TimeUs("analytics.RunPageRank", n, [&] {
    Result<TablePtr> r = RunPageRank(*edges, pr, &pr_stats);
    if (!r.ok()) Die("RunPageRank", r.status());
  });
  std::vector<double> nb = TimeUs("analytics.TrainNaiveBayes", n, [&] {
    Result<TablePtr> r = TrainNaiveBayes(*labeled);
    if (!r.ok()) Die("TrainNaiveBayes", r.status());
  });
  std::vector<double> moments =
      TimeUs("analytics.ComputeGroupedMoments", n, [&] {
        Result<GroupedMoments> r = ComputeGroupedMoments(*labeled);
        if (!r.ok()) Die("ComputeGroupedMoments", r.status());
      });
  const double km_ms = Median(kmeans) / 1e3, pr_ms = Median(pagerank) / 1e3;
  const double nb_ms = Median(nb) / 1e3;
  report->Set("analytics.kmeans_ms", km_ms, "ms", kmeans.size());
  report->Set("analytics.pagerank_ms", pr_ms, "ms", pagerank.size());
  report->Set("analytics.nb_train_ms", nb_ms, "ms", nb.size());
  report->Set("analytics.grouped_moments_ms", Median(moments) / 1e3, "ms",
              moments.size());
  // Computed bytes moved: every round reads each point's d doubles; the
  // training reads label + d doubles per row once.
  const double km_bytes = static_cast<double>(points->num_rows() * kDims * 8) *
                          static_cast<double>(km_iters);
  const double nb_bytes =
      static_cast<double>(labeled->num_rows() * (kDims + 1) * 8);
  report->Set("analytics.kmeans.gbps", km_bytes / (km_ms / 1e3) / 1e9, "GB/s");
  report->Set("analytics.nb_train.gbps", nb_bytes / (nb_ms / 1e3) / 1e9,
              "GB/s");
  report->Set("analytics.pagerank.edges_per_s",
              static_cast<double>(pr_stats.num_edges) *
                  static_cast<double>(pr_stats.iterations_run) / (pr_ms / 1e3),
              "1/s");
}

/// Per-class phase split and engine overhead of the serving statements,
/// run in-process on the serving engine while the server is idle.
void ProbeServingPhases(ServingSetup& s, int n, Report* report) {
  Engine& engine = *s.engine;
  Rng rng(SubSeed(s.opt.seed, 300));
  for (const char* cls_c : kServingClasses) {
    const std::string cls = cls_c;
    std::vector<double> parse, bind, optimize, lower, verify, execute, over;
    for (int i = 0; i < n; ++i) {
      const uint64_t r = rng.Next();
      int64_t event_id = -1;
      int kind = 0;
      // A prepared read executes the plan of the literal point SELECT.
      const std::string sql = ServingSql(
          s, cls == "read_prepared" ? "read_adhoc" : cls, r, &event_id, &kind);
      const int64_t stmt = NextStatementId();
      double engine_us = 0;
      bool plan_hit = false;
      if (cls != "read_prepared") {
        const int64_t hits = engine.plan_cache().stats().hits;
        if (cls == "write") s.events_sent[kind].fetch_add(1);
        const int64_t t0 = NowNs();
        {
          ScopedSpan span("core.Engine::Execute", stmt);
          RunOrDie(engine, sql);
        }
        engine_us = UsSince(t0);
        plan_hit = engine.plan_cache().stats().hits > hits;
        if (cls == "write") {
          s.events_acked[kind].fetch_add(1);
          std::lock_guard<std::mutex> lock(s.acked_mu);
          s.acked_ids.push_back(event_id);
        }
      }
      Phases p = RunPhases(engine, sql, stmt);
      parse.push_back(p.parse_us);
      bind.push_back(p.bind_us);
      optimize.push_back(p.optimize_us);
      lower.push_back(p.lower_us);
      verify.push_back(p.verify_us);
      execute.push_back(p.execute_us / 1e3);
      // On a plan-cache hit the engine skips the sql front end.
      over.push_back(engine_us - (plan_hit ? 0 : p.FrontEnd()) - p.BackEnd());
    }
    report->Set("exec.execute_ms." + cls, Median(execute), "ms", n);
    if (cls == "read_prepared") continue;
    report->Set("sql.parse_us." + cls, Median(parse), "us", n);
    report->Set("sql.bind_us." + cls, Median(bind), "us", n);
    report->Set("sql.optimize_us." + cls, Median(optimize), "us", n);
    report->Set("exec.lower_us." + cls, Median(lower), "us", n);
    report->Set("exec.verify_us." + cls, Median(verify), "us", n);
    report->Set("core.engine_overhead_us." + cls, Median(over), "us", n);
  }
}

/// Overhead of tracing on `run`: untraced and traced segments in ABBA
/// order (so a linear drift cancels), each `seconds / 4` long. Returns
/// sum of traced per-class medians / sum of untraced ones - 1.
template <typename F>
double TraceOverhead(double seconds, F&& run) {
  std::map<std::string, std::vector<double>> off, on;
  for (bool traced : {false, true, true, false}) {
    Tracer::Global().set_enabled(traced);
    for (const auto& [cls, v] : run(seconds / 4)) {
      auto& dst = traced ? on[cls] : off[cls];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  Tracer::Global().set_enabled(true);
  double sum_on = 0, sum_off = 0;
  for (const auto& [cls, v] : off) {
    if (on[cls].empty()) continue;
    sum_off += Median(v);
    sum_on += Median(on[cls]);
  }
  return sum_off > 0 ? sum_on / sum_off - 1 : 0;
}

struct CacheCounters {
  PlanCache::Stats plan;
  HtRecycler::Stats ht;
  uint64_t shed = 0, errors = 0;
  static CacheCounters Of(ServingSetup& s) {
    return {s.engine->plan_cache().stats(), s.engine->ht_recycler().stats(),
            s.server->stats().statements_shed.load(),
            s.server->stats().statements_error.load()};
  }
};

/// Server and cache metrics from the traced serving segments.
void ServingTracedMetrics(const CacheCounters& before,
                          const CacheCounters& after, Report* report) {
  for (const char* cls : kServingClasses) {
    std::vector<double> us =
        Tracer::Global().DurationsUs(std::string("server.roundtrip.") + cls);
    report->Set(std::string("server.") + cls + "_p50_ms", Median(us) / 1e3,
                "ms", us.size());
  }
  report->Set("server.shed", static_cast<double>(after.shed - before.shed),
              "count");
  report->Set("server.statements_error",
              static_cast<double>(after.errors - before.errors), "count");
  auto ratio = [&](const char* name, int64_t hits, int64_t misses) {
    const int64_t base = hits + misses;
    report->Set(std::string("core.") + name + "_hit_ratio",
                base ? static_cast<double>(hits) / static_cast<double>(base)
                     : 0,
                "ratio", static_cast<size_t>(base));
    report->Set(std::string("core.") + name + "_lookups",
                static_cast<double>(base), "count");
  };
  ratio("plan_cache", after.plan.hits - before.plan.hits,
        after.plan.misses - before.plan.misses);
  ratio("ht_cache", after.ht.hits - before.ht.hits,
        after.ht.misses - before.ht.misses);
  report->Set("core.ht_cache_evictions",
              static_cast<double>(after.ht.evictions - before.ht.evictions),
              "count");
}

}  // namespace

void RunAnalyticsProbes(const Options& opt, Report* report) {
  AnalyticsSetup l4 = SetupLayer4(opt);
  AnalyticsDirect(l4, 3, report);
}

void RunTracedSuite(const Options& opt, Report* report) {
  const int reps = opt.tiny ? 1 : 3;
  AnalyticsSetup l4 = SetupLayer4(opt);
  AnalyticsSetup l3 = SetupLayer3(opt);
  std::unique_ptr<ServingSetup> sv = SetupServing(opt, "traced");
  if (opt.workload == "serving_mixed") {
    report->Set("setup.generate_s", sv->generate_s, "s");
    report->Set("setup.load_s", sv->load_s, "s");
  } else {
    const AnalyticsSetup& s = opt.workload == "layer4_ops" ? l4 : l3;
    report->Set("setup.generate_s", s.generate_s, "s");
    report->Set("setup.load_s", s.load_s, "s");
  }
  std::vector<Stmt> stmts4 = Layer4Statements(l4);
  std::vector<Stmt> stmts3 = Layer3Statements(l3);

  // Tracing overhead on the selected workload, after an untraced warm-up
  // as in the untimed run. The serving segments (or, for the other
  // workloads, a short traced serving loop) feed the server and cache
  // metrics.
  auto count = [&](const auto& stats) {
    report->attempted += stats.attempted;
    report->failed += stats.failed;
  };
  const bool serving = opt.workload == "serving_mixed";
  Engine& engine = opt.workload == "layer4_ops" ? *l4.engine : *l3.engine;
  const auto& stmts = opt.workload == "layer4_ops" ? stmts4 : stmts3;
  Tracer::Global().set_enabled(false);
  if (serving) {
    count(RunServingLoop(*sv, 1.0));
  } else {
    count(RunClosedLoop(engine, stmts, 0));
  }
  CacheCounters before = CacheCounters::Of(*sv);
  double overhead = 0;
  if (serving) {
    overhead = TraceOverhead(opt.seconds, [&](double secs) {
      ServingStats st = RunServingLoop(*sv, secs);
      count(st);
      return st.latency_ms;
    });
  } else {
    overhead = TraceOverhead(opt.seconds, [&](double secs) {
      LoopStats st = RunClosedLoop(engine, stmts, secs);
      count(st);
      return st.latency_s;
    });
    count(RunServingLoop(*sv, opt.tiny ? 1.0 : 4.0));
  }
  report->Set("trace.overhead_frac", overhead, "ratio");
  ServingTracedMetrics(before, CacheCounters::Of(*sv), report);

  // sql / exec / core: the serving statements phase by phase.
  ProbeServingPhases(*sv, opt.tiny ? 3 : 30, report);
  // server: wire round trip of a no-table statement, minus its in-process
  // execution.
  {
    std::vector<double> wire = WireLatenciesUs(*sv, "SELECT 1", 100);
    std::vector<double> local = TimeUs("core.Engine::Execute", 100, [&] {
      RunOrDie(*sv->engine, "SELECT 1");
    });
    report->Set("server.rtt_us", Median(wire) - Median(local), "us",
                wire.size());
  }
  // storage: sealed scan, encoding density, WAL and checkpoint counters.
  {
    TablePtr orders = TableOrDie(*sv->engine, "orders");
    const Table& t = *orders;
    std::vector<double> scan = TimeUs("storage.Table::ScanSlice", reps, [&] {
      for (size_t off = 0; off < t.num_rows(); off += 2048) {
        DataChunk chunk;
        t.ScanSlice(off, std::min<size_t>(2048, t.num_rows() - off), &chunk);
      }
    });
    report->Set("storage.scan_ms", Median(scan) / 1e3, "ms", scan.size());
    report->Set("storage.encoded_bytes_per_row",
                static_cast<double>(t.MemoryUsage()) /
                    static_cast<double>(t.num_rows()),
                "B/row");
    QueryResult st = RunOrDie(*sv->engine, "SELECT * FROM soda_status()");
    std::map<std::string, int64_t> status;
    for (size_t r = 0; r < st.num_rows(); ++r) {
      status[st.GetString(r, 0)] = st.GetInt(r, 1);
    }
    // One event row is three 8-byte values.
    const double user_bytes = static_cast<double>(status["wal_records"]) * 24;
    report->Set("storage.wal_bytes_per_user_byte",
                user_bytes > 0 ? static_cast<double>(status["wal_bytes"]) /
                                     user_bytes
                               : 0,
                "B/B", static_cast<size_t>(status["wal_records"]));
    report->Set("storage.wal_records",
                static_cast<double>(status["wal_records"]), "count");
    report->Set("storage.checkpoints",
                static_cast<double>(status["checkpoint_count"]), "count");
    report->Set("storage.auto_checkpoints",
                static_cast<double>(status["auto_checkpoint_count"]), "count");
    std::vector<double> ckpt = TimeUs("storage.CHECKPOINT", 1, [&] {
      RunOrDie(*sv->engine, "CHECKPOINT");
    });
    report->Set("storage.checkpoint_ms", ckpt[0] / 1e3, "ms");
    double recovery_s = 0;
    {
      ScopedSpan span("storage.recovery");
      recovery_s = ReopenAndVerify(*sv);
    }
    report->Set("storage.recovery_s", recovery_s, "s");
  }
  sv.reset();

  // exec: every analytics statement phase by phase, loop counters, steps.
  std::map<std::string, Phases> last;
  ProbeStatements(*l4.engine, stmts4, reps, report, &last);
  ProbeStatements(*l3.engine, stmts3, 1, report, &last);
  const size_t v = l3.graph.num_vertices;
  const double pr_step = StepMs(
      *l3.engine,
      workloads::PageRankIterateSql("edges", "deg", v, kDamping,
                                    kPageRankIterations),
      "pr_state", "i BIGINT, v BIGINT, r DOUBLE", 5);
  const double km_step = StepMs(
      *l3.engine,
      WithArgminSlack(workloads::KMeansIterateSql("spoints", "scenters",
                                                  kDims, kKMeansIterations)),
      "km_state", "i BIGINT, id BIGINT, cid BIGINT", 5);
  report->Set("exec.step_ms.pagerank", pr_step, "ms", 5);
  report->Set("exec.step_ms.kmeans", km_step, "ms", 5);
  for (const char* name :
       {"pagerank_iterate", "pagerank_cte", "kmeans_iterate", "kmeans_cte"}) {
    const Phases& p = last[name];
    const std::string n = name;
    const double step = n.rfind("pagerank", 0) == 0 ? pr_step : km_step;
    report->Set("exec.iterations." + n,
                static_cast<double>(p.stats.iterations_run), "count");
    report->Set("exec.materialized_tuples." + n,
                static_cast<double>(p.stats.cumulative_materialized_tuples),
                "count");
    report->Set("exec.peak_bound_tuples." + n,
                static_cast<double>(p.stats.peak_bound_tuples), "count");
    report->Set("exec.loop_overhead_ms." + n,
                p.execute_us / 1e3 -
                    static_cast<double>(p.stats.iterations_run) * step,
                "ms");
  }

  // analytics: direct operator calls vs the same operators through SQL.
  AnalyticsDirect(l4, reps, report);
  std::map<std::string, double> sql_ms;
  for (const Stmt& stmt : stmts4) {
    sql_ms[stmt.name] = Median(TimeUs("core.Engine::Execute", reps, [&] {
                          RunOrDie(*l4.engine, stmt.sql);
                        })) /
                        1e3;
  }
  const std::pair<const char*, const char*> ops[] = {
      {"kmeans", "kmeans"}, {"pagerank", "pagerank"}, {"nb", "nb_train"}};
  for (const auto& [alg, direct] : ops) {
    report->Set(std::string("analytics.sql_overhead_ms.") + alg,
                sql_ms[std::string(alg) + "_op"] -
                    report->metrics[std::string("analytics.") + direct + "_ms"]
                        .value,
                "ms");
  }

  // graph: the CSR build the PageRank operator starts with.
  {
    std::vector<double> csr = TimeUs("graph.CsrBuilder::Build", reps, [&] {
      Result<CsrGraph> g = CsrBuilder::Build(l4.graph.src, l4.graph.dst);
      if (!g.ok()) Die("CsrBuilder::Build", g.status());
    });
    const double ms = Median(csr) / 1e3;
    report->Set("graph.csr_build_ms", ms, "ms", csr.size());
    report->Set("graph.csr_edges_per_s",
                static_cast<double>(l4.graph.num_edges) / (ms / 1e3), "1/s");
  }

  // contenders: reference systems on the same inputs (move nothing).
  {
    Engine& engine = *l4.engine;
    auto table = [&](const char* name) { return TableOrDie(engine, name); };
    TablePtr points = FeatureView(*table("points"));
    TablePtr centers = FeatureView(*table("centers"));
    TablePtr edges = table("edges");
    TablePtr labeled = table("labeled");
    const std::pair<const char*, std::unique_ptr<Contender>> systems[] = {
        {"matlab", MakeSingleThreadedEngine()}, {"spark", MakeRddEngine()}};
    for (const auto& [sys, c] : systems) {
      const std::string pre = std::string("contenders.") + sys + ".";
      auto once = [&](const std::string& alg, auto&& f) {
        const double ms =
            TimeUs(pre + alg, 1, [&] {
              auto r = f();
              if (!r.ok()) Die(pre + alg, r.status());
            })[0] / 1e3;
        report->Set(pre + alg + "_ms", ms, "ms");
        return ms;
      };
      const double km = once("kmeans", [&] {
        return c->KMeans(*points, *centers, kKMeansIterations);
      });
      const double pr = once("pagerank", [&] {
        return c->PageRank(*edges, kDamping, kPageRankIterations);
      });
      const double nb =
          once("nb", [&] { return c->NaiveBayesTrain(*labeled); });
      if (std::string(sys) == "matlab") {
        report->Set("ratio.kmeans_op_vs_matlab", sql_ms["kmeans_op"] / km,
                    "ratio");
        report->Set("ratio.pagerank_op_vs_matlab", sql_ms["pagerank_op"] / pr,
                    "ratio");
        report->Set("ratio.nb_op_vs_matlab", sql_ms["nb_op"] / nb, "ratio");
      }
    }
  }

  // Median self time per span name: where the traced time went.
  for (const auto& [name, us] : Tracer::Global().MedianSelfUsByName()) {
    std::fprintf(stderr, "self_us %-40s %.1f\n", name.c_str(), us);
  }
  if (!opt.spans_path.empty() &&
      !Tracer::Global().WriteJsonl(opt.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 opt.spans_path.c_str());
  }
}

}  // namespace soda::perfbench
