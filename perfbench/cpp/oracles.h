/// \file oracles.h
/// Correctness oracles. Each one compares a result of the statement being
/// timed against a reference computed by *different* code: the
/// single-threaded MATLAB(sim) contender, the layer-4 operator for the
/// layer-3 loops, the SQL GROUP BY for the Naive Bayes operator, or the
/// benchmark's own generator formulas for the serving reads. A mismatch
/// aborts the run through OracleFail().

#ifndef SODA_PERFBENCH_ORACLES_H_
#define SODA_PERFBENCH_ORACLES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/query_result.h"
#include "storage/table.h"

namespace soda::perfbench {

/// vertex -> rank, for every vertex of the graph.
using RankMap = std::unordered_map<int64_t, double>;
RankMap RanksFromTable(const Table& t);

/// Ranks of the whole graph: sum to 1 and every vertex matches `ref`.
void CheckRanksFull(const std::string& oracle, const Table& observed,
                    const RankMap& ref);
/// A `... ORDER BY rank DESC, vertex LIMIT n` result: every row matches
/// `ref` and the rows are the top `n` of `ref`.
void CheckRanksTop(const std::string& oracle, const Table& observed,
                   const RankMap& ref, size_t n);

/// [cluster][dim] centers, from a (cluster, x1..xd) relation ordered by
/// cluster.
using Centers = std::vector<std::vector<double>>;
Centers CentersFromTable(const Table& t);
void CheckCenters(const std::string& oracle, const Table& observed,
                  const Centers& ref);
/// Whether CheckCenters would accept `observed`; reports nothing.
bool CentersNear(const Table& observed, const Centers& ref);

/// Per-class sufficient statistics of the Naive Bayes training.
struct ClassMoments {
  int64_t cnt = 0;
  std::vector<double> sum, sumsq;  ///< per attribute
};
using NbMoments = std::vector<ClassMoments>;  ///< ordered by class label
/// From workloads::NaiveBayesSql's (label, cnt, s1, q1, ..., sd, qd).
NbMoments MomentsFromGroupBy(const Table& t);
/// From a model relation (class, attr, prior, mean, variance, cnt).
NbMoments MomentsFromModel(const Table& t);

/// A trained model relation against reference moments (cnt, prior,
/// mean, variance per class and attribute).
void CheckNbModel(const std::string& oracle, const Table& model,
                  const NbMoments& ref);
/// A GROUP BY moments relation against reference moments.
void CheckNbGroupBy(const std::string& oracle, const Table& observed,
                    const NbMoments& ref);

}  // namespace soda::perfbench

#endif  // SODA_PERFBENCH_ORACLES_H_
