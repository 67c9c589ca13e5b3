#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "bench.h"

namespace soda::perfbench {

namespace {

constexpr double kRankTol = 1e-9;
constexpr double kCenterTol = 1e-7;

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// |a - b| <= tol * max(1, |b|).
bool Near(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max(1.0, std::abs(b));
}

}  // namespace

RankMap RanksFromTable(const Table& t) {
  RankMap out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out[t.column(0).GetBigInt(r)] = t.column(1).GetNumeric(r);
  }
  return out;
}

void CheckRanksFull(const std::string& oracle, const Table& observed,
                    const RankMap& ref) {
  if (observed.num_rows() != ref.size()) {
    OracleFail(oracle, "vertex count " + std::to_string(observed.num_rows()) +
                           " != reference " + std::to_string(ref.size()));
    return;
  }
  double sum = 0;
  for (size_t r = 0; r < observed.num_rows(); ++r) {
    const int64_t v = observed.column(0).GetBigInt(r);
    const double rank =
        Perturbed(oracle, observed.column(1).GetNumeric(r));
    sum += rank;
    auto it = ref.find(v);
    if (it == ref.end() || std::abs(rank - it->second) > kRankTol) {
      OracleFail(oracle, "rank of vertex " + std::to_string(v) + " = " +
                             Fmt(rank) + ", reference " +
                             (it == ref.end() ? "missing" : Fmt(it->second)));
      return;
    }
  }
  if (std::abs(sum - 1.0) > kRankTol) {
    OracleFail(oracle, "ranks sum to " + Fmt(sum) + ", not 1");
    return;
  }
}

void CheckRanksTop(const std::string& oracle, const Table& observed,
                   const RankMap& ref, size_t n) {
  const size_t want = std::min(n, ref.size());
  if (observed.num_rows() != want) {
    OracleFail(oracle, std::to_string(observed.num_rows()) + " rows, want " +
                           std::to_string(want));
    return;
  }
  std::vector<double> sorted;
  sorted.reserve(ref.size());
  for (const auto& [v, r] : ref) sorted.push_back(r);
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  // Every returned vertex must rank at least as high as the best vertex
  // that is left out.
  const double cutoff = want < sorted.size() ? sorted[want] : -1.0;
  for (size_t r = 0; r < observed.num_rows(); ++r) {
    const int64_t v = observed.column(0).GetBigInt(r);
    const double rank =
        Perturbed(r == 0 ? oracle : "", observed.column(1).GetNumeric(r));
    auto it = ref.find(v);
    if (it == ref.end() || std::abs(rank - it->second) > kRankTol) {
      OracleFail(oracle, "rank of vertex " + std::to_string(v) + " = " +
                             Fmt(rank) + ", reference " +
                             (it == ref.end() ? "missing" : Fmt(it->second)));
      return;
    }
    if (it->second < cutoff - kRankTol) {
      OracleFail(oracle, "vertex " + std::to_string(v) + " is not in the top " +
                             std::to_string(want));
      return;
    }
  }
}

Centers CentersFromTable(const Table& t) {
  Centers out(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 1; c < t.num_columns(); ++c) {
      out[r].push_back(t.column(c).GetNumeric(r));
    }
  }
  return out;
}

namespace {

/// Why `observed` fails the centers oracle, or "" when it holds. The
/// first coordinate is perturbed under --perturb `oracle`.
std::string CentersMismatch(const std::string& oracle, const Table& observed,
                            const Centers& ref) {
  Centers got = CentersFromTable(observed);
  if (got.size() != ref.size()) {
    return std::to_string(got.size()) + " centers, want " +
           std::to_string(ref.size());
  }
  for (size_t k = 0; k < ref.size(); ++k) {
    if (got[k].size() != ref[k].size()) {
      return "center " + std::to_string(k) + " has wrong arity";
    }
    for (size_t j = 0; j < ref[k].size(); ++j) {
      const double v = Perturbed(k == 0 && j == 0 ? oracle : "", got[k][j]);
      if (!Near(v, ref[k][j], kCenterTol)) {
        return "center " + std::to_string(k) + " dim " +
               std::to_string(j + 1) + " = " + Fmt(v) + ", reference " +
               Fmt(ref[k][j]);
      }
    }
  }
  return "";
}

}  // namespace

void CheckCenters(const std::string& oracle, const Table& observed,
                  const Centers& ref) {
  const std::string why = CentersMismatch(oracle, observed, ref);
  if (!why.empty()) OracleFail(oracle, why);
}

bool CentersNear(const Table& observed, const Centers& ref) {
  return CentersMismatch("", observed, ref).empty();
}

NbMoments MomentsFromGroupBy(const Table& t) {
  NbMoments out(t.num_rows());
  const size_t d = (t.num_columns() - 2) / 2;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out[r].cnt = t.column(1).GetBigInt(r);
    for (size_t j = 0; j < d; ++j) {
      out[r].sum.push_back(t.column(2 + 2 * j).GetNumeric(r));
      out[r].sumsq.push_back(t.column(3 + 2 * j).GetNumeric(r));
    }
  }
  return out;
}

NbMoments MomentsFromModel(const Table& t) {
  // Rows are (class, attr, prior, mean, variance, cnt); collect per class
  // in label order.
  std::vector<int64_t> labels;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const int64_t c = t.column(0).GetBigInt(r);
    if (std::find(labels.begin(), labels.end(), c) == labels.end()) {
      labels.push_back(c);
    }
  }
  std::sort(labels.begin(), labels.end());
  NbMoments out(labels.size());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const size_t k = static_cast<size_t>(
        std::find(labels.begin(), labels.end(), t.column(0).GetBigInt(r)) -
        labels.begin());
    const size_t attr = static_cast<size_t>(t.column(1).GetBigInt(r));
    const double mean = t.column(3).GetNumeric(r);
    const double var = t.column(4).GetNumeric(r);
    const int64_t cnt = t.column(5).GetBigInt(r);
    ClassMoments& m = out[k];
    m.cnt = cnt;
    if (m.sum.size() < attr) {
      m.sum.resize(attr);
      m.sumsq.resize(attr);
    }
    const double n = static_cast<double>(cnt);
    m.sum[attr - 1] = mean * n;
    m.sumsq[attr - 1] = (var + mean * mean) * n;
  }
  return out;
}

void CheckNbModel(const std::string& oracle, const Table& model,
                  const NbMoments& ref) {
  int64_t total = 0;
  for (const ClassMoments& m : ref) total += m.cnt;
  const size_t d = ref.empty() ? 0 : ref[0].sum.size();
  if (model.num_rows() != ref.size() * d) {
    OracleFail(oracle, std::to_string(model.num_rows()) + " model rows, want " +
                           std::to_string(ref.size() * d));
    return;
  }
  for (size_t r = 0; r < model.num_rows(); ++r) {
    const size_t k = r / d;
    const size_t j = static_cast<size_t>(model.column(1).GetBigInt(r)) - 1;
    const ClassMoments& m = ref[k];
    const double n = static_cast<double>(m.cnt);
    const double mean = m.sum[j] / n;
    const double var = std::max(0.0, m.sumsq[j] / n - mean * mean);
    const double prior = (n + 1) / static_cast<double>(total + ref.size());
    const double got_mean = Perturbed(r == 0 ? oracle : "",
                                      model.column(3).GetNumeric(r));
    if (model.column(5).GetBigInt(r) != m.cnt ||
        !Near(model.column(2).GetNumeric(r), prior, 1e-12) ||
        !Near(got_mean, mean, 1e-9) ||
        !Near(model.column(4).GetNumeric(r), var, 1e-6)) {
      OracleFail(oracle, "model row " + std::to_string(r) + " (mean " +
                             Fmt(got_mean) + ", reference " + Fmt(mean) +
                             ") disagrees with the GROUP BY moments");
      return;
    }
  }
}

void CheckNbGroupBy(const std::string& oracle, const Table& observed,
                    const NbMoments& ref) {
  NbMoments got = MomentsFromGroupBy(observed);
  if (got.size() != ref.size()) {
    OracleFail(oracle, std::to_string(got.size()) + " classes, want " +
                           std::to_string(ref.size()));
    return;
  }
  for (size_t k = 0; k < ref.size(); ++k) {
    if (got[k].cnt != ref[k].cnt || got[k].sum.size() != ref[k].sum.size()) {
      OracleFail(oracle, "class " + std::to_string(k) + " count " +
                             std::to_string(got[k].cnt) + ", reference " +
                             std::to_string(ref[k].cnt));
      return;
    }
    for (size_t j = 0; j < ref[k].sum.size(); ++j) {
      const double s = Perturbed(k == 0 && j == 0 ? oracle : "", got[k].sum[j]);
      if (!Near(s, ref[k].sum[j], 1e-9) ||
          !Near(got[k].sumsq[j], ref[k].sumsq[j], 1e-7)) {
        OracleFail(oracle, "class " + std::to_string(k) + " attr " +
                               std::to_string(j + 1) + " sum " + Fmt(s) +
                               ", reference " + Fmt(ref[k].sum[j]));
        return;
      }
    }
  }
}

}  // namespace soda::perfbench
