/// \file probes.h
/// The traced run. It sets up all three workloads, measures the tracing
/// overhead on the selected one, and runs the per-layer probes: each
/// module's public entry points called from outside, inside spans.

#ifndef SODA_PERFBENCH_PROBES_H_
#define SODA_PERFBENCH_PROBES_H_

#include "bench.h"

namespace soda::perfbench {

/// Every per-layer metric except the single-thread analytics timings.
void RunTracedSuite(const Options& opt, Report* report);

/// Direct analytics calls only (analytics.*_ms); the traced run's second
/// process runs this at SODA_THREADS=1.
void RunAnalyticsProbes(const Options& opt, Report* report);

}  // namespace soda::perfbench

#endif  // SODA_PERFBENCH_PROBES_H_
