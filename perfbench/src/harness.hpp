#pragma once

// Benchmark-side logic that does not touch the solve stack: the seeded
// random source, order statistics, the span recorder and the result
// correctness check.  Kept apart from the workloads so the self-test can
// pin each piece against hand-computed values.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/solve_api.hpp"

namespace perfbench {

/// SplitMix64: a tiny generator whose output is fully specified, so a seed
/// gives the same request stream on every standard library (the
/// std::*_distribution algorithms are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  int uniform(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Linear-interpolation percentile (numpy's default, R type 7) of an
/// unsorted sample, q in [0, 1].  Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Cut points dividing the sample into n groups, by the same rule as
/// Python's statistics.quantiles(values, n=n) (method 'exclusive').
/// Needs at least two values.
[[nodiscard]] std::vector<double> quantiles(std::vector<double> values,
                                            int n);

/// Spans recorded around the benchmark's own calls into each layer.
/// Spans live in memory; `write_jsonl` dumps them when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    long long unit = 0;  ///< the step or wave the span belongs to
    int parent = -1;     ///< index of the enclosing span, -1 for a root
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one.  Returns its index, or -1
  /// when tracing is off.
  int begin(const std::string& name, const std::string& layer,
            long long unit);
  void end(int span);
  /// Rename a recorded span (a no-op for -1).
  void rename(int span, const std::string& name);

  /// Close a span after the fact, with an explicit duration (for probes
  /// that time themselves).  Parent is the innermost open span.
  void record(const std::string& name, const std::string& layer,
              long long unit, double seconds);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the part of it its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  /// Self time summed over spans with this name.
  [[nodiscard]] double self_seconds(const std::string& name) const;

  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;
  [[nodiscard]] std::vector<double> self_times() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, const std::string& layer,
        long long unit)
      : tracer_(t), span_(t.begin(name, layer, unit)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

/// Conserved totals one conduction step must keep.  With Neumann
/// boundaries every column of A sums to one, so Σu (and hence Σρe, the
/// internal energy) is conserved up to the final residual, and density
/// never changes: a correct step leaves mass and ie at their initial
/// values and temp (Σu·dA) equal to ie.
struct Reference {
  double mass = 0.0;
  double ie = 0.0;
};

/// Relative tolerance on ie and temp for a precision class.  Mass is
/// never touched by a solve and must match to summation rounding (1e-10).
[[nodiscard]] double summary_tolerance(tealeaf::Precision p);

/// True when `got` matches `ref` within `rel_tol` (mass within 1e-10).
[[nodiscard]] bool summary_matches(const tealeaf::FieldSummary& got,
                                   const Reference& ref, double rel_tol);

/// Verdict on one solve's own report: converged, no breakdown, finite
/// final norm.
[[nodiscard]] bool result_ok(const tealeaf::SolveStats& stats);

/// Residual norms of the system a solve has just finished, computed from
/// outside the solver on the fp64 fields, with the stencil operator and
/// the benchmark's own vector arithmetic.  `initial` is ‖u0 − A·u0‖ (every
/// solver starts from u = u0).  `final` is the true residual r = u0 − A·u
/// in the norm the solver's stopping rule reads:
///  * ‖r‖ for CG and Chebyshev, and for every mixed-precision solve (the
///    refinement loop tests the fp64 2-norm);
///  * √⟨r, p(A)·r⟩ for PPCG, where p is its inner Chebyshev polynomial of
///    degree tl_ppcg_inner_steps on the solve's eigenvalue interval
///    (`stats.eigmin/eigmax`).  PPCG stops on ⟨r, z⟩ with z = p(A)·r, as
///    upstream TeaLeaf does; on a stiff operator that norm sits far below
///    ‖r‖ (60–90× on crooked-pipe at 1024²).
/// Only unpreconditioned solves are supported (throws otherwise).
/// Exchanges u, u0 and the solvers' work fields and overwrites them, and
/// drops any assembled operator; the next prepare rebuilds all of it, so
/// a wrong CSR/SELL assembly shows too.
struct Residuals {
  double initial = 0.0;
  double final = 0.0;
};
[[nodiscard]] Residuals true_residuals(tealeaf::SimCluster& cl,
                                       const tealeaf::SolverConfig& cfg,
                                       const tealeaf::SolveStats& stats);

/// How far above tl_eps × initial the true final residual may sit.  The
/// solvers stop on a recurrence residual, which drifts from the true one,
/// and fp32 storage rounds u itself; a solve stopped one decade early
/// still fails.
inline constexpr double kResidualSlack = 5.0;

/// True when the true final residual is finite and at most
/// kResidualSlack × eps × the true initial residual.
[[nodiscard]] bool residual_ok(const Residuals& r, double eps);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
