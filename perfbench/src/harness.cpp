#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "ops/bounds.hpp"
#include "ops/kernels.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Rng::uniform(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::vector<double> quantiles(std::vector<double> values, int n) {
  const auto ld = static_cast<long long>(values.size());
  if (ld < 2 || n < 1) {
    throw std::invalid_argument("quantiles: need two values and n >= 1");
  }
  std::sort(values.begin(), values.end());
  const long long m = ld + 1;
  std::vector<double> cuts;
  for (long long i = 1; i < n; ++i) {
    const long long j = std::clamp(i * m / n, 1LL, ld - 1);
    const long long delta = i * m - j * n;
    cuts.push_back((values[j - 1] * static_cast<double>(n - delta) +
                    values[j] * static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::begin(const std::string& name, const std::string& layer,
                  long long unit) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, layer, unit, parent, now(), 0.0});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::rename(int span, const std::string& name) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].name = name;
}

void Tracer::record(const std::string& name, const std::string& layer,
                    long long unit, double seconds) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now();
  spans_.push_back({name, layer, unit, parent, t - seconds, t});
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<double> self = self_times();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += self[i];
  }
  return out;
}

double Tracer::self_seconds(const std::string& name) const {
  const std::vector<double> self = self_times();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self[i];
  }
  return total;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"unit\":"
        << s.unit << ",\"layer\":\"" << s.layer << "\",\"name\":\""
        << s.name << "\",\"start\":" << s.start << ",\"end\":" << s.end
        << "}\n";
  }
}

double summary_tolerance(tealeaf::Precision p) {
  return p == tealeaf::Precision::kSingle ? 1e-4 : 1e-7;
}

bool summary_matches(const tealeaf::FieldSummary& got, const Reference& ref,
                     double rel_tol) {
  const auto close = [](double a, double b, double tol) {
    return std::isfinite(a) && std::fabs(a - b) <= tol * std::fabs(b);
  };
  return close(got.mass, ref.mass, 1e-10) && close(got.ie, ref.ie, rel_tol) &&
         close(got.temp, ref.ie, rel_tol);
}

bool result_ok(const tealeaf::SolveStats& stats) {
  return stats.converged && !stats.breakdown &&
         std::isfinite(stats.final_norm);
}

namespace {

using tealeaf::FieldId;

/// f(j, k, l) on every interior cell of a chunk.
template <class F>
void each_cell(const tealeaf::Chunk& c, F&& f) {
  for (int l = 0; l < c.nz(); ++l)
    for (int k = 0; k < c.ny(); ++k)
      for (int j = 0; j < c.nx(); ++j) f(j, k, l);
}

/// Global Σ a·b over the interior, one partial per rank.
double global_dot(tealeaf::SimCluster& cl, FieldId a, FieldId b) {
  std::vector<double> partials;
  for (int r = 0; r < cl.nranks(); ++r) {
    const tealeaf::Chunk& c = cl.chunk(r);
    const auto& fa = c.field(a);
    const auto& fb = c.field(b);
    double acc = 0.0;
    each_cell(c, [&](int j, int k, int l) { acc += fa(j, k, l) * fb(j, k, l); });
    partials.push_back(acc);
  }
  return cl.reduce_sum(partials);
}

/// w = A·src on every chunk, after a depth-1 exchange of src.
void apply_operator(tealeaf::SimCluster& cl, FieldId src) {
  cl.exchange({src}, 1);
  for (int r = 0; r < cl.nranks(); ++r) {
    tealeaf::Chunk& c = cl.chunk(r);
    tealeaf::kernels::smvp(c, src, FieldId::kW, tealeaf::interior_bounds(c));
  }
}

/// dst = a·x + b·y over every chunk's interior.
void combine(tealeaf::SimCluster& cl, FieldId dst, double a, FieldId x,
             double b, FieldId y) {
  for (int r = 0; r < cl.nranks(); ++r) {
    tealeaf::Chunk& c = cl.chunk(r);
    auto& d = c.field(dst);
    const auto& fx = c.field(x);
    const auto& fy = c.field(y);
    each_cell(c, [&](int j, int k, int l) {
      d(j, k, l) = a * fx(j, k, l) + b * fy(j, k, l);
    });
  }
}

}  // namespace

Residuals true_residuals(tealeaf::SimCluster& cl,
                         const tealeaf::SolverConfig& cfg,
                         const tealeaf::SolveStats& stats) {
  if (cfg.precon != tealeaf::PreconType::kNone) {
    throw std::invalid_argument(
        "true_residuals: only unpreconditioned solves are supported");
  }
  for (int r = 0; r < cl.nranks(); ++r) cl.chunk(r).clear_assembled_operator();
  Residuals out;
  // r0 = u0 − A·u0 in R, its norm; then r = u0 − A·u in R.
  apply_operator(cl, FieldId::kU0);
  combine(cl, FieldId::kR, 1.0, FieldId::kU0, -1.0, FieldId::kW);
  out.initial = std::sqrt(global_dot(cl, FieldId::kR, FieldId::kR));
  apply_operator(cl, FieldId::kU);
  combine(cl, FieldId::kR, 1.0, FieldId::kU0, -1.0, FieldId::kW);
  const bool poly = cfg.type == tealeaf::SolverType::kPPCG &&
                    cfg.precision != tealeaf::Precision::kMixed &&
                    stats.eigmin > 0.0 && stats.eigmax > stats.eigmin;
  if (!poly) {
    // Also PPCG that converged inside its CG presteps (no interval yet).
    out.final = std::sqrt(global_dot(cl, FieldId::kR, FieldId::kR));
    return out;
  }
  // z = p(A)·r by the shifted Chebyshev recurrence on [eigmin, eigmax]:
  //   d = r/θ, z = d;  then per step: s −= A·d, d = α·d + β·s, z += d,
  // with ρ₀ = 1/σ, ρ' = 1/(2σ − ρ), α = ρ'·ρ, β = 2ρ'/δ.
  const double theta = 0.5 * (stats.eigmax + stats.eigmin);
  const double delta = 0.5 * (stats.eigmax - stats.eigmin);
  const double sigma = theta / delta;
  combine(cl, FieldId::kRtemp, 1.0, FieldId::kR, 0.0, FieldId::kR);
  combine(cl, FieldId::kSd, 1.0 / theta, FieldId::kR, 0.0, FieldId::kR);
  combine(cl, FieldId::kZ, 1.0, FieldId::kSd, 0.0, FieldId::kSd);
  double rho = 1.0 / sigma;
  for (int step = 0; step < cfg.inner_steps; ++step) {
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    const double alpha = rho_next * rho;
    const double beta = 2.0 * rho_next / delta;
    rho = rho_next;
    apply_operator(cl, FieldId::kSd);
    combine(cl, FieldId::kRtemp, 1.0, FieldId::kRtemp, -1.0, FieldId::kW);
    combine(cl, FieldId::kSd, alpha, FieldId::kSd, beta, FieldId::kRtemp);
    combine(cl, FieldId::kZ, 1.0, FieldId::kZ, 1.0, FieldId::kSd);
  }
  out.final = std::sqrt(std::fabs(global_dot(cl, FieldId::kR, FieldId::kZ)));
  return out;
}

bool residual_ok(const Residuals& r, double eps) {
  return std::isfinite(r.final) &&
         r.final <= kResidualSlack * eps * r.initial;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
