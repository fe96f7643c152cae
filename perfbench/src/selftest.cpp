// Self-test of the benchmark's own logic: seeded stream reproducibility,
// the order statistics, the span recorder and the correctness checks.
// Run from the repository root:  python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "driver/decks.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::string stream_text(Workload w, std::uint64_t seed) {
  RequestStream stream(w, seed);
  std::string text;
  for (int wave = 0; wave < 3; ++wave) {
    for (const Generated& g : stream.wave(8)) text += describe(g.req);
  }
  return text;
}

void test_streams() {
  for (Workload w : {Workload::kServerMix, Workload::kServerCold}) {
    const std::string a = stream_text(w, 7);
    check(a == stream_text(w, 7), "same seed gives a byte-identical stream");
    check(a != stream_text(w, 8), "another seed gives another stream");
  }
  RequestStream cold(Workload::kServerCold, 3);
  std::set<std::tuple<int, int, int, int>> shapes;
  bool fresh = true;
  for (int wave = 0; wave < 40; ++wave) {
    for (const Generated& g : cold.wave(8)) {
      const tealeaf::InputDeck& d = g.req.deck;
      fresh &= shapes.insert({d.dims, d.x_cells, d.y_cells, d.z_cells}).second;
    }
  }
  check(fresh, "server-cold never repeats a shape");

  // Every whole bag carries the same class mix, whatever the seed.
  for (Workload w : {Workload::kServerMix, Workload::kServerCold}) {
    std::map<std::string, int> mix[2];
    for (int i = 0; i < 2; ++i) {
      RequestStream stream(w, 20 + static_cast<std::uint64_t>(i));
      for (const Generated& g : stream.wave(kBagRequests)) {
        const tealeaf::SolverConfig& c = g.req.deck.solver;
        ++mix[i][std::to_string(g.req.deck.dims) + "/" +
                 tealeaf::to_string(c.type) + "/" +
                 tealeaf::to_string(c.precision)];
      }
    }
    check(mix[0] == mix[1] && mix[0]["3/chebyshev/double"] == 7,
          "a bag holds the same class mix for every seed");

    // Within a wave, the two requests of a shape class differ in solver.
    RequestStream stream(w, 5);
    bool distinct = true;
    for (int wave = 0; wave < 30; ++wave) {
      const std::vector<Generated> reqs = stream.wave(2 * kShapeClasses);
      for (int c = 0; c < kShapeClasses; ++c) {
        distinct &= reqs[static_cast<std::size_t>(c)].req.deck.solver.type !=
                    reqs[static_cast<std::size_t>(c + kShapeClasses)]
                        .req.deck.solver.type;
      }
    }
    check(distinct, "a wave's two requests of a shape class differ in solver");
  }
  bool rejected = false;
  try {
    (void)parse_workload("server-warm");
  } catch (const std::invalid_argument&) {
    rejected = true;
  }
  check(rejected, "an unknown workload name is rejected");
}

void test_order_statistics() {
  check(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "p50 of 1..4 is 2.5");
  check(near(percentile({1, 2, 3, 4}, 0.9), 3.7), "p90 of 1..4 is 3.7");
  check(near(percentile({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9), 91),
        "p90 of 10..100 is 91");
  check(near(percentile({5}, 0.9), 5.0), "a single sample is every percentile");
  check(percentile({}, 0.5) == 0.0, "an empty sample gives 0");
  // Values from Python: statistics.quantiles(range(1, 11), n=4) etc.
  const std::vector<double> q10 =
      quantiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4);
  check(q10.size() == 3 && near(q10[0], 2.75) && near(q10[1], 5.5) &&
            near(q10[2], 8.25),
        "quartiles of 1..10 are 2.75, 5.5, 8.25");
  const std::vector<double> q5 = quantiles({5, 4, 3, 2, 1}, 4);
  check(near(q5[0], 1.5) && near(q5[1], 3.0) && near(q5[2], 4.5),
        "quartiles of 1..5 are 1.5, 3, 4.5");
  const std::vector<double> q3 = quantiles({3, 1, 2}, 4);
  check(near(q3[0], 1.0) && near(q3[2], 3.0), "quartiles of 1..3 clamp");
}

void test_tracer() {
  Tracer off(false);
  check(off.begin("x", "api", 0) == -1 && off.spans().empty(),
        "a disabled tracer records nothing");

  Tracer tr(true);
  const int root = tr.begin("step", "step", 4);
  {
    Scope child(tr, "api.prepare", "api", 4);
  }
  tr.record("ops.smvp_probe", "ops", 4, 0.0);
  tr.end(root);
  const std::vector<Tracer::Span>& s = tr.spans();
  check(s.size() == 3 && s[1].parent == root && s[2].parent == root &&
            s[0].parent == -1 && s[1].unit == 4,
        "spans nest under the innermost open span");
  const double root_self = (s[0].end - s[0].start) - (s[1].end - s[1].start) -
                           (s[2].end - s[2].start);
  const auto layers = tr.self_seconds_by_layer();
  check(near(layers.at("step"), root_self) &&
            near(layers.at("api"), s[1].end - s[1].start),
        "self time subtracts direct children only");
  tr.rename(1, "api.session_ctor");
  check(tr.self_seconds("api.session_ctor") == s[1].end - s[1].start &&
            tr.self_seconds("api.prepare") == 0.0,
        "rename moves a span's time to its new name");
}

void test_correctness_check() {
  // A real solve through the program keeps the conserved totals.
  tealeaf::InputDeck deck = tealeaf::decks::layered_material(48);
  tealeaf::SolveSession session(deck, 2);
  const tealeaf::SolveStats st = session.solve();
  check(result_ok(st), "the layered-material CG solve converges");
  check(summary_matches(session.field_summary(), reference_of(deck),
                        summary_tolerance(tealeaf::Precision::kDouble)),
        "a correct solve passes the check");
  check(residual_ok(true_residuals(session.cluster(), deck.solver, st),
                    deck.solver.eps),
        "a correct solve meets tl_eps by its true residual");

  // A step that never solves keeps every conserved total, so only the
  // true residual can catch it.
  tealeaf::SolveSession unsolved(deck, 2);
  unsolved.prepare();
  check(summary_matches(unsolved.field_summary(), reference_of(deck),
                        summary_tolerance(tealeaf::Precision::kDouble)),
        "u left at u0 keeps the conserved totals");
  const Residuals none =
      true_residuals(unsolved.cluster(), deck.solver, tealeaf::SolveStats{});
  check(none.initial > 0.0 && none.final == none.initial &&
            !residual_ok(none, deck.solver.eps),
        "u left at u0 fails the residual check");

  // A solve stopped a few decades early reports converged at its own
  // tolerance but misses the requested one.
  tealeaf::SolveSession early(deck, 2);
  tealeaf::SolverConfig loose = deck.solver;
  loose.eps = deck.solver.eps * 1e4;
  const tealeaf::SolveStats early_st = early.solve(loose);
  check(result_ok(early_st) &&
            !residual_ok(true_residuals(early.cluster(), loose, early_st),
                         deck.solver.eps),
        "a solve stopped early fails the residual check");

  const tealeaf::FieldSummary exact{1.0, 2.0, 3.0, 3.0};
  const Reference ref{2.0, 3.0};
  check(summary_matches(exact, ref, 1e-7), "an exact summary passes");
  tealeaf::FieldSummary bad = exact;
  bad.ie *= 1.0 + 1e-5;
  check(!summary_matches(bad, ref, 1e-7), "a perturbed ie is rejected");
  bad = exact;
  bad.temp *= 1.0 - 1e-5;
  check(!summary_matches(bad, ref, 1e-7), "a perturbed temp is rejected");
  bad = exact;
  bad.mass *= 1.0 + 1e-8;
  check(!summary_matches(bad, ref, 1e-7), "a perturbed mass is rejected");
  bad = exact;
  bad.ie = std::numeric_limits<double>::quiet_NaN();
  check(!summary_matches(bad, ref, 1e-7), "a NaN summary is rejected");

  tealeaf::SolveStats nan_norm;
  nan_norm.converged = true;
  nan_norm.final_norm = std::numeric_limits<double>::quiet_NaN();
  check(!result_ok(nan_norm), "a converged solve with a NaN norm fails");
  tealeaf::SolveStats stalled;
  stalled.final_norm = 1.0;
  check(!result_ok(stalled), "an unconverged solve fails");
}

}  // namespace

int main() {
  try {
    test_streams();
    test_order_statistics();
    test_tracer();
    test_correctness_check();
  } catch (const std::exception& e) {
    std::printf("FAIL  unexpected exception: %s\n", e.what());
    ++g_failures;
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
