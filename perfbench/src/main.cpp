// perfbench: one end-to-end benchmark of the TeaLeaf solve stack.
//
//   perfbench --workload <crooked-pipe|server-mix|server-cold> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Run from the repository root (it reads decks/).  The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 measures the end-to-end metrics for about
// --seconds; --trace 1 runs a fixed amount of work twice, untraced and
// traced, and reports the per-layer metrics of the traced copy, so exact
// counts repeat between runs.  See README.md for every metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/solve_api.hpp"
#include "harness.hpp"
#include "ops/kernels.hpp"
#include "server/solve_server.hpp"
#include "solvers/solver.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using tealeaf::CommStats;
using tealeaf::SolveSession;
using tealeaf::SolveStats;
using tealeaf::SolverConfig;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Print a sample's quartiles to stderr, so one run shows how steady its
/// own samples were.
void print_spread(const char* what, const std::vector<double>& v) {
  if (v.size() < 2) return;
  const std::vector<double> q = quantiles(v, 4);
  std::fprintf(stderr,
               "perfbench: %s quartiles %.4g / %.4g / %.4g s "
               "(IQR/median %.3f over %zu)\n",
               what, q[0], q[1], q[2], (q[2] - q[0]) / q[1], v.size());
}

constexpr const char* kDeckDir = "decks";
constexpr const char* kTraceDir = ".bench_build/perfbench-traces";
constexpr int kSetupRepeats = 9;
/// Two requests of each shape class per wave (see RequestStream).
constexpr int kWaveSize = 2 * kShapeClasses;
/// Waves that serve one bag of requests (RequestStream): timed runs end
/// on a bag boundary so every run serves the same class mix.
constexpr int kBagWaves = kBagRequests / kWaveSize;
/// Waves are the latency samples: at least 105 (7 bags) per timed run,
/// so p90 has ten samples beyond it.
constexpr int kMinWaves = 7 * kBagWaves;
/// Traced runs serve a fixed 3 bags, so their counts repeat exactly.
constexpr int kTracedWaves = 3 * kBagWaves;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
};

// ---------------------------------------------------------------------------
// Per-layer accounting, filled by the traced runs.

struct LayerTotals {
  long long outer = 0, inner = 0, spmv = 0, eigen = 0, refine = 0;
  long long budget_exhausted = 0;
  CommStats comm;
  double cell_applies = 0.0;  ///< Σ cells × A·x applications
  double exchange_est_s = 0.0;
  double smvp_est_s = 0.0;
  double smvp_probe_bytes = 0.0;
  double smvp_probe_s = 0.0;
  double field_mb = 0.0;

  void add_solve(const SolveStats& st, int max_iters) {
    outer += st.outer_iters;
    inner += st.inner_steps;
    spmv += st.spmv_applies;
    eigen += st.eigen_cg_iters;
    refine += st.refine_steps;
    if (!st.converged && !st.breakdown && st.outer_iters >= max_iters) {
      ++budget_exhausted;
    }
  }
};

double field_mb(SolveSession& s) {
  double bytes = 0.0;
  tealeaf::SimCluster& cl = s.cluster();
  for (int r = 0; r < cl.nranks(); ++r) {
    const tealeaf::Chunk& c = cl.chunk(r);
    for (int f = 0; f < tealeaf::kNumFieldIds; ++f) {
      const auto id = static_cast<tealeaf::FieldId>(f);
      if (id == tealeaf::FieldId::kKz && c.dims() != 3) continue;
      bytes += 8.0 * static_cast<double>(c.field(id).size());
    }
  }
  return bytes / (1024.0 * 1024.0);
}

CommStats comm_delta(const CommStats& after, const CommStats& before) {
  CommStats d;
  d.exchange_calls = after.exchange_calls - before.exchange_calls;
  d.messages = after.messages - before.messages;
  d.message_bytes = after.message_bytes - before.message_bytes;
  d.reductions = after.reductions - before.reductions;
  for (const auto& [depth, n] : after.messages_by_depth) {
    const auto it = before.messages_by_depth.find(depth);
    d.messages_by_depth[depth] =
        n - (it == before.messages_by_depth.end() ? 0 : it->second);
  }
  return d;
}

void add_comm(CommStats& into, const CommStats& d) {
  into.exchange_calls += d.exchange_calls;
  into.messages += d.messages;
  into.message_bytes += d.message_bytes;
  into.reductions += d.reductions;
  for (const auto& [depth, n] : d.messages_by_depth) {
    into.messages_by_depth[depth] += n;
  }
}

/// Check one finished solve from outside and outside the clock: the
/// solver's own report, then the true residual (true_residuals) against
/// tl_eps.  A solve the program reports as converged whose true residual
/// misses tl_eps makes the run incorrect.  Returns true when the solve
/// succeeded.
bool solve_ok(tealeaf::SimCluster& cl, const SolverConfig& cfg,
              const SolveStats& st, const std::string& what, Report& rep) {
  if (!result_ok(st)) return false;
  const Residuals res = true_residuals(cl, cfg, st);
  if (residual_ok(res, cfg.eps)) return true;
  rep.correct = false;
  std::fprintf(stderr,
               "perfbench: %s reported converged, but its true residual "
               "is %g of the initial (tl_eps %g)\n",
               what.c_str(), res.final / res.initial, cfg.eps);
  return false;
}

/// Time the operator and halo exchange of a solved session from outside,
/// then price the solve's own counts with them (estimates, labelled as
/// such): ops time = per-apply probe time × A·x applications; exchange
/// time = Σ over halo depths of the per-call probe time × the solve's
/// calls at that depth (messages at that depth / messages per call).
void probe_session(SolveSession& s, const SolveStats& st,
                   const CommStats& solve_comm, LayerTotals& lt,
                   Tracer& tr, long long unit) {
  tealeaf::SimCluster& cl = s.cluster();
  constexpr int kReps = 3;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    tealeaf::parallel_region([&](const tealeaf::Team& team) {
      team.for_range(0, cl.nranks(), [&](std::int64_t r) {
        tealeaf::Chunk& c = cl.chunk(static_cast<int>(r));
        tealeaf::kernels::smvp(c, tealeaf::FieldId::kU, tealeaf::FieldId::kW,
                               tealeaf::interior_bounds(c));
      });
    });
  }
  const double per_apply = since(t0) / kReps;
  tr.record("ops.smvp_probe", "ops", unit, per_apply * kReps);
  double bytes = 0.0;
  for (int r = 0; r < cl.nranks(); ++r) {
    const tealeaf::Chunk& c = cl.chunk(r);
    const double cells = static_cast<double>(c.nx()) * c.ny() * c.nz();
    const double word = c.fp32_active() ? 4.0 : 8.0;
    // Computed traffic per cell: stencil reads src plus one coefficient
    // per axis and writes dst; an assembled row reads its values and
    // column indices (8 B each), the row pointer, src and writes dst.
    bytes += cells * (st.nnz_per_row > 0.0
                          ? st.nnz_per_row * (word + 8.0) + 8.0 + 2 * word
                          : word * (2 + c.dims()));
  }
  lt.smvp_probe_bytes += bytes * kReps;
  lt.smvp_probe_s += per_apply * kReps;
  lt.smvp_est_s += per_apply * static_cast<double>(st.spmv_applies);

  for (const auto& [depth, msgs] : solve_comm.messages_by_depth) {
    if (msgs <= 0 || depth > cl.halo_depth()) continue;
    const std::int64_t before = cl.stats().messages_by_depth[depth];
    const auto t1 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      cl.exchange({tealeaf::FieldId::kP}, depth);
    }
    const double per_call = since(t1) / kReps;
    tr.record("comm.exchange_probe", "comm", unit, per_call * kReps);
    const double msgs_per_call =
        static_cast<double>(cl.stats().messages_by_depth[depth] - before) /
        kReps;
    if (msgs_per_call > 0.0) {
      lt.exchange_est_s += per_call * static_cast<double>(msgs) / msgs_per_call;
    }
  }
}

// ---------------------------------------------------------------------------
// Host probes (traced runs): the bandwidth and synchronisation
// denominators the per-layer numbers are read against.

/// Last-level cache size in bytes as the C library reports it (L3, else
/// L2, else 32 MiB).
std::size_t llc_bytes() {
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long size = sysconf(name);
    if (size > 0) return static_cast<std::size_t>(size);
  }
  return 32u * 1024 * 1024;
}

/// STREAM triad a = b + s·c on every thread, each array 4× the LLC.
/// Reports the best of three passes (STREAM's convention), counting
/// 3 × 8 bytes per element.
double triad_gbps(Tracer& tr) {
  const std::size_t llc = llc_bytes();
  const std::size_t n = 4 * llc / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto n64 = static_cast<std::int64_t>(n);
  tealeaf::parallel_region([&](const tealeaf::Team& team) {
    team.for_range(0, n64, [&](std::int64_t i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    });
  });
  double best = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    tealeaf::parallel_region([&](const tealeaf::Team& team) {
      team.for_range(0, n64,
                     [&](std::int64_t i) { a[i] = b[i] + 3.0 * c[i]; });
    });
    const double s = since(t0);
    tr.record("util.triad", "util", pass, s);
    best = std::min(best, s);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("triad probe miscomputed");
  std::fprintf(stderr,
               "perfbench: triad probe LLC %.0f MiB, each array %.0f MiB, "
               "%d threads\n",
               static_cast<double>(llc) / 1048576.0,
               static_cast<double>(n * sizeof(double)) / 1048576.0,
               tealeaf::num_threads());
  return 3.0 * 8.0 * static_cast<double>(n) / best / 1e9;
}

/// Round trip of one Team barrier across the whole region, in µs.
double barrier_us(Tracer& tr) {
  constexpr int kBarriers = 20000;
  const auto t0 = Clock::now();
  tealeaf::parallel_region([&](const tealeaf::Team& team) {
    for (int i = 0; i < kBarriers; ++i) team.barrier();
  });
  const double s = since(t0);
  tr.record("util.barrier", "util", 0, s);
  return s / kBarriers * 1e6;
}

// ---------------------------------------------------------------------------
// crooked-pipe

/// One pass: reset to the initial state, then every step of the deck as
/// prepare → run_solver → finish_solve (SolveSession::solve's phases,
/// spanned separately when tracing).  Each step is checked after it, and
/// the pass's field summary at the end, both outside the clock; a summary
/// that misses the conserved totals fails every step of the pass.  With
/// `lt`, each step's stats and comm counts are added to it.  Returns the
/// pass's wall time without the checks.
double pipe_pass(SolveSession& s, const tealeaf::InputDeck& deck,
                 const Reference& ref, Tracer& tr, long long& unit,
                 LayerTotals* lt, Report& rep) {
  const SolverConfig cfg = deck.solver.validated();
  double seconds = 0.0;
  auto t0 = Clock::now();
  {
    Scope sp(tr, "api.reset", "api", unit);
    s.reset(deck);
  }
  long long failed = 0;
  for (int step = 0; step < deck.num_steps(); ++step, ++unit) {
    const CommStats comm0 = s.cluster().stats();
    SolveStats st;
    {
      Scope root(tr, "step", "step", unit);
      {
        Scope sp(tr, "api.prepare", "api", unit);
        s.prepare(cfg.op);
      }
      {
        Scope sp(tr, "solvers.run_solver", "solvers", unit);
        st = tealeaf::run_solver(s.cluster(), cfg, s.machine());
      }
      {
        Scope sp(tr, "api.finish_solve", "api", unit);
        s.finish_solve(st);
      }
    }
    seconds += since(t0);
    if (lt != nullptr) {
      lt->add_solve(st, cfg.max_iters);
      add_comm(lt->comm, comm_delta(s.cluster().stats(), comm0));
    }
    const std::string what = "crooked-pipe step " + std::to_string(unit);
    failed += solve_ok(s.cluster(), cfg, st, what, rep) ? 0 : 1;
    t0 = Clock::now();
  }
  seconds += since(t0);
  if (!summary_matches(s.field_summary(), ref,
                       summary_tolerance(tealeaf::Precision::kDouble))) {
    rep.correct = false;
    failed = deck.num_steps();
  }
  rep.attempted += deck.num_steps();
  rep.failed += failed;
  return seconds;
}

Report run_crooked_pipe(double seconds) {
  Report rep;
  std::vector<double> setup;
  std::unique_ptr<SolveSession> session;
  tealeaf::InputDeck deck;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    const auto t0 = Clock::now();
    deck = crooked_pipe_deck(kDeckDir);
    session = std::make_unique<SolveSession>(deck, kPipeRanks);
    session->prepare();
    setup.push_back(since(t0));
  }
  const Reference ref = reference_of(deck);

  Tracer off(false);
  long long unit = 0;
  std::vector<double> pass_s;
  const auto start = Clock::now();
  do {
    pass_s.push_back(pipe_pass(*session, deck, ref, off, unit, nullptr, rep));
  } while (since(start) + median(pass_s) <= seconds);
  print_spread("pass time", pass_s);

  // A pass is this workload's request: the user waits for the whole
  // solution.  Steps differ in iteration count, so per-step latencies
  // would mix two populations.  The rate comes from the median pass, so
  // a stall in one pass does not move it.  Here time_to_solution_s and
  // latency_p50_s are therefore one number, and req_per_s is the steps
  // of a pass over it.
  rep.metrics = {
      {"setup_s", median(setup), "s"},
      {"time_to_solution_s", median(pass_s), "s"},
      {"req_per_s", deck.num_steps() / median(pass_s), "1/s"},
      {"latency_p50_s", percentile(pass_s, 0.5), "s"},
      {"latency_p90_s", percentile(pass_s, 0.9), "s"},
  };
  return rep;
}

// ---------------------------------------------------------------------------
// server-mix / server-cold

struct ServerTotals {
  long long requests = 0, batched = 0, batches = 0, reroutes = 0;
  long long hits = 0, misses = 0;
};

/// Replay one served request solo through the benchmark's own session
/// cache, phase by phase, and check it: the server's result must report
/// success, the replay must reach the same outer-iteration count (batch ≡
/// solo), its true residual must meet tl_eps, and the replayed fields
/// must keep the conserved totals.
/// Returns true when the request counts as succeeded.
bool replay_and_check(const Generated& g, const tealeaf::SolveResult& res,
                      tealeaf::SessionCache& cache, Tracer& tr,
                      long long unit, LayerTotals* lt, Report& rep) {
  if (!result_ok(res.stats)) {
    std::fprintf(stderr,
                 "perfbench: %s (%s) failed: %d iterations, breakdown %d, "
                 "final norm %g\n",
                 res.tag.c_str(), g.cls.c_str(), res.stats.outer_iters,
                 res.stats.breakdown ? 1 : 0, res.stats.final_norm);
    return false;  // reported as failed: nothing to verify
  }
  Scope root(tr, "replay", "replay", unit);
  const SolverConfig cfg = res.config.validated();
  SolveSession* s = nullptr;
  {
    const long long misses = cache.misses();
    const int span = tr.begin("api.acquire", "api", unit);
    s = cache.acquire(g.req.deck, g.req.nranks, std::max(2, cfg.halo_depth),
                      1)
            .front();
    tr.end(span);
    if (cache.misses() != misses) {
      // A miss constructed the session: that is the ctor's time.
      tr.rename(span, "api.session_ctor");
      if (lt != nullptr) lt->field_mb += field_mb(*s);
    }
  }
  {
    Scope sp(tr, "api.reset", "api", unit);
    s->reset(g.req.deck);
  }
  const CommStats comm0 = s->cluster().stats();
  {
    Scope sp(tr, "api.prepare", "api", unit);
    s->prepare(cfg.op);
  }
  SolveStats st;
  {
    Scope sp(tr, "solvers.run_solver", "solvers", unit);
    st = tealeaf::run_solver(s->cluster(), cfg, s->machine());
  }
  if (!st.breakdown) {
    Scope sp(tr, "api.finish_solve", "api", unit);
    s->finish_solve(st);
  }
  const CommStats comm = comm_delta(s->cluster().stats(), comm0);
  if (lt != nullptr) {
    lt->comm.exchange_calls += comm.exchange_calls;
    lt->comm.messages += comm.messages;
    lt->comm.message_bytes += comm.message_bytes;
    lt->comm.reductions += comm.reductions;
    const tealeaf::SimCluster& cl = s->cluster();
    double cells = 0.0;
    for (int r = 0; r < cl.nranks(); ++r) {
      const tealeaf::Chunk& c = cl.chunk(r);
      cells += static_cast<double>(c.nx()) * c.ny() * c.nz();
    }
    lt->cell_applies += cells * static_cast<double>(st.spmv_applies);
    probe_session(*s, st, comm, *lt, tr, unit);
  }

  const bool same_iters = st.outer_iters == res.stats.outer_iters;
  const bool conserved = summary_matches(s->field_summary(), g.ref,
                                         summary_tolerance(cfg.precision));
  const bool ok = solve_ok(s->cluster(), cfg, st,
                           res.tag + " (" + g.cls + ") replay", rep) &&
                  same_iters && conserved;
  if (!ok) {
    // The server reported success for a result the check rejects.
    rep.correct = false;
    std::fprintf(stderr, "perfbench: %s (%s) failed the check\n",
                 res.tag.c_str(), g.cls.c_str());
  }
  return ok;
}

/// The closed loop: submit one wave, drain, wait; then check the wave
/// outside the clock.  Returns the per-wave submit→drain wall times.
std::vector<double> serve_waves(RequestStream& stream,
                                tealeaf::SolveServer& server,
                                tealeaf::SessionCache& replay_cache,
                                Tracer& tr, long long& unit, int min_waves,
                                int max_waves, double seconds,
                                LayerTotals* lt,
                                Report& rep) {
  std::vector<double> lat;
  const auto start = Clock::now();
  const auto more = [&] {
    const int n = static_cast<int>(lat.size());
    if (n < min_waves) return true;
    return n < max_waves && (n % kBagWaves != 0 || since(start) < seconds);
  };
  while (more()) {
    const std::vector<Generated> wave = stream.wave(kWaveSize);
    std::vector<tealeaf::SolveResult> results;
    const auto t0 = Clock::now();
    {
      Scope sp(tr, "server.drain", "server", unit);
      for (const Generated& g : wave) server.submit(g.req);
      results = server.drain();
    }
    lat.push_back(since(t0));
    for (std::size_t i = 0; i < wave.size(); ++i) {
      ++rep.attempted;
      if (lt != nullptr) {
        lt->add_solve(results[i].stats, wave[i].req.deck.solver.max_iters);
      }
      if (!replay_and_check(wave[i], results[i], replay_cache, tr, unit, lt,
                            rep)) {
        ++rep.failed;
      }
    }
    ++unit;
  }
  return lat;
}

/// Fresh stream, server and replay cache, warmed by one wave.
struct ServerRig {
  std::unique_ptr<RequestStream> stream;
  std::unique_ptr<tealeaf::SolveServer> server;
  std::unique_ptr<tealeaf::SessionCache> cache;
};

ServerRig make_rig(Workload w, std::uint64_t seed) {
  ServerRig rig;
  rig.stream = std::make_unique<RequestStream>(w, seed);
  rig.server = std::make_unique<tealeaf::SolveServer>();
  rig.cache = std::make_unique<tealeaf::SessionCache>();
  for (const Generated& g : warmup_wave(w)) rig.server->submit(g.req);
  (void)rig.server->drain();
  return rig;
}

Report run_server(Workload w, std::uint64_t seed, double seconds) {
  Report rep;
  std::vector<double> setup;
  ServerRig rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig = ServerRig{};
    const auto t0 = Clock::now();
    rig = make_rig(w, seed);
    setup.push_back(since(t0));
  }
  Tracer off(false);
  long long unit = 0;
  const std::vector<double> lat =
      serve_waves(*rig.stream, *rig.server, *rig.cache, off, unit,
                  kMinWaves, 1 << 30, seconds, nullptr, rep);
  print_spread("wave latency", lat);
  // Time to solution: the median wall time to serve one whole bag; the
  // rate comes from the same median, so a stall in one bag does not move
  // it.
  std::vector<double> blocks;
  for (std::size_t at = 0; at < lat.size(); at += kBagWaves) {
    double sum = 0.0;
    for (std::size_t i = at; i < at + kBagWaves; ++i) sum += lat[i];
    blocks.push_back(sum);
  }
  print_spread("bag time", blocks);
  rep.metrics = {
      {"setup_s", median(setup), "s"},
      {"time_to_solution_s", median(blocks), "s"},
      {"req_per_s", kBagRequests / median(blocks), "1/s"},
      {"latency_p50_s", percentile(lat, 0.5), "s"},
      {"latency_p90_s", percentile(lat, 0.9), "s"},
  };
  std::fprintf(stderr, "perfbench: %zu waves of %d requests\n", lat.size(),
               kWaveSize);
  return rep;
}

// ---------------------------------------------------------------------------
// Traced runs

std::vector<Metric> layer_metrics(const LayerTotals& lt, const Tracer& tr,
                                  const ServerTotals& sv, double triad,
                                  double barrier, double overhead) {
  const double solve_s = tr.self_seconds("solvers.run_solver");
  const double smvp_gbps =
      lt.smvp_probe_s > 0.0 ? lt.smvp_probe_bytes / lt.smvp_probe_s / 1e9
                            : 0.0;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  return {
      {"solvers.solve_s", solve_s, "s"},
      {"solvers.outer_iters", static_cast<double>(lt.outer), "count"},
      {"solvers.inner_steps", static_cast<double>(lt.inner), "count"},
      {"solvers.spmv_applies", static_cast<double>(lt.spmv), "count"},
      {"solvers.eigen_cg_iters", static_cast<double>(lt.eigen), "count"},
      {"solvers.cell_spmv_per_s", ratio(lt.cell_applies, solve_s), "1/s"},
      {"solvers.refine_steps", static_cast<double>(lt.refine), "count"},
      {"solvers.budget_exhausted", static_cast<double>(lt.budget_exhausted),
       "count"},
      {"comm.exchange_calls", static_cast<double>(lt.comm.exchange_calls),
       "count"},
      {"comm.messages", static_cast<double>(lt.comm.messages), "count"},
      {"comm.message_bytes", static_cast<double>(lt.comm.message_bytes), "B"},
      {"comm.reductions", static_cast<double>(lt.comm.reductions), "count"},
      {"comm.exchange_s", lt.exchange_est_s, "s"},
      {"ops.smvp_s", lt.smvp_est_s, "s"},
      {"ops.smvp_gbps", smvp_gbps, "GB/s"},
      {"ops.smvp_triad_share", ratio(smvp_gbps, triad), "ratio"},
      {"util.triad_gbps", triad, "GB/s"},
      {"util.barrier_us", barrier, "us"},
      {"server.batched_share",
       ratio(static_cast<double>(sv.batched), static_cast<double>(sv.requests)),
       "ratio"},
      {"server.mean_batch",
       ratio(static_cast<double>(sv.requests), static_cast<double>(sv.batches)),
       "count"},
      {"server.reroutes", static_cast<double>(sv.reroutes), "count"},
      {"api.cache_hit_ratio",
       ratio(static_cast<double>(sv.hits),
             static_cast<double>(sv.hits + sv.misses)),
       "ratio"},
      {"api.session_ctor_s", tr.self_seconds("api.session_ctor"), "s"},
      {"api.reset_s", tr.self_seconds("api.reset"), "s"},
      {"api.prepare_s", tr.self_seconds("api.prepare"), "s"},
      {"api.finish_s", tr.self_seconds("api.finish_solve"), "s"},
      {"mesh.field_mb", lt.field_mb, "MB"},
      {"trace.overhead_share", overhead, "ratio"},
  };
}

void write_trace(const Tracer& tr, const std::string& workload,
                 std::uint64_t seed) {
  std::filesystem::create_directories(kTraceDir);
  const std::string path = std::string(kTraceDir) + "/" + workload + "-seed" +
                           std::to_string(seed) + ".jsonl";
  tr.write_jsonl(path);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
               tr.spans().size(), path.c_str());
}

Report trace_crooked_pipe(Tracer& tr, double triad, double barrier) {
  Report rep;
  const tealeaf::InputDeck deck = crooked_pipe_deck(kDeckDir);
  const Reference ref = reference_of(deck);
  LayerTotals lt;
  long long unit = 0;
  std::unique_ptr<SolveSession> session;
  {
    Scope sp(tr, "api.session_ctor", "api", unit);
    session = std::make_unique<SolveSession>(deck, kPipeRanks);
  }
  lt.field_mb = field_mb(*session);

  Tracer off(false);
  const double untraced_s =
      pipe_pass(*session, deck, ref, off, unit, nullptr, rep);
  const double traced_s = pipe_pass(*session, deck, ref, tr, unit, &lt, rep);

  lt.cell_applies = static_cast<double>(deck.x_cells) * deck.y_cells *
                    static_cast<double>(lt.spmv);
  SolveStats sum;
  sum.spmv_applies = lt.spmv;
  const CommStats comm = lt.comm;
  probe_session(*session, sum, comm, lt, tr, unit);
  rep.metrics = layer_metrics(lt, tr, ServerTotals{}, triad, barrier,
                              (traced_s - untraced_s) / untraced_s);
  return rep;
}

Report trace_server(Workload w, std::uint64_t seed, Tracer& tr, double triad,
                    double barrier) {
  Report rep;
  Tracer off(false);
  long long unit = 0;
  ServerRig rig = make_rig(w, seed);
  const std::vector<double> untraced =
      serve_waves(*rig.stream, *rig.server, *rig.cache, off, unit,
                  kTracedWaves, kTracedWaves, 0.0, nullptr, rep);

  rig = ServerRig{};
  rig = make_rig(w, seed);
  const tealeaf::ServerStats before = rig.server->stats();
  const long long hits0 = rig.server->sessions().hits();
  const long long misses0 = rig.server->sessions().misses();
  LayerTotals lt;
  const std::vector<double> traced =
      serve_waves(*rig.stream, *rig.server, *rig.cache, tr, unit,
                  kTracedWaves, kTracedWaves, 0.0, &lt, rep);
  const tealeaf::ServerStats& after = rig.server->stats();
  ServerTotals sv;
  sv.requests = after.requests - before.requests;
  sv.batched = after.batched_requests - before.batched_requests;
  sv.batches = after.batches - before.batches;
  sv.reroutes = after.reroutes - before.reroutes;
  sv.hits = rig.server->sessions().hits() - hits0;
  sv.misses = rig.server->sessions().misses() - misses0;

  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (double s : untraced) untraced_s += s;
  for (double s : traced) traced_s += s;
  rep.metrics = layer_metrics(lt, tr, sv, triad, barrier,
                              (traced_s - untraced_s) / untraced_s);
  return rep;
}

// ---------------------------------------------------------------------------

void print_report(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              rep.correct ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = parse_workload(args.workload);
    Report rep;
    if (!args.trace) {
      rep = w == Workload::kCrookedPipe
                ? run_crooked_pipe(args.seconds)
                : run_server(w, args.seed, args.seconds);
      rep.metrics.push_back(
          {"ok_ratio",
           static_cast<double>(rep.attempted - rep.failed) /
               static_cast<double>(rep.attempted),
           "ratio"});
      rep.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    } else {
      Tracer tr(true);
      const double triad = triad_gbps(tr);
      const double barrier = barrier_us(tr);
      rep = w == Workload::kCrookedPipe
                ? trace_crooked_pipe(tr, triad, barrier)
                : trace_server(w, args.seed, tr, triad, barrier);
      write_trace(tr, args.workload, args.seed);
    }
    print_report(rep);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench error: %s\n", e.what());
    return 1;
  }
}
