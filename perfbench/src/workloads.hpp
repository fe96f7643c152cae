#pragma once

// Seeded input generation.  The program under test sees only what these
// functions build: the crooked-pipe deck and the SolveRequest streams of
// the two server workloads.

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "api/solve_api.hpp"
#include "harness.hpp"

namespace perfbench {

enum class Workload { kCrookedPipe, kServerMix, kServerCold };

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload parse_workload(const std::string& name);

/// Crooked-pipe mesh and steps per pass (paper §V-B problem, PPCG with
/// halo depth 4 and tl_eps 1e-10 as the deck ships them).
inline constexpr int kPipeMesh = 1024;
inline constexpr int kPipeSteps = 2;
inline constexpr int kPipeRanks = 4;

/// Server requests: simulated ranks per request and the outer-iteration
/// budget every request gets (tl_max_iters).
inline constexpr int kServerRanks = 2;
inline constexpr int kIterBudget = 1000;

/// `decks/tea_bm_crooked_pipe.in` at kPipeMesh², kPipeSteps steps, with
/// its solver keys left as the deck sets them.
[[nodiscard]] tealeaf::InputDeck crooked_pipe_deck(const std::string& deck_dir);

/// Initial mass and internal energy of a deck, painted cell by cell from
/// its states exactly as the program initialises fields.  One conduction
/// step conserves both (see Reference).
[[nodiscard]] Reference reference_of(const tealeaf::InputDeck& deck);

/// One generated request plus what the correctness check needs.
struct Generated {
  tealeaf::SolveRequest req;
  std::string cls;  ///< class label: shape/solver/precision/operator
  Reference ref;
};

/// Requests per bag: every (shape class, solver, precision slot) triple
/// once — 4 shape classes × 3 solvers × 10 precision slots.
inline constexpr int kShapeClasses = 4;
inline constexpr int kBagRequests = kShapeClasses * 30;

/// Seeded stream of server requests of the layered-material problem,
/// drawn one wave at a time.
///  * server-mix: four repeated shapes (2-D 64²/96²/128², 3-D 24³), so
///    the session cache and batching have repeats to find.
///  * server-cold: every request a shape this stream has not produced
///    before (2-D sides in three size bands, or a 3-D brick), so the
///    session cache never hits.
/// Shape classes take turns, so a wave of 8 holds two of each.  Each
/// shape class deals its solver (CG/Chebyshev/PPCG) × precision slot
/// (double/mixed/single at 7/2/1) pairs from its own shuffled bag of 30,
/// in pairs of two different solvers, so the two requests of a shape
/// class in one wave never share a solver.  Operators (stencil/CSR/SELL)
/// come from a shuffled bag of three.
/// Every kBagRequests requests therefore hold the same class mix: the
/// seed sets the order and the exact cold shapes, not the amount of work.
class RequestStream {
 public:
  RequestStream(Workload w, std::uint64_t seed);

  [[nodiscard]] std::vector<Generated> wave(int size);

 private:
  struct Slot {
    tealeaf::SolverType solver = tealeaf::SolverType::kCG;
    tealeaf::Precision precision = tealeaf::Precision::kDouble;
  };

  [[nodiscard]] tealeaf::InputDeck shape_deck(int shape);

  Workload workload_;
  Rng rng_;
  long long issued_ = 0;
  std::vector<Slot> bags_[kShapeClasses];
  std::vector<tealeaf::OperatorKind> op_bag_;
  std::set<std::tuple<int, int, int, int>> seen_shapes_;
};

/// A fixed, seed-independent warm-up wave: one request per shape class
/// of the workload, together touching every solver, precision and
/// operator once.  server-mix warms its own four shapes, so set-up pays
/// for their session construction and assembly; server-cold warms shapes
/// below its size bands, so its stream still never meets a cached one.
[[nodiscard]] std::vector<Generated> warmup_wave(Workload w);

/// Canonical text of a request (deck text, ranks, override, tag): what
/// the self-test compares to prove a seed reproduces its stream.
[[nodiscard]] std::string describe(const tealeaf::SolveRequest& req);

}  // namespace perfbench
