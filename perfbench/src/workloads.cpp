#include "workloads.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "driver/decks.hpp"

namespace perfbench {

using tealeaf::InputDeck;
using tealeaf::OperatorKind;
using tealeaf::Precision;
using tealeaf::SolverType;

namespace {

InputDeck load_deck(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open deck " + path);
  return InputDeck::parse(in);
}

constexpr SolverType kSolvers[] = {SolverType::kCG, SolverType::kChebyshev,
                                   SolverType::kPPCG};
constexpr Precision kPrecisions[] = {Precision::kDouble, Precision::kMixed,
                                     Precision::kSingle};
constexpr int kPrecisionWeights[] = {7, 2, 1};  // per 10 requests
constexpr OperatorKind kOperators[] = {
    OperatorKind::kStencil, OperatorKind::kCsr, OperatorKind::kSellCSigma};
constexpr int kMix2d[] = {64, 96, 128};

const char* op_name(OperatorKind op) {
  switch (op) {
    case OperatorKind::kStencil: return "stencil";
    case OperatorKind::kCsr: return "csr";
    case OperatorKind::kSellCSigma: return "sell";
  }
  return "?";
}

/// The 2-D layered material at nx × ny, or extruded through nz planes
/// (states without z information become prisms and cylinders).
InputDeck layered(int nx, int ny, int nz) {
  InputDeck deck = tealeaf::decks::layered_material(nx);
  deck.y_cells = ny;
  if (nz > 1) {
    deck.dims = 3;
    deck.z_cells = nz;
  }
  return deck;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "crooked-pipe") return Workload::kCrookedPipe;
  if (name == "server-mix") return Workload::kServerMix;
  if (name == "server-cold") return Workload::kServerCold;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (crooked-pipe, server-mix, server-cold)");
}

InputDeck crooked_pipe_deck(const std::string& deck_dir) {
  InputDeck deck = load_deck(deck_dir + "/tea_bm_crooked_pipe.in");
  deck.x_cells = kPipeMesh;
  deck.y_cells = kPipeMesh;
  deck.end_time = 0.0;
  deck.end_step = kPipeSteps;
  deck.validate();
  return deck;
}

Reference reference_of(const InputDeck& deck) {
  const tealeaf::GlobalMesh mesh = deck.mesh();
  const double dx = mesh.dx();
  const double dy = mesh.dy();
  const double dz = mesh.dz();
  Reference ref;
  for (int l = 0; l < mesh.nz; ++l) {
    for (int k = 0; k < mesh.ny; ++k) {
      for (int j = 0; j < mesh.nx; ++j) {
        double density = 0.0;
        double energy = 0.0;
        for (const tealeaf::StateDef& st : deck.states) {
          if (st.contains(mesh.cell_x(j), mesh.cell_y(k), mesh.cell_z(l), dx,
                          dy, dz, mesh.dims)) {
            density = st.density;
            energy = st.energy;
          }
        }
        ref.mass += density;
        ref.ie += density * energy;
      }
    }
  }
  ref.mass *= mesh.cell_volume();
  ref.ie *= mesh.cell_volume();
  return ref;
}

namespace {

/// Fill in the solver keys every generated request shares and label it.
Generated finish(InputDeck deck, SolverType solver, Precision precision,
                 OperatorKind op, long long id) {
  tealeaf::SolverConfig& cfg = deck.solver;
  cfg.type = solver;
  cfg.precision = precision;
  cfg.op = op;
  cfg.precon = tealeaf::PreconType::kNone;
  cfg.halo_depth = 1;  // assembled operators hold interior rows only
  cfg.max_iters = kIterBudget;
  // fp32 storage cannot resolve a 1e-10 residual; single-precision
  // requests ask for what it can reach, mixed keeps the fp64 target.
  cfg.eps = precision == Precision::kSingle ? 1e-5 : 1e-10;
  deck.end_step = 1;
  deck.end_time = 0.0;
  deck.validate();

  Generated g;
  g.ref = reference_of(deck);
  std::ostringstream cls;
  cls << deck.dims << "d-" << deck.x_cells << "x" << deck.y_cells;
  if (deck.dims == 3) cls << "x" << deck.z_cells;
  cls << "/" << tealeaf::to_string(solver) << "/"
      << tealeaf::to_string(precision) << "/" << op_name(op);
  g.cls = cls.str();
  g.req.deck = std::move(deck);
  g.req.nranks = kServerRanks;
  g.req.tag = "req-" + std::to_string(id);
  return g;
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
    std::swap(v[static_cast<std::size_t>(i)],
              v[static_cast<std::size_t>(rng.uniform(0, i))]);
  }
}

}  // namespace

RequestStream::RequestStream(Workload w, std::uint64_t seed)
    : workload_(w), rng_(seed) {
  if (w == Workload::kCrookedPipe) {
    throw std::invalid_argument("crooked-pipe has no request stream");
  }
}

InputDeck RequestStream::shape_deck(int shape) {
  if (workload_ == Workload::kServerMix) {
    return shape < 3 ? layered(kMix2d[shape], kMix2d[shape], 1)
                     : layered(24, 24, 24);
  }
  // Size bands of the 2-D sides (shapes 0-2) or a 3-D brick (shape 3);
  // redraw within the band until the shape is new to this stream.
  constexpr int kBand[][2] = {{48, 84}, {85, 122}, {123, 160}, {18, 30}};
  const int lo = kBand[shape][0];
  const int hi = kBand[shape][1];
  std::tuple<int, int, int, int> key;
  do {
    key = shape < 3 ? std::tuple(2, rng_.uniform(lo, hi),
                                 rng_.uniform(lo, hi), 1)
                    : std::tuple(3, rng_.uniform(lo, hi),
                                 rng_.uniform(lo, hi), rng_.uniform(lo, hi));
  } while (!seen_shapes_.insert(key).second);
  return layered(std::get<1>(key), std::get<2>(key), std::get<3>(key));
}

std::vector<Generated> RequestStream::wave(int size) {
  std::vector<Generated> out;
  for (int i = 0; i < size; ++i) {
    const int shape = static_cast<int>(issued_ % kShapeClasses);
    std::vector<Slot>& bag = bags_[shape];
    if (bag.empty()) {
      // Ten slots per solver (7 double, 2 mixed, 1 single), dealt as 15
      // pairs of two different solvers, each solver pair five times.
      std::vector<Slot> by_solver[3];
      for (int v = 0; v < 3; ++v) {
        for (std::size_t p = 0; p < std::size(kPrecisionWeights); ++p) {
          for (int n = 0; n < kPrecisionWeights[p]; ++n) {
            by_solver[v].push_back({kSolvers[v], kPrecisions[p]});
          }
        }
        shuffle(by_solver[v], rng_);
      }
      std::vector<std::pair<int, int>> pairs;
      for (int k = 0; k < 5; ++k) {
        pairs.insert(pairs.end(), {{0, 1}, {0, 2}, {1, 2}});
      }
      shuffle(pairs, rng_);
      for (auto [a, b] : pairs) {
        if (rng_.uniform(0, 1) == 1) std::swap(a, b);
        for (int v : {a, b}) {
          bag.push_back(by_solver[v].back());
          by_solver[v].pop_back();
        }
      }
    }
    if (op_bag_.empty()) {
      op_bag_.assign(std::begin(kOperators), std::end(kOperators));
      shuffle(op_bag_, rng_);
    }
    const Slot slot = bag.back();
    bag.pop_back();
    const OperatorKind op = op_bag_.back();
    op_bag_.pop_back();
    out.push_back(finish(shape_deck(shape), slot.solver, slot.precision, op,
                         issued_++));
  }
  return out;
}

std::vector<Generated> warmup_wave(Workload w) {
  // No 3-D Chebyshev in fp64: that class overflows at this size (README).
  constexpr SolverType kSolver[] = {SolverType::kCG, SolverType::kChebyshev,
                                    SolverType::kPPCG, SolverType::kCG};
  constexpr Precision kPrecision[] = {Precision::kMixed, Precision::kSingle,
                                      Precision::kDouble, Precision::kDouble};
  constexpr OperatorKind kOperator[] = {
      OperatorKind::kCsr, OperatorKind::kSellCSigma, OperatorKind::kStencil,
      OperatorKind::kCsr};
  constexpr int kCold2d[] = {36, 40, 44};
  constexpr int kCold3d = 16;
  const bool mix = w == Workload::kServerMix;
  std::vector<Generated> out;
  for (int shape = 0; shape < kShapeClasses; ++shape) {
    const int side = shape < 3 ? (mix ? kMix2d[shape] : kCold2d[shape])
                               : (mix ? 24 : kCold3d);
    const InputDeck deck = shape < 3 ? layered(side, side, 1)
                                     : layered(side, side, side);
    out.push_back(finish(deck, kSolver[shape], kPrecision[shape],
                         kOperator[shape], -1 - shape));
  }
  return out;
}

std::string describe(const tealeaf::SolveRequest& req) {
  std::ostringstream os;
  os << req.deck.to_string() << "nranks=" << req.nranks
     << " override=" << (req.config ? 1 : 0) << " tag=" << req.tag << "\n";
  return os.str();
}

}  // namespace perfbench
