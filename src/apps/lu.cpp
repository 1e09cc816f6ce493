#include "apps/lu.hpp"

namespace tir::apps {

NasClass nas_class(char name) {
  switch (name) {
    case 'S': return {'S', 12, 12, 12, 50};
    case 'W': return {'W', 33, 33, 33, 300};
    case 'A': return {'A', 64, 64, 64, 250};
    case 'B': return {'B', 102, 102, 102, 250};
    case 'C': return {'C', 162, 162, 162, 250};
    case 'D': return {'D', 408, 408, 408, 300};
    default: throw ConfigError(std::string("unknown NPB class '") + name + "'");
  }
}

std::string LuConfig::label() const {
  return std::string(1, cls.name) + "-" + std::to_string(nprocs);
}

LuGrid::LuGrid(const LuConfig& cfg) {
  TIR_ASSERT(cfg.nprocs >= 1);
  TIR_ASSERT((cfg.nprocs & (cfg.nprocs - 1)) == 0);  // NPB LU: power of two
  int k = 0;
  while ((1 << k) < cfg.nprocs) ++k;
  px = 1 << ((k + 1) / 2);
  py = 1 << (k / 2);
  nx = cfg.cls.nx;
  ny = cfg.cls.ny;
}

double lu_working_set_bytes(const LuConfig& cfg, int rank) {
  const LuGrid g(cfg);
  return static_cast<double>(g.nx_loc(g.col(rank))) * g.ny_loc(g.row(rank)) *
         kBytesPerPlanePoint;
}

namespace {

constexpr double kDouble = 8.0;
constexpr double kPencilDoublesPerPoint = 5.0;  // 5 solution components

struct Emitter {
  std::vector<LuEvent>& out;

  void compute(LuPhase phase, double instr, double calls) {
    out.push_back({LuEvent::Type::Compute, phase, instr, calls, -1, 0.0, 0.0});
  }
  void send(LuPhase phase, int partner, double bytes) {
    out.push_back({LuEvent::Type::Send, phase, 0.0, 0.0, partner, bytes, 0.0});
  }
  void recv(LuPhase phase, int partner, double bytes) {
    out.push_back({LuEvent::Type::Recv, phase, 0.0, 0.0, partner, bytes, 0.0});
  }
  void bcast(double bytes, int root) {
    out.push_back({LuEvent::Type::Bcast, LuPhase::Init, 0.0, 0.0, root, bytes, 0.0});
  }
  void allreduce(double bytes, double compute2) {
    out.push_back({LuEvent::Type::AllReduce, LuPhase::Norm, 0.0, 0.0, -1, bytes, compute2});
  }
};

}  // namespace

double lu_rank_instructions(const LuConfig& cfg, int rank, const LuCosts& costs) {
  double total = 0.0;
  for (const LuEvent& e : LuProgram(cfg, rank, costs)) total += e.instructions;
  return total;
}

std::size_t LuProgram::size() const {
  const std::size_t norms = iterations_ == 1 ? 1 : 2;
  return body_begin_ + static_cast<std::size_t>(iterations_) * (norm_ - body_begin_) + norms + 1;
}

LuProgram::LuProgram(const LuConfig& cfg, int rank, const LuCosts& costs)
    : iterations_(cfg.iterations()) {
  const LuGrid g(cfg);
  TIR_ASSERT(rank >= 0 && rank < cfg.nprocs);
  TIR_ASSERT(iterations_ >= 1);
  const int row = g.row(rank);
  const int col = g.col(rank);
  const int nxl = g.nx_loc(col);
  const int nyl = g.ny_loc(row);
  const int nz = cfg.cls.nz;
  const double plane_pts = static_cast<double>(nxl) * nyl;
  const double vol_pts = plane_pts * nz;

  const int north = row > 0 ? g.rank_of(row - 1, col) : -1;
  const int south = row < g.py - 1 ? g.rank_of(row + 1, col) : -1;
  const int west = col > 0 ? g.rank_of(row, col - 1) : -1;
  const int east = col < g.px - 1 ? g.rank_of(row, col + 1) : -1;

  // Pencil edges exchanged per k-plane during the sweeps.
  const double bytes_ns = kPencilDoublesPerPoint * kDouble * nxl;  // north/south edge
  const double bytes_ew = kPencilDoublesPerPoint * kDouble * nyl;  // east/west edge
  // Full faces exchanged by the rhs halo (exchange_3).
  const double face_ns = bytes_ns * nz;
  const double face_ew = bytes_ew * nz;

  // prologue(5) + body: rhs halo(<=8) + rhs + 2 sweeps + add, then norm + finalize
  events_.reserve(5 + 10 + 2 * static_cast<std::size_t>(nz) * 5 + 2);
  Emitter e{events_};

  // --- prologue ---
  events_.push_back({LuEvent::Type::Init, LuPhase::Init, 0, 0, -1, 0, 0});
  // Problem parameters / timing sync, as NPB's bcast of the input deck.
  e.bcast(40.0, 0);
  e.bcast(24.0, 0);
  e.bcast(16.0, 0);
  // Grid setup + initial field (roughly one iteration of per-point work).
  const double iter_cost =
      costs.rhs + costs.jacld + costs.blts + costs.jacu + costs.buts + costs.add;
  const double init_instr = iter_cost * vol_pts * 0.5;
  e.compute(LuPhase::Init, init_instr, costs.calls_per_instr * init_instr);

  // Red-black ordered halo exchange: deadlock-free with blocking sends even
  // at rendezvous sizes (NPB itself uses irecv+send; the ordering is the
  // volume-equivalent discipline).
  const auto halo = [&](LuPhase phase) {
    if (north >= 0 || south >= 0) {
      if (row % 2 == 0) {
        if (south >= 0) e.send(phase, south, face_ns);
        if (north >= 0) e.send(phase, north, face_ns);
        if (south >= 0) e.recv(phase, south, face_ns);
        if (north >= 0) e.recv(phase, north, face_ns);
      } else {
        if (north >= 0) e.recv(phase, north, face_ns);
        if (south >= 0) e.recv(phase, south, face_ns);
        if (north >= 0) e.send(phase, north, face_ns);
        if (south >= 0) e.send(phase, south, face_ns);
      }
    }
    if (west >= 0 || east >= 0) {
      if (col % 2 == 0) {
        if (east >= 0) e.send(phase, east, face_ew);
        if (west >= 0) e.send(phase, west, face_ew);
        if (east >= 0) e.recv(phase, east, face_ew);
        if (west >= 0) e.recv(phase, west, face_ew);
      } else {
        if (west >= 0) e.recv(phase, west, face_ew);
        if (east >= 0) e.recv(phase, east, face_ew);
        if (west >= 0) e.send(phase, west, face_ew);
        if (east >= 0) e.send(phase, east, face_ew);
      }
    }
  };

  // --- one SSOR iteration ---
  body_begin_ = events_.size();

  // rhs: halo exchange + right-hand side
  halo(LuPhase::Rhs);
  const double rhs_instr = costs.rhs * vol_pts + costs.per_plane * nz;
  e.compute(LuPhase::Rhs, rhs_instr,
            costs.calls_per_instr * rhs_instr + costs.calls_per_plane * nz);

  // lower-triangular sweep (jacld + blts), wavefront from (0,0)
  for (int k = 0; k < nz; ++k) {
    if (north >= 0) e.recv(LuPhase::Blts, north, bytes_ns);
    if (west >= 0) e.recv(LuPhase::Blts, west, bytes_ew);
    const double plane_instr =
        (costs.jacld + costs.blts) * plane_pts + 2.0 * costs.per_plane;
    e.compute(LuPhase::Blts, plane_instr,
              costs.calls_per_instr * plane_instr + 2.0 * costs.calls_per_plane);
    if (south >= 0) e.send(LuPhase::Blts, south, bytes_ns);
    if (east >= 0) e.send(LuPhase::Blts, east, bytes_ew);
  }

  // upper-triangular sweep (jacu + buts), wavefront from (px-1,py-1)
  for (int k = nz - 1; k >= 0; --k) {
    if (south >= 0) e.recv(LuPhase::Buts, south, bytes_ns);
    if (east >= 0) e.recv(LuPhase::Buts, east, bytes_ew);
    const double plane_instr =
        (costs.jacu + costs.buts) * plane_pts + 2.0 * costs.per_plane;
    e.compute(LuPhase::Buts, plane_instr,
              costs.calls_per_instr * plane_instr + 2.0 * costs.calls_per_plane);
    if (north >= 0) e.send(LuPhase::Buts, north, bytes_ns);
    if (west >= 0) e.send(LuPhase::Buts, west, bytes_ew);
  }

  // add: solution update
  e.compute(LuPhase::Add, costs.add * vol_pts, costs.calls_per_instr * costs.add * vol_pts);

  // --- residual norm, walked at the first and last iteration (NPB inorm points) ---
  norm_ = events_.size();
  e.allreduce(5 * kDouble, costs.norm_compute);

  // --- epilogue ---
  events_.push_back({LuEvent::Type::Finalize, LuPhase::Init, 0, 0, -1, 0, 0});
}

}  // namespace tir::apps
