// Performance model of the NAS Parallel Benchmarks LU application.
//
// LU is the application the paper's whole evaluation runs on: a 3-D SSOR
// solver whose parallelization (NPB 3.x, MPI flavour) lays a 2-D process
// grid over the x-y plane and sweeps k-planes as a pipelined wavefront.
// Each SSOR iteration is:
//
//   rhs       - halo exchange with the four neighbours (large faces,
//               >=64 KiB for the classes of interest -> rendezvous), then
//               per-point right-hand-side computation;
//   jacld/blts  lower-triangular sweep: for every k-plane, receive pencil
//               edges from north and west, compute, send to south and east
//               (5 doubles per boundary point: a few KiB -> eager);
//   jacu/buts - upper-triangular sweep, mirrored;
//   add       - per-point solution update;
//   norm      - residual allreduce (occasionally).
//
// This module does not do floating-point math; it produces, per rank, the
// exact *event stream* of such an execution: compute volumes (instructions
// at -O0, plus function-call counts for the instrumentation model) and
// communications (partners and byte volumes).  Every SSOR iteration emits
// the same events, so a rank's stream is held as an LuProgram: one
// iteration body walked iterations() times, never the whole run.  The
// volume constants are calibrated so class B totals match the per-process
// counter values the paper reports (1.70e11 instructions/process for B-8;
// see DESIGN.md §4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace tir::apps {

/// NPB problem classes (grid extent and SSOR iteration count).
struct NasClass {
  char name = 'A';
  int nx = 64, ny = 64, nz = 64;
  int iterations = 250;
};

NasClass nas_class(char name);  ///< 'S','W','A','B','C','D'; ConfigError on other

struct LuConfig {
  NasClass cls;
  int nprocs = 4;               ///< must be a power of two (NPB LU rule)
  int iterations_override = -1; ///< > 0: run fewer SSOR iterations (benches)

  int iterations() const {
    return iterations_override > 0 ? iterations_override : cls.iterations;
  }
  std::string label() const;  ///< "B-8"
};

/// The NPB LU 2-D process grid: np = px * py with px = 2^ceil(k/2).
struct LuGrid {
  int px = 1, py = 1;
  int nx = 1, ny = 1;

  LuGrid() = default;
  LuGrid(const LuConfig& cfg);

  int col(int rank) const { return rank % px; }
  int row(int rank) const { return rank / px; }
  int rank_of(int r, int c) const { return r * px + c; }
  /// Near-equal split with remainder spread over the low columns/rows.
  int nx_loc(int c) const { return nx / px + (c < nx % px ? 1 : 0); }
  int ny_loc(int r) const { return ny / py + (r < ny % py ? 1 : 0); }
};

/// Phase tags: the machine model prices instructions per phase and the
/// instrumentation model needs call densities per phase.
enum class LuPhase : std::uint8_t { Init, Rhs, Jacld, Blts, Jacu, Buts, Add, Norm };

struct LuEvent {
  enum class Type : std::uint8_t { Init, Compute, Send, Recv, Bcast, AllReduce, Finalize };
  Type type = Type::Compute;
  LuPhase phase = LuPhase::Init;
  double instructions = 0.0;  ///< compute volume at -O0 (Type::Compute)
  double calls = 0.0;         ///< function calls inside the region (fine probes)
  std::int32_t partner = -1;  ///< peer rank (send/recv) or root (bcast)
  double bytes = 0.0;         ///< message volume
  double compute2 = 0.0;      ///< reduction compute (allreduce)
};

/// Per-point instruction costs (-O0) of each phase, and fixed per-plane
/// costs. Exposed so tests can pin the calibration.
struct LuCosts {
  double rhs = 1550.0;
  double jacld = 880.0;
  double blts = 780.0;
  double jacu = 880.0;
  double buts = 780.0;
  double add = 260.0;
  double per_plane = 2500.0;      ///< loop setup per k-plane per sweep phase
  double calls_per_instr = 2.0e-4;///< function-call density of the code
  double calls_per_plane = 9.0;   ///< calls per k-plane invocation
  double norm_compute = 4.0e5;    ///< residual reduction work
};

/// Total -O0 application instructions of one rank (sum over its program).
double lu_rank_instructions(const LuConfig& cfg, int rank, const LuCosts& costs = {});

/// Bytes held per point of a k-plane slab (sets the SSOR working set that
/// the cache model compares against L2).  900 B/point places the paper's
/// regimes correctly: A-4 (0.92 MiB) barely fits bordereau's 1 MiB L2,
/// B-8 spills slightly, B-4/C-4/C-8 spill fully, and all evaluated
/// instances except C-8 fit graphene's 2 MiB (paper §§2.3, 3.4).
inline constexpr double kBytesPerPlanePoint = 900.0;

/// SSOR working set of one rank: its local k-plane slab.
double lu_working_set_bytes(const LuConfig& cfg, int rank);

/// The event stream of one rank, stored as a program and walked in place:
/// a prologue (init, the input-deck bcasts, the initial compute), one SSOR
/// iteration body (halo, rhs, both wavefront sweeps, add) walked
/// iterations() times with the residual-norm allreduce after the first and
/// the last of them, and an epilogue (finalize).  What it stores does not
/// grow with the iteration count.  Deterministic.
///
///   for (const LuEvent& e : LuProgram(cfg, rank)) ...
class LuProgram {
 public:
  LuProgram(const LuConfig& cfg, int rank, const LuCosts& costs = {});

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = LuEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const LuEvent*;
    using reference = const LuEvent&;

    Iterator() = default;
    reference operator*() const { return program_->events_[pos_]; }
    pointer operator->() const { return &program_->events_[pos_]; }
    Iterator& operator++() {
      ++pos_;
      // The norm follows only the first and the last iteration.
      if (pos_ == program_->norm_ && iteration_ != 0 && iteration_ != program_->iterations_ - 1) {
        ++pos_;
      }
      // Past the norm slot: walk the body again, or go on to the epilogue.
      if (pos_ == program_->norm_ + 1 && ++iteration_ < program_->iterations_) {
        pos_ = program_->body_begin_;
      }
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& o) const {
      return pos_ == o.pos_ && iteration_ == o.iteration_;
    }

   private:
    friend class LuProgram;
    Iterator(const LuProgram* program, std::size_t pos, int iteration)
        : program_(program), pos_(pos), iteration_(iteration) {}

    const LuProgram* program_ = nullptr;
    std::size_t pos_ = 0;  ///< index into events_
    int iteration_ = 0;    ///< SSOR iteration walked; iterations_ once past the last
  };

  Iterator begin() const { return {this, 0, 0}; }
  Iterator end() const { return {this, events_.size(), iterations_}; }

  /// Events one walk yields: the rank's whole run.
  std::size_t size() const;
  /// Events held: prologue, one iteration body, the norm, the epilogue.
  std::size_t stored_events() const { return events_.size(); }

 private:
  std::vector<LuEvent> events_;  ///< prologue | body | norm | finalize
  std::size_t body_begin_ = 0;
  std::size_t norm_ = 0;         ///< the norm allreduce, right after the body
  int iterations_ = 1;
};

}  // namespace tir::apps
