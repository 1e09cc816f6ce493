// SMPI runtime configuration: protocol thresholds and the piecewise-linear
// network model (paper §3.3).
//
// SMPI's salient modelling contributions reproduced here:
//   - the piecewise-linear correction of latency and bandwidth by message
//     size class (real NICs/stacks give small messages worse effective
//     bandwidth and higher effective latency than the wire's physics);
//   - the protocol split: below `eager_threshold` (64 KiB in every major
//     MPI runtime, and the value the paper quotes) a send is *detached* —
//     the sender only pays a local copy and the transfer proceeds without
//     it; at or above the threshold the transfer is *rendezvous* and starts
//     only when the receive is posted;
//   - `model_copy_time` switches on the memory-copy cost of eager messages.
//     The paper notes SMPI "does not model the time to copy data in memory
//     ... yet" and attributes its residual underestimation to that, so the
//     default here is OFF; the ground-truth machine model turns it ON.
//
// Collective algorithms are not configurable: each operation has the one
// algorithm in smpi/collectives.cpp.
#pragma once

#include <vector>

#include "base/error.hpp"

namespace tir::smpi {

struct PiecewiseSegment {
  double max_size;    ///< segment covers sizes < max_size (bytes)
  double lat_factor;  ///< multiplies route latency (>= 1 in practice)
  double bw_factor;   ///< multiplies link bandwidth (<= 1 in practice)
};

/// Size-dependent latency/bandwidth correction factors.
class PiecewiseModel {
 public:
  /// Identity model: factors 1.0 for every size (what the old MSG back-end
  /// effectively used).
  PiecewiseModel() = default;

  /// Segments must be sorted by max_size strictly increasing; sizes beyond
  /// the last segment use factors (1, 1).
  explicit PiecewiseModel(std::vector<PiecewiseSegment> segments)
      : segments_(std::move(segments)) {
    double prev = 0.0;
    for (const PiecewiseSegment& s : segments_) {
      TIR_ASSERT(s.max_size > prev);
      TIR_ASSERT(s.lat_factor > 0.0 && s.bw_factor > 0.0);
      prev = s.max_size;
    }
  }

  double lat_factor(double size) const {
    for (const PiecewiseSegment& s : segments_) {
      if (size < s.max_size) return s.lat_factor;
    }
    return 1.0;
  }

  double bw_factor(double size) const {
    for (const PiecewiseSegment& s : segments_) {
      if (size < s.max_size) return s.bw_factor;
    }
    return 1.0;
  }

  bool is_identity() const { return segments_.empty(); }

  /// The raw segments (scenario fingerprinting, src/ckpt).
  const std::vector<PiecewiseSegment>& segments() const { return segments_; }

 private:
  std::vector<PiecewiseSegment> segments_;
};

/// Reference piecewise calibration for a commodity GbE cluster, in the
/// spirit of SMPI's shipped calibrations: small messages pay markedly more
/// latency and achieve a fraction of wire bandwidth.
PiecewiseModel reference_piecewise();

struct Config {
  PiecewiseModel piecewise = reference_piecewise();
  double eager_threshold = 65536.0;  ///< >= this: rendezvous protocol
  bool model_copy_time = false;      ///< pay memcpy cost on eager send/recv
  double copy_rate = 2e9;            ///< bytes/s of a local memory copy
  /// Fixed CPU time burned per message on each side (MPI stack overhead:
  /// envelope handling, queue walks).  Part of what real machines exhibit
  /// and the paper's replay does not model; ground truth sets it > 0.
  double per_message_cpu_seconds = 0.0;
};

}  // namespace tir::smpi
