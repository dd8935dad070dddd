// Per-processor memory footprints of the 1D and 2D data mappings.
//
// §5.2's space argument is why the 2D code exists at all: the 1D codes
// could not even hold the last six matrices of Table 6 on the T3E, while
// the 2D mapping distributes the factor storage as S1/p + small buffers.
// These helpers compute the distribution analytically from the block
// layout; the event simulator's buffer_high_water() supplies the
// communication-buffer side.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_sim.hpp"
#include "sim/machine.hpp"
#include "supernode/block_layout.hpp"

namespace sstar::sim {

struct MemoryFootprint {
  double max_bytes = 0.0;    ///< most loaded processor
  double avg_bytes = 0.0;    ///< total / P
  double total_bytes = 0.0;  ///< == 8 * stored entries
  /// avg / max: 1 = perfectly even distribution.
  double balance() const {
    return max_bytes > 0.0 ? avg_bytes / max_bytes : 1.0;
  }
};

/// Factor-storage distribution under the 1D cyclic column-block mapping.
MemoryFootprint data_distribution_1d(const BlockLayout& layout, int p);

/// Factor-storage distribution under the 2D block-cyclic mapping.
MemoryFootprint data_distribution_2d(const BlockLayout& layout,
                                     const Grid& grid);

/// The paper's §5.2 analytic bound on the 2D code's communication
/// buffers: (C p_c + R (p_r - 1)) bytes with C, R the largest local
/// column/row panel shares.
double buffer_bound_2d(const BlockLayout& layout, const Grid& grid);

/// Exact per-rank store footprint of a built MP program executed over
/// DistBlockStore (core/block_store.hpp): the fixed owner-area bytes
/// plus the panel-cache high water, summed over the recv and release
/// events of the panel timeline (sim::panel_timeline) under the store's
/// refcounts. This is the PREDICTION the measured MpStats::memory is
/// validated against — the timeline frees each panel where the store
/// does, so predicted == measured bit-for-bit (tests/test_mp_memory,
/// bench/bench_mp).
struct MpMemoryPrediction {
  struct Rank {
    std::int64_t owned_bytes = 0;
    std::int64_t peak_cache_bytes = 0;
    std::int64_t peak_bytes = 0;  ///< owned + cache high water
    int peak_panels_cached = 0;
  };
  std::vector<Rank> ranks;

  std::int64_t total_peak_bytes() const {
    std::int64_t n = 0;
    for (const Rank& r : ranks) n += r.peak_bytes;
    return n;
  }
};

MpMemoryPrediction predict_mp_memory(const BlockLayout& layout,
                                     const ParallelProgram& prog);

}  // namespace sstar::sim
