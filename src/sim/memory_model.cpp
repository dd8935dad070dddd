#include "sim/memory_model.hpp"

#include <algorithm>
#include <vector>

#include "sim/comm_plan.hpp"
#include "util/check.hpp"

namespace sstar::sim {

namespace {
MemoryFootprint summarize(const std::vector<double>& per_proc) {
  MemoryFootprint f;
  for (const double b : per_proc) {
    f.total_bytes += b;
    f.max_bytes = std::max(f.max_bytes, b);
  }
  f.avg_bytes = per_proc.empty()
                    ? 0.0
                    : f.total_bytes / static_cast<double>(per_proc.size());
  return f;
}
}  // namespace

MemoryFootprint data_distribution_1d(const BlockLayout& layout, int p) {
  SSTAR_CHECK(p >= 1);
  std::vector<double> bytes(static_cast<std::size_t>(p), 0.0);
  for (int k = 0; k < layout.num_blocks(); ++k) {
    const double w = layout.width(k);
    const double block_bytes =
        8.0 * (w * w + w * static_cast<double>(layout.panel_rows(k).size()) +
               w * static_cast<double>(layout.panel_cols(k).size()));
    bytes[static_cast<std::size_t>(k % p)] += block_bytes;
  }
  return summarize(bytes);
}

MemoryFootprint data_distribution_2d(const BlockLayout& layout,
                                     const Grid& grid) {
  const int pr = grid.rows, pc = grid.cols;
  SSTAR_CHECK(pr >= 1 && pc >= 1);
  std::vector<double> bytes(static_cast<std::size_t>(pr) * pc, 0.0);
  auto proc = [&](int r, int c) { return r * pc + c; };
  for (int k = 0; k < layout.num_blocks(); ++k) {
    const double w = layout.width(k);
    bytes[proc(k % pr, k % pc)] += 8.0 * w * w;  // diagonal block
    for (const BlockRef& lref : layout.l_blocks(k))
      bytes[proc(lref.block % pr, k % pc)] += 8.0 * lref.count * w;
    for (const BlockRef& uref : layout.u_blocks(k))
      bytes[proc(k % pr, uref.block % pc)] += 8.0 * w * uref.count;
  }
  return summarize(bytes);
}

double buffer_bound_2d(const BlockLayout& layout, const Grid& grid) {
  const int pr = grid.rows, pc = grid.cols;
  // C = max over k of the local share of column block k on one
  // processor row; R likewise for row panels on one processor column.
  double c_buf = 0.0, r_buf = 0.0;
  for (int k = 0; k < layout.num_blocks(); ++k) {
    const double w = layout.width(k);
    const double lrows = static_cast<double>(layout.panel_rows(k).size());
    const double ucols = static_cast<double>(layout.panel_cols(k).size());
    c_buf = std::max(c_buf, 8.0 * w * (w + lrows) / pr);
    r_buf = std::max(r_buf, 8.0 * w * ucols / pc);
  }
  return c_buf * pc + r_buf * (pr - 1);
}

MpMemoryPrediction predict_mp_memory(const BlockLayout& layout,
                                     const ParallelProgram& prog) {
  const PanelTimeline tl = panel_timeline(prog, panel_consumer_counts(prog));
  const std::vector<int>& owner = tl.owner;
  const int nb = layout.num_blocks();
  SSTAR_CHECK_MSG(static_cast<int>(owner.size()) == nb,
                  "predict_mp_memory: program covers "
                      << owner.size() << " supernodes, layout has " << nb);

  const auto panel_bytes = [&](int k) {
    const std::int64_t w = layout.width(k);
    return 8 * (w * w +
                static_cast<std::int64_t>(layout.panel_rows(k).size()) * w);
  };

  MpMemoryPrediction pred;
  pred.ranks.resize(static_cast<std::size_t>(prog.processors()));
  for (int p = 0; p < prog.processors(); ++p) {
    MpMemoryPrediction::Rank& r = pred.ranks[static_cast<std::size_t>(p)];

    // Fixed owner area: diag + L panel of every owned column block, plus
    // the owned (i, j) column slices of every row block's U panel —
    // exactly DistBlockStore's construction-time arena.
    for (int b = 0; b < nb; ++b) {
      if (owner[static_cast<std::size_t>(b)] == p) r.owned_bytes += panel_bytes(b);
      for (const BlockRef& ref : layout.u_blocks(b))
        if (owner[static_cast<std::size_t>(ref.block)] == p)
          r.owned_bytes +=
              8 * static_cast<std::int64_t>(layout.width(b)) * ref.count;
    }

    // Panel-cache high water: each recv caches a panel and each release
    // frees one, at the points the store does, so the peak is exact.
    std::int64_t cache = 0;
    int panels = 0;
    for (const PanelEvent& e : tl.per_rank[static_cast<std::size_t>(p)]) {
      if (e.kind == PanelEvent::Kind::kRecv) {
        cache += panel_bytes(e.panel);
        ++panels;
        r.peak_cache_bytes = std::max(r.peak_cache_bytes, cache);
        r.peak_panels_cached = std::max(r.peak_panels_cached, panels);
      } else if (e.kind == PanelEvent::Kind::kRelease) {
        cache -= panel_bytes(e.panel);
        --panels;
      }
    }
    r.peak_bytes = r.owned_bytes + r.peak_cache_bytes;
  }
  return pred;
}

}  // namespace sstar::sim

