// The seeded web schedule shared by sim_web and thread_web: the paper's
// Section VI multi-pair setup (exp::multi_pair_spec(8, 50): 8 pairs on 2
// cores, 10 ms slots, 100 ms bound, B = 50) fed ~2k items/s per pair.
#pragma once

#include <cstdint>
#include <vector>

#include "pcpc/common/types.hpp"
#include "pcpc/exp/paper_setup.hpp"
#include "pcpc/trace/trace.hpp"

namespace perfbench {

inline constexpr std::size_t kWebPairs = 8;
inline constexpr std::size_t kWebBuffer = 50;
inline constexpr std::uint64_t kDatasetSeed = 0x5eedf00dULL;

/// The experiment spec both web workloads configure their host from.
inline pcpc::exp::ExperimentSpec web_spec() {
  return pcpc::exp::multi_pair_spec(kWebPairs, kWebBuffer);
}

/// One web trace per pair over `duration`: schedule number `index` of
/// `seed`.  Like the paper, which replays one fixed web log, the traces'
/// content is a fixed dataset: pair i replays the web trace drawn with
/// generator seed kDatasetSeed + i.  The run's seed draws where each pair
/// starts in its trace (a phase shift, uniform over the duration), so the
/// flash crowds land at different times and coincide differently on every
/// seed.  Redrawing the traces per seed instead moves a 20 s run's tail
/// latency by ~25% between seeds, set by how many flash crowds it happens
/// to contain.
std::vector<pcpc::trace::Trace> web_traces(std::uint64_t seed, std::uint64_t index,
                                          pcpc::SimDuration duration);

}  // namespace perfbench
