#include "web.hpp"

#include <random>

#include "pcpc/trace/webserver_log.hpp"

namespace perfbench {

std::vector<pcpc::trace::Trace> web_traces(std::uint64_t seed, std::uint64_t index,
                                          pcpc::SimDuration duration) {
  pcpc::trace::WebWorkloadParams params = web_spec().workload;
  params.duration = duration;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + index);
  std::uniform_int_distribution<pcpc::SimDuration> offset(0, duration - 1);
  std::vector<pcpc::trace::Trace> traces;
  traces.reserve(kWebPairs);
  for (std::size_t pair = 0; pair < kWebPairs; ++pair) {
    params.seed = kDatasetSeed + pair;
    traces.push_back(pcpc::trace::make_web_workload(params).phase_shift(offset(rng), duration));
  }
  return traces;
}

}  // namespace perfbench
