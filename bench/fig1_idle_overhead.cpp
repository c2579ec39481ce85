// Figure 1 reproduction: "Overhead due to waking up and idling the CPU.
// If both peaks are grouped, wakeup overhead becomes lower."
//
// The paper's Figure 1 is a conceptual scope trace; the model makes it
// quantitative.  We build two activity timelines with identical total
// work — one with scattered activations, one with the same activations
// grouped back-to-back — and compare energy, C-state residency and the
// idle-gap distribution.  With PCPC_EXPORT_DIR set, CSV power traces
// suitable for plotting are written into that directory, like every exp
// report's tables.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "pcpc/common/table.hpp"
#include "pcpc/power/energy_trace.hpp"

using namespace pcpc;
using namespace pcpc::power;

namespace {

/// `bursts` activations of `busy` each across one second.
CoreTimeline scattered(int bursts, SimDuration busy) {
  CoreTimeline t;
  const SimDuration pitch = seconds(1) / bursts;
  for (int i = 0; i < bursts; ++i) {
    t.wake(pitch * i + pitch / 4);
    t.sleep(pitch * i + pitch / 4 + busy);
  }
  t.finalize(seconds(1));
  return t;
}

/// The identical total work, grouped into one contiguous activation per
/// `groups` windows.
CoreTimeline grouped(int bursts, SimDuration busy, int groups) {
  CoreTimeline t;
  const int per_group = bursts / groups;
  const SimDuration pitch = seconds(1) / groups;
  for (int g = 0; g < groups; ++g) {
    t.wake(pitch * g + pitch / 4);
    t.sleep(pitch * g + pitch / 4 + busy * per_group);
  }
  t.finalize(seconds(1));
  return t;
}

}  // namespace

int main() {
  const PowerModelParams params;
  const EnergyLedger ledger(params);
  const int bursts = 200;                    // 200 activations/s
  const SimDuration busy = microseconds(400);  // 80 ms/s of work either way

  const CoreTimeline scattered_tl = scattered(bursts, busy);
  const CoreTimeline grouped_tl = grouped(bursts, busy, 20);

  Table table({"pattern", "wakeups", "usage (ms/s)", "extra power (mW)",
               "deepest idle reached"});
  table.set_title(
      "Figure 1 — identical work, scattered vs grouped activations (1 s)");
  const std::pair<const CoreTimeline*, const char*> patterns[] = {
      {&scattered_tl, "200 scattered x 0.4 ms"},
      {&grouped_tl, "20 grouped x 4 ms"},
  };
  for (const auto& entry : patterns) {
    const auto& tl = *entry.first;
    const auto residency = idle_residency(tl, params.cstates);
    std::string deepest = "-";
    for (const auto& r : residency) {
      if (r.fraction_of_idle > 0.0) deepest = r.state;  // last one wins
    }
    table.add(entry.second, static_cast<long long>(tl.wakeups()),
              format_double(tl.usage_ms_per_s(), 1),
              format_double(ledger.extra_power_watts(tl) * 1e3, 2), deepest);
  }
  table.print(std::cout);

  // C-state residency breakdown — the grouping mechanism in numbers.
  Table res_table({"C-state", "scattered (% of idle)", "grouped (% of idle)"});
  res_table.set_title("\nIdle-state residency");
  const auto res_s = idle_residency(scattered_tl, params.cstates);
  const auto res_g = idle_residency(grouped_tl, params.cstates);
  for (std::size_t i = 1; i < res_s.size(); ++i) {
    res_table.add(res_s[i].state, format_double(100.0 * res_s[i].fraction_of_idle, 1),
                  format_double(100.0 * res_g[i].fraction_of_idle, 1));
  }
  res_table.print(std::cout);

  const double scattered_w = ledger.extra_power_watts(scattered_tl);
  const double grouped_w = ledger.extra_power_watts(grouped_tl);
  std::printf("\nGrouping saves %.1f%% power at identical work and 10x fewer wakeups\n"
              "(the premise of the paper's slot latching).\n",
              100.0 * (scattered_w - grouped_w) / scattered_w);

  const char* directory = std::getenv("PCPC_EXPORT_DIR");
  if (directory == nullptr || *directory == '\0') return 0;
  const std::string dir = directory;
  const auto trace_s = sample_power(scattered_tl, params, microseconds(100));
  const auto trace_g = sample_power(grouped_tl, params, microseconds(100));
  if (save_power_trace(trace_s, dir + "/fig1_scattered.csv") &&
      save_power_trace(trace_g, dir + "/fig1_grouped.csv")) {
    std::printf("Power traces written to %s/fig1_scattered.csv / fig1_grouped.csv\n",
                directory);
  }
  return 0;
}
