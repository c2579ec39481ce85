// Shared plumbing of the end-to-end benchmark: arguments, clocks, exact
// order statistics and the per-run report every workload fills in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string span_out;  ///< traced runs write their spans here (JSON lines)
};

/// CLOCK_MONOTONIC nanoseconds (the same timebase as ipc::now_ns and
/// std::chrono::steady_clock on Linux).
std::int64_t mono_ns();
/// CPU time of the whole process (user + sys, all threads), ns.
std::int64_t process_cpu_ns();
/// CPU time of the calling thread, ns.
std::int64_t thread_cpu_ns();
/// Peak resident set size of the process, MB (getrusage ru_maxrss).
double peak_rss_mb();
/// Sleeps until `deadline_ns` on the mono_ns clock.
void sleep_until_ns(std::int64_t deadline_ns);
/// When an open-loop offer due at `due_ns` is timed from, and why.
struct Pace {
  std::int64_t from_ns = 0;     ///< the offer's latency clock starts here
  std::int64_t backlog_ns = 0;  ///< lateness earlier work caused (0: on time)
  std::int64_t timer_ns = 0;    ///< lateness of the generator's own wake-up
};

/// Open-loop pacing.  A generator that is already late was held up by
/// earlier work (a produce or push call the system blocked), so the offer
/// keeps its due time and the stall counts in its latency.  Otherwise it
/// sleeps until `due_ns` and the clock starts when it actually woke: a
/// late wake-up of the generator's own timer (now and then milliseconds
/// on a virtualised host) is load-generator noise, not a stall of the
/// system.  The CPU time the sleep costs is added to `pacing_cpu_ns`; the
/// CPU metrics leave it out.
Pace pace_until(std::int64_t due_ns, std::int64_t& pacing_cpu_ns);

/// The CPUs this process may run on (sched_getaffinity), ascending.
std::vector<std::size_t> allowed_cpus();
/// Restricts the calling thread to `cpus`; threads it creates afterwards
/// inherit the restriction.  Returns false when the kernel refuses.
bool pin_thread(const std::vector<std::size_t>& cpus);

/// Exact quantile (nearest rank on the sorted sample); 0 when empty.
/// Reorders `v`.
double quantile(std::vector<double>& v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// One run's outcome.  `e2e` holds the untraced end-to-end metrics,
/// `layer` the traced per-layer ones; `info` carries extra facts (sample
/// counts, drop fraction, validity flags) printed on the meta line.
struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> info;

  /// Records a correctness check; a failed one fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

/// The setup repetitions a run makes; setup_s is their median.
inline constexpr int kSetupReps = 5;

Report run_sim_web(const Args& args);
Report run_thread_web(const Args& args);
Report run_thread_flood(const Args& args);
Report run_ipc_burst(const Args& args);

}  // namespace perfbench
