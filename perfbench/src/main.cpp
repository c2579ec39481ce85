// End-to-end benchmark of the pcpc hosts.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--src-digest HEX] [--span-out FILE]
//
// Workloads: sim_web, thread_web, thread_flood, ipc_burst (see
// perfbench/README.md).  With --trace 0 the run measures the end-to-end
// metrics with tracing off; with --trace 1 it measures the per-layer
// metrics: half the time untraced, half traced (the pair gives the
// tracing overhead).  Human-readable lines go first; the second-to-last
// stdout line is a JSON meta object (host fingerprint, workload, seed,
// sample counts, checks) and the last line the JSON result.  Exit code 0
// means the run completed (the result's "correct" says whether every
// output check passed); 1 means nothing could be offered (set-up failed),
// 2 bad arguments.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void sleep_until_ns(std::int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1'000'000'000;
  ts.tv_nsec = deadline_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

Pace pace_until(std::int64_t due_ns, std::int64_t& pacing_cpu_ns) {
  const std::int64_t now = mono_ns();
  if (now >= due_ns) return {due_ns, now - due_ns, 0};
  const std::int64_t cpu0 = thread_cpu_ns();
  sleep_until_ns(due_ns);
  pacing_cpu_ns += thread_cpu_ns() - cpu0;
  const std::int64_t woke = mono_ns();
  return {woke, 0, woke - due_ns};
}

std::vector<std::size_t> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<std::size_t> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_thread(const std::vector<std::size_t>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const std::size_t cpu : cpus) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size())) - 1.0;
  const auto k = static_cast<std::size_t>(std::clamp(rank, 0.0, static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json ("end_to_end" and "per_layer").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"items_per_s", "1/s"},     {"latency_p50_us", "us"},
    {"latency_p95_us", "us"},  {"wakes_per_item", "1"},    {"uj_per_item", "uJ"},
    {"cpu_ns_per_item", "ns"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"trace.gen_s", "s"},
    {"gen.lag_p99_us", "us"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.self_ns_per_item", "ns"},
    {"core.produce_ns", "ns"},
    {"core.invoke_ns", "ns"},
    {"core.invocations", "count"},
    {"core.batch_mean", "items"},
    {"core.latched_frac", "1"},
    {"core.overflow_wakeups", "count"},
    {"core.self_ns_per_item", "ns"},
    {"queue.emergency_borrows", "count"},
    {"queue.pool_exhausted", "count"},
    {"queue.var_useful_frac", "1"},
    {"runtime.produce_ns_p50", "ns"},
    {"runtime.produce_ns_p99", "ns"},
    {"runtime.wakes_scheduled", "count"},
    {"runtime.wakes_overflow", "count"},
    {"runtime.missed_deadlines", "count"},
    {"runtime.manager_cpu_ns_per_item", "ns"},
    {"runtime.dispatch_wait_us_p50", "us"},
    {"runtime.dispatch_wait_us_p99", "us"},
    {"runtime.self_ns_per_item", "ns"},
    {"ipc.push_ns_p50", "ns"},
    {"ipc.push_ns_p99", "ns"},
    {"ipc.push_full", "count"},
    {"ipc.drain_ns_per_item", "ns"},
    {"ipc.reap_ns", "ns"},
    {"ipc.wait.doorbell", "count"},
    {"ipc.wait.timeout", "count"},
    {"ipc.wait.poll", "count"},
    {"ipc.futex_wakes", "count"},
    {"ipc.self_ns_per_item", "ns"},
    {"handler.self_ns_per_item", "ns"},
    {"obs.ledger_paid", "count"},
    {"obs.ledger_free", "count"},
    {"span.overhead_frac", "1"},
    {"span.path_frac", "1"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sim_web|thread_web|thread_flood|ipc_burst "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] [--src-digest HEX] "
               "[--span-out FILE]\n");
}

bool parse(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (errno != 0 || end == value.c_str() || *end != '\0' || !(args.seconds >= 1.0) ||
          args.seconds > 3600.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--src-digest") {
      args.src_digest = value;
    } else if (key == "--span-out") {
      args.span_out = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// JSON string escaping for the few free-text fields (check messages).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest round-trip decimal of a finite double; non-finite -> null.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }

  Report report;
  if (args.workload == "sim_web") {
    report = run_sim_web(args);
  } else if (args.workload == "thread_web") {
    report = run_thread_web(args);
  } else if (args.workload == "thread_flood") {
    report = run_thread_flood(args);
  } else if (args.workload == "ipc_burst") {
    report = run_ipc_burst(args);
  } else {
    usage();
    return 2;
  }
  if (!args.trace) report.e2e["peak_rss_mb"] = peak_rss_mb();
  for (const auto& failure : report.failures) {
    std::fprintf(stderr, "CHECK FAILED [%s seed %llu]: %s\n", args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), failure.c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s offered no item; no result\n", args.workload.c_str());
    return 1;
  }

  // Every metric of the mode is printed; a workload that left one unset
  // is a benchmark bug and fails the run.
  const auto* specs = args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto* specs_end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  const auto& values = args.trace ? report.layer : report.e2e;
  std::string metrics;
  for (const auto* m = specs; m != specs_end; ++m) {
    const auto found = values.find(m->name);
    double value = 0.0;
    if (found != values.end()) {
      value = found->second;
    } else if (!args.trace) {
      report.check(false, std::string("metric not measured: ") + m->name);
    }
    std::printf("%-34s %18.6g %s\n", m->name, value, m->unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(m->name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + quoted(m->unit) + "}";
  }
  std::string meta = "{\"workload\": " + quoted(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + number(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") + ", \"host\": {\"nproc\": " +
                     std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                     ", \"git_sha\": " + quoted(args.git_sha) +
                     ", \"src_digest\": " + quoted(args.src_digest) + "}, \"info\": {";
  bool first = true;
  for (const auto& [key, value] : report.info) {
    meta += (first ? "" : ", ") + quoted(key) + ": " + number(value);
    first = false;
  }
  meta += "}, \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    meta += (i ? ", " : "") + quoted(report.failures[i]);
  }
  meta += "]}";
  std::printf("%s\n", meta.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
