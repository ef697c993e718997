// perfbench harness: runs one benchmark workload as one single-threaded
// core::Experiment and prints one JSON object describing the run.
//
//   perfbench_harness --workload hid-steady --seed 7 [--traced]
//
// Everything is measured from outside the library, by timing calls to its
// public functions: Experiment(config), setup(), Simulator::step(),
// results() and mem_breakdown().  A plain run times those phases, and the
// step loop in fixed slices of events.  A traced run instead times every
// step, attaches the bus handler profiler, samples CanSpace::route() on the
// final overlay and runs the full invariant check once; the extra reads
// happen after results() and never touch the experiment's RNG streams, so
// both modes simulate the same trajectory.  perfbench/run.py drives this
// program and checks its output.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/json_mini.hpp"
#include "src/core/soc.hpp"
#include "src/scenario/invariants.hpp"

namespace {

using namespace soc;
using Clock = std::chrono::steady_clock;

// Why each workload exists is recorded in perfbench/README.md.
struct Workload {
  const char* name;
  core::ProtocolKind protocol;
  std::size_t nodes;
  double hours;
  double churn;  ///< Fig. 8 dynamic degree
  core::ChurnTaskPolicy policy;
};

constexpr Workload kWorkloads[] = {
    {"hid-steady", core::ProtocolKind::kHidCan, 2048, 2.0, 0.0,
     core::ChurnTaskPolicy::kDetachedExecution},
    {"hid-churn", core::ProtocolKind::kHidCan, 2048, 2.0, 0.5,
     core::ChurnTaskPolicy::kCheckpointRestart},
    {"newscast-steady", core::ProtocolKind::kNewscast, 2048, 4.0, 0.0,
     core::ChurnTaskPolicy::kDetachedExecution},
    {"hid-large", core::ProtocolKind::kHidCan, 16384, 0.125, 0.0,
     core::ChurnTaskPolicy::kDetachedExecution},
};

/// Plain runs time the step loop in slices of this many events.  Every run
/// of a set executes the identical trajectory, so slice k is the identical
/// computation in each run and run.py can take its fastest observation.
constexpr std::uint64_t kSliceEvents = 1u << 14;

/// Fixed size of the post-run CanSpace::route() sample.
constexpr std::size_t kRouteSamples = 4096;
/// Timed passes over the route sample; the median pass is reported.
constexpr int kRoutePasses = 5;

constexpr std::size_t kMsgTypes = static_cast<std::size_t>(net::MsgType::kCount);

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// FNV-1a over a canonical text rendering of the simulated trajectory.
/// Doubles are rendered with %a, so any bit of difference shows.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu;", static_cast<unsigned long long>(v));
    mix(buf);
  }
  void add(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a;", v);
    mix(buf);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t trajectory_fingerprint(const core::ExperimentResults& r,
                                     const net::TrafficStats& stats) {
  Fingerprint fp;
  fp.add(r.events_executed);
  fp.add(r.generated);
  fp.add(r.finished);
  fp.add(r.failed);
  fp.add(r.t_ratio);
  fp.add(r.f_ratio);
  fp.add(r.fairness);
  for (std::size_t t = 0; t < kMsgTypes; ++t) {
    const auto type = static_cast<net::MsgType>(t);
    fp.add(stats.sent(type));
    fp.add(stats.delivered(type));
    fp.add(stats.lost(type));
    fp.add(stats.partitioned(type));
  }
  for (const auto& s : r.series) {
    fp.add(s.hour);
    fp.add(s.generated);
    fp.add(s.finished);
    fp.add(s.failed);
    fp.add(s.t_ratio);
    fp.add(s.f_ratio);
    fp.add(s.fairness);
  }
  return fp.value();
}

std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

/// Exact percentile of an unsorted sample (reorders it).
double percentile(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

struct RouteCost {
  double route_ns = 0.0;  ///< mean wall time of one route() call
  double hops = 0.0;      ///< mean hops per route
  double hop_ns = 0.0;    ///< route time per hop
};

/// Times a fixed, seed-derived sample of greedy routes on the final
/// overlay.  route() is const, and the sample uses the benchmark's own
/// RNG, so the run's trajectory is already complete and cannot move.
RouteCost sample_routes(const can::CanSpace& space, std::uint64_t seed) {
  Rng rng = Rng(seed).fork("perfbench-routes");
  const std::vector<NodeId> members = space.member_ids();
  std::vector<std::pair<NodeId, can::Point>> sample;
  sample.reserve(kRouteSamples);
  for (std::size_t i = 0; i < kRouteSamples; ++i) {
    can::Point target(space.dims());
    for (std::size_t d = 0; d < space.dims(); ++d) target[d] = rng.uniform();
    sample.emplace_back(members[rng.pick_index(members.size())], target);
  }
  std::uint64_t hops = 0;
  for (const auto& [from, target] : sample) hops += space.route(from, target).size();
  std::vector<double> pass_ns;
  for (int pass = 0; pass < kRoutePasses; ++pass) {
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (const auto& [from, target] : sample) sink += space.route(from, target).size();
    pass_ns.push_back(secs(Clock::now() - t0) * 1e9);
    if (sink != hops) std::fprintf(stderr, "route sample is not deterministic\n");
  }
  std::sort(pass_ns.begin(), pass_ns.end());
  const double ns = pass_ns[pass_ns.size() / 2];
  RouteCost c;
  c.route_ns = ns / static_cast<double>(kRouteSamples);
  c.hops = static_cast<double>(hops) / static_cast<double>(kRouteSamples);
  c.hop_ns = hops > 0 ? ns / static_cast<double>(hops) : 0.0;
  return c;
}

void print_json_string(std::string_view s) {
  std::printf("\"%s\"", json_mini::escape(s).c_str());
}

int usage() {
  std::fprintf(stderr, "usage: perfbench_harness --workload NAME --seed N [--traced]\n"
                       "workloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      const std::string_view name = argv[++i];
      for (const auto& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) return usage();
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage();
      have_seed = true;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || !have_seed) return usage();

  core::ExperimentConfig config;
  config.protocol = workload->protocol;
  config.nodes = workload->nodes;
  config.duration = seconds(workload->hours * 3600.0);
  config.sample_step = seconds(600);
  config.churn_dynamic_degree = workload->churn;
  config.churn_task_policy = workload->policy;
  config.seed = seed;
  const SimTime horizon = config.duration;

  // ---- timed region -------------------------------------------------------
  obs::TimeProfiler handlers(kMsgTypes);
  std::vector<std::uint32_t> step_ns;
  std::size_t pending_peak = 0;
  std::vector<double> slice_s;  ///< plain runs: step-loop time per slice

  const auto t_start = Clock::now();
  core::Experiment ex(config);
  const auto t_constructed = Clock::now();
  ex.setup();
  const auto t_setup = Clock::now();
  sim::Simulator& sim = ex.simulator();
  const std::uint64_t events_before = sim.events_executed();
  if (traced) {
    ex.bus().set_time_profiler(&handlers);
    pending_peak = sim.pending_events();
    auto t = Clock::now();
    while (sim.step(horizon)) {
      const auto now = Clock::now();
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - t).count();
      step_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, UINT32_MAX)));
      pending_peak = std::max(pending_peak, sim.pending_events());
      t = now;
    }
  } else {
    auto t = Clock::now();
    std::uint64_t n = 0;
    while (sim.step(horizon)) {
      if (++n % kSliceEvents == 0) {
        const auto now = Clock::now();
        slice_s.push_back(secs(now - t));
        t = now;
      }
    }
  }
  // Executes nothing (no event is due by the horizon any more); advances
  // the clock to the horizon exactly as Experiment::run() leaves it.
  sim.run_until(horizon);
  const auto t_ran = Clock::now();
  if (!traced) {
    slice_s.push_back(secs(t_ran - t_setup) -
                      std::accumulate(slice_s.begin(), slice_s.end(), 0.0));
  }
  const core::ExperimentResults results = ex.results();
  const auto t_end = Clock::now();
  // ---- end of timed region ------------------------------------------------

  const std::uint64_t rss = peak_rss_bytes();
  const std::uint64_t run_events = sim.events_executed() - events_before;
  const net::TrafficStats& stats = ex.bus().stats();
  const obs::MemBreakdown mem = ex.mem_breakdown();
  const double run_s = secs(t_ran - t_setup);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"mode\": \"%s\", "
              "\"nodes\": %zu, \"hours\": %.17g,\n",
              workload->name, static_cast<unsigned long long>(seed),
              traced ? "traced" : "plain", workload->nodes, workload->hours);
  std::printf(" \"build\": {\"type\": ");
  print_json_string(SOC_BENCH_BUILD_TYPE);
#ifdef NDEBUG
  std::printf(", \"ndebug\": true");
#else
  std::printf(", \"ndebug\": false");
#endif
  std::printf(", \"compiler\": ");
  print_json_string(SOC_BENCH_COMPILER);
  std::printf("},\n");
  std::printf(" \"timing\": {\"construct_s\": %.9g, \"setup_s\": %.9g, "
              "\"run_s\": %.9g, \"results_s\": %.9g, \"wall_s\": %.9g},\n",
              secs(t_constructed - t_start), secs(t_setup - t_constructed),
              run_s, secs(t_end - t_ran), secs(t_end - t_start));
  std::printf(" \"events\": %llu, \"run_events\": %llu, \"peak_rss_bytes\": %llu,\n",
              static_cast<unsigned long long>(results.events_executed),
              static_cast<unsigned long long>(run_events),
              static_cast<unsigned long long>(rss));
  std::printf(" \"fingerprint\": \"%016llx\", \"messages\": %llu, "
              "\"t_ratio\": %.17g, \"f_ratio\": %.17g,\n",
              static_cast<unsigned long long>(trajectory_fingerprint(results, stats)),
              static_cast<unsigned long long>(results.total_messages),
              results.t_ratio, results.f_ratio);
  std::printf(" \"run_slices_s\": [");
  for (std::size_t i = 0; i < slice_s.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ",", slice_s[i]);
  }
  std::printf("],\n");
  std::printf(" \"traffic\": [");
  for (std::size_t t = 0; t < kMsgTypes; ++t) {
    const auto type = static_cast<net::MsgType>(t);
    std::printf("%s\n  {\"type\": \"%.*s\", \"sent\": %llu, \"delivered\": %llu, "
                "\"lost\": %llu, \"partitioned\": %llu, \"in_flight\": %llu, "
                "\"synthetic\": %llu}",
                t == 0 ? "" : ",", static_cast<int>(net::msg_type_name(type).size()),
                net::msg_type_name(type).data(),
                static_cast<unsigned long long>(stats.sent(type)),
                static_cast<unsigned long long>(stats.delivered(type)),
                static_cast<unsigned long long>(stats.lost(type)),
                static_cast<unsigned long long>(stats.partitioned(type)),
                static_cast<unsigned long long>(stats.in_flight(type)),
                static_cast<unsigned long long>(stats.synthetic(type)));
  }
  std::printf("],\n \"mem\": {");
  bool first = true;
  for (const auto& [bucket, bytes] : mem.items()) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ", bucket.c_str(),
                static_cast<unsigned long long>(bytes));
    first = false;
  }
  std::printf("}");

  if (traced) {
    std::vector<std::pair<std::string, double>> layer;
    const auto put = [&layer](std::string name, double v) {
      layer.emplace_back(std::move(name), v);
    };
    double step_total_ns = 0.0;
    for (const std::uint32_t ns : step_ns) step_total_ns += ns;
    const double step_s = step_total_ns * 1e-9;
    const double wall_s = secs(t_end - t_start);
    const double construct_s = secs(t_constructed - t_start);
    const double setup_s = secs(t_setup - t_constructed);
    const double results_s = secs(t_end - t_ran);

    put("core.construct_s", construct_s);
    put("core.setup_s", setup_s);
    put("core.results_s", results_s);
    put("core.wall_s", wall_s);
    put("trace.unaccounted_frac",
        1.0 - (construct_s + setup_s + step_s + results_s) / wall_s);

    // Newscast's own view walk reuses the duty-query and found-notice
    // message types; there they are gossip-layer work, not Alg. 3-5.
    auto* pid = dynamic_cast<core::PidCanProtocol*>(&ex.protocol());
    auto* newscast = dynamic_cast<core::NewscastProtocol*>(&ex.protocol());
    double handler_s = 0.0;
    double index_s = 0.0, query_s = 0.0, gossip_s = 0.0, psm_s = 0.0;
    for (std::size_t t = 0; t < kMsgTypes; ++t) {
      const auto type = static_cast<net::MsgType>(t);
      const metrics::LatencyHistogram& h = handlers.bucket(t);
      const double s = static_cast<double>(h.sum_us()) * 1e-9;  // ns samples
      handler_s += s;
      const std::string name(net::msg_type_name(type));
      put("net.handler." + name + ".count", static_cast<double>(h.total()));
      put("net.handler." + name + ".s", s);
      switch (type) {
        case net::MsgType::kStateUpdate:
        case net::MsgType::kIndexDiffuse:
        case net::MsgType::kIndexProbe:
          index_s += s;
          break;
        case net::MsgType::kDutyQuery:
        case net::MsgType::kIndexAgent:
        case net::MsgType::kIndexJump:
        case net::MsgType::kFoundNotice:
          (newscast != nullptr ? gossip_s : query_s) += s;
          break;
        case net::MsgType::kGossip:
          gossip_s += s;
          break;
        case net::MsgType::kDispatch:
          psm_s += s;
          break;
        default:  // khdn-spread, maintenance: counted in net.handler_s only
          break;
      }
    }
    put("sim.events", static_cast<double>(run_events));
    put("sim.step_s", step_s);
    put("sim.step_ns.p50", percentile(step_ns, 50.0));
    put("sim.step_ns.p99", percentile(step_ns, 99.0));
    put("sim.non_handler_s", step_s - handler_s);
    put("sim.pending_peak", static_cast<double>(pending_peak));
    put("net.messages_sent", static_cast<double>(stats.total_sent()));
    put("net.messages_lost", static_cast<double>(stats.total_lost()));
    put("net.handler_s", handler_s);
    put("index.handler_s", index_s);
    put("query.handler_s", query_s);
    put("gossip.handler_s", gossip_s);
    put("psm.handler_s", psm_s);
    put("psm.checkpoint_restarts", static_cast<double>(results.checkpoint_restarts));
    put("psm.tasks_killed", static_cast<double>(results.tasks_killed_by_churn));

    RouteCost route;
    double relays = 0.0, invalidations = 0.0, submitted = 0.0;
    double satisfied_frac = 0.0, visited_mean = 0.0, gossip_queries = 0.0;
    if (pid != nullptr) {
      route = sample_routes(pid->space(), seed);
      relays = static_cast<double>(pid->index().activity().diffusion_relays);
      invalidations = static_cast<double>(pid->index().activity().invalidations);
      const query::QueryStats& q = pid->engine().stats();
      submitted = static_cast<double>(q.submitted);
      satisfied_frac = q.submitted > 0 ? static_cast<double>(q.satisfied) / submitted : 0.0;
      visited_mean = q.visited_nodes.mean();
    } else if (newscast != nullptr) {
      gossip_queries = static_cast<double>(newscast->system().stats().queries);
    }
    put("can.route_ns", route.route_ns);
    put("can.route_hops", route.hops);
    put("can.hop_ns", route.hop_ns);
    put("index.diffusion_relays", relays);
    put("index.invalidations", invalidations);
    put("query.submitted", submitted);
    put("query.satisfied_frac", satisfied_frac);
    put("query.visited_nodes_mean", visited_mean);
    put("gossip.queries", gossip_queries);

    Rng oracle_rng = Rng(seed).fork("perfbench-invariants");
    const auto t_check = Clock::now();
    const scenario::InvariantReport report = scenario::check_invariants(ex, oracle_rng);
    const double check_s = secs(Clock::now() - t_check);

    std::printf(",\n \"invariants\": {\"seconds\": %.6g, \"assertions\": %llu, "
                "\"violations\": [",
                check_s, static_cast<unsigned long long>(report.assertions));
    for (std::size_t i = 0; i < report.violations.size(); ++i) {
      if (i > 0) std::printf(", ");
      print_json_string(report.violations[i]);
    }
    std::printf("]},\n \"layers\": {");
    for (std::size_t i = 0; i < layer.size(); ++i) {
      std::printf("%s\n  \"%s\": %.17g", i == 0 ? "" : ",", layer[i].first.c_str(),
                  layer[i].second);
    }
    std::printf("}");
  }
  std::printf("}\n");
  return 0;
}
