#include "src/core/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "src/core/khdn_protocol.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/trace.hpp"
#include "src/core/newscast_protocol.hpp"
#include "src/core/pidcan_protocol.hpp"
#include "src/scenario/engine.hpp"

namespace soc::core {

std::string protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kSidCan:
      return "SID-CAN";
    case ProtocolKind::kHidCan:
      return "HID-CAN";
    case ProtocolKind::kSidCanSos:
      return "SID-CAN+SoS";
    case ProtocolKind::kHidCanSos:
      return "HID-CAN+SoS";
    case ProtocolKind::kSidCanVd:
      return "SID-CAN+VD";
    case ProtocolKind::kNewscast:
      return "Newscast";
    case ProtocolKind::kKhdnCan:
      return "KHDN-CAN";
  }
  return "?";
}

std::optional<ProtocolKind> protocol_from_name(const std::string& name) {
  const auto canon = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '_' || c == '-' || c == '+') {
        out += '-';
      } else {
        out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    return out;
  };
  const std::string want = canon(name);
  for (const ProtocolKind kind : kAllProtocols) {
    if (canon(protocol_name(kind)) == want) return kind;
  }
  return std::nullopt;
}

// Lifecycle context for one submitted task.
struct Experiment::TaskRun {
  psm::TaskSpec spec;
  std::size_t attempts = 0;       // query attempts so far
  std::size_t dispatches = 0;     // dispatch attempts so far
  bool settled = false;           // placed or failed (guards timeouts)
  bool is_restart = false;        // checkpoint re-entry, not a fresh submit
  bool first_result_seen = false; // first-result latency already recorded
  std::unordered_set<NodeId> tried;  // providers that already rejected us
  std::vector<Discovered> backlog;   // untried candidates from the last query
  std::function<void()> on_complete;  // closed-loop client wakeup (nullable)
};

namespace {
/// submit → now as non-negative integer microseconds for the histograms.
std::uint64_t latency_us(SimTime submit, SimTime now) {
  return now > submit ? static_cast<std::uint64_t>(now - submit) : 0;
}

/// Logical async-span id for a task: origin and per-origin sequence.
/// Never pointer-derived — trace ids must be bit-deterministic per seed.
std::uint64_t trace_id(TaskId id) {
  return (static_cast<std::uint64_t>(id.origin.value) << 32) | id.seq;
}
}  // namespace

Experiment::Experiment(ExperimentConfig config)
    : config_(config), sim_(config.seed), rng_(sim_.rng().fork("experiment")),
      node_gen_([&config] {
        workload::NodeGenConfig ng = config.nodegen;
        // Scenario capacity skew is wired into the node generator so it
        // shapes the initial population and every later join alike.
        if (config.scenario.skew.enabled()) config.scenario.skew.apply(ng);
        return workload::NodeGenerator(ng);
      }()),
      task_gen_([&config] {
        workload::TaskGenConfig tg = config.taskgen;
        tg.demand_ratio = config.demand_ratio;
        return tg;
      }()),
      hosts_(sim_, config.overhead), avg_capacity_(psm::kDims) {
  topology_ = std::make_unique<net::Topology>(config_.topology,
                                              rng_.fork("topology"));
  bus_ = std::make_unique<net::MessageBus>(sim_, *topology_);
  bus_->set_liveness([this](NodeId id) { return hosts_.alive(id); });
  if (config_.link_faults.enabled) {
    bus_->enable_link_faults(config_.link_faults);
  }

  const ResourceVector cmax = node_gen_.cmax();
  const std::size_t n = config_.nodes;
  switch (config_.protocol) {
    case ProtocolKind::kSidCan:
    case ProtocolKind::kHidCan:
    case ProtocolKind::kSidCanSos:
    case ProtocolKind::kHidCanSos:
    case ProtocolKind::kSidCanVd: {
      PidCanOptions opt;
      opt.inscan = config_.inscan;
      opt.query = config_.query;
      const bool hopping = config_.protocol == ProtocolKind::kHidCan ||
                           config_.protocol == ProtocolKind::kHidCanSos;
      opt.inscan.diffusion = hopping ? index::DiffusionMethod::kHopping
                                     : index::DiffusionMethod::kSpreading;
      opt.slack_on_submission =
          config_.protocol == ProtocolKind::kSidCanSos ||
          config_.protocol == ProtocolKind::kHidCanSos;
      opt.virtual_dimension = config_.protocol == ProtocolKind::kSidCanVd;
      // Join routing cost ≈ the CAN route length at this scale.
      opt.maintenance_msgs_per_join = static_cast<std::size_t>(
          std::ceil(std::pow(static_cast<double>(std::max<std::size_t>(n, 2)),
                             1.0 / static_cast<double>(psm::kDims))));
      protocol_ = std::make_unique<PidCanProtocol>(
          sim_, *bus_, cmax, opt, rng_.fork("pidcan"));
      break;
    }
    case ProtocolKind::kNewscast: {
      gossip::NewscastConfig gc = config_.newscast;
      if (gc.view_size == 0 || gc.view_size == 11) {
        gc.view_size = std::max<std::size_t>(
            4, static_cast<std::size_t>(
                   std::ceil(std::log2(static_cast<double>(std::max<std::size_t>(n, 2))))));
      }
      protocol_ = std::make_unique<NewscastProtocol>(sim_, *bus_, gc,
                                                     rng_.fork("newscast"));
      break;
    }
    case ProtocolKind::kKhdnCan:
      protocol_ = std::make_unique<KhdnProtocol>(
          sim_, *bus_, cmax, config_.khdn, rng_.fork("khdn"));
      break;
  }

  if (config_.serving.skewed()) {
    // A dedicated fork keeps the skew draws off every other component's
    // stream; fixed per-key profiles mean a hot key re-demands the exact
    // same vector, concentrating load on the same duty-node region.
    serving_rng_.emplace(rng_.fork("serving"));
    zipf_.emplace(config_.serving.zipf_keys, config_.serving.zipf_exponent);
    Rng profile_rng = rng_.fork("serving-profiles");
    demand_profiles_.reserve(config_.serving.zipf_keys);
    for (std::size_t k = 0; k < config_.serving.zipf_keys; ++k) {
      demand_profiles_.push_back(
          task_gen_.generate(NodeId(0), 0, 0, profile_rng).expectation);
    }
  }

  protocol_->set_availability_source(
      [this](NodeId id) -> std::optional<ResourceVector> {
        // Alive hosts always hold a scheduler (only dead+drained ones
        // release their cold slot).
        if (!hosts_.alive(id)) return std::nullopt;
        return hosts_.scheduler(id)->availability();
      });

  register_metrics();
}

void Experiment::register_metrics() {
  // Bus traffic, per MsgType: the registry is the generic export path
  // (the dedicated ExperimentResults fields stay for the goldens).
  for (std::size_t t = 0; t < static_cast<std::size_t>(net::MsgType::kCount);
       ++t) {
    const auto type = static_cast<net::MsgType>(t);
    const std::string base = "bus." + std::string(net::msg_type_name(type));
    registry_.gauge(base + ".sent", [this, type] {
      return static_cast<double>(bus_->stats().sent(type));
    });
    registry_.gauge(base + ".delivered", [this, type] {
      return static_cast<double>(bus_->stats().delivered(type));
    });
    registry_.gauge(base + ".lost", [this, type] {
      return static_cast<double>(bus_->stats().lost(type));
    });
    registry_.gauge(base + ".partitioned", [this, type] {
      return static_cast<double>(bus_->stats().partitioned(type));
    });
  }
  registry_.gauge("tasks.generated", [this] {
    return static_cast<double>(metrics_.generated());
  });
  registry_.gauge("tasks.finished", [this] {
    return static_cast<double>(metrics_.finished());
  });
  registry_.gauge("tasks.failed", [this] {
    return static_cast<double>(metrics_.failed());
  });
  // Same max(peak-at-partition-edges, current) reading results() reports.
  registry_.gauge("index.stale_debt.dead_provider", [this] {
    return static_cast<double>(
        std::max(peak_stale_debt_.dead_provider, current_stale_debt().dead_provider));
  });
  registry_.gauge("index.stale_debt.misplaced", [this] {
    return static_cast<double>(
        std::max(peak_stale_debt_.misplaced, current_stale_debt().misplaced));
  });
  registry_.gauge("mem.slot_span_ratio",
                  [this] { return protocol_->max_slot_span_ratio(); });
}

obs::MemBreakdown Experiment::mem_breakdown() const {
  obs::MemBreakdown out;
  out.add("sim.event_queue", sim_.queue_mem_bytes());
  out.add("core.host_table", hosts_.mem_bytes());
  // FlatMap: one state byte plus one key/value pair per table slot.
  out.add("core.in_flight",
          in_flight_.capacity() * (1 + sizeof(TaskId) + sizeof(Placement)));
  protocol_->mem_breakdown(out);
  return out;
}

Experiment::~Experiment() = default;

NodeId Experiment::spawn_host() {
  const NodeId id = topology_->add_host();
  psm::PsmScheduler& sched = hosts_.add(id, node_gen_.generate(rng_));
  sched.set_finish_callback([this, id](const psm::CompletionInfo& info) {
    on_host_finished_task(id, info);
  });
  ++alive_count_;
  protocol_->on_join(id);
  return id;
}

void Experiment::setup() {
  SOC_CHECK(!setup_done_);
  setup_done_ = true;

  RunningStats wan;
  ResourceVector cap_sum(psm::kDims);
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    const NodeId id = spawn_host();
    cap_sum += hosts_.capacity(id);
    wan.add(topology_->wan_bandwidth_mbps(id));
    start_arrivals(id);
  }
  avg_capacity_ = cap_sum * (1.0 / static_cast<double>(config_.nodes));
  avg_wan_mbps_ = wan.mean();
  if (config_.churn_dynamic_degree > 0.0) start_churn();
  if (config_.churn_task_policy == ChurnTaskPolicy::kCheckpointRestart) {
    start_checkpointing();
  }
  if (config_.scenario.enabled()) {
    scenario_engine_ =
        std::make_unique<scenario::ScenarioEngine>(*this, config_.scenario);
    scenario_engine_->install();
  }
  // Phase boundary: all hosts joined, nothing has run yet.
  registry_.set("rss.post_join.bytes",
                static_cast<double>(obs::current_rss_bytes()),
                /*deterministic=*/false);
  if (obs::Tracer* t = obs::tracer()) {
    t->instant("phase", "post_join", sim_.now(), "nodes", config_.nodes);
  }
}

NodeId Experiment::scenario_join() {
  const NodeId id = spawn_host();
  start_arrivals(id);
  return id;
}

void Experiment::scenario_depart(NodeId id) {
  if (!hosts_.alive(id)) return;
  on_host_departed(id);
}

bool Experiment::host_alive(NodeId id) const { return hosts_.alive(id); }

std::vector<NodeId> Experiment::alive_ids() const {
  std::vector<NodeId> out;
  out.reserve(alive_count_);
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_.alive(NodeId(i))) out.push_back(NodeId(i));
  }
  return out;
}

bool Experiment::scenario_partition(double fraction, std::size_t start_lan) {
  SOC_CHECK(fraction > 0.0 && fraction < 1.0);
  if (partition_active()) return false;
  const std::size_t lans = topology_->lan_count();
  SOC_CHECK(lans > 0 && start_lan < lans);

  std::vector<std::vector<NodeId>> by_lan(lans);
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    const NodeId id{i};
    if (hosts_.alive(id)) by_lan[topology_->lan_of(id)].push_back(id);
  }
  // Keep at least 3 hosts connected; aim for fraction·alive cut off.
  const std::size_t cap = alive_count_ > 3 ? alive_count_ - 3 : 0;
  const std::size_t target = std::min<std::size_t>(
      cap, static_cast<std::size_t>(
               std::ceil(fraction * static_cast<double>(alive_count_))));

  std::vector<std::size_t> cut;
  std::vector<NodeId> victims;
  for (std::size_t k = 0; k < lans; ++k) {
    const std::size_t lan = (start_lan + k) % lans;
    if (by_lan[lan].empty()) continue;
    if (!cut.empty() && victims.size() >= target) break;
    if (victims.size() + by_lan[lan].size() > cap) {
      // This whole LAN group does not fit under the cap; a partial LAN cut
      // would not be a LAN-boundary partition, so try the next group.
      continue;
    }
    cut.push_back(lan);
    victims.insert(victims.end(), by_lan[lan].begin(), by_lan[lan].end());
  }
  if (cut.empty()) return false;

  bus_->set_partition(std::move(cut));
  std::sort(victims.begin(), victims.end());
  partitioned_ = victims;
  // Overlay teardown after the bus cut is in place: the departure-style
  // maintenance happens on the detached side, and any in-flight cross-cut
  // messages were fated at send time anyway.
  for (const NodeId id : victims) protocol_->on_partition_out(id);
  if (obs::Tracer* t = obs::tracer()) {
    t->instant("scenario", "partition", sim_.now(), "cut_hosts",
               partitioned_.size());
  }
  sample_stale_debt();
  return true;
}

/// Fold the current stale-record debt into the reported peak.  Called at
/// both partition edges: just after the cut (when every detached
/// provider's record elsewhere is still live — the maximum) and just
/// before rejoin (what's left for rejoin to reconcile; with cuts longer
/// than the record TTL the leftovers have expired and this samples the
/// decayed tail).
StaleDebt Experiment::current_stale_debt() const {
  return protocol_->stale_debt(
      [this](NodeId id) { return host_alive(id) && !is_partitioned(id); },
      sim_.now());
}

void Experiment::sample_stale_debt() {
  const StaleDebt debt = current_stale_debt();
  peak_stale_debt_.dead_provider =
      std::max(peak_stale_debt_.dead_provider, debt.dead_provider);
  peak_stale_debt_.misplaced =
      std::max(peak_stale_debt_.misplaced, debt.misplaced);
}

void Experiment::scenario_heal() {
  if (!partition_active()) return;
  sample_stale_debt();
  bus_->clear_partition();
  const std::vector<NodeId> rejoin = std::move(partitioned_);
  partitioned_.clear();
  for (const NodeId id : rejoin) {
    if (host_alive(id)) protocol_->on_rejoin(id);
  }
  if (obs::Tracer* t = obs::tracer()) {
    t->instant("scenario", "heal", sim_.now(), "rejoined", rejoin.size());
  }
}

bool Experiment::is_partitioned(NodeId id) const {
  return std::binary_search(partitioned_.begin(), partitioned_.end(), id);
}

std::string Experiment::check_accounting() const {
  std::size_t alive = 0;
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    const NodeId id{i};
    if (hosts_.alive(id)) {
      ++alive;
      if (hosts_.scheduler(id) == nullptr) {
        return "alive host " + std::to_string(id.value) + " has no scheduler";
      }
    } else if (const auto* s = hosts_.scheduler(id);
               s != nullptr && s->running_count() == 0 &&
               std::find(cold_reap_.begin(), cold_reap_.end(), id) ==
                   cold_reap_.end()) {
      // A dead idle host may hold its scheduler only while queued for reap.
      return "dead drained host " + std::to_string(id.value) +
             " still holds a scheduler";
    }
  }
  if (alive != alive_count_) {
    return "alive counter " + std::to_string(alive_count_) + " != " +
           std::to_string(alive) + " alive hosts";
  }
  if (hosts_.alive_count() != alive_count_) {
    return "fenwick alive count " + std::to_string(hosts_.alive_count()) +
           " != " + std::to_string(alive_count_);
  }
  for (const auto& kv : in_flight_) {
    if (!hosts_.known(kv.second.provider)) {
      return "in-flight task placed on unknown host " +
             std::to_string(kv.second.provider.value);
    }
  }
  return {};
}

void Experiment::start_arrivals(NodeId id) {
  // Closed-loop serving mode replaces the Poisson chain outright: each
  // client issues its next task from its previous task's completion.
  // Every join path (setup, churn replacement, scenario join) funnels
  // through here, so replacement hosts get clients too.
  if (config_.serving.closed_loop()) {
    for (std::size_t c = 0; c < config_.serving.clients_per_node; ++c) {
      schedule_client_issue(id);
    }
    return;
  }
  // Recursive Poisson arrival chain; stops when the host churns out or the
  // submission horizon passes.
  //
  // The inter-arrival mean scales inversely with the demand ratio λ: the
  // paper reports 57600 submitted tasks for one day at λ=1 (3000 s mean)
  // but 14362 at λ=0.25 — i.e. 3000/λ seconds — so lighter demands also
  // arrive proportionally less often.
  const double mean_s = config_.mean_interarrival_s /
                        std::max(config_.demand_ratio, 1e-6);
  schedule_next_arrival(id, mean_s);
}

void Experiment::schedule_next_arrival(NodeId id, double mean_s) {
  // The diurnal curve stretches/compresses the *current* inter-arrival
  // draw; when disabled the mean is passed through untouched so the draw
  // sequence is bit-identical to the pre-serving code.
  const double mean =
      config_.serving.diurnal()
          ? mean_s / workload::diurnal_factor(config_.serving, sim_.now())
          : mean_s;
  const SimTime delay = workload::next_arrival_delay(mean, rng_);
  if (sim_.now() + delay > config_.duration) return;
  sim_.schedule_after(delay, [this, id, mean_s] {
    if (!hosts_.alive(id)) return;
    submit_task(id);
    schedule_next_arrival(id, mean_s);
  });
}

void Experiment::schedule_client_issue(NodeId id) {
  const double mean =
      config_.serving.think_time_s /
      workload::diurnal_factor(config_.serving, sim_.now());
  const SimTime delay = workload::next_arrival_delay(mean, rng_);
  if (sim_.now() + delay > config_.duration) return;
  sim_.schedule_after(delay, [this, id] {
    if (!hosts_.alive(id)) return;
    submit_task_internal(id, [this, id] { schedule_client_issue(id); });
  });
}

void Experiment::submit_task(NodeId origin) {
  submit_task_internal(origin, {});
}

void Experiment::submit_task_internal(NodeId origin,
                                      std::function<void()> on_complete) {
  drain_cold_reap();
  psm::TaskSpec spec =
      task_gen_.generate(origin, hosts_.bump_seq(origin), sim_.now(), rng_);
  if (zipf_.has_value()) apply_demand_profile(spec);
  metrics_.on_generated(sim_.now());
  if (obs::Tracer* t = obs::tracer()) {
    t->begin("task", "task", trace_id(spec.id), sim_.now());
  }
  auto run = std::make_shared<TaskRun>();
  run->spec = spec;
  run->on_complete = std::move(on_complete);
  begin_query(run);
}

void Experiment::apply_demand_profile(psm::TaskSpec& spec) {
  // Keep the freshly drawn execution time; swap the demand vector for the
  // drawn key's fixed profile and re-derive the rate workloads so the
  // execution model stays consistent (workload = expectation · exec time).
  const double exec_s = spec.expected_exec_seconds();
  const ResourceVector& e = demand_profiles_[zipf_->draw(*serving_rng_)];
  spec.expectation = e;
  for (std::size_t k = 0; k < psm::kRateDims; ++k) {
    spec.workload[k] = e[k] * exec_s;
  }
}

void Experiment::begin_query(const std::shared_ptr<TaskRun>& run) {
  ++run->attempts;
  if (is_partitioned(run->spec.origin)) {
    // A cut-off origin cannot reach the overlay; the attempt comes back
    // empty after a beat and the normal retry/backoff machinery takes over
    // (succeeding only if the partition heals before retries run out).
    sim_.schedule_after(seconds(1), [this, run] { on_candidates(run, {}); });
    return;
  }
  const SimTime started = sim_.now();
  protocol_->query(run->spec.origin, run->spec.expectation,
                   config_.want_results,
                   [this, run, started](std::vector<Discovered> candidates) {
                     query_delay_s_.add(to_seconds(sim_.now() - started));
                     on_candidates(run, std::move(candidates));
                   });
}

void Experiment::on_candidates(const std::shared_ptr<TaskRun>& run,
                               std::vector<Discovered> candidates) {
  if (run->settled) return;
  if (candidates.empty() && run->backlog.empty()) ++empty_query_results_;
  // Keep any still-untried candidates from earlier attempts as fallbacks.
  for (auto& c : candidates) run->backlog.push_back(std::move(c));

  // Best-fit selection: among candidates whose advertised availability
  // dominates the demand (and who have not already rejected this task),
  // prefer the tightest fit so large availabilities stay free for large
  // future demands.
  const ResourceVector& e = run->spec.expectation;
  const ResourceVector scale = node_gen_.cmax();
  NodeId best;
  double best_slack = std::numeric_limits<double>::infinity();
  for (const Discovered& c : run->backlog) {
    if (run->tried.contains(c.provider)) continue;
    if (!c.availability.dominates(e)) continue;
    const double slack = best_fit_slack(c.availability, e, scale);
    if (slack < best_slack) {
      best_slack = slack;
      best = c.provider;
    }
  }
  if (!best.valid()) {
    retry_or_fail(run);
    return;
  }
  if (!run->first_result_seen) {
    run->first_result_seen = true;
    // Fresh submissions only: a checkpoint restart re-enters the pipeline
    // mid-life and would double-count against its original submit time.
    if (!run->is_restart) {
      lat_first_result_.record_us(latency_us(run->spec.submit_time,
                                             sim_.now()));
    }
    if (obs::Tracer* t = obs::tracer()) {
      t->mark("task", "first_result", trace_id(run->spec.id), sim_.now());
    }
  }
  run->tried.insert(best);
  dispatch(run, best);
}

void Experiment::dispatch(const std::shared_ptr<TaskRun>& run,
                          NodeId provider) {
  ++run->dispatches;
  if (obs::Tracer* t = obs::tracer()) {
    t->mark("task", "dispatch", trace_id(run->spec.id), sim_.now());
  }
  const NodeId origin = run->spec.origin;

  // Guard against a dead provider or lost messages with a timeout.
  auto responded = std::make_shared<bool>(false);
  sim_.schedule_after(config_.dispatch_timeout, [this, run, responded] {
    if (*responded || run->settled) return;
    *responded = true;
    on_candidates(run, {});  // fall back to the next untried candidate
  });

  bus_->send(
      origin, provider, net::MsgType::kDispatch,
      static_cast<std::size_t>(run->spec.input_bytes),
      [this, run, provider, origin, responded] {
        psm::PsmScheduler* sched =
            hosts_.alive(provider) ? hosts_.scheduler(provider) : nullptr;
        // Admission must be idempotent in the task id: the link layer can
        // duplicate the dispatch message, and a lost verdict followed by a
        // checkpoint restart can re-route a task to the host that is
        // already executing it.  Either way "already running here" is an
        // accept, not a second admission.
        const bool admitted =
            sched != nullptr && (sched->is_running(run->spec.id) ||
                                 sched->admit(run->spec));
        if (admitted) {
          in_flight_.emplace(run->spec.id,
                             Placement{run->spec, provider, run->on_complete});
        }
        // Either way the provider's availability picture changed (or the
        // advertised record proved stale): push a fresh state update so
        // other requesters stop chasing it.
        protocol_->republish(provider);
        // Admission verdict travels back to the requester.
        bus_->send(provider, origin, net::MsgType::kDispatch, 64,
                   [this, run, responded, admitted] {
                     if (*responded || run->settled) return;
                     *responded = true;
                     if (admitted) {
                       run->settled = true;
                       dispatch_attempts_.add(
                           static_cast<double>(run->dispatches));
                       if (obs::Tracer* t = obs::tracer()) {
                         t->mark("task", "placed", trace_id(run->spec.id),
                                 sim_.now());
                       }
                     } else {
                       // Contention: someone claimed the node first
                       // (Inequality (2) no longer holds).  Try the next
                       // untried candidate, then re-query.
                       ++dispatch_rejects_;
                       on_candidates(run, {});
                     }
                   });
      });
}

void Experiment::retry_or_fail(const std::shared_ptr<TaskRun>& run) {
  if (run->settled) return;
  const bool origin_alive = hosts_.alive(run->spec.origin);
  if (!origin_alive || run->attempts > config_.max_query_retries) {
    run->settled = true;
    metrics_.on_failed(sim_.now());
    if (obs::Tracer* t = obs::tracer()) {
      t->mark("task", "failed", trace_id(run->spec.id), sim_.now());
      t->end("task", "task", trace_id(run->spec.id), sim_.now());
    }
    if (run->on_complete) run->on_complete();
    if (config_.diagnose_failures) {
      // Ground truth at failure time: could any alive host admit the task?
      bool feasible = false;
      for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
        const NodeId id{i};
        if (hosts_.alive(id) &&
            hosts_.scheduler(id)->can_admit(run->spec.expectation)) {
          feasible = true;
          break;
        }
      }
      ++(feasible ? fail_feasible_ : fail_infeasible_);
      // And could a *perfect* search over the published records have found
      // it?  If not, the failure is publication lag, not search quality.
      if (feasible &&
          protocol_->discoverable(run->spec.expectation, sim_.now()) == 0) {
        ++fail_undiscoverable_;
      }
    }
    return;
  }
  sim_.schedule_after(config_.retry_backoff,
                      [this, run] { begin_query(run); });
}

double Experiment::efficiency_of(const psm::TaskSpec& spec,
                                 SimTime finished_at) const {
  // e_ij: expected execution time over real completion time, the expected
  // time estimated from the load amount, the system-wide average node
  // capacity and the average network bandwidth (§IV.A).
  double expected_s = 0.0;
  for (std::size_t k = 0; k < psm::kRateDims; ++k) {
    if (spec.workload[k] <= 0.0) continue;
    expected_s = std::max(expected_s, spec.workload[k] / avg_capacity_[k]);
  }
  expected_s += spec.input_bytes * 8.0 / (avg_wan_mbps_ * 1e6);
  const double real_s = to_seconds(finished_at - spec.submit_time);
  if (real_s <= 0.0) return 1.0;
  return expected_s / real_s;
}

void Experiment::on_host_finished_task(NodeId host,
                                       const psm::CompletionInfo& info) {
  // A detached (departed, kDetachedExecution) host that just drained its
  // last task will never run anything again: queue its scheduler for
  // release.  Deferred because this callback runs inside the scheduler.
  if (!hosts_.alive(host) && hosts_.scheduler(host) != nullptr &&
      hosts_.scheduler(host)->running_count() == 0) {
    cold_reap_.push_back(host);
  }
  const auto it = in_flight_.find(info.id);
  if (it == in_flight_.end()) return;
  metrics_.on_finished(sim_.now(),
                       efficiency_of(it->second.spec, info.finished_at));
  if (obs::Tracer* t = obs::tracer()) {
    t->end("task", "task", trace_id(info.id), sim_.now());
  }
  lat_finish_.record_us(
      latency_us(it->second.spec.submit_time, info.finished_at));
  std::function<void()> wake = std::move(it->second.on_complete);
  in_flight_.erase(it);
  checkpoints_.erase(info.id);
  if (wake) wake();
}

void Experiment::drain_cold_reap() {
  for (const NodeId id : cold_reap_) {
    // Re-check: duplicate queue entries are possible in principle, and
    // nothing may have been admitted meanwhile (dead hosts admit nothing).
    if (!hosts_.alive(id) && hosts_.scheduler(id) != nullptr &&
        hosts_.scheduler(id)->running_count() == 0) {
      hosts_.release_scheduler(id);
    }
  }
  cold_reap_.clear();
}

void Experiment::start_churn() {
  // Node-churning events uniformly spread in time: within every window of
  // `churn_window_s` (one mean task lifetime), `dynamic_degree · n` nodes
  // depart and the same number of fresh nodes join.
  const double events_per_s = config_.churn_dynamic_degree *
                              static_cast<double>(config_.nodes) /
                              config_.churn_window_s;
  if (events_per_s <= 0.0) return;
  const double mean_gap_s = 1.0 / events_per_s;
  schedule_next_churn(mean_gap_s);
}

void Experiment::schedule_next_churn(double mean_gap_s) {
  const SimTime delay =
      std::max<SimTime>(seconds(rng_.exponential(mean_gap_s)), 1);
  if (sim_.now() + delay > config_.duration) return;
  sim_.schedule_after(delay, [this, mean_gap_s] {
    // Departure of a random alive node.  kth_alive selects over ascending
    // ids — by definition the same host the old sorted-candidate-list
    // scan picked for the same draw, without the O(total hosts) walk.
    if (alive_count_ > 2) {
      on_host_departed(hosts_.kth_alive(rng_.pick_index(alive_count_)));
    }
    // ...and a simultaneous fresh join keeps the population stable.
    const NodeId joiner = spawn_host();
    start_arrivals(joiner);
    schedule_next_churn(mean_gap_s);
  });
}

void Experiment::on_host_departed(NodeId victim) {
  drain_cold_reap();
  hosts_.mark_departed(victim);
  --alive_count_;
  // A partitioned host that dies will never rejoin: drop it from the cut
  // set (on_leave below drops the protocol's parked state to match).
  const auto cut = std::lower_bound(partitioned_.begin(), partitioned_.end(),
                                    victim);
  if (cut != partitioned_.end() && *cut == victim) partitioned_.erase(cut);
  protocol_->on_leave(victim);

  switch (config_.churn_task_policy) {
    case ChurnTaskPolicy::kDetachedExecution:
      // The paper's §IV.B model: running tasks keep executing to
      // completion; churn only perturbs overlay/discovery state.
      break;
    case ChurnTaskPolicy::kTasksLost: {
      for (const auto& progress :
           hosts_.scheduler(victim)->abort_all_with_progress()) {
        ++tasks_killed_by_churn_;
        double done = 0.0;
        for (std::size_t k = 0; k < psm::kRateDims; ++k) {
          done += progress.spec.workload[k] - progress.remaining[k];
        }
        wasted_work_ += done;
        metrics_.on_failed(sim_.now());
        std::function<void()> wake;
        if (const auto it = in_flight_.find(progress.spec.id);
            it != in_flight_.end()) {
          wake = std::move(it->second.on_complete);
          in_flight_.erase(it);
        }
        checkpoints_.erase(progress.spec.id);
        if (wake) wake();
      }
      break;
    }
    case ChurnTaskPolicy::kCheckpointRestart: {
      for (const auto& progress :
           hosts_.scheduler(victim)->abort_all_with_progress()) {
        ++tasks_killed_by_churn_;
        std::function<void()> wake;
        if (const auto it = in_flight_.find(progress.spec.id);
            it != in_flight_.end()) {
          wake = std::move(it->second.on_complete);
          in_flight_.erase(it);
        }
        restart_from_checkpoint(progress, std::move(wake));
      }
      break;
    }
  }

  // A departed host with nothing running (always true after an abort
  // policy; true under detached execution when it was idle) never touches
  // its scheduler again — release the cold slot right away.
  if (hosts_.scheduler(victim)->running_count() == 0) {
    hosts_.release_scheduler(victim);
  }
}

void Experiment::restart_from_checkpoint(
    const psm::PsmScheduler::Progress& progress,
    std::function<void()> on_complete) {
  const TaskId id = progress.spec.id;
  // Work since the last snapshot is lost and must be redone.
  const auto cp = checkpoints_.lookup(id);
  if (cp.has_value()) {
    wasted_work_ += checkpoints_.lost_work(id, progress.remaining);
  } else {
    // Never checkpointed: everything done so far is lost.
    for (std::size_t k = 0; k < psm::kRateDims; ++k) {
      wasted_work_ += progress.spec.workload[k] - progress.remaining[k];
    }
  }

  const bool origin_alive = hosts_.alive(progress.spec.origin);
  const std::uint32_t restarts = checkpoints_.note_restart(id, sim_.now());
  if (!origin_alive || restarts > config_.checkpoint.max_restarts) {
    metrics_.on_failed(sim_.now());
    checkpoints_.erase(id);
    if (on_complete) on_complete();
    return;
  }
  ++checkpoint_restarts_;

  // Rebuild the spec from the last snapshot (full workload if none) and
  // push it back through the regular query → dispatch pipeline.
  psm::TaskSpec spec = progress.spec;
  if (cp.has_value()) spec.workload = cp->remaining;
  auto run = std::make_shared<TaskRun>();
  run->spec = spec;
  run->is_restart = true;
  run->on_complete = std::move(on_complete);
  begin_query(run);
}

void Experiment::start_checkpointing() {
  sim_.schedule_periodic(config_.checkpoint.period, [this] {
    // Snapshot every placed task whose provider is still alive; the
    // snapshot travels provider → origin as one message.
    for (const auto& [id, placement] : in_flight_) {
      if (!hosts_.alive(placement.provider)) continue;
      const auto remaining =
          hosts_.scheduler(placement.provider)->remaining_of(id);
      if (!remaining.has_value()) continue;
      ++checkpoint_snapshots_;
      const TaskId task_id = id;
      bus_->send(placement.provider, placement.spec.origin,
                 net::MsgType::kDispatch, config_.checkpoint.snapshot_bytes,
                 [this, task_id, r = *remaining] {
                   checkpoints_.record(task_id, r, sim_.now());
                 });
    }
    return true;
  });
}

void Experiment::run() {
  if (!setup_done_) setup();
  sim_.run_until(config_.duration);
  // Phase boundary: churn/workload done (sampled before any teardown, so
  // it is the post-churn figure bench_report's peak-RSS line lacked).
  registry_.set("rss.post_churn.bytes",
                static_cast<double>(obs::current_rss_bytes()),
                /*deterministic=*/false);
  if (obs::Tracer* t = obs::tracer()) {
    t->instant("phase", "post_churn", sim_.now());
  }
}

std::size_t Experiment::alive_nodes() const { return alive_count_; }

ExperimentResults Experiment::results() const {
  ExperimentResults r;
  r.protocol = protocol_->name();
  r.series = metrics_.series(config_.duration, config_.sample_step);
  r.generated = metrics_.generated();
  r.finished = metrics_.finished();
  r.failed = metrics_.failed();
  r.t_ratio = metrics_.t_ratio();
  r.f_ratio = metrics_.f_ratio();
  r.fairness = metrics_.fairness();
  r.total_messages = bus_->stats().total_sent();
  r.messages_delivered = bus_->stats().total_delivered();
  r.messages_lost = bus_->stats().total_lost();
  r.messages_partitioned = bus_->stats().total_partitioned();
  for (std::size_t t = 0; t < static_cast<std::size_t>(net::MsgType::kCount);
       ++t) {
    const auto type = static_cast<net::MsgType>(t);
    if (bus_->stats().sent(type) == 0) continue;
    r.traffic_by_type.push_back(ExperimentResults::MsgTypeCounts{
        std::string(net::msg_type_name(type)), bus_->stats().sent(type),
        bus_->stats().delivered(type), bus_->stats().lost(type),
        bus_->stats().partitioned(type)});
  }
  r.msg_cost_per_node = bus_->stats().per_node_cost(
      std::max<std::size_t>(config_.nodes, 1));
  r.avg_query_delay_s = query_delay_s_.mean();
  r.avg_dispatch_attempts = dispatch_attempts_.mean();
  r.events_executed = sim_.events_executed();
  r.fail_infeasible = fail_infeasible_;
  r.fail_feasible = fail_feasible_;
  r.fail_undiscoverable = fail_undiscoverable_;
  r.empty_query_results = empty_query_results_;
  r.dispatch_rejects = dispatch_rejects_;
  r.tasks_killed_by_churn = tasks_killed_by_churn_;
  r.checkpoint_restarts = checkpoint_restarts_;
  r.checkpoint_snapshots = checkpoint_snapshots_;
  r.wasted_work_rate_seconds = wasted_work_;
  const StaleDebt debt = current_stale_debt();
  r.stale_records_dead_provider =
      std::max(peak_stale_debt_.dead_provider, debt.dead_provider);
  r.stale_records_misplaced =
      std::max(peak_stale_debt_.misplaced, debt.misplaced);
  r.slot_span_ratio = protocol_->max_slot_span_ratio();
  r.latency_first_result = lat_first_result_;
  r.latency_finish = lat_finish_;
  // Attribution-profiler breakdown, folded in at snapshot time (capacity
  // accounting is a deterministic function of the trajectory, unlike RSS).
  const obs::MemBreakdown breakdown = mem_breakdown();
  for (const auto& [bucket, bytes] : breakdown.items()) {
    registry_.set("mem." + bucket + ".bytes", static_cast<double>(bytes));
  }
  registry_.set("mem.total.bytes", static_cast<double>(breakdown.total()));
  r.metrics = registry_.snapshot();
  return r;
}

ExperimentResults run_experiment(const ExperimentConfig& config) {
  Experiment ex(config);
  ex.setup();
  ex.run();
  return ex.results();
}

}  // namespace soc::core
