// Micro benchmarks (google-benchmark): throughput of the substrates the
// simulation rests on — event queue, message bus, RNG, resource-vector
// dominance, CAN geometry/routing — plus the paper's §III.A routing-hops
// claims:
// INSCAN-augmented routing should scale like O(log² n) versus plain CAN's
// O(n^{1/d}), and INSCAN-RQ's traffic grows with the responsible-node
// count while PID-CAN's stays bounded.
#include <benchmark/benchmark.h>

#include "src/core/soc.hpp"
#include "src/obs/trace.hpp"

namespace {

using namespace soc;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(static_cast<SimTime>(rng.uniform_int(0, 1000000)), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().at);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

// The hot-path acceptance mix: fill, cancel half, then a pop-one/push-one
// steady state — the shape the simulator actually produces (timeouts are
// scheduled and almost always cancelled before firing).  Callbacks carry a
// delivery-event-sized capture (~24 bytes: context pointer plus payload),
// like every real event in the engine; captureless lambdas would understate
// the per-event closure cost.
void BM_EventQueueChurnMix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  std::vector<sim::EventHandle> handles;
  std::uint64_t executed = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    handles.clear();
    handles.reserve(n);
    auto make_fn = [&executed](std::uint64_t a, std::uint32_t b) {
      return [ctx = &executed, a, b] { *ctx += a ^ b; };
    };
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(
          q.push(static_cast<SimTime>(rng.uniform_int(0, 1 << 20)),
                 make_fn(i, static_cast<std::uint32_t>(i))));
    }
    for (std::size_t i = 0; i < n; i += 2) q.cancel(handles[i]);
    SimTime now = 0;
    for (std::size_t i = 0; i < n / 2; ++i) {
      auto p = q.pop();
      now = p.at;
      p.fn();
      q.push(now + static_cast<SimTime>(rng.uniform_int(1, 1 << 16)),
             make_fn(i, 7));
    }
    while (!q.empty()) {
      auto p = q.pop();
      p.fn();
    }
  }
  benchmark::DoNotOptimize(executed);
  // Items = pushes + cancels + pops per iteration.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(n + n / 2 + n / 2 + n) * state.iterations());
}
BENCHMARK(BM_EventQueueChurnMix)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

// The timeout pattern in isolation: every scheduled event is cancelled
// before it can fire.  Lazy tombstones make this quadratic-ish in heap
// residue; in-place removal keeps the heap permanently small.
void BM_EventQueueScheduleCancel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(14);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      const auto h =
          q.push(static_cast<SimTime>(rng.uniform_int(0, 1 << 20)), [] {});
      q.cancel(h);
    }
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          state.iterations());
}
BENCHMARK(BM_EventQueueScheduleCancel)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// Steady message traffic through the bus: N messages in flight, and each
// delivery sends the next one to a random host, so one iteration is one
// send plus one delivery (fate, liveness, stats, handler) at queue depth N.
void BM_MessageBusSendDeliver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kHosts = 256;
  sim::Simulator sim(16);
  net::Topology topo(net::TopologyConfig{}, Rng(17));
  topo.add_hosts(kHosts);
  net::MessageBus bus(sim, topo);
  struct Relay {
    net::MessageBus* bus;
    Rng rng;
    void send(NodeId from) {
      const NodeId to(static_cast<std::uint32_t>(rng.pick_index(kHosts)));
      bus->send(from, to, net::MsgType::kGossip, 256, [this, to] { send(to); });
    }
  } relay{&bus, Rng(18)};
  for (std::size_t i = 0; i < n; ++i) {
    relay.send(NodeId(static_cast<std::uint32_t>(i % kHosts)));
  }
  for (auto _ : state) sim.step();
  benchmark::DoNotOptimize(bus.stats().total_delivered());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessageBusSendDeliver)->Arg(1024)->Arg(65536);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(2);
  double acc = 0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

// The exact hook shape every hot path uses when tracing is off: one load
// of the global sink and a predictable branch.  Guards trace.hpp's
// zero-cost-when-off claim — this should stay within noise of an empty
// loop iteration.
void BM_TracerOff(benchmark::State& state) {
  std::uint64_t id = 0;
  for (auto _ : state) {
    if (obs::Tracer* t = obs::tracer()) {
      t->mark("bench", "hook", id, static_cast<SimTime>(id));
    }
    benchmark::DoNotOptimize(++id);
  }
}
BENCHMARK(BM_TracerOff);

// The same hook with a sink installed — what `--trace` costs per event
// (a fixed-size record appended to a deque slab).
void BM_TracerOn(benchmark::State& state) {
  obs::Tracer tracer;
  obs::Tracer* prev = obs::install_tracer(&tracer);
  std::uint64_t id = 0;
  for (auto _ : state) {
    if (obs::Tracer* t = obs::tracer()) {
      t->mark("bench", "hook", id, static_cast<SimTime>(id));
    }
    benchmark::DoNotOptimize(++id);
  }
  obs::install_tracer(prev);
}
BENCHMARK(BM_TracerOn);

void BM_ResourceVectorDominates(benchmark::State& state) {
  Rng rng(3);
  std::vector<ResourceVector> vs;
  for (int i = 0; i < 1024; ++i) {
    ResourceVector v(5);
    for (std::size_t d = 0; d < 5; ++d) v[d] = rng.uniform(0, 10);
    vs.push_back(v);
  }
  const ResourceVector demand{3, 3, 3, 3, 3};
  std::size_t i = 0, hits = 0;
  for (auto _ : state) {
    hits += vs[i++ & 1023].dominates(demand);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_ResourceVectorDominates);

void BM_ZoneSplitContain(benchmark::State& state) {
  const can::Zone unit = can::Zone::unit(5);
  Rng rng(4);
  for (auto _ : state) {
    auto [lo, hi] = unit.split(static_cast<std::size_t>(rng.uniform_int(0, 4)));
    can::Point p(5);
    for (std::size_t d = 0; d < 5; ++d) p[d] = rng.uniform();
    benchmark::DoNotOptimize(lo.contains(p) || hi.contains(p));
  }
}
BENCHMARK(BM_ZoneSplitContain);

can::CanSpace make_space(std::size_t n, std::size_t dims) {
  can::CanSpace space(dims, Rng(5));
  for (std::uint32_t i = 0; i < n; ++i) space.join(NodeId(i));
  return space;
}

void BM_CanGreedyRouting(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const can::CanSpace space = make_space(n, 5);
  Rng rng(6);
  double total_hops = 0;
  std::size_t routes = 0;
  for (auto _ : state) {
    can::Point target(5);
    for (std::size_t d = 0; d < 5; ++d) target[d] = rng.uniform();
    const NodeId start = space.random_member(rng);
    total_hops += static_cast<double>(space.route(start, target).size());
    ++routes;
  }
  state.counters["avg_hops"] =
      benchmark::Counter(total_hops / static_cast<double>(routes));
}
BENCHMARK(BM_CanGreedyRouting)->Arg(256)->Arg(1024)->Arg(4096);

// Routing-heavy mix: full greedy next_hop chains over pre-drawn
// (start, target) pairs — no per-iteration membership sampling, so the
// number isolates the per-hop candidate scan that the cached adjacency
// metadata prunes (the dominant cost the CAN paper attributes to greedy
// routing: two distance evaluations per neighbor per hop).
void BM_CanNextHopMix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const can::CanSpace space = make_space(n, 5);
  Rng rng(21);
  struct Query {
    NodeId start;
    can::Point target;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 512; ++i) {
    can::Point target(5);
    for (std::size_t d = 0; d < 5; ++d) target[d] = rng.uniform();
    queries.push_back(Query{space.random_member(rng), target});
  }
  std::size_t i = 0;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ & 511];
    NodeId cur = q.start;
    while (!space.zone_of(cur).contains(q.target)) {
      cur = space.next_hop(cur, q.target);
      ++hops;
    }
    benchmark::DoNotOptimize(cur);
  }
  state.counters["hops_per_route"] = benchmark::Counter(
      static_cast<double>(hops) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CanNextHopMix)->Arg(1024)->Arg(4096);

// INSCAN greedy routing in isolation: full routes where every hop ranks the
// CAN neighbors plus the node's index-table fingers, exactly as
// IndexSystem::route_step does, minus the message bus.  Finger tables are
// INSCAN-shaped: per dimension and direction, the nodes 2^k hops out along
// directional walks (two walks per track, two samples per level), as the
// periodic probe walks build them.  BM_CanNextHopMix covers neighbors only.
void BM_InscanFingerRouting(benchmark::State& state) {
  constexpr std::size_t kDims = 5;
  const auto n = static_cast<std::size_t>(state.range(0));
  const can::CanSpace space = make_space(n, kDims);
  Rng rng(23);
  const SimTime now = seconds(1);
  std::vector<index::IndexTable> tables;
  tables.reserve(n);
  std::vector<NodeId> step;
  for (std::uint32_t i = 0; i < n; ++i) {
    index::IndexTable& tbl =
        tables.emplace_back(kDims, /*samples_per_level=*/2, seconds(2700));
    for (std::size_t d = 0; d < kDims; ++d) {
      for (const can::Direction dir :
           {can::Direction::kNegative, can::Direction::kPositive}) {
        for (int walk = 0; walk < 2; ++walk) {
          NodeId at(i);
          for (std::uint32_t hops = 1, level = 0; hops <= 512; ++hops) {
            space.directional_neighbors(at, d, dir, step);
            if (step.empty()) break;
            at = step[rng.pick_index(step.size())];
            if (hops == (std::uint32_t{1} << level)) {
              tbl.store(d, dir, level++, at, 0);
            }
          }
        }
      }
    }
  }
  struct Query {
    NodeId start;
    can::Point target;
  };
  std::vector<Query> queries;
  for (int q = 0; q < 512; ++q) {
    can::Point target(kDims);
    for (std::size_t d = 0; d < kDims; ++d) target[d] = rng.uniform();
    queries.push_back(Query{space.random_member(rng), target});
  }
  std::size_t qi = 0;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const Query& q = queries[qi++ & 511];
    NodeId at = q.start;
    for (;;) {
      NodeId best;
      double best_d = 0.0;
      double best_c = 0.0;
      const can::CanSpace::Hop hop =
          space.greedy_hop(at, q.target, best, best_d, best_c);
      if (hop == can::CanSpace::Hop::kOwner) break;
      if (hop == can::CanSpace::Hop::kOpen) {
        const auto consider = [&](const index::IndexTable::Entry& e) {
          if (e.id == at) return;
          space.consider_candidate_toward(e.id, q.target, best, best_d,
                                          best_c);
        };
        tables[at.value].for_each_live(now, consider);
      }
      at = best;
      ++hops;
    }
    benchmark::DoNotOptimize(at);
  }
  state.counters["hops_per_route"] = benchmark::Counter(
      static_cast<double>(hops) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_InscanFingerRouting)->Arg(2048)->Arg(16384);

// Directional neighbor filtering through the cached per-neighbor adjacency
// metadata, into a reused scratch buffer — the inner loop of probe walks,
// diffusion target picks and KHDN spreading.  Zero allocations in steady
// state.
void BM_CanDirectionalScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const can::CanSpace space = make_space(n, 5);
  Rng rng(22);
  std::vector<NodeId> members;
  for (std::uint32_t i = 0; i < n; ++i) members.push_back(NodeId(i));
  std::vector<NodeId> scratch;
  std::size_t i = 0, total = 0;
  for (auto _ : state) {
    const NodeId id = members[i++ % members.size()];
    for (std::size_t d = 0; d < 5; ++d) {
      space.directional_neighbors(id, d, can::Direction::kNegative, scratch);
      total += scratch.size();
      space.directional_neighbors(id, d, can::Direction::kPositive, scratch);
      total += scratch.size();
    }
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_CanDirectionalScan)->Arg(1024)->Arg(4096);

// Record-cache mix: the duty-node inner loop of every query harvest — a
// TTL-churn put/erase pair against a full qualified() dominance scan per
// iteration (Alg. 5 line 1).  The store size is the steady-state record
// count a duty node carries at paper scale.
void BM_RecordStoreQualifiedMix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  const ResourceVector cmax = ResourceVector::filled(5, 10.0);
  std::vector<index::Record> records;
  for (std::uint32_t i = 0; i < n; ++i) {
    index::Record r;
    r.provider = NodeId(i);
    ResourceVector a(5);
    for (std::size_t d = 0; d < 5; ++d) a[d] = rng.uniform(0, 10);
    r.availability = a;
    r.location = can::Point::normalized(a, cmax);
    r.published_at = 0;
    r.expires_at = kSimTimeNever;
    records.push_back(r);
  }
  index::RecordStore store;
  for (const auto& r : records) store.put(r);
  const ResourceVector demand = ResourceVector::filled(5, 4.0);
  std::vector<index::Record> scratch;
  std::size_t i = 0;
  std::uint64_t found = 0;
  for (auto _ : state) {
    store.erase(NodeId(static_cast<std::uint32_t>(i % n)));
    store.put(records[i % n]);
    store.qualified_into(demand, 0, scratch);
    found += scratch.size();
    ++i;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RecordStoreQualifiedMix)->Arg(256)->Arg(2048);

void BM_PsmAdmitFinish(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(7);
    psm::PsmScheduler sched(sim, ResourceVector{100, 100, 100, 100, 10000});
    for (std::uint32_t i = 0; i < 16; ++i) {
      psm::TaskSpec t;
      t.id = TaskId{NodeId(0), i};
      t.expectation = ResourceVector{2, 2, 2, 2, 100};
      t.workload = {200, 200, 200};
      sched.admit(t);
    }
    sim.run_until(seconds(3600));
    benchmark::DoNotOptimize(sched.running_count());
  }
}
BENCHMARK(BM_PsmAdmitFinish);

// §III.A: query traffic of the exhaustive INSCAN-RQ versus the
// single-message PID-CAN query, at growing scale.  Reported as counters so
// the O(N)-vs-O(log N) gap the paper motivates is visible directly.
void BM_RangeQueryTraffic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim(8);
  net::Topology topo(net::TopologyConfig{}, Rng(9));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(5, Rng(10));
  index::InscanConfig cfg;
  index::IndexSystem idx(sim, bus, space, cfg, Rng(11));
  idx.attach_to_space();
  Rng rng(12);
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id = topo.add_host();
    space.join(id);
    ids.push_back(id);
  }
  std::unordered_map<NodeId, ResourceVector> avail;
  const ResourceVector cmax = ResourceVector::filled(5, 10.0);
  idx.set_availability_provider(
      [&](NodeId id) -> std::optional<index::Record> {
        index::Record r;
        r.provider = id;
        r.availability = avail[id];
        r.location = can::Point::normalized(avail[id], cmax);
        r.published_at = sim.now();
        r.expires_at = sim.now() + seconds(1e6);
        return r;
      });
  for (const NodeId id : ids) {
    ResourceVector a(5);
    for (std::size_t d = 0; d < 5; ++d) a[d] = rng.uniform(0, 10);
    avail[id] = a;
    idx.add_node(id);
  }
  sim.run_until(seconds(1500));

  query::QueryConfig qc;
  query::QueryEngine engine(idx, qc);
  const ResourceVector demand = ResourceVector::filled(5, 4.0);
  const can::Point target = can::Point::normalized(demand, cmax);

  // Count only query-pipeline message types so concurrent background
  // maintenance (state updates, probes, diffusion) stays out of the
  // comparison.
  auto query_traffic = [&bus] {
    return bus.stats().sent(net::MsgType::kDutyQuery) +
           bus.stats().sent(net::MsgType::kIndexAgent) +
           bus.stats().sent(net::MsgType::kIndexJump) +
           bus.stats().sent(net::MsgType::kFoundNotice);
  };
  std::uint64_t full_msgs = 0, pid_msgs = 0, trials = 0;
  for (auto _ : state) {
    const NodeId requester = ids[rng.pick_index(ids.size())];
    const std::uint64_t before_full = query_traffic();
    engine.submit_full_range(requester, demand, target, [](auto) {});
    sim.run_until(sim.now() + seconds(300));
    const std::uint64_t mid = query_traffic();
    engine.submit_k(requester, demand, target, 1, [](auto) {});
    sim.run_until(sim.now() + seconds(300));
    full_msgs += mid - before_full;
    pid_msgs += query_traffic() - mid;
    ++trials;
  }
  state.counters["inscan_rq_msgs"] = benchmark::Counter(
      static_cast<double>(full_msgs) / static_cast<double>(trials));
  state.counters["pidcan_msgs"] = benchmark::Counter(
      static_cast<double>(pid_msgs) / static_cast<double>(trials));
}
BENCHMARK(BM_RangeQueryTraffic)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
