// Property tests on routing: bus-driven greedy routing always reaches the
// owner of the target point, across dimensions and scales; INSCAN's
// long-link routing never does worse than plain CAN on hop count; records
// always sit at the owner of their location after arbitrary churn; the
// lazy candidate ranking picks exactly what an eager full evaluation picks.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/can/router.hpp"
#include "src/index/inscan.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"

namespace soc {
namespace {

class RoutingProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RoutingProperty, BusRoutingArrivesAtOwner) {
  const auto [dims, n] = GetParam();
  sim::Simulator sim(static_cast<std::uint64_t>(dims * 1000 + n));
  net::Topology topo(net::TopologyConfig{}, Rng(1));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(static_cast<std::size_t>(dims), Rng(2));
  Rng rng(3);
  std::vector<NodeId> ids;
  for (int i = 0; i < n; ++i) {
    const NodeId id = topo.add_host();
    space.join(id);
    ids.push_back(id);
  }
  for (int trial = 0; trial < 40; ++trial) {
    can::Point target(static_cast<std::size_t>(dims));
    for (int d = 0; d < dims; ++d) {
      target[static_cast<std::size_t>(d)] = rng.uniform();
    }
    const NodeId from = ids[rng.pick_index(ids.size())];
    NodeId arrived;
    can::route_greedy(space, bus, from, target, net::MsgType::kDutyQuery, 64,
                      256, [&](NodeId duty) { arrived = duty; });
    sim.run_until(sim.now() + seconds(120));
    ASSERT_TRUE(arrived.valid()) << "route lost";
    EXPECT_EQ(arrived, space.owner_of(target));
    EXPECT_TRUE(space.zone_of(arrived).contains(target));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndScale, RoutingProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(16, 128)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RoutingProperty, BoundaryTargetsRouteCleanly) {
  // Points exactly on split boundaries (dyadic rationals) used to stall
  // greedy routing; they must resolve to exactly one owner.
  sim::Simulator sim(7);
  net::Topology topo(net::TopologyConfig{}, Rng(8));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(9));
  for (std::uint32_t i = 0; i < 64; ++i) {
    topo.add_host();
    space.join(NodeId(i));
  }
  for (const double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (const double y : {0.0, 0.5, 1.0}) {
      const can::Point target{x, y};
      NodeId arrived;
      can::route_greedy(space, bus, NodeId(0), target,
                        net::MsgType::kDutyQuery, 64, 256,
                        [&](NodeId duty) { arrived = duty; });
      sim.run_until(sim.now() + seconds(120));
      ASSERT_TRUE(arrived.valid()) << "stalled at (" << x << "," << y << ")";
      EXPECT_EQ(arrived, space.owner_of(target));
    }
  }
}

TEST(RoutingProperty, LongLinkRoutingBeatsPlainCanOnAverage) {
  // INSCAN long links (2^k fingers) should cut hop counts versus plain
  // neighbor-greedy routing at scale.
  sim::Simulator sim(11);
  net::Topology topo(net::TopologyConfig{}, Rng(12));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(13));
  index::InscanConfig cfg;
  index::IndexSystem idx(sim, bus, space, cfg, Rng(14));
  idx.attach_to_space();
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const NodeId id = topo.add_host();
    space.join(id);
    idx.add_node(id);
    ids.push_back(id);
  }
  sim.run_until(seconds(1200));  // probes fill the finger tables

  Rng rng(15);
  double plain_hops = 0, finger_msgs = 0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    const can::Point target{rng.uniform(), rng.uniform()};
    const NodeId from = ids[rng.pick_index(ids.size())];
    plain_hops += static_cast<double>(space.route(from, target).size());

    const std::uint64_t before = bus.stats().sent(net::MsgType::kDutyQuery);
    bool arrived = false;
    idx.route(from, target, net::MsgType::kDutyQuery, 64,
              [&](NodeId) { arrived = true; });
    sim.run_until(sim.now() + seconds(120));
    EXPECT_TRUE(arrived);
    finger_msgs += static_cast<double>(
        bus.stats().sent(net::MsgType::kDutyQuery) - before);
  }
  EXPECT_LT(finger_msgs / trials, plain_hops / trials + 0.5)
      << "long links should not lengthen routes";
}

TEST(RoutingProperty, RecordsSitAtOwnersAfterChurn) {
  sim::Simulator sim(17);
  net::Topology topo(net::TopologyConfig{}, Rng(18));
  net::MessageBus bus(sim, topo);
  can::CanSpace space(2, Rng(19));
  index::InscanConfig cfg;
  index::IndexSystem idx(sim, bus, space, cfg, Rng(20));
  idx.attach_to_space();
  const ResourceVector cmax = ResourceVector::filled(2, 10.0);
  std::unordered_map<NodeId, ResourceVector> avail;
  idx.set_availability_provider(
      [&](NodeId id) -> std::optional<index::Record> {
        const auto it = avail.find(id);
        if (it == avail.end()) return std::nullopt;
        index::Record r;
        r.provider = id;
        r.availability = it->second;
        r.location = can::Point::normalized(it->second, cmax);
        r.published_at = sim.now();
        r.expires_at = sim.now() + cfg.record_ttl;
        return r;
      });
  Rng rng(21);
  std::vector<NodeId> live;
  std::uint32_t next = 0;
  auto join_one = [&] {
    const NodeId id = topo.add_host();
    SOC_CHECK(id.value == next);
    ++next;
    space.join(id);
    avail[id] = ResourceVector{rng.uniform(0, 10), rng.uniform(0, 10)};
    idx.add_node(id);
    live.push_back(id);
  };
  for (int i = 0; i < 48; ++i) join_one();
  sim.run_until(seconds(900));

  // Churn: interleave joins and leaves with running time.
  for (int step = 0; step < 30; ++step) {
    if (live.size() < 16 || rng.chance(0.5)) {
      join_one();
    } else {
      const std::size_t idx_victim = rng.pick_index(live.size());
      const NodeId victim = live[idx_victim];
      idx.remove_node(victim);
      space.leave(victim);
      avail.erase(victim);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx_victim));
    }
    sim.run_until(sim.now() + seconds(60));
  }
  ASSERT_TRUE(space.verify_invariants());

  // Every live cached record must be stored at the current owner of its
  // location (re-homing on splits/merges keeps this true at all times).
  for (const NodeId id : live) {
    for (const auto& r : idx.cache(id).all_live(sim.now())) {
      EXPECT_TRUE(space.zone_of(id).contains(r.location))
          << "record for provider " << r.provider.value
          << " misplaced on node " << id.value;
    }
  }
}

// Eager reference for the (containment, box distance, center distance, id)
// ranking: every term fully evaluated for every candidate, uncached center.
bool eager_consider(const can::CanSpace& space, NodeId cand,
                    const can::Point& target, NodeId& best, double& best_d,
                    double& best_c) {
  if (!space.contains(cand)) return false;
  const can::Zone& z = space.zone_of(cand);
  if (z.contains(target)) {
    best = cand;
    best_d = -1.0;
    best_c = -1.0;
    return true;
  }
  const double d = z.distance_sq(target);
  const double c = z.center_distance_sq(target);
  if (d < best_d || (d == best_d && c < best_c) ||
      (d == best_d && c == best_c && best.valid() && cand < best)) {
    best = cand;
    best_d = d;
    best_c = c;
  }
  return false;
}

struct Ranked {
  bool contained = false;
  NodeId best;
  double best_d = 0.0;
  double best_c = 0.0;
};

// One greedy hop at `at`: the incumbent is at's own zone, then neighbors
// (stopping at a containing one), then every finger.
template <typename Consider, typename Scan>
Ranked rank_hop(const can::CanSpace& space, NodeId at,
                const can::Point& target, const std::vector<NodeId>& fingers,
                Consider&& consider, Scan&& scan) {
  Ranked r;
  r.best_d = space.zone_of(at).distance_sq(target);
  r.best_c = space.zone_of(at).center_distance_sq(target);
  r.contained = scan(at, target, r.best, r.best_d, r.best_c);
  for (const NodeId f : fingers) {
    consider(f, target, r.best, r.best_d, r.best_c);
  }
  return r;
}

class LazyRanking
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LazyRanking, MatchesEagerReference) {
  const auto [dims_i, n_i] = GetParam();
  const auto dims = static_cast<std::size_t>(dims_i);
  const auto n = static_cast<std::uint32_t>(n_i);
  can::CanSpace space(dims, Rng(100 + dims));
  Rng rng(200 + dims * 7 + n);
  // Join n + n/8 nodes, then let the extra ones depart: their ids stay in
  // the finger pool as stale fingers.
  const std::uint32_t extra = n / 8;
  for (std::uint32_t i = 0; i < n + extra; ++i) space.join(NodeId(i));
  std::vector<NodeId> departed;
  while (departed.size() < extra) {
    const NodeId victim(static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n + extra - 1))));
    if (!space.contains(victim)) continue;
    space.leave(victim);
    departed.push_back(victim);
  }
  const std::vector<NodeId> members = space.member_ids();
  ASSERT_EQ(members.size(), n);

  const auto eager = [&](NodeId c, const can::Point& t, NodeId& b, double& d,
                         double& cd) {
    return eager_consider(space, c, t, b, d, cd);
  };
  const auto eager_scan = [&](NodeId from, const can::Point& t, NodeId& b,
                              double& d, double& cd) {
    for (const NodeId nb : space.neighbors_of(from)) {
      if (eager_consider(space, nb, t, b, d, cd)) return true;
    }
    return false;
  };
  const auto lazy = [&](NodeId c, const can::Point& t, NodeId& b, double& d,
                        double& cd) {
    return space.consider_candidate_toward(c, t, b, d, cd);
  };
  const auto lazy_scan = [&](NodeId from, const can::Point& t, NodeId& b,
                             double& d, double& cd) {
    return space.scan_neighbors_toward(from, t, b, d, cd);
  };

  // A point on a face or corner of `z`: each axis independently sits on
  // lo, on hi, or strictly inside.  Zone bounds are dyadic, and hi may be
  // 1.0, the closed top edge.
  const auto face_point = [&](const can::Zone& z) {
    can::Point p(dims);
    for (std::size_t i = 0; i < dims; ++i) {
      switch (rng.pick_index(3)) {
        case 0: p[i] = z.lo(i); break;
        case 1: p[i] = z.hi(i); break;
        default: p[i] = rng.uniform(z.lo(i), z.hi(i)); break;
      }
    }
    return p;
  };

  int ties = 0;
  int contained = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const NodeId at = rng.pick(members);
    can::Point target(dims);
    switch (trial % 4) {
      case 0:  // uniform
        for (std::size_t i = 0; i < dims; ++i) target[i] = rng.uniform();
        break;
      case 1:  // a face/corner of the current zone or of a neighbor
        target = face_point(space.zone_of(
            rng.chance(0.5) ? at : rng.pick(space.neighbors_of(at))));
        break;
      case 2:  // a face/corner of an arbitrary zone
        target = face_point(space.zone_of(rng.pick(members)));
        break;
      default:  // uniform with some coordinates pinned to the top edge
        for (std::size_t i = 0; i < dims; ++i) {
          target[i] = rng.chance(0.4) ? 1.0 : rng.uniform();
        }
        break;
    }
    // INSCAN-sized finger set: live members, departed ids and `at` itself.
    std::vector<NodeId> fingers;
    for (std::size_t k = 0; k < 2 * dims; ++k) {
      fingers.push_back(rng.pick(members));
    }
    if (!departed.empty()) fingers.push_back(rng.pick(departed));
    fingers.push_back(at);
    rng.shuffle(fingers.begin(), fingers.end());

    const Ranked want = rank_hop(space, at, target, fingers, eager, eager_scan);
    const Ranked got = rank_hop(space, at, target, fingers, lazy, lazy_scan);
    ASSERT_EQ(got.contained, want.contained) << "trial " << trial;
    ASSERT_EQ(got.best, want.best) << "trial " << trial;
    ASSERT_EQ(got.best_d, want.best_d) << "trial " << trial;
    ASSERT_EQ(got.best_c, want.best_c) << "trial " << trial;
    ties += want.best.valid() && want.best_d == 0.0;
    contained += want.best_d < 0.0;

    // greedy_hop seeds the same incumbent and runs the same neighbor scan.
    NodeId hop_best;
    double hop_d = 0.0;
    double hop_c = 0.0;
    const auto hop = space.greedy_hop(at, target, hop_best, hop_d, hop_c);
    if (space.zone_of(at).contains(target)) {
      EXPECT_EQ(hop, can::CanSpace::Hop::kOwner);
      continue;
    }
    const Ranked nb = rank_hop(space, at, target, {}, eager, eager_scan);
    EXPECT_EQ(hop, nb.contained ? can::CanSpace::Hop::kContained
                                : can::CanSpace::Hop::kOpen);
    EXPECT_EQ(hop_best, nb.best);
    EXPECT_EQ(hop_d, nb.best_d);
    EXPECT_EQ(hop_c, nb.best_c);
  }
  // The boundary cases the early exit must not drop were exercised.
  EXPECT_GT(ties, 0);
  EXPECT_GT(contained, 0);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndScale, LazyRanking,
    ::testing::Combine(::testing::Values(2, 5, 8),
                       ::testing::Values(64, 512, 2048)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace soc
