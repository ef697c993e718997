// Unit tests for the index-layer building blocks: RecordStore (cache γ),
// PIList, and the 2^k index-node tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/index/index_table.hpp"
#include "src/index/pi_list.hpp"
#include "src/index/record.hpp"

namespace soc::index {
namespace {

Record make_record(std::uint32_t provider, std::initializer_list<double> a,
                   SimTime published, SimTime ttl = seconds(600)) {
  Record r;
  r.provider = NodeId(provider);
  r.availability = ResourceVector(a);
  r.location = can::Point(r.availability.size());
  for (std::size_t i = 0; i < r.availability.size(); ++i) {
    r.location[i] = r.availability[i] / 10.0;
  }
  r.published_at = published;
  r.expires_at = published + ttl;
  return r;
}

TEST(RecordStore, PutOverwritesPerProvider) {
  RecordStore store;
  store.put(make_record(1, {5.0, 5.0}, 0));
  store.put(make_record(1, {2.0, 2.0}, seconds(10)));
  EXPECT_EQ(store.size(), 1u);
  const auto all = store.all_live(seconds(20));
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].availability, (ResourceVector{2.0, 2.0}));
}

TEST(RecordStore, TtlExpiryHidesAndPrunes) {
  RecordStore store;
  store.put(make_record(1, {5.0, 5.0}, 0, seconds(100)));
  EXPECT_TRUE(store.has_live_records(seconds(99)));
  EXPECT_FALSE(store.has_live_records(seconds(100)));
  EXPECT_EQ(store.live_count(seconds(100)), 0u);
  EXPECT_EQ(store.size(), 1u);  // still stored
  store.prune(seconds(100));
  EXPECT_EQ(store.size(), 0u);
}

TEST(RecordStore, QualifiedFiltersByDominance) {
  RecordStore store;
  store.put(make_record(1, {5.0, 5.0}, 0));
  store.put(make_record(2, {9.0, 2.0}, 0));
  store.put(make_record(3, {9.0, 9.0}, 0));
  const auto q = store.qualified(ResourceVector{4.0, 4.0}, seconds(1));
  ASSERT_EQ(q.size(), 2u);
  for (const auto& r : q) {
    EXPECT_TRUE(r.availability.dominates(ResourceVector{4.0, 4.0}));
  }
}

TEST(RecordStore, EraseRemovesProvider) {
  RecordStore store;
  store.put(make_record(1, {5.0, 5.0}, 0));
  EXPECT_TRUE(store.erase(NodeId(1)));
  EXPECT_FALSE(store.erase(NodeId(1)));
  EXPECT_EQ(store.size(), 0u);
}

TEST(RecordStore, ExtractInZoneMovesOnlyContained) {
  RecordStore store;
  store.put(make_record(1, {2.0, 2.0}, 0));  // location (0.2, 0.2)
  store.put(make_record(2, {8.0, 8.0}, 0));  // location (0.8, 0.8)
  const can::Zone lower(can::Point{0.0, 0.0}, can::Point{0.5, 0.5});
  const auto moved = store.extract_in_zone(lower, seconds(1));
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].provider, NodeId(1));
  EXPECT_EQ(store.size(), 1u);
}

TEST(RecordStore, ExtractAllEmptiesStore) {
  RecordStore store;
  store.put(make_record(1, {2.0, 2.0}, 0));
  store.put(make_record(2, {8.0, 8.0}, 0));
  EXPECT_EQ(store.extract_all().size(), 2u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(PiList, AddRefreshAndExpiry) {
  PiList pi(4, seconds(100));
  pi.add(NodeId(1), 0);
  pi.add(NodeId(2), seconds(50));
  EXPECT_EQ(pi.live_count(seconds(99)), 2u);
  EXPECT_EQ(pi.live_count(seconds(120)), 1u);  // node 1 expired
  pi.add(NodeId(1), seconds(120));             // re-heard
  EXPECT_TRUE(pi.contains_live(NodeId(1), seconds(121)));
}

TEST(PiList, CapacityEvictsStalest) {
  PiList pi(3, seconds(1000));
  pi.add(NodeId(1), seconds(1));
  pi.add(NodeId(2), seconds(2));
  pi.add(NodeId(3), seconds(3));
  pi.add(NodeId(4), seconds(4));  // evicts node 1 (stalest)
  EXPECT_FALSE(pi.contains_live(NodeId(1), seconds(5)));
  EXPECT_TRUE(pi.contains_live(NodeId(2), seconds(5)));
  EXPECT_TRUE(pi.contains_live(NodeId(4), seconds(5)));
}

TEST(PiList, SampleReturnsDistinctLiveSubset) {
  PiList pi(16, seconds(1000));
  for (std::uint32_t i = 0; i < 10; ++i) pi.add(NodeId(i), seconds(i));
  Rng rng(5);
  const auto s = pi.sample(4, seconds(20), rng);
  EXPECT_EQ(s.size(), 4u);
  std::set<NodeId> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 4u);
  // Asking for more than live returns all live.
  EXPECT_EQ(pi.sample(50, seconds(20), rng).size(), 10u);
}

TEST(PiList, PruneDropsExpired) {
  PiList pi(8, seconds(10));
  pi.add(NodeId(1), 0);
  pi.add(NodeId(2), seconds(100));
  pi.prune(seconds(100));
  EXPECT_FALSE(pi.contains_live(NodeId(1), seconds(100)));
  EXPECT_TRUE(pi.contains_live(NodeId(2), seconds(100)));
}

// Reference PIList: the id-sorted array with eviction done as a separate
// erase of the stalest entry followed by a sorted insert.
class PiListModel {
 public:
  PiListModel(std::size_t capacity, SimTime ttl)
      : capacity_(capacity), ttl_(ttl) {}

  void add(NodeId id, SimTime now) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const PiList::Entry& e, NodeId t) { return e.id < t; });
    if (it != entries_.end() && it->id == id) {
      it->heard_at = now;
      return;
    }
    if (entries_.size() >= capacity_) {
      const auto stalest = std::min_element(
          entries_.begin(), entries_.end(),
          [](const PiList::Entry& a, const PiList::Entry& b) {
            return a.heard_at < b.heard_at;
          });
      entries_.erase(stalest);
      it = std::lower_bound(
          entries_.begin(), entries_.end(), id,
          [](const PiList::Entry& e, NodeId t) { return e.id < t; });
    }
    entries_.insert(it, PiList::Entry{id, now});
  }
  void erase(NodeId id) {
    std::erase_if(entries_,
                  [id](const PiList::Entry& e) { return e.id == id; });
  }
  void prune(SimTime now) {
    std::erase_if(entries_, [&](const PiList::Entry& e) {
      return (now - e.heard_at) >= ttl_;
    });
  }
  [[nodiscard]] const std::vector<PiList::Entry>& entries() const {
    return entries_;
  }

 private:
  std::size_t capacity_;
  SimTime ttl_;
  std::vector<PiList::Entry> entries_;
};

TEST(PiList, EvictionMatchesEraseInsertModel) {
  Rng gen(43);
  for (int round = 0; round < 200; ++round) {
    const auto capacity = static_cast<std::size_t>(gen.uniform_int(1, 64));
    const SimTime ttl = seconds(gen.uniform_int(5, 60));
    PiList pi(capacity, ttl);
    PiListModel model(capacity, ttl);
    // Coarse time steps (often 0) make tied heard_at values common, and an
    // id pool of about twice the capacity keeps the list mostly full.
    const auto pool = static_cast<std::int64_t>(2 * capacity + 1);
    SimTime now = 0;
    for (int op = 0; op < 300; ++op) {
      now += seconds(gen.uniform_int(0, 2));
      const NodeId id(static_cast<std::uint32_t>(gen.uniform_int(0, pool)));
      const double roll = gen.uniform();
      if (roll < 0.8) {
        pi.add(id, now);  // a fresh id, or a refresh of a stored one
        model.add(id, now);
      } else if (roll < 0.95) {
        pi.erase(id);
        model.erase(id);
      } else {
        pi.prune(now);
        model.prune(now);
      }
      const auto& got = pi.entries();
      const auto& want = model.entries();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end(),
                             [](const auto& a, const auto& b) {
                               return a.id == b.id && a.heard_at == b.heard_at;
                             }))
          << "round " << round << " op " << op << " capacity " << capacity;
    }
  }
}

TEST(IndexTable, StoreAndPickByLevel) {
  IndexTable tbl(2, 2, seconds(1000));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(1), 0);
  tbl.store(0, can::Direction::kNegative, 1, NodeId(2), 0);
  tbl.store(0, can::Direction::kNegative, 2, NodeId(3), 0);
  Rng rng(7);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 100; ++i) {
    const auto pick = tbl.pick(0, can::Direction::kNegative,
                               IndexSelectPolicy::kRandomPowerLevel,
                               seconds(1), rng);
    ASSERT_TRUE(pick.has_value());
    seen.insert(pick->value);
  }
  EXPECT_EQ(seen.size(), 3u);  // all levels get picked eventually
}

TEST(IndexTable, NearestOnlyPolicyPicksLowestLevel) {
  IndexTable tbl(1, 2, seconds(1000));
  tbl.store(0, can::Direction::kNegative, 2, NodeId(3), 0);
  tbl.store(0, can::Direction::kNegative, 0, NodeId(1), 0);
  Rng rng(9);
  const auto pick = tbl.pick(0, can::Direction::kNegative,
                             IndexSelectPolicy::kNearestOnly, seconds(1), rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, NodeId(1));
}

TEST(IndexTable, EmptyTrackReturnsNullopt) {
  IndexTable tbl(2, 2, seconds(1000));
  Rng rng(11);
  EXPECT_FALSE(tbl.pick(1, can::Direction::kPositive,
                        IndexSelectPolicy::kUniformEntry, 0, rng)
                   .has_value());
}

TEST(IndexTable, EntriesExpire) {
  IndexTable tbl(1, 2, seconds(100));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(1), 0);
  Rng rng(13);
  EXPECT_TRUE(tbl.pick(0, can::Direction::kNegative,
                       IndexSelectPolicy::kUniformEntry, seconds(99), rng)
                  .has_value());
  EXPECT_FALSE(tbl.pick(0, can::Direction::kNegative,
                        IndexSelectPolicy::kUniformEntry, seconds(100), rng)
                   .has_value());
}

TEST(IndexTable, PerLevelSampleCapEvictsStalest) {
  IndexTable tbl(1, 2, seconds(1000));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(1), seconds(1));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(2), seconds(2));
  tbl.store(0, can::Direction::kNegative, 0, NodeId(3), seconds(3));
  const auto live =
      tbl.live_entries(0, can::Direction::kNegative, seconds(4));
  ASSERT_EQ(live.size(), 2u);
  for (const auto& e : live) EXPECT_NE(e.id, NodeId(1));  // stalest evicted
}

TEST(IndexTable, RefreshInPlaceDoesNotDuplicate) {
  IndexTable tbl(1, 2, seconds(1000));
  tbl.store(0, can::Direction::kNegative, 1, NodeId(5), seconds(1));
  tbl.store(0, can::Direction::kNegative, 1, NodeId(5), seconds(50));
  EXPECT_EQ(tbl.total_entries(), 1u);
  const auto live =
      tbl.live_entries(0, can::Direction::kNegative, seconds(51));
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].refreshed_at, seconds(50));
}

// Reference model of the index table: one vector per track, with the
// store rules (refresh in place, evict the stalest same-level entry at the
// cap, append) and the collect-into-vectors pick the flat table replaced.
class TrackModel {
 public:
  TrackModel(std::size_t dims, std::size_t samples_per_level, SimTime ttl)
      : samples_per_level_(samples_per_level), ttl_(ttl), tracks_(dims * 2) {}

  static std::size_t track(std::size_t dim, can::Direction dir) {
    return dim * 2 + (dir == can::Direction::kPositive ? 1 : 0);
  }

  void store(std::size_t dim, can::Direction dir, std::size_t level,
             NodeId id, SimTime now) {
    auto& t = tracks_[track(dim, dir)];
    for (auto& e : t) {
      if (e.id == id && e.level == level) {
        e.refreshed_at = now;
        return;
      }
    }
    std::size_t level_count = 0;
    auto stalest = t.end();
    for (auto it = t.begin(); it != t.end(); ++it) {
      if (it->level != level) continue;
      ++level_count;
      if (stalest == t.end() || it->refreshed_at < stalest->refreshed_at) {
        stalest = it;
      }
    }
    if (level_count >= samples_per_level_ && stalest != t.end()) {
      t.erase(stalest);
    }
    t.push_back(IndexTable::Entry{id, static_cast<std::uint32_t>(level), now});
  }

  std::vector<IndexTable::Entry> live(std::size_t dim, can::Direction dir,
                                      SimTime now) const {
    std::vector<IndexTable::Entry> out;
    for (const auto& e : tracks_[track(dim, dir)]) {
      if (now - e.refreshed_at < ttl_) out.push_back(e);
    }
    return out;
  }

  std::optional<NodeId> pick(std::size_t dim, can::Direction dir,
                             IndexSelectPolicy policy, SimTime now,
                             Rng& rng) const {
    const auto entries = live(dim, dir, now);
    if (entries.empty()) return std::nullopt;
    switch (policy) {
      case IndexSelectPolicy::kRandomPowerLevel: {
        std::vector<std::uint32_t> levels;
        for (const auto& e : entries) levels.push_back(e.level);
        std::sort(levels.begin(), levels.end());
        levels.erase(std::unique(levels.begin(), levels.end()),
                     levels.end());
        const std::uint32_t lvl = levels[rng.pick_index(levels.size())];
        std::vector<NodeId> at_level;
        for (const auto& e : entries) {
          if (e.level == lvl) at_level.push_back(e.id);
        }
        return at_level[rng.pick_index(at_level.size())];
      }
      case IndexSelectPolicy::kNearestOnly:
        return std::min_element(entries.begin(), entries.end(),
                                [](const auto& a, const auto& b) {
                                  return a.level < b.level;
                                })
            ->id;
      case IndexSelectPolicy::kUniformEntry:
        return entries[rng.pick_index(entries.size())].id;
    }
    return std::nullopt;
  }

  std::size_t total() const {
    std::size_t n = 0;
    for (const auto& t : tracks_) n += t.size();
    return n;
  }

 private:
  std::size_t samples_per_level_;
  SimTime ttl_;
  std::vector<std::vector<IndexTable::Entry>> tracks_;
};

bool same_entries(const std::vector<IndexTable::Entry>& a,
                  const std::vector<IndexTable::Entry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.id == y.id && x.level == y.level &&
                             x.refreshed_at == y.refreshed_at;
                    });
}

TEST(IndexTable, FlatTableMatchesPerTrackModel) {
  const SimTime ttl = seconds(2700);
  const IndexSelectPolicy policies[] = {IndexSelectPolicy::kRandomPowerLevel,
                                        IndexSelectPolicy::kNearestOnly,
                                        IndexSelectPolicy::kUniformEntry};
  Rng gen(41);
  for (int round = 0; round < 60; ++round) {
    const auto dims = static_cast<std::size_t>(gen.uniform_int(1, 8));
    const auto spl = static_cast<std::size_t>(gen.uniform_int(1, 3));
    IndexTable tbl(dims, spl, ttl);
    TrackModel model(dims, spl, ttl);
    Rng rng_tbl(round);
    Rng rng_model(round);
    SimTime now = 0;
    for (int op = 0; op < 400; ++op) {
      now += seconds(gen.uniform_int(0, 120));
      const auto dim = static_cast<std::size_t>(
          gen.uniform_int(0, static_cast<std::int64_t>(dims) - 1));
      const auto dir = gen.chance(0.5) ? can::Direction::kPositive
                                       : can::Direction::kNegative;
      // A small id pool makes refreshes (same id and level) common.
      const auto level = static_cast<std::size_t>(gen.uniform_int(0, 12));
      const NodeId id(static_cast<std::uint32_t>(gen.uniform_int(0, 9)));
      tbl.store(dim, dir, level, id, now);
      model.store(dim, dir, level, id, now);
      ASSERT_EQ(tbl.total_entries(), model.total());

      // Every track, read a little later so some entries have expired.
      const SimTime read_at = now + seconds(gen.uniform_int(0, 3000));
      for (std::size_t d = 0; d < dims; ++d) {
        for (const auto dr :
             {can::Direction::kNegative, can::Direction::kPositive}) {
          std::vector<IndexTable::Entry> got;
          tbl.for_each_live(d, dr, read_at,
                            [&](const IndexTable::Entry& e) {
                              got.push_back(e);
                            });
          ASSERT_TRUE(same_entries(got, model.live(d, dr, read_at)))
              << "round " << round << " op " << op << " track " << d;
          for (const auto policy : policies) {
            ASSERT_EQ(tbl.pick(d, dr, policy, read_at, rng_tbl),
                      model.pick(d, dr, policy, read_at, rng_model))
                << "round " << round << " op " << op;
          }
        }
      }
      // The all-track pass visits the per-track passes back to back.
      std::vector<IndexTable::Entry> all;
      std::vector<IndexTable::Entry> concat;
      tbl.for_each_live(read_at,
                        [&](const IndexTable::Entry& e) { all.push_back(e); });
      for (std::size_t d = 0; d < dims; ++d) {
        for (const auto dr :
             {can::Direction::kNegative, can::Direction::kPositive}) {
          const auto t = model.live(d, dr, read_at);
          concat.insert(concat.end(), t.begin(), t.end());
        }
      }
      ASSERT_TRUE(same_entries(all, concat)) << "round " << round;
    }
    EXPECT_EQ(rng_tbl.next_u64(), rng_model.next_u64()) << "round " << round;
  }
}

TEST(IndexTableDeathTest, LevelBeyondMaskFailsCheck) {
  IndexTable tbl(2, 2, seconds(1000));
  tbl.store(1, can::Direction::kPositive, 63, NodeId(1), 0);
  EXPECT_DEATH(tbl.store(1, can::Direction::kPositive, 64, NodeId(1), 0),
               "level < 64");
}

}  // namespace
}  // namespace soc::index
