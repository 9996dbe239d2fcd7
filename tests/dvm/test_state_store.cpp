// StateStore against a reference model, and shard placement across
// membership changes.
//
// The store keeps one hashed slot per key. The model below is the
// two-ordered-map store it replaced (plain values in one map, LWW
// versions and tombstones in another), kept here verbatim in behaviour:
// every query must answer exactly as it does, including key order, so
// digests, pulls, Merkle leaves and handoff snapshots stay byte-equal.
//
// The sharded protocol caches the member sequence it last saw and only
// re-derives placement when that sequence changes. The placement tests
// swap one member for another at equal size, the change a cache keyed on
// anything coarser than the names would miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"

namespace h2::dvm {
namespace {

// ---- reference model: the two-map store ----------------------------------------

class ModelStore {
 public:
  void set(const std::string& key, const std::string& value) { map_[key] = value; }
  std::optional<std::string> get(const std::string& key) const {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  bool erase(const std::string& key) { return map_.erase(key) > 0; }
  std::size_t size() const { return map_.size(); }
  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    for (const auto& [k, v] : map_) out.push_back(k);
    return out;
  }

  bool apply(const VersionedEntry& entry) {
    clock_ = std::max(clock_, entry.version.ts);
    auto it = versions_.find(entry.key);
    if (it != versions_.end() && !(it->second.version < entry.version)) return false;
    versions_[entry.key] = Meta{entry.version, entry.deleted};
    if (entry.deleted) {
      map_.erase(entry.key);
    } else {
      map_[entry.key] = entry.value;
    }
    return true;
  }
  Version assign_and_apply(const std::string& key, const std::string& value,
                           std::uint64_t writer, bool deleted) {
    Version version{++clock_, writer};
    (void)apply(VersionedEntry{key, value, version, deleted});
    return version;
  }
  std::optional<Version> version_of(const std::string& key) const {
    auto it = versions_.find(key);
    if (it == versions_.end()) return std::nullopt;
    return it->second.version;
  }
  std::optional<VersionedEntry> ventry(const std::string& key) const {
    auto it = versions_.find(key);
    if (it == versions_.end()) return std::nullopt;
    VersionedEntry entry{key, "", it->second.version, it->second.deleted};
    if (!entry.deleted) {
      if (auto value = map_.find(key); value != map_.end()) entry.value = value->second;
    }
    return entry;
  }
  std::uint64_t clock() const { return clock_; }
  std::vector<VersionedEntry> shard_snapshot(std::size_t shard, std::size_t shards) const {
    std::vector<VersionedEntry> out;
    for (const auto& [key, meta] : versions_) {
      if (shard_of_key(key, shards) == shard) out.push_back(*ventry(key));
    }
    return out;
  }
  std::uint64_t shard_digest(std::size_t shard, std::size_t shards) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const VersionedEntry& e : shard_snapshot(shard, shards)) {
      h = mix64(h ^ hash64(e.key));
      h = mix64(h ^ e.version.ts);
      h = mix64(h ^ e.version.writer);
      h = mix64(h ^ (e.deleted ? 1u : 0u));
      if (!e.deleted) h = mix64(h ^ hash64(e.value));
    }
    return h;
  }

 private:
  struct Meta {
    Version version;
    bool deleted = false;
  };
  std::map<std::string, std::string> map_;
  std::map<std::string, Meta> versions_;
  std::uint64_t clock_ = 0;
};

void expect_same_state(const StateStore& store, const ModelStore& model,
                       const std::vector<std::string>& keyspace, std::size_t shards,
                       const std::string& where) {
  ASSERT_EQ(store.size(), model.size()) << where;
  ASSERT_EQ(store.keys(), model.keys()) << where;
  ASSERT_EQ(store.clock(), model.clock()) << where;
  for (const std::string& key : keyspace) {
    ASSERT_EQ(store.get(key), model.get(key)) << where << " key " << key;
    ASSERT_EQ(store.version_of(key), model.version_of(key)) << where << " key " << key;
    ASSERT_EQ(store.ventry(key), model.ventry(key)) << where << " key " << key;
  }
  for (std::size_t s = 0; s < shards; ++s) {
    ASSERT_EQ(store.shard_snapshot(s, shards), model.shard_snapshot(s, shards))
        << where << " shard " << s;
    ASSERT_EQ(store.shard_digest(s, shards), model.shard_digest(s, shards))
        << where << " shard " << s;
    ASSERT_EQ(store.shard_entry_count(s, shards), model.shard_snapshot(s, shards).size())
        << where << " shard " << s;
  }
}

TEST(StateStoreModel, SeededOpsMatchTheTwoMapStore) {
  constexpr std::size_t kShards = 8;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    // A shared prefix, as the DVM's keys have, and a keyspace small enough
    // that every key sees plain writes, versioned writes and deletes.
    std::vector<std::string> keyspace;
    for (int i = 0; i < 48; ++i) keyspace.push_back("perfbench/key/" + std::to_string(i));
    auto key = [&] { return keyspace[rng() % keyspace.size()]; };
    auto value = [&] { return std::string(rng() % 4, static_cast<char>('a' + rng() % 26)); };
    // Small timestamps and three writers: equal, older and newer versions
    // (the stale and tie cases of the LWW rule) all come up often.
    auto version = [&] { return Version{rng() % 24, 1 + rng() % 3}; };

    StateStore store;
    ModelStore model;
    for (int op = 0; op < 3000; ++op) {
      const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
      switch (rng() % 6) {
        case 0: {
          const std::string k = key(), v = value();
          store.set(k, v);
          model.set(k, v);
          break;
        }
        case 1: {
          const std::string k = key();
          ASSERT_EQ(store.erase(k), model.erase(k)) << where;
          break;
        }
        case 2:
        case 3: {
          const bool deleted = rng() % 4 == 0;
          VersionedEntry entry{key(), deleted ? "" : value(), version(), deleted};
          ASSERT_EQ(store.apply(entry), model.apply(entry)) << where;
          break;
        }
        case 4: {
          const std::string k = key(), v = value();
          const std::uint64_t writer = 1 + rng() % 3;
          const bool deleted = rng() % 5 == 0;
          ASSERT_EQ(store.assign_and_apply(k, v, writer, deleted),
                    model.assign_and_apply(k, v, writer, deleted))
              << where;
          break;
        }
        default: {
          const std::string k = key();
          ASSERT_EQ(store.get(k), model.get(k)) << where;
          ASSERT_EQ(store.ventry(k), model.ventry(k)) << where;
          ASSERT_EQ(store.version_of(k), model.version_of(k)) << where;
          break;
        }
      }
      if (op % 100 == 99) expect_same_state(store, model, keyspace, kShards, where);
    }
    expect_same_state(store, model, keyspace, kShards, "seed " + std::to_string(seed));
  }
}

TEST(StateStoreModel, KeysAndSnapshotsComeOutKeySorted) {
  StateStore store;
  for (int i = 99; i >= 0; --i) {
    store.set("k" + std::to_string(i), "v");
    (void)store.assign_and_apply("k" + std::to_string(i), "v", 7);
  }
  const std::vector<std::string> keys = store.keys();
  EXPECT_EQ(keys.size(), 100u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  const std::vector<VersionedEntry> all = store.shard_snapshot(0, 1);
  ASSERT_EQ(all.size(), 100u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const auto& a, const auto& b) { return a.key < b.key; }));
}

// ---- placement across membership changes -----------------------------------------

constexpr ShardConfig kPlacement{.shards = 64, .replicas = 3};

/// Owners of every shard as a fresh map over `members` places them.
std::vector<std::vector<std::string>> fresh_owners(std::vector<std::string> members) {
  std::sort(members.begin(), members.end());
  ShardMap fresh(kPlacement);
  fresh.rebuild(members);
  std::vector<std::vector<std::string>> out;
  for (std::size_t s = 0; s < fresh.shard_count(); ++s) {
    auto owners = fresh.owners(s);
    out.emplace_back(owners.begin(), owners.end());
  }
  return out;
}

std::vector<std::vector<std::string>> owners_of(const ShardMap& map) {
  std::vector<std::vector<std::string>> out;
  for (std::size_t s = 0; s < map.shard_count(); ++s) {
    auto owners = map.owners(s);
    out.emplace_back(owners.begin(), owners.end());
  }
  return out;
}

class PlacementTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 16;

  void SetUp() override { ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok()); }

  container::Container& add_container(const std::string& name) {
    auto host = *net_.add_host(name);
    containers_.push_back(std::make_unique<container::Container>(name, repo_, net_, host));
    return *containers_.back();
  }

  static std::string node_name(std::size_t i) { return "node-" + std::to_string(i); }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
};

TEST_F(PlacementTest, CrashOneEnrollAnotherRederivesTheOwners) {
  Dvm dvm("placement", make_sharded(kPlacement));
  for (std::size_t i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(dvm.add_node(add_container(node_name(i))).ok());
  }
  ASSERT_TRUE(dvm.crash_node(node_name(5)).ok());
  ASSERT_TRUE(dvm.add_node(add_container("node-new")).ok());
  ASSERT_EQ(dvm.node_count(), kNodes);

  const ShardMap* map = dvm.shard_map();
  ASSERT_NE(map, nullptr);
  std::vector<std::string> alive = dvm.node_names();
  std::vector<std::string> sorted = alive;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(map->members(), sorted);
  EXPECT_EQ(owners_of(*map), fresh_owners(alive));

  // Writes land on exactly the re-derived owners, and every node reads
  // them back.
  for (int i = 0; i < 64; ++i) {
    const std::string key = "placement/" + std::to_string(i);
    ASSERT_TRUE(dvm.set(alive[i % alive.size()], key, "v" + std::to_string(i)).ok());
    auto owners = map->owners(map->shard_of(key));
    for (const std::string& name : alive) {
      const bool owner = std::find(owners.begin(), owners.end(), name) != owners.end();
      EXPECT_EQ(dvm.member(name)->state().get(key).has_value(), owner) << key << " " << name;
    }
    auto value = dvm.get(alive[(i + 7) % alive.size()], key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.error().describe();
    EXPECT_EQ(*value, "v" + std::to_string(i));
  }
}

TEST_F(PlacementTest, EqualSizeMemberSwapRebuildsAndReorderDoesNot) {
  // The protocol driven directly, so two consecutive calls can see
  // memberships of the same size that differ in one name.
  std::vector<std::unique_ptr<DvmNode>> nodes;
  for (std::size_t i = 0; i <= kNodes; ++i) {
    nodes.push_back(std::make_unique<DvmNode>(add_container(node_name(i))));
    ASSERT_TRUE(nodes.back()->start().ok());
  }
  auto protocol = make_sharded(kPlacement);
  auto names_of = [](const std::vector<DvmNode*>& members) {
    std::vector<std::string> out;
    for (const DvmNode* node : members) out.push_back(node->name());
    return out;
  };

  std::vector<DvmNode*> first;  // node-0 .. node-15
  for (std::size_t i = 0; i < kNodes; ++i) first.push_back(nodes[i].get());
  ASSERT_TRUE(protocol->update(first, 0, "k", "v1").ok());
  const ShardMap* map = protocol->shard_map();
  EXPECT_EQ(owners_of(*map), fresh_owners(names_of(first)));

  std::vector<DvmNode*> swapped = first;  // node-3 out, node-16 in
  swapped[3] = nodes[kNodes].get();
  ASSERT_EQ(swapped.size(), first.size());
  ASSERT_TRUE(protocol->update(swapped, 0, "k", "v2").ok());
  EXPECT_EQ(owners_of(*map), fresh_owners(names_of(swapped)));
  EXPECT_NE(owners_of(*map), fresh_owners(names_of(first)));

  // The same members in another order: placement is by name, not by
  // position, so nothing moves.
  const auto before = owners_of(*map);
  std::vector<DvmNode*> reordered(swapped.rbegin(), swapped.rend());
  auto value = protocol->query(reordered, 0, "k");
  ASSERT_TRUE(value.ok()) << value.error().describe();
  EXPECT_EQ(*value, "v2");
  EXPECT_EQ(owners_of(*map), before);
}

}  // namespace
}  // namespace h2::dvm
