#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "net/prefix_trie.hpp"
#include "net/topology.hpp"

namespace mantra::net {
namespace {

// --- Ipv4Address -----------------------------------------------------------

TEST(Ipv4Address, DefaultIsUnspecified) {
  Ipv4Address addr;
  EXPECT_TRUE(addr.is_unspecified());
  EXPECT_EQ(addr.value(), 0u);
}

TEST(Ipv4Address, OctetConstructorMatchesValue) {
  Ipv4Address addr(10, 20, 30, 40);
  EXPECT_EQ(addr.value(), 0x0A141E28u);
  EXPECT_EQ(addr.octet(0), 10);
  EXPECT_EQ(addr.octet(1), 20);
  EXPECT_EQ(addr.octet(2), 30);
  EXPECT_EQ(addr.octet(3), 40);
}

TEST(Ipv4Address, ToStringRendersDottedQuad) {
  EXPECT_EQ(Ipv4Address(224, 2, 127, 254).to_string(), "224.2.127.254");
  EXPECT_EQ(Ipv4Address().to_string(), "0.0.0.0");
  EXPECT_EQ(Ipv4Address(255, 255, 255, 255).to_string(), "255.255.255.255");
}

TEST(Ipv4Address, ParseAcceptsValidAddresses) {
  EXPECT_EQ(Ipv4Address::parse("10.1.2.3"), Ipv4Address(10, 1, 2, 3));
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0"), Ipv4Address());
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255"), Ipv4Address(255, 255, 255, 255));
}

TEST(Ipv4Address, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Ipv4Address::parse(""));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2"));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4"));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256"));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.x"));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3 "));
  EXPECT_FALSE(Ipv4Address::parse(" 10.1.2.3"));
  EXPECT_FALSE(Ipv4Address::parse("10..2.3"));
}

TEST(Ipv4Address, ParseRoundTripsToString) {
  std::mt19937 rng(1234);
  for (int i = 0; i < 200; ++i) {
    const Ipv4Address addr(static_cast<std::uint32_t>(rng()));
    const auto parsed = Ipv4Address::parse(addr.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, addr);
  }
}

TEST(Ipv4Address, MulticastClassification) {
  EXPECT_TRUE(Ipv4Address(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Address(223, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Address(240, 0, 0, 0).is_multicast());
  EXPECT_TRUE(Ipv4Address(224, 0, 0, 13).is_link_local_multicast());
  EXPECT_FALSE(Ipv4Address(224, 0, 1, 13).is_link_local_multicast());
  EXPECT_TRUE(Ipv4Address(239, 1, 2, 3).is_admin_scoped());
  EXPECT_FALSE(Ipv4Address(238, 1, 2, 3).is_admin_scoped());
}

TEST(Ipv4Address, OrderingIsNumeric) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_LT(Ipv4Address(9, 255, 255, 255), Ipv4Address(10, 0, 0, 0));
}

// --- Prefix ------------------------------------------------------------------

TEST(Prefix, CanonicalisesHostBits) {
  Prefix p(Ipv4Address(10, 1, 2, 3), 24);
  EXPECT_EQ(p.address(), Ipv4Address(10, 1, 2, 0));
  EXPECT_EQ(p.length(), 24);
  EXPECT_EQ(p, Prefix(Ipv4Address(10, 1, 2, 99), 24));
}

TEST(Prefix, MaskForLength) {
  EXPECT_EQ(mask_for_length(0), 0u);
  EXPECT_EQ(mask_for_length(8), 0xFF000000u);
  EXPECT_EQ(mask_for_length(24), 0xFFFFFF00u);
  EXPECT_EQ(mask_for_length(32), 0xFFFFFFFFu);
}

TEST(Prefix, ContainsAddress) {
  const Prefix p(Ipv4Address(192, 168, 4, 0), 22);
  EXPECT_TRUE(p.contains(Ipv4Address(192, 168, 4, 1)));
  EXPECT_TRUE(p.contains(Ipv4Address(192, 168, 7, 255)));
  EXPECT_FALSE(p.contains(Ipv4Address(192, 168, 8, 0)));
  EXPECT_FALSE(p.contains(Ipv4Address(192, 168, 3, 255)));
}

TEST(Prefix, ContainsPrefix) {
  const Prefix p(Ipv4Address(10, 0, 0, 0), 8);
  EXPECT_TRUE(p.contains(Prefix(Ipv4Address(10, 1, 0, 0), 16)));
  EXPECT_TRUE(p.contains(p));
  EXPECT_FALSE(p.contains(Prefix(Ipv4Address(11, 0, 0, 0), 16)));
  EXPECT_FALSE(Prefix(Ipv4Address(10, 1, 0, 0), 16).contains(p));
}

TEST(Prefix, ParseAndRender) {
  const auto p = Prefix::parse("10.1.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.1.0.0/16");
  EXPECT_EQ(p->netmask_string(), "255.255.0.0");

  const auto host = Prefix::parse("10.1.2.3");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->length(), 32);

  EXPECT_FALSE(Prefix::parse("10.1.0.0/33"));
  EXPECT_FALSE(Prefix::parse("10.1.0.0/-1"));
  EXPECT_FALSE(Prefix::parse("10.1.0.0/"));
  EXPECT_FALSE(Prefix::parse("bogus/8"));
}

TEST(Prefix, SizeAndHost) {
  const Prefix p(Ipv4Address(10, 0, 0, 0), 24);
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.host(1), Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(p.host(255), Ipv4Address(10, 0, 0, 255));
}

TEST(Prefix, MulticastRangeConstant) {
  EXPECT_TRUE(kMulticastRange.contains(Ipv4Address(224, 0, 0, 1)));
  EXPECT_TRUE(kMulticastRange.contains(Ipv4Address(239, 255, 0, 1)));
  EXPECT_FALSE(kMulticastRange.contains(Ipv4Address(192, 168, 0, 1)));
}

// --- PrefixTrie ----------------------------------------------------------------

TEST(PrefixTrie, InsertFindErase) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(*Prefix::parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(*Prefix::parse("10.0.0.0/8"), 2));  // replace
  EXPECT_EQ(trie.size(), 1u);
  ASSERT_NE(trie.find(*Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.find(*Prefix::parse("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.find(*Prefix::parse("10.0.0.0/9")), nullptr);
  EXPECT_TRUE(trie.erase(*Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(*Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, LongestMatchPrefersMoreSpecific) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(*Prefix::parse("10.1.2.0/24"), 24);

  const auto m1 = trie.longest_match(Ipv4Address(10, 1, 2, 3));
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(*m1->second, 24);

  const auto m2 = trie.longest_match(Ipv4Address(10, 1, 9, 9));
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(*m2->second, 16);

  const auto m3 = trie.longest_match(Ipv4Address(10, 200, 0, 1));
  ASSERT_TRUE(m3.has_value());
  EXPECT_EQ(*m3->second, 8);

  EXPECT_FALSE(trie.longest_match(Ipv4Address(11, 0, 0, 1)).has_value());
}

TEST(PrefixTrie, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4Address(), 0), 0);
  EXPECT_TRUE(trie.longest_match(Ipv4Address(1, 2, 3, 4)).has_value());
  EXPECT_TRUE(trie.longest_match(Ipv4Address(255, 255, 255, 255)).has_value());
}

TEST(PrefixTrie, VisitInAddressOrder) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("192.168.0.0/16"), 1);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 2);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 3);
  const auto entries = trie.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first.to_string(), "10.0.0.0/8");
  EXPECT_EQ(entries[1].first.to_string(), "10.1.0.0/16");
  EXPECT_EQ(entries[2].first.to_string(), "192.168.0.0/16");
}

// Property test: the trie agrees with a naive linear longest-prefix match
// over randomly generated tables and probes.
TEST(PrefixTrie, MatchesNaiveImplementationOnRandomTables) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    PrefixTrie<std::uint32_t> trie;
    std::map<Prefix, std::uint32_t> naive;
    for (int i = 0; i < 120; ++i) {
      const int length = static_cast<int>(rng() % 25) + 8;
      const Prefix prefix(Ipv4Address(static_cast<std::uint32_t>(rng())), length);
      const auto value = static_cast<std::uint32_t>(rng());
      trie.insert(prefix, value);
      naive[prefix] = value;
    }
    ASSERT_EQ(trie.size(), naive.size());
    for (int probe = 0; probe < 200; ++probe) {
      const Ipv4Address addr(static_cast<std::uint32_t>(rng()));
      const Prefix* best = nullptr;
      for (const auto& [prefix, value] : naive) {
        if (prefix.contains(addr) && (best == nullptr || prefix.length() > best->length())) {
          best = &prefix;
        }
      }
      const auto got = trie.longest_match(addr);
      if (best == nullptr) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->first, *best);
        EXPECT_EQ(*got->second, naive.at(*best));
      }
    }
  }
}

// Differential property test: seeded insert/replace/erase churn against a
// std::map oracle (which orders prefixes by (address, length), the trie's
// visit order). Prefixes cluster under a few /8s and take every length from
// 0 to 32, so forks, nested entries and splices all occur. After every step
// the whole observable state must match; erasing everything leaves only
// the root node.
TEST(PrefixTrie, ChurnMatchesMapOracle) {
  std::mt19937 rng(20261018);
  const std::uint32_t clusters[] = {0x0A000000u, 0x0A010000u, 0xAC100000u, 0xC0A80000u};
  const auto random_prefix = [&] {
    const std::uint32_t base = clusters[rng() % std::size(clusters)];
    const auto host = static_cast<std::uint32_t>(rng()) & (rng() % 2 == 0 ? 0xFFFFu : 0xFFFFFFu);
    return Prefix(Ipv4Address(base | host), static_cast<int>(rng() % 33));
  };
  const auto random_probe = [&](const std::map<Prefix, int>& oracle) {
    std::uint32_t addr = static_cast<std::uint32_t>(rng());
    if (!oracle.empty() && rng() % 4 != 0) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng() % oracle.size()));
      addr = it->first.address().value() | (addr & ~it->first.netmask());
    }
    return Ipv4Address(addr);
  };

  for (int trial = 0; trial < 6; ++trial) {
    PrefixTrie<int> trie;
    std::map<Prefix, int> oracle;
    std::vector<Prefix> touched;
    for (int step = 0; step < 2000; ++step) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " + std::to_string(step));
      // Early steps grow the table; later ones lean to erasing it. Most
      // erases and a quarter of inserts hit a present entry (erase or
      // replace), and some inserts re-learn a prefix seen before.
      const bool grow = rng() % 2400 >= static_cast<unsigned>(step);
      Prefix prefix = random_prefix();
      if (!oracle.empty() && rng() % 4 >= (grow ? 3u : 1u)) {
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng() % oracle.size()));
        prefix = it->first;
      } else if (!touched.empty() && rng() % 3 == 0) {
        prefix = touched[rng() % touched.size()];
      }
      touched.push_back(prefix);
      if (grow) {
        const int value = static_cast<int>(rng() % 1000);
        ASSERT_EQ(trie.insert(prefix, value), oracle.count(prefix) == 0);
        oracle[prefix] = value;
      } else {
        ASSERT_EQ(trie.erase(prefix), oracle.erase(prefix) == 1);
      }

      ASSERT_EQ(trie.size(), oracle.size());
      ASSERT_EQ(trie.empty(), oracle.empty());
      ASSERT_LE(trie.node_count(), 2 * trie.size() + 1);
      const auto entries = trie.entries();
      ASSERT_EQ(entries.size(), oracle.size());
      auto want = oracle.begin();
      for (const auto& [p, v] : entries) {
        ASSERT_EQ(p, want->first);
        ASSERT_EQ(v, want->second);
        ++want;
      }
      for (int look = 0; look < 4; ++look) {
        const Prefix query = look == 0 ? prefix : touched[rng() % touched.size()];
        const auto it = oracle.find(query);
        const int* found = trie.find(query);
        ASSERT_EQ(found != nullptr, it != oracle.end()) << query.to_string();
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
      for (int probe = 0; probe < 4; ++probe) {
        const Ipv4Address addr = random_probe(oracle);
        std::vector<std::pair<Prefix, int>> covering;  // shortest first
        for (const auto& [p, v] : oracle) {
          if (p.contains(addr)) covering.emplace_back(p, v);
        }
        std::sort(covering.begin(), covering.end(), [](const auto& a, const auto& b) {
          return a.first.length() < b.first.length();
        });
        const auto matches = trie.all_matches(addr);
        ASSERT_EQ(matches.size(), covering.size()) << addr.to_string();
        for (std::size_t i = 0; i < matches.size(); ++i) {
          ASSERT_EQ(matches[i].first, covering[i].first);
          ASSERT_EQ(*matches[i].second, covering[i].second);
        }
        const auto best = trie.longest_match(addr);
        ASSERT_EQ(best.has_value(), !covering.empty());
        if (best) {
          ASSERT_EQ(best->first, covering.back().first);
          ASSERT_EQ(*best->second, covering.back().second);
        }
      }
    }

    std::vector<Prefix> remaining;
    for (const auto& [p, v] : oracle) remaining.push_back(p);
    std::shuffle(remaining.begin(), remaining.end(), rng);
    for (const Prefix& p : remaining) ASSERT_TRUE(trie.erase(p));
    EXPECT_TRUE(trie.empty());
    EXPECT_EQ(trie.node_count(), 1u);  // only the root is left
    EXPECT_TRUE(trie.entries().empty());
    // Re-inserting into the emptied trie builds it up again.
    for (const Prefix& p : remaining) trie.insert(p, 1);
    EXPECT_EQ(trie.size(), remaining.size());
    EXPECT_LE(trie.node_count(), 2 * trie.size() + 1);
  }
}

TEST(PrefixTrie, ErasePrunesEmptiedBranches) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.1.0.0/16"), 1);
  trie.insert(*Prefix::parse("10.2.0.0/16"), 2);  // forks at 10.0.0.0/14
  EXPECT_EQ(trie.node_count(), 4u);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 3);  // spliced in above the fork
  EXPECT_EQ(trie.node_count(), 5u);
  EXPECT_TRUE(trie.erase(*Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(trie.node_count(), 3u);  // leaf and the fork it left go
  EXPECT_EQ(trie.longest_match(Ipv4Address(10, 1, 2, 3))->first.to_string(), "10.0.0.0/8");
  EXPECT_TRUE(trie.erase(*Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(trie.node_count(), 2u);
  EXPECT_FALSE(trie.erase(*Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(trie.insert(*Prefix::parse("10.3.0.0/16"), 4));
  EXPECT_EQ(trie.node_count(), 4u);
  EXPECT_EQ(*trie.find(*Prefix::parse("10.2.0.0/16")), 2);
  EXPECT_EQ(*trie.find(*Prefix::parse("10.3.0.0/16")), 4);
  trie.clear();
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_EQ(trie.find(*Prefix::parse("10.2.0.0/16")), nullptr);
}

// --- Topology -------------------------------------------------------------------

TEST(Topology, ConnectAllocatesEndpointAddresses) {
  Topology topo;
  const NodeId a = topo.add_router("a");
  const NodeId b = topo.add_router("b");
  const LinkId link = topo.connect(a, b, *Prefix::parse("192.168.0.0/30"));
  EXPECT_EQ(topo.node(a).interfaces[0].address, Ipv4Address(192, 168, 0, 1));
  EXPECT_EQ(topo.node(b).interfaces[0].address, Ipv4Address(192, 168, 0, 2));
  EXPECT_EQ(topo.link(link).attachments.size(), 2u);
}

TEST(Topology, ConnectRejectsTooSmallSubnet) {
  Topology topo;
  const NodeId a = topo.add_router("a");
  const NodeId b = topo.add_router("b");
  EXPECT_THROW(topo.connect(a, b, *Prefix::parse("10.0.0.0/31")),
               std::invalid_argument);
}

TEST(Topology, LanAttachmentsGetSequentialAddresses) {
  Topology topo;
  const LinkId lan = topo.create_lan(*Prefix::parse("10.0.1.0/24"));
  const NodeId r = topo.add_router("r");
  const NodeId h1 = topo.add_host("h1");
  const NodeId h2 = topo.add_host("h2");
  topo.attach_to_lan(r, lan);
  topo.attach_to_lan(h1, lan);
  topo.attach_to_lan(h2, lan);
  EXPECT_EQ(topo.node(r).interfaces[0].address, Ipv4Address(10, 0, 1, 1));
  EXPECT_EQ(topo.node(h1).interfaces[0].address, Ipv4Address(10, 0, 1, 2));
  EXPECT_EQ(topo.node(h2).interfaces[0].address, Ipv4Address(10, 0, 1, 3));
}

TEST(Topology, AttachToLanRequiresLan) {
  Topology topo;
  const NodeId a = topo.add_router("a");
  const NodeId b = topo.add_router("b");
  const LinkId p2p = topo.connect(a, b, *Prefix::parse("10.9.0.0/30"));
  EXPECT_THROW(topo.attach_to_lan(a, p2p), std::invalid_argument);
}

TEST(Topology, NeighborsExcludeSelfAndDisabled) {
  Topology topo;
  const LinkId lan = topo.create_lan(*Prefix::parse("10.0.1.0/24"));
  const NodeId r1 = topo.add_router("r1");
  const NodeId r2 = topo.add_router("r2");
  const NodeId r3 = topo.add_router("r3");
  topo.attach_to_lan(r1, lan);
  const IfIndex r2_if = topo.attach_to_lan(r2, lan);
  topo.attach_to_lan(r3, lan);

  EXPECT_EQ(topo.neighbors(r1, 0).size(), 2u);
  topo.set_interface_enabled(r2, r2_if, false);
  EXPECT_EQ(topo.neighbors(r1, 0).size(), 1u);
  // A disabled interface also has no neighbors itself.
  EXPECT_TRUE(topo.neighbors(r2, r2_if).empty());
}

TEST(Topology, FindByAddress) {
  Topology topo;
  const NodeId a = topo.add_router("a");
  const NodeId b = topo.add_router("b");
  topo.connect(a, b, *Prefix::parse("192.168.0.0/30"));
  const auto found = topo.find_by_address(Ipv4Address(192, 168, 0, 2));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->node, b);
  EXPECT_FALSE(topo.find_by_address(Ipv4Address(1, 1, 1, 1)).has_value());
}

TEST(Topology, PrimaryAddressIsLowest) {
  Topology topo;
  const NodeId a = topo.add_router("a");
  const NodeId b = topo.add_router("b");
  const NodeId c = topo.add_router("c");
  topo.connect(a, b, *Prefix::parse("192.168.0.0/30"));
  topo.connect(a, c, *Prefix::parse("10.0.0.0/30"));
  EXPECT_EQ(topo.node(a).primary_address(), Ipv4Address(10, 0, 0, 1));
}

}  // namespace
}  // namespace mantra::net
