#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "mbgp/mbgp.hpp"

namespace mantra::mbgp {
namespace {

const net::Ipv4Address kSelf{10, 0, 0, 1};
const net::Ipv4Address kPeerA{10, 0, 0, 2};
const net::Ipv4Address kPeerB{10, 0, 0, 3};

net::Prefix P(const char* text) { return *net::Prefix::parse(text); }

class MbgpTest : public ::testing::Test {
 protected:
  std::unique_ptr<Mbgp> make(Config config = default_config()) {
    auto mbgp = std::make_unique<Mbgp>(engine_, kSelf, std::move(config));
    mbgp->set_send_update([this](net::Ipv4Address peer, const Update& update) {
      sent_[peer].push_back(update);
    });
    return mbgp;
  }

  static Config default_config() {
    Config config;
    config.local_as = 100;
    config.peers = {{kPeerA, 200}, {kPeerB, 300}};
    return config;
  }

  Update announce(net::Ipv4Address sender, net::Prefix prefix,
                  std::vector<AsNumber> path) {
    Update update;
    update.sender = sender;
    update.announce.push_back({prefix, std::move(path), sender});
    return update;
  }

  sim::Engine engine_;
  std::map<net::Ipv4Address, std::vector<Update>> sent_;
};

TEST_F(MbgpTest, StartAnnouncesOriginatedPrefixes) {
  Config config = default_config();
  config.originated = {P("10.5.0.0/16")};
  auto mbgp = make(std::move(config));
  mbgp->start();
  EXPECT_EQ(mbgp->route_count(), 1u);
  ASSERT_EQ(sent_[kPeerA].size(), 1u);
  ASSERT_EQ(sent_[kPeerB].size(), 1u);
  const Advertisement& advert = sent_[kPeerA][0].announce.at(0);
  EXPECT_EQ(advert.prefix, P("10.5.0.0/16"));
  EXPECT_EQ(advert.as_path, (std::vector<AsNumber>{100}));
  EXPECT_EQ(advert.next_hop, kSelf);
}

TEST_F(MbgpTest, LearnsAndPropagatesWithAsPrepend) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  EXPECT_EQ(mbgp->route_count(), 1u);
  // Propagated to B (not back to A), with our AS prepended.
  EXPECT_TRUE(sent_[kPeerA].empty());
  ASSERT_EQ(sent_[kPeerB].size(), 1u);
  EXPECT_EQ(sent_[kPeerB][0].announce.at(0).as_path,
            (std::vector<AsNumber>{100, 200}));
}

TEST_F(MbgpTest, AsPathLoopRejected) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200, 100, 300}));
  EXPECT_EQ(mbgp->route_count(), 0u);
}

TEST_F(MbgpTest, ShorterAsPathWins) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200, 400, 500}));
  mbgp->on_update(announce(kPeerB, P("10.9.0.0/16"), {300}));
  const Path* path = mbgp->rpf_lookup(net::Ipv4Address(10, 9, 1, 1));
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->learned_from, kPeerB);
}

TEST_F(MbgpTest, EqualLengthTiebreaksOnLowerPeer) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerB, P("10.9.0.0/16"), {300}));
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  const Path* path = mbgp->rpf_lookup(net::Ipv4Address(10, 9, 1, 1));
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->learned_from, kPeerA);
}

TEST_F(MbgpTest, LocalRouteBeatsLearned) {
  Config config = default_config();
  config.originated = {P("10.9.0.0/16")};
  auto mbgp = make(std::move(config));
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  const Path* path = mbgp->rpf_lookup(net::Ipv4Address(10, 9, 0, 1));
  ASSERT_NE(path, nullptr);
  EXPECT_TRUE(path->local);
}

TEST_F(MbgpTest, WithdrawRemovesAndPropagates) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  Update withdraw;
  withdraw.sender = kPeerA;
  withdraw.withdraw = {P("10.9.0.0/16")};
  mbgp->on_update(withdraw);
  EXPECT_EQ(mbgp->route_count(), 0u);
  ASSERT_EQ(sent_[kPeerB].size(), 2u);
  EXPECT_EQ(sent_[kPeerB][1].withdraw.size(), 1u);
}

TEST_F(MbgpTest, WithdrawFallsBackToSecondBest) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  mbgp->on_update(announce(kPeerB, P("10.9.0.0/16"), {300, 400}));
  Update withdraw;
  withdraw.sender = kPeerA;
  withdraw.withdraw = {P("10.9.0.0/16")};
  mbgp->on_update(withdraw);
  const Path* path = mbgp->rpf_lookup(net::Ipv4Address(10, 9, 0, 1));
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->learned_from, kPeerB);
}

TEST_F(MbgpTest, PeerDownFlushesItsRoutes) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  mbgp->on_update(announce(kPeerA, P("10.8.0.0/16"), {200}));
  EXPECT_EQ(mbgp->route_count(), 2u);
  mbgp->peer_down(kPeerA);
  EXPECT_EQ(mbgp->route_count(), 0u);
  // Updates from a down peer are ignored.
  mbgp->on_update(announce(kPeerA, P("10.7.0.0/16"), {200}));
  EXPECT_EQ(mbgp->route_count(), 0u);
}

TEST_F(MbgpTest, PeerUpReadvertisesLocRib) {
  Config config = default_config();
  config.originated = {P("10.5.0.0/16")};
  auto mbgp = make(std::move(config));
  mbgp->start();
  mbgp->peer_down(kPeerA);
  sent_.clear();
  mbgp->peer_up(kPeerA);
  ASSERT_EQ(sent_[kPeerA].size(), 1u);
  EXPECT_EQ(sent_[kPeerA][0].announce.at(0).prefix, P("10.5.0.0/16"));
}

TEST_F(MbgpTest, UnknownPeerUpdatesIgnored) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(net::Ipv4Address(9, 9, 9, 9), P("10.9.0.0/16"), {700}));
  EXPECT_EQ(mbgp->route_count(), 0u);
}

TEST_F(MbgpTest, ExportPolicySuppressesAdvertisement) {
  Config config = default_config();
  config.originated = {P("10.5.0.0/16")};
  config.export_policy = [](const net::Prefix&, const PeerConfig& peer) {
    return peer.address != kPeerB;  // never export to B
  };
  auto mbgp = make(std::move(config));
  mbgp->start();
  EXPECT_EQ(sent_[kPeerA].size(), 1u);
  EXPECT_TRUE(sent_[kPeerB].empty());
}

TEST_F(MbgpTest, RpfLookupUsesLongestMatch) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.0.0.0/8"), {200}));
  mbgp->on_update(announce(kPeerB, P("10.9.0.0/16"), {300}));
  const Path* broad = mbgp->rpf_lookup(net::Ipv4Address(10, 1, 1, 1));
  const Path* narrow = mbgp->rpf_lookup(net::Ipv4Address(10, 9, 1, 1));
  ASSERT_TRUE(broad && narrow);
  EXPECT_EQ(broad->learned_from, kPeerA);
  EXPECT_EQ(narrow->learned_from, kPeerB);
  EXPECT_EQ(mbgp->rpf_lookup(net::Ipv4Address(11, 0, 0, 1)), nullptr);
  // The lookup points into the Loc-RIB rather than copying the path.
  const Path* stored = nullptr;
  mbgp->visit_loc_rib([&](const net::Prefix& prefix, const Path& path) {
    if (prefix == P("10.9.0.0/16")) stored = &path;
  });
  EXPECT_EQ(narrow, stored);
}

TEST_F(MbgpTest, DuplicateAnnouncementDoesNotRepropagate) {
  auto mbgp = make();
  mbgp->start();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  const auto sent_before = sent_[kPeerB].size();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  EXPECT_EQ(sent_[kPeerB].size(), sent_before);
}

TEST_F(MbgpTest, BestPathChangeCounterAdvances) {
  auto mbgp = make();
  mbgp->start();
  const auto before = mbgp->best_path_changes();
  mbgp->on_update(announce(kPeerA, P("10.9.0.0/16"), {200}));
  EXPECT_EQ(mbgp->best_path_changes(), before + 1);
}

}  // namespace
}  // namespace mantra::mbgp
