// Binary radix (Patricia) trie keyed by CIDR prefix, supporting exact match,
// longest-prefix match, covering matches and ordered traversal.
//
// Used by the unicast RIB (RPF lookups), the DVMRP route table and the MBGP
// Loc-RIB of every simulated router.
//
// Layout: the nodes sit in one contiguous vector and name their children by
// 32-bit index (0 = none; node 0 is the root, 0.0.0.0/0, and is never a
// child). Paths are compressed: each node holds its whole prefix, and every
// node but the root either holds an entry or forks into two children, so n
// entries take at most 2n nodes besides the root. Nodes hold no values: an
// entry's node names a slot in one dense value vector. `erase` moves the
// last value into the freed slot, prunes the emptied branch and puts its
// nodes on a free list (linked through child[0]) that `insert` reuses.
//
// Pointers to values stay valid until the next insert or erase.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"

namespace mantra::net {

template <typename Value>
class PrefixTrie {
 public:
  PrefixTrie() : nodes_(1) {}

  /// Inserts or replaces the value for `prefix`. Returns true if the entry
  /// was newly created, false if an existing value was replaced.
  bool insert(const Prefix& prefix, Value value) {
    std::uint32_t at = 0;
    while (nodes_[at].prefix.length() < prefix.length()) {
      const int bit = branch(prefix, nodes_[at].prefix.length());
      const std::uint32_t next = nodes_[at].child[bit];
      if (next == 0 || !nodes_[next].prefix.contains(prefix)) {
        at = graft(at, bit, prefix);
        break;
      }
      at = next;
    }
    Node& node = nodes_[at];
    if (node.slot != kNoSlot) {
      values_[node.slot] = std::move(value);
      return false;
    }
    node.slot = static_cast<std::uint32_t>(values_.size());
    values_.push_back(std::move(value));
    owners_.push_back(at);
    return true;
  }

  /// Removes the exact entry. Returns true if it existed.
  bool erase(const Prefix& prefix) {
    std::uint32_t grandparent = 0;
    std::uint32_t parent = 0;
    std::uint32_t at = 0;
    while (nodes_[at].prefix.length() < prefix.length()) {
      const std::uint32_t next = nodes_[at].child[branch(prefix, nodes_[at].prefix.length())];
      if (next == 0) return false;
      grandparent = parent;
      parent = at;
      at = next;
    }
    if (nodes_[at].prefix != prefix || nodes_[at].slot == kNoSlot) return false;
    release(nodes_[at].slot);
    nodes_[at].slot = kNoSlot;
    prune(grandparent, parent, at);
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const Value* find(const Prefix& prefix) const {
    // The descent follows `prefix`'s bits without checking each node: once
    // it leaves the prefix's path, no node below equals `prefix`.
    std::uint32_t at = 0;
    while (nodes_[at].prefix.length() < prefix.length()) {
      at = nodes_[at].child[branch(prefix, nodes_[at].prefix.length())];
      if (at == 0) return nullptr;
    }
    const Node& node = nodes_[at];
    return node.prefix == prefix && node.slot != kNoSlot ? &values_[node.slot] : nullptr;
  }

  [[nodiscard]] Value* find(const Prefix& prefix) {
    return const_cast<Value*>(std::as_const(*this).find(prefix));
  }

  /// Visits the entries covering `addr`, shortest prefix first, in one
  /// descent; the filtered lookups (e.g. RPF skipping hold-down routes) use
  /// it to keep the deepest entry that qualifies without a vector.
  template <typename Fn>
  void visit_matches(Ipv4Address addr, Fn&& fn) const {
    std::uint32_t at = 0;
    do {
      const Node& node = nodes_[at];
      if (!node.prefix.contains(addr)) return;
      if (node.slot != kNoSlot) fn(node.prefix, values_[node.slot]);
      if (node.prefix.length() == 32) return;
      at = node.child[branch(addr, node.prefix.length())];
    } while (at != 0);
  }

  /// Longest-prefix match for a host address. Returns the matching prefix
  /// and a pointer to its value, or nullopt if nothing (not even a default
  /// route) covers the address.
  [[nodiscard]] std::optional<std::pair<Prefix, const Value*>> longest_match(
      Ipv4Address addr) const {
    std::optional<std::pair<Prefix, const Value*>> best;
    visit_matches(addr, [&best](const Prefix& prefix, const Value& value) {
      best.emplace(prefix, &value);
    });
    return best;
  }

  /// All entries covering `addr`, ordered shortest prefix first.
  [[nodiscard]] std::vector<std::pair<Prefix, const Value*>> all_matches(
      Ipv4Address addr) const {
    std::vector<std::pair<Prefix, const Value*>> out;
    visit_matches(addr, [&out](const Prefix& prefix, const Value& value) {
      out.emplace_back(prefix, &value);
    });
    return out;
  }

  /// Visits all entries in address order (pre-order over the trie, which for
  /// canonical prefixes is lexicographic by (address, length)). Templated so
  /// per-node calls inline instead of going through std::function.
  template <typename Fn>
  void visit(Fn&& fn) const {
    // A path holds at most 33 nodes (lengths 0..32 strictly increase), and
    // the stack holds one pending right child per node on the path plus the
    // two children just pushed.
    std::uint32_t stack[kMaxPending];
    std::size_t pending = 0;
    stack[pending++] = 0;
    while (pending != 0) {
      const Node& node = nodes_[stack[--pending]];
      if (node.slot != kNoSlot) fn(node.prefix, values_[node.slot]);
      if (node.child[1] != 0) stack[pending++] = node.child[1];
      if (node.child[0] != 0) stack[pending++] = node.child[0];
    }
  }

  /// Collects all (prefix, value) pairs in address order.
  [[nodiscard]] std::vector<std::pair<Prefix, Value>> entries() const {
    std::vector<std::pair<Prefix, Value>> out;
    out.reserve(values_.size());
    visit([&out](const Prefix& p, const Value& v) { out.emplace_back(p, v); });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  /// Nodes in use, the root included (for tests of the layout's bounds).
  [[nodiscard]] std::size_t node_count() const {
    std::size_t free_nodes = 0;
    for (std::uint32_t at = free_; at != 0; at = nodes_[at].child[0]) ++free_nodes;
    return nodes_.size() - free_nodes;
  }

  void clear() {
    nodes_.assign(1, Node{});
    values_.clear();
    owners_.clear();
    free_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::size_t kMaxPending = 35;

  struct Node {
    Prefix prefix;
    std::uint32_t child[2] = {0, 0};
    std::uint32_t slot = kNoSlot;  ///< index into values_, or kNoSlot
  };

  /// The bit of `key` just below the first `depth` bits (depth < 32).
  static int branch(Ipv4Address key, int depth) {
    return static_cast<int>((key.value() >> (31 - depth)) & 1);
  }
  static int branch(const Prefix& key, int depth) { return branch(key.address(), depth); }

  /// Hangs `prefix` below `parent` on side `bit`, where no node covering it
  /// exists yet, and returns its node: a new leaf, a node spliced in above
  /// the child it covers, or a leaf under a new fork shared with that child.
  std::uint32_t graft(std::uint32_t parent, int bit, const Prefix& prefix) {
    const std::uint32_t next = nodes_[parent].child[bit];
    if (next == 0) {
      const std::uint32_t leaf = make_node(prefix);
      nodes_[parent].child[bit] = leaf;
      return leaf;
    }
    const Prefix sibling = nodes_[next].prefix;  // a copy: make_node may grow nodes_
    const int common = std::min(
        prefix.length(),
        std::countl_zero(sibling.address().value() ^ prefix.address().value()));
    const std::uint32_t fork = make_node(Prefix(prefix.address(), common));
    nodes_[fork].child[branch(sibling, common)] = next;
    nodes_[parent].child[bit] = fork;
    if (common == prefix.length()) return fork;
    const std::uint32_t leaf = make_node(prefix);
    nodes_[fork].child[branch(prefix, common)] = leaf;
    return leaf;
  }

  std::uint32_t make_node(const Prefix& prefix) {
    std::uint32_t at = free_;
    if (at != 0) {
      free_ = nodes_[at].child[0];
      nodes_[at] = Node{};
    } else {
      at = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[at].prefix = prefix;
    return at;
  }

  void free_node(std::uint32_t at) {
    nodes_[at] = Node{};
    nodes_[at].child[0] = free_;
    free_ = at;
  }

  /// Drops the value in `slot`, moving the last value into its place.
  void release(std::uint32_t slot) {
    const auto last = static_cast<std::uint32_t>(values_.size() - 1);
    if (slot != last) {
      values_[slot] = std::move(values_[last]);
      owners_[slot] = owners_[last];
      nodes_[owners_[slot]].slot = slot;
    }
    values_.pop_back();
    owners_.pop_back();
  }

  /// Points `parent`'s link to `from` at `to`.
  void relink(std::uint32_t parent, std::uint32_t from, std::uint32_t to) {
    Node& node = nodes_[parent];
    node.child[node.child[0] == from ? 0 : 1] = to;
  }

  /// `at` just lost its value: unless it still forks, splice it out, and
  /// splice out its parent too if that leaves the parent a one-child node
  /// without a value.
  void prune(std::uint32_t grandparent, std::uint32_t parent, std::uint32_t at) {
    if (at == 0) return;  // the root stays
    const Node& node = nodes_[at];
    if (node.child[0] != 0 && node.child[1] != 0) return;
    const std::uint32_t heir = node.child[0] != 0 ? node.child[0] : node.child[1];
    relink(parent, at, heir);
    free_node(at);
    if (heir != 0 || parent == 0 || nodes_[parent].slot != kNoSlot) return;
    const Node& fork = nodes_[parent];
    relink(grandparent, parent, fork.child[0] != 0 ? fork.child[0] : fork.child[1]);
    free_node(parent);
  }

  std::vector<Node> nodes_;
  std::vector<Value> values_;
  std::vector<std::uint32_t> owners_;  ///< node index of each value slot
  std::uint32_t free_ = 0;             ///< head of the free-node list
};

}  // namespace mantra::net
