#include "features/domain_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {
namespace {

TEST(DomainTreeTest, InsertMarksOnlyExactNodeBlack) {
  DomainNameTree tree;
  tree.insert(DomainName("a.example.com"));
  EXPECT_EQ(tree.black_count(), 1u);
  EXPECT_TRUE(tree.find(DomainName("a.example.com"))->black);
  EXPECT_FALSE(tree.find(DomainName("example.com"))->black);
  EXPECT_FALSE(tree.find(DomainName("com"))->black);
}

TEST(DomainTreeTest, DuplicateInsertIsIdempotent) {
  DomainNameTree tree;
  tree.insert(DomainName("a.example.com"));
  tree.insert(DomainName("a.example.com"));
  EXPECT_EQ(tree.black_count(), 1u);
}

TEST(DomainTreeTest, ResolvedCountIsKeptAtInsertAndSurvivesDecolor) {
  DomainNameTree tree;
  tree.insert(DomainName("a.example.com"));
  tree.insert(DomainName("a.example.com"));
  tree.insert(DomainName("b.example.com"));
  EXPECT_EQ(tree.resolved_count(), 2u);
  DomainNameTree::decolor(*tree.find(DomainName("a.example.com")));
  EXPECT_EQ(tree.black_count(), 1u);
  EXPECT_EQ(tree.resolved_count(), 2u);
  EXPECT_TRUE(tree.find(DomainName("a.example.com"))->resolved);
  EXPECT_FALSE(tree.find(DomainName("example.com"))->resolved);

  // A merge carries resolved bits (decolored ones included) once.
  DomainNameTree other;
  other.insert(DomainName("b.example.com"));
  other.insert(DomainName("c.example.com"));
  tree.merge_from(other);
  EXPECT_EQ(tree.resolved_count(), 3u);
  std::size_t visited = 0;
  std::size_t resolved = 0;
  tree.for_each_node([&](const DomainNameTree::Node& node) {
    ++visited;
    if (node.resolved) ++resolved;
  });
  EXPECT_EQ(visited, tree.node_count());
  EXPECT_EQ(resolved, tree.resolved_count());
}

TEST(DomainTreeTest, NodeCountAndSharing) {
  DomainNameTree tree;
  tree.insert(DomainName("a.example.com"));
  tree.insert(DomainName("b.example.com"));
  // root + com + example + a + b
  EXPECT_EQ(tree.node_count(), 5u);
}

TEST(DomainTreeTest, FindMissing) {
  DomainNameTree tree;
  tree.insert(DomainName("a.example.com"));
  EXPECT_EQ(tree.find(DomainName("z.example.com")), nullptr);
  EXPECT_EQ(tree.find(DomainName("a.example.org")), nullptr);
}

TEST(DomainTreeTest, FullNameReconstruction) {
  DomainNameTree tree;
  const auto& node = tree.insert(DomainName("i.1.a.example.com"));
  EXPECT_EQ(DomainNameTree::full_name(node), "i.1.a.example.com");
  EXPECT_EQ(DomainNameTree::full_name(tree.root()), "");
  EXPECT_EQ(DomainNameTree::full_name(*tree.find(DomainName("com"))), "com");
}

TEST(DomainTreeTest, DepthIsLabelCount) {
  DomainNameTree tree;
  const auto& node = tree.insert(DomainName("i.1.a.example.com"));
  EXPECT_EQ(node.depth, 5u);
  EXPECT_EQ(tree.find(DomainName("example.com"))->depth, 2u);
  EXPECT_EQ(tree.root().depth, 0u);
}

DomainNameTree paper_example_tree() {
  // The exact example of the paper's Fig. 8.
  DomainNameTree tree;
  tree.insert(DomainName("a.example.com"));
  tree.insert(DomainName("i.1.a.example.com"));
  tree.insert(DomainName("2.a.example.com"));
  tree.insert(DomainName("3.a.example.com"));
  tree.insert(DomainName("4.b.example.com"));
  tree.insert(DomainName("c.example.com"));
  return tree;
}

TEST(DomainTreeTest, PaperFig8Groups) {
  DomainNameTree tree = paper_example_tree();
  auto* zone = tree.find(DomainName("example.com"));
  ASSERT_NE(zone, nullptr);
  const auto groups = tree.black_descendants_by_depth(*zone);
  // G3 = {a, c}, G4 = {2.a, 3.a, 4.b}, G5 = {i.1.a}.
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.at(3).size(), 2u);
  EXPECT_EQ(groups.at(4).size(), 3u);
  EXPECT_EQ(groups.at(5).size(), 1u);
  std::vector<std::string> g3;
  for (const auto* node : groups.at(3)) {
    g3.push_back(DomainNameTree::full_name(*node));
  }
  std::sort(g3.begin(), g3.end());
  EXPECT_EQ(g3, (std::vector<std::string>{"a.example.com", "c.example.com"}));
}

TEST(DomainTreeTest, DecolorMatchesPaperFig9) {
  DomainNameTree tree = paper_example_tree();
  auto* zone = tree.find(DomainName("example.com"));
  auto groups = tree.black_descendants_by_depth(*zone);
  // Decolor G3 (a.example.com, c.example.com) as the paper's example does.
  for (auto* node : groups.at(3)) tree.decolor(*node);
  EXPECT_EQ(tree.black_count(), 4u);
  const auto after = tree.black_descendants_by_depth(*zone);
  EXPECT_FALSE(after.contains(3));
  EXPECT_EQ(after.at(4).size(), 3u);
  // Decoloring twice is harmless.
  tree.decolor(*tree.find(DomainName("a.example.com")));
  EXPECT_EQ(tree.black_count(), 4u);
}

TEST(DomainTreeTest, HasBlackDescendant) {
  DomainNameTree tree = paper_example_tree();
  EXPECT_TRUE(DomainNameTree::has_black_descendant(
      *tree.find(DomainName("example.com"))));
  EXPECT_TRUE(DomainNameTree::has_black_descendant(
      *tree.find(DomainName("a.example.com"))));
  // c.example.com is black itself but has no black *descendants*.
  EXPECT_FALSE(DomainNameTree::has_black_descendant(
      *tree.find(DomainName("c.example.com"))));
}

TEST(DomainTreeTest, Effective2ldNodes) {
  DomainNameTree tree;
  tree.insert(DomainName("www.example.com"));
  tree.insert(DomainName("shop.foo.co.uk"));
  tree.insert(DomainName("x.bar.co.uk"));
  const auto zones = tree.effective_2ld_nodes(PublicSuffixList::builtin());
  std::vector<std::string> names;
  for (const auto* node : zones) {
    names.push_back(DomainNameTree::full_name(*node));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"bar.co.uk", "example.com",
                                             "foo.co.uk"}));
}

TEST(DomainTreeTest, Effective2ldSkipsBarePublicSuffixes) {
  DomainNameTree tree;
  tree.insert(DomainName("com"));      // a public suffix queried directly
  tree.insert(DomainName("a.b.com"));
  const auto zones = tree.effective_2ld_nodes(PublicSuffixList::builtin());
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(DomainNameTree::full_name(*zones[0]), "b.com");
}

TEST(DomainTreeTest, ChildOrderMatchesSortedMapReference) {
  // The flat edge-map tree sorts children lazily; traversal order must be
  // indistinguishable from the historical std::map<std::string, Node>
  // layout for every node, or miner output would reshuffle.
  Rng rng(0x7ee);
  DomainNameTree tree;
  std::vector<std::string> inserted;
  for (int i = 0; i < 400; ++i) {
    std::string name = rng.hex_string(2 + rng.below(8));
    name += ".h";
    name += std::to_string(rng.below(12));
    name += rng.chance(0.5) ? ".alpha.test" : ".beta.test";
    tree.insert(DomainName(name));
    inserted.push_back(std::move(name));
  }
  // Reference: the labels of every parent, ordered as std::map would order
  // its keys (lexicographic operator<).
  using HostMap = std::map<std::string, std::set<std::string>>;
  std::map<std::string, std::map<std::string, HostMap>> reference;
  for (const std::string& name : inserted) {
    const DomainName parsed(name);  // labels: hex.h<N>.<alpha|beta>.test
    reference[std::string(parsed.label_from_right(0))]
             [std::string(parsed.label_from_right(1))]
             [std::string(parsed.label_from_right(2))]
                 .insert(std::string(parsed.label(0)));
  }
  ASSERT_EQ(tree.root().children().size(), reference.size());
  std::size_t t = 0;
  for (const auto& [tld, seconds] : reference) {
    const DomainNameTree::Node* tld_node = tree.root().children()[t++];
    ASSERT_EQ(tld_node->label, tld);
    ASSERT_EQ(tld_node->children().size(), seconds.size());
    std::size_t s = 0;
    for (const auto& [second, hosts] : seconds) {
      const DomainNameTree::Node* second_node = tld_node->children()[s++];
      ASSERT_EQ(second_node->label, second);
      ASSERT_EQ(second_node->children().size(), hosts.size());
      std::size_t h = 0;
      for (const auto& [host, leaves] : hosts) {
        const DomainNameTree::Node* host_node = second_node->children()[h++];
        ASSERT_EQ(host_node->label, host);
        ASSERT_EQ(host_node->children().size(), leaves.size());
        std::size_t l = 0;
        for (const std::string& leaf : leaves) {
          EXPECT_EQ(host_node->children()[l++]->label, leaf);
        }
      }
    }
  }
}

TEST(DomainTreeTest, GroupsAreScopedToTheZone) {
  DomainNameTree tree;
  tree.insert(DomainName("x.one.com"));
  tree.insert(DomainName("y.two.com"));
  auto* one = tree.find(DomainName("one.com"));
  const auto groups = tree.black_descendants_by_depth(*one);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.at(3).size(), 1u);
  EXPECT_EQ(DomainNameTree::full_name(*groups.at(3)[0]), "x.one.com");
}

}  // namespace
}  // namespace dnsnoise
