// Tests for graph/trace serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/builders.h"
#include "graph/io.h"

namespace rumor {
namespace {

TEST(EdgeList, RoundTrips) {
  const Graph g = make_pendant_clique(5);
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back.node_count(), g.node_count());
  EXPECT_EQ(back.edge_count(), g.edge_count());
  for (std::size_t i = 0; i < g.edges().size(); ++i)
    EXPECT_TRUE(g.edges()[i] == back.edges()[i]);
}

TEST(EdgeList, CommentsAndHeaderParsed) {
  std::stringstream ss("# a comment\nn 4\n0 1\n2 3\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 2);
}

// Parses `text` and reports whether it failed with std::invalid_argument
// whose message contains `want`.
::testing::AssertionResult RejectedWith(const std::string& text, const std::string& want) {
  std::stringstream ss(text);
  try {
    (void)read_edge_list(ss);
  } catch (const std::invalid_argument& e) {
    if (std::string(e.what()).find(want) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "wrong message: " << e.what();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "unnamed error: " << e.what();
  }
  return ::testing::AssertionFailure() << "accepted";
}

TEST(EdgeList, MissingHeaderRejected) {
  EXPECT_TRUE(RejectedWith("0 1\n", "missing the 'n <count>' header"));
  // A header whose count does not parse, or that is not the tag "n" at all,
  // must not read as n = 0.
  EXPECT_TRUE(RejectedWith("n abc\n", "malformed edge-list header"));
  EXPECT_TRUE(RejectedWith("nonsense\n", "malformed edge-list header"));
  EXPECT_TRUE(RejectedWith("n -3\n", "malformed edge-list header"));
  // Out of NodeId range: a named error, not a saturated count and bad_alloc.
  EXPECT_TRUE(RejectedWith("n 99999999999\n", "malformed edge-list header"));
  EXPECT_TRUE(RejectedWith("n 3 7\n", "malformed edge-list header"));
}

TEST(EdgeList, MalformedLineRejected) {
  EXPECT_TRUE(RejectedWith("n 4\n0 x\n", "malformed edge line"));
  // Trailing tokens are rejected, not silently dropped.
  EXPECT_TRUE(RejectedWith("n 3\n0 1 junk\n", "malformed edge line"));
  EXPECT_TRUE(RejectedWith("1 2 7", "malformed edge line"));
  EXPECT_TRUE(RejectedWith("n 3\n1 2 7", "malformed edge line"));
  // Trailing whitespace (including a CRLF line end) is still fine.
  std::stringstream ss("n 3 \r\n0 1\t\r\n1 2  \n");
  EXPECT_EQ(read_edge_list(ss).edge_count(), 2);
}

TEST(EdgeList, EmptyStreamRejected) {
  std::stringstream ss("");
  EXPECT_THROW(read_edge_list(ss), std::invalid_argument);
}

TEST(Trace, RoundTrips) {
  std::vector<Graph> graphs;
  graphs.push_back(make_star(6));
  graphs.push_back(make_cycle(6));
  graphs.push_back(Graph(6, {}));  // empty step allowed
  std::stringstream ss;
  write_trace(ss, graphs);
  const auto back = read_trace(ss);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].edge_count(), 5);
  EXPECT_EQ(back[1].edge_count(), 6);
  EXPECT_EQ(back[2].edge_count(), 0);
  for (const auto& g : back) EXPECT_EQ(g.node_count(), 6);
}

TEST(Trace, MismatchedNodeCountsRejected) {
  std::stringstream ss("n 4\n0 1\n--\nn 5\n0 1\n");
  EXPECT_THROW(read_trace(ss), std::invalid_argument);
}

TEST(Trace, LaterBlocksInheritNodeCount) {
  std::stringstream ss("n 4\n0 1\n--\n2 3\n");
  const auto graphs = read_trace(ss);
  ASSERT_EQ(graphs.size(), 2u);
  EXPECT_EQ(graphs[1].node_count(), 4);
  EXPECT_TRUE(graphs[1].has_edge(2, 3));
}

TEST(Files, SaveAndLoad) {
  const std::string path = "/tmp/dynagossip_io_test.graph";
  const Graph g = make_clique(5);
  save_graph(path, g);
  const Graph back = load_graph(path);
  EXPECT_EQ(back.edge_count(), 10);
  std::remove(path.c_str());

  const std::string trace_path = "/tmp/dynagossip_io_test.trace";
  save_trace(trace_path, {make_star(4), make_path(4)});
  const auto trace = load_trace(trace_path);
  EXPECT_EQ(trace.size(), 2u);
  std::remove(trace_path.c_str());

  EXPECT_THROW(load_graph("/nonexistent/nope.graph"), std::invalid_argument);
}

}  // namespace
}  // namespace rumor
