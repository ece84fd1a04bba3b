#include "graph/io.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "support/contracts.h"

namespace rumor {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "n " << g.node_count() << "\n";
  g.for_each_edge([&](NodeId u, NodeId v) { os << u << " " << v << "\n"; });
}

namespace {

// True when only whitespace is left on the line.
bool at_line_end(std::istringstream& ss) {
  ss >> std::ws;
  return ss.eof();
}

// Reads one edge-list block; stops at EOF or a "--" separator (consumed).
// Returns false if the stream held no block at all.
bool read_block(std::istream& is, NodeId& n, std::vector<Edge>& edges, bool& saw_separator) {
  n = -1;
  edges.clear();
  saw_separator = false;
  std::string line;
  bool saw_any = false;
  while (std::getline(is, line)) {
    if (line == "--") {
      saw_separator = true;
      break;
    }
    if (line.empty() || line[0] == '#') continue;
    saw_any = true;
    std::istringstream ss(line);
    if (line[0] == 'n') {
      std::string tag;
      ss >> tag >> n;
      DG_REQUIRE(tag == "n" && !ss.fail() && n >= 0 && at_line_end(ss),
                 "malformed edge-list header (want 'n <count>'): " + line);
      continue;
    }
    NodeId u = 0, v = 0;
    ss >> u >> v;
    DG_REQUIRE(!ss.fail() && at_line_end(ss), "malformed edge line: " + line);
    edges.push_back({u, v});
  }
  return saw_any;
}

}  // namespace

Graph read_edge_list(std::istream& is) {
  NodeId n = -1;
  std::vector<Edge> edges;
  bool sep = false;
  DG_REQUIRE(read_block(is, n, edges, sep), "stream held no edge list");
  DG_REQUIRE(n >= 0, "edge list missing the 'n <count>' header");
  return Graph(n, std::move(edges));
}

void write_trace(std::ostream& os, const std::vector<Graph>& graphs) {
  DG_REQUIRE(!graphs.empty(), "trace must hold at least one graph");
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (i > 0) os << "--\n";
    write_edge_list(os, graphs[i]);
  }
}

std::vector<Graph> read_trace(std::istream& is) {
  std::vector<Graph> graphs;
  NodeId n_first = -1;
  for (;;) {
    NodeId n = -1;
    std::vector<Edge> edges;
    bool sep = false;
    const bool any = read_block(is, n, edges, sep);
    if (!any && !sep) break;
    if (any) {
      if (n_first < 0) {
        DG_REQUIRE(n >= 0, "first trace block missing the 'n <count>' header");
        n_first = n;
      }
      const NodeId use = n >= 0 ? n : n_first;
      DG_REQUIRE(use == n_first, "all trace blocks must share the node count");
      graphs.emplace_back(use, std::move(edges));
    }
    if (!sep) break;
  }
  DG_REQUIRE(!graphs.empty(), "stream held no trace");
  return graphs;
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  DG_REQUIRE(out.good(), "cannot open for writing: " + path);
  write_edge_list(out, g);
}

Graph load_graph(const std::string& path) {
  std::ifstream in(path);
  DG_REQUIRE(in.good(), "cannot open for reading: " + path);
  return read_edge_list(in);
}

void save_trace(const std::string& path, const std::vector<Graph>& graphs) {
  std::ofstream out(path);
  DG_REQUIRE(out.good(), "cannot open for writing: " + path);
  write_trace(out, graphs);
}

std::vector<Graph> load_trace(const std::string& path) {
  std::ifstream in(path);
  DG_REQUIRE(in.good(), "cannot open for reading: " + path);
  return read_trace(in);
}

}  // namespace rumor
