// Graph and dynamic-trace serialization.
//
// Edge-list format (one graph): optional comment lines starting with '#',
// then "n <node-count>", then one "u v" pair per line.
// Trace format (a dynamic network): the concatenation of edge-list blocks
// separated by lines containing only "--"; all blocks share the node count
// declared in the first block.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace rumor {

void write_edge_list(std::ostream& os, const Graph& g);
Graph read_edge_list(std::istream& is);

void write_trace(std::ostream& os, const std::vector<Graph>& graphs);
std::vector<Graph> read_trace(std::istream& is);

// File-path conveniences (throw on I/O failure).
void save_graph(const std::string& path, const Graph& g);
Graph load_graph(const std::string& path);
void save_trace(const std::string& path, const std::vector<Graph>& graphs);
std::vector<Graph> load_trace(const std::string& path);

}  // namespace rumor
