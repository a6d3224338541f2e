#include "tgcover/core/certificate.hpp"

#include <sstream>

#include "tgcover/util/args.hpp"

namespace tgc::core {

CertificateVerdict check_certificate(const graph::Graph& g,
                                     const std::vector<bool>& active,
                                     const std::vector<bool>& cb_edges,
                                     unsigned tau, std::istream& in) {
  const auto bad = [](std::size_t line, const std::string& why) {
    return CertificateVerdict{false, line, why};
  };
  std::vector<char> odd(g.num_edges(), 0);  // edge used an odd number of times
  std::string text;
  std::size_t line = 0;
  while (std::getline(in, text)) {
    ++line;
    if (text.rfind('#', 0) == 0) continue;
    std::istringstream tokens(text);
    std::string word;
    if (!(tokens >> word) || word != "cycle") {
      return bad(line, "expected 'cycle' followed by node ids");
    }
    std::vector<graph::VertexId> walk;
    while (tokens >> word) {
      graph::VertexId v = 0;
      if (!util::parse_whole(word, v) || v >= g.num_vertices()) {
        return bad(line, "'" + word + "' is not a node of the network");
      }
      if (!active[v]) return bad(line, "node " + word + " is asleep");
      walk.push_back(v);
    }
    if (walk.empty()) return bad(line, "the cycle lists no nodes");
    if (walk.size() > tau) {
      return bad(line, "the cycle has " + std::to_string(walk.size()) +
                           " edges, more than tau = " + std::to_string(tau));
    }
    for (std::size_t i = 0; i < walk.size(); ++i) {
      const graph::VertexId a = walk[i];
      const graph::VertexId b = walk[(i + 1) % walk.size()];
      const auto e = g.edge_between(a, b);
      if (!e) {
        return bad(line, "nodes " + std::to_string(a) + " and " +
                             std::to_string(b) + " are not adjacent");
      }
      odd[*e] ^= 1;
    }
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if ((odd[e] != 0) != cb_edges[e]) {
      const auto [a, b] = g.edge(e);
      return bad(0, "the cycles do not sum to the boundary: edge " +
                        std::to_string(a) + "-" + std::to_string(b) +
                        (cb_edges[e] ? " is a boundary edge covered an even"
                                     : " is not a boundary edge but covered "
                                       "an odd") +
                        " number of times");
    }
  }
  return CertificateVerdict{true, 0, ""};
}

}  // namespace tgc::core
