#include "tgcover/io/network_io.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"

namespace tgc::io {

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  TGC_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  TGC_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  return in;
}

/// Reads the next non-empty, non-comment line; its leading keyword lands in
/// `head`, the rest stays in the returned stream.
std::istringstream next_line(std::istream& in, std::string& head) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    ls >> head;
    return ls;
  }
  TGC_CHECK_MSG(false, "unexpected end of file");
  __builtin_unreachable();
}

/// Reads the next line and checks its leading keyword.
std::istringstream expect_line(std::istream& in, const std::string& keyword) {
  std::string head;
  std::istringstream ls = next_line(in, head);
  TGC_CHECK_MSG(head == keyword,
                "expected '" << keyword << "', got '" << head << "'");
  return ls;
}

}  // namespace

void save_deployment(const gen::Deployment& dep, std::ostream& out) {
  out << "tgcover-network 1\n";
  out << "nodes " << dep.graph.num_vertices() << '\n';
  out << std::setprecision(17);
  out << "rc " << dep.rc << '\n';
  out << "area " << dep.area.xmin << ' ' << dep.area.ymin << ' '
      << dep.area.xmax << ' ' << dep.area.ymax << '\n';
  for (graph::VertexId v = 0; v < dep.graph.num_vertices(); ++v) {
    out << "pos " << v << ' ' << dep.positions[v].x << ' '
        << dep.positions[v].y << '\n';
  }
  out << "edges " << dep.graph.num_edges() << '\n';
  for (graph::EdgeId e = 0; e < dep.graph.num_edges(); ++e) {
    const auto [u, v] = dep.graph.edge(e);
    out << "e " << u << ' ' << v << '\n';
  }
}

void save_deployment(const gen::Deployment& dep, const std::string& path) {
  auto out = open_out(path);
  save_deployment(dep, out);
}

gen::Deployment load_deployment(std::istream& in) {
  gen::Deployment dep;
  {
    auto ls = expect_line(in, "tgcover-network");
    int version = 0;
    ls >> version;
    TGC_CHECK_MSG(version == 1, "unsupported network format version "
                                    << version);
  }
  std::size_t n = 0;
  expect_line(in, "nodes") >> n;
  expect_line(in, "rc") >> dep.rc;
  {
    auto ls = expect_line(in, "area");
    ls >> dep.area.xmin >> dep.area.ymin >> dep.area.xmax >> dep.area.ymax;
  }
  // Grow the positions as `pos` lines arrive and check the count against
  // the header afterwards: a corrupted `nodes` line must never size an
  // allocation on its own.
  std::vector<std::pair<std::size_t, geom::Point>> pos;
  std::string head;
  std::istringstream ls = next_line(in, head);
  for (; head == "pos"; ls = next_line(in, head)) {
    std::size_t id = 0;
    geom::Point p;
    TGC_CHECK_MSG(ls >> id >> p.x >> p.y, "malformed pos line");
    pos.emplace_back(id, p);
  }
  TGC_CHECK_MSG(pos.size() == n, "header declares " << n << " nodes, file has "
                                                    << pos.size()
                                                    << " pos lines");
  dep.positions.resize(n);
  std::vector<bool> seen(n, false);
  for (const auto& [id, p] : pos) {
    TGC_CHECK_MSG(id < n && !seen[id], "bad or duplicate pos id " << id);
    seen[id] = true;
    dep.positions[id] = p;
  }
  TGC_CHECK_MSG(head == "edges", "expected 'edges', got '" << head << "'");
  std::size_t m = 0;
  ls >> m;
  graph::GraphBuilder builder(n);
  for (std::size_t i = 0; i < m; ++i) {
    auto ls = expect_line(in, "e");
    graph::VertexId u = 0;
    graph::VertexId v = 0;
    ls >> u >> v;
    TGC_CHECK_MSG(builder.add_edge(u, v),
                  "duplicate or invalid edge (" << u << "," << v << ")");
  }
  dep.graph = builder.build();
  return dep;
}

gen::Deployment load_deployment(const std::string& path) {
  auto in = open_in(path);
  return load_deployment(in);
}

void save_mask(const std::vector<bool>& mask, std::ostream& out) {
  out << "tgcover-mask 1\n";
  out << "nodes " << mask.size() << '\n';
  for (std::size_t v = 0; v < mask.size(); ++v) {
    if (mask[v]) out << "set " << v << '\n';
  }
}

void save_mask(const std::vector<bool>& mask, const std::string& path) {
  auto out = open_out(path);
  save_mask(mask, out);
}

std::uint64_t mask_digest(const std::vector<bool>& mask) {
  std::ostringstream serialized;
  save_mask(mask, serialized);
  return util::fnv1a64(serialized.str());
}

std::vector<bool> load_mask(std::istream& in) {
  {
    auto ls = expect_line(in, "tgcover-mask");
    int version = 0;
    ls >> version;
    TGC_CHECK_MSG(version == 1, "unsupported mask format version " << version);
  }
  std::size_t n = 0;
  expect_line(in, "nodes") >> n;
  // Node ids are 32-bit: a larger count is a corrupted header, not a mask.
  TGC_CHECK_MSG(n <= std::numeric_limits<graph::VertexId>::max(),
                "mask header declares " << n << " nodes");
  std::vector<bool> mask(n, false);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string head;
    std::size_t id = 0;
    ls >> head >> id;
    TGC_CHECK_MSG(head == "set", "expected 'set', got '" << head << "'");
    TGC_CHECK_MSG(id < n, "mask id " << id << " out of range");
    mask[id] = true;
  }
  return mask;
}

std::vector<bool> load_mask(const std::string& path) {
  auto in = open_in(path);
  return load_mask(in);
}

void save_roles_csv(const geom::Embedding& positions,
                    const std::vector<std::string>& roles,
                    const std::string& path) {
  TGC_CHECK(positions.size() == roles.size());
  auto out = open_out(path);
  out << "x,y,role\n" << std::setprecision(17);
  for (std::size_t v = 0; v < positions.size(); ++v) {
    out << positions[v].x << ',' << positions[v].y << ',' << roles[v] << '\n';
  }
}

}  // namespace tgc::io
