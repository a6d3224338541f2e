#include "tgcover/io/network_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"

namespace tgc::io {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  TGC_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  return out;
}

void close_out(std::ofstream& out, const std::string& path) {
  out.close();
  TGC_CHECK_MSG(!out.fail(), "cannot write '" << path << "'");
}

namespace {

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  TGC_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  return in;
}

/// The line reader behind both formats. It skips blank and `#` lines,
/// numbers lines for messages, and parses a line's fields whole: a missing,
/// malformed, out-of-range or trailing field is refused, never read as 0.
class LineReader {
 public:
  LineReader(std::istream& in, std::string name)
      : in_(in), name_(std::move(name)) {}

  /// Advances to the next content line; false (and no tokens) at the end.
  bool next() {
    tokens_.clear();
    for (std::string line; tokens_.empty() && std::getline(in_, line);) {
      ++line_number_;
      if (!line.empty() && line[0] == '#') continue;
      std::istringstream ls(line);
      for (std::string token; ls >> token;) tokens_.push_back(token);
    }
    return !tokens_.empty();
  }

  /// The current line's keyword ("<end of file>" past the last line).
  std::string_view head() const {
    return tokens_.empty() ? std::string_view("<end of file>") : tokens_[0];
  }

  /// Refuses the current line unless its keyword is `keyword`.
  void require(std::string_view keyword) const {
    TGC_CHECK_MSG(head() == keyword, where() << ": expected '" << keyword
                                             << "', got '" << head() << "'");
  }

  /// Reads the next line as `keyword out...`.
  template <typename... T>
  void read(std::string_view keyword, T&... out) {
    next();
    require(keyword);
    fields(out...);
  }

  /// Reads the `<keyword> 1` first line (the only format version).
  void header(std::string_view keyword) {
    int version = 0;
    read(keyword, version);
    TGC_CHECK_MSG(version == 1, where() << ": unsupported " << keyword
                                        << " version " << version);
  }

  /// Parses the current line's fields after the keyword into `out...`, each
  /// a whole decimal token (finite for floating-point fields).
  template <typename... T>
  void fields(T&... out) {
    TGC_CHECK_MSG(tokens_.size() == 1 + sizeof...(T),
                  where() << ": '" << head() << "' takes " << sizeof...(T)
                          << " field(s), got " << tokens_.size() - 1);
    std::size_t i = 0;
    const auto parse = [&](auto& field) {
      const std::string& token = tokens_[++i];
      TGC_CHECK_MSG(util::parse_whole(token, field) &&
                        std::isfinite(static_cast<double>(field)),
                    where() << ": bad value '" << token << "' in '" << head()
                            << "' line");
    };
    (parse(out), ...);
  }

  /// "<name>, line <n>": every message's prefix.
  std::string where() const {
    return name_ + ", line " + std::to_string(line_number_);
  }
  std::size_t line_number() const { return line_number_; }
  const std::string& name() const { return name_; }

 private:
  std::istream& in_;
  std::string name_;
  std::vector<std::string> tokens_;
  std::size_t line_number_ = 0;
};

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
  close_out(out, path);
}

namespace {

gen::Deployment load_deployment(LineReader r) {
  gen::Deployment dep;
  r.header("tgcover-network");
  std::size_t n = 0;
  r.read("nodes", n);
  r.read("rc", dep.rc);
  r.read("area", dep.area.xmin, dep.area.ymin, dep.area.xmax, dep.area.ymax);
  {
    // Grow the positions as `pos` lines arrive and check the count against
    // the header afterwards: a corrupted `nodes` line must never size an
    // allocation on its own.
    struct PosLine {
      std::size_t id;
      geom::Point p;
      std::size_t line;
    };
    std::vector<PosLine> pos;
    for (r.next(); r.head() == "pos"; r.next()) {
      PosLine line{0, {}, r.line_number()};
      r.fields(line.id, line.p.x, line.p.y);
      pos.push_back(line);
    }
    TGC_CHECK_MSG(pos.size() == n, r.name() << ": header declares " << n
                                            << " nodes, file has "
                                            << pos.size() << " pos lines");
    dep.positions.resize(n);
    std::vector<bool> seen(n, false);
    for (const PosLine& line : pos) {
      TGC_CHECK_MSG(line.id < n && !seen[line.id],
                    r.name() << ", line " << line.line
                             << ": bad or duplicate pos id " << line.id);
      seen[line.id] = true;
      dep.positions[line.id] = line.p;
    }
  }
  r.require("edges");
  std::size_t m = 0;
  r.fields(m);
  graph::GraphBuilder builder(n);
  for (std::size_t i = 0; i < m; ++i) {
    graph::VertexId u = 0;
    graph::VertexId v = 0;
    r.read("e", u, v);
    TGC_CHECK_MSG(u < n && v < n && builder.add_edge(u, v),
                  r.where() << ": duplicate or invalid edge (" << u << ","
                            << v << ")");
  }
  TGC_CHECK_MSG(!r.next(), r.where() << ": '" << r.head() << "' after the "
                                     << m << " declared edges");
  dep.graph = builder.build();
  return dep;
}

std::vector<bool> load_mask(LineReader r, std::size_t nodes) {
  r.header("tgcover-mask");
  std::size_t n = 0;
  r.read("nodes", n);
  // Checked before anything is allocated: a corrupted header must not size
  // a 2^32-bit mask.
  TGC_CHECK_MSG(n == nodes, r.name() << " has " << n
                                     << " nodes but the network has " << nodes
                                     << " (" << r.where() << ")");
  std::vector<bool> mask(n, false);
  while (r.next()) {
    std::size_t id = 0;
    r.require("set");
    r.fields(id);
    TGC_CHECK_MSG(id < n, r.where() << ": mask id " << id << " out of range");
    mask[id] = true;
  }
  return mask;
}

}  // namespace

gen::Deployment load_deployment(std::istream& in) {
  return load_deployment(LineReader(in, "network"));
}

gen::Deployment load_deployment(const std::string& path) {
  auto in = open_in(path);
  return load_deployment(LineReader(in, "network '" + path + "'"));
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
  close_out(out, path);
}

std::uint64_t mask_digest(const std::vector<bool>& mask) {
  std::ostringstream serialized;
  save_mask(mask, serialized);
  return util::fnv1a64(serialized.str());
}

std::vector<bool> load_mask(std::istream& in, std::size_t nodes) {
  return load_mask(LineReader(in, "mask"), nodes);
}

std::vector<bool> load_mask(const std::string& path, std::size_t nodes) {
  auto in = open_in(path);
  return load_mask(LineReader(in, "mask '" + path + "'"), nodes);
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
  close_out(out, path);
}

}  // namespace tgc::io
