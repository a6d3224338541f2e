#include "tgcover/io/svg.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "tgcover/io/network_io.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::io {

void render_network_svg(const graph::Graph& g, const geom::Embedding& positions,
                        const std::vector<NodeRole>& roles,
                        const util::Gf2Vector& cb, const std::string& path,
                        const SvgStyle& style) {
  TGC_CHECK(positions.size() == g.num_vertices());
  TGC_CHECK(roles.size() == g.num_vertices());
  TGC_CHECK(cb.size() == 0 || cb.size() == g.num_edges());

  // Bounding box of the drawing.
  double xmin = std::numeric_limits<double>::infinity();
  double ymin = xmin;
  double xmax = -xmin;
  double ymax = -xmin;
  for (const auto& p : positions) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  const double margin = 0.05 * std::max(xmax - xmin, ymax - ymin) + 1e-9;
  xmin -= margin;
  ymin -= margin;
  xmax += margin;
  ymax += margin;
  const double scale = style.canvas_px / (xmax - xmin);
  const double height_px = (ymax - ymin) * scale;

  auto X = [&](double x) { return (x - xmin) * scale; };
  auto Y = [&](double y) { return height_px - (y - ymin) * scale; };  // y-up

  std::ofstream out = open_out(path);
  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << style.canvas_px << "\" height=\"" << height_px << "\" viewBox=\"0 0 "
      << style.canvas_px << ' ' << height_px << "\">\n";
  out << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  auto visible = [&](graph::VertexId v) {
    return roles[v] != NodeRole::kHidden &&
           (style.draw_deleted || roles[v] != NodeRole::kDeleted);
  };

  if (style.draw_edges) {
    out << "<g stroke=\"" << style.edge_color << "\" stroke-width=\"0.6\">\n";
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      if (cb.size() != 0 && cb.test(e)) continue;  // drawn later, emphasized
      const auto [u, v] = g.edge(e);
      if (!visible(u) || !visible(v)) continue;
      if (roles[u] == NodeRole::kDeleted || roles[v] == NodeRole::kDeleted) {
        continue;  // links of sleeping nodes are down
      }
      out << "<line x1=\"" << X(positions[u].x) << "\" y1=\""
          << Y(positions[u].y) << "\" x2=\"" << X(positions[v].x)
          << "\" y2=\"" << Y(positions[v].y) << "\"/>\n";
    }
    out << "</g>\n";
  }

  if (cb.size() != 0) {
    out << "<g stroke=\"" << style.cb_color << "\" stroke-width=\"2\">\n";
    cb.for_each_set_bit([&](std::size_t e) {
      const auto [u, v] = g.edge(static_cast<graph::EdgeId>(e));
      out << "<line x1=\"" << X(positions[u].x) << "\" y1=\""
          << Y(positions[u].y) << "\" x2=\"" << X(positions[v].x)
          << "\" y2=\"" << Y(positions[v].y) << "\"/>\n";
    });
    out << "</g>\n";
  }

  const double r = style.node_radius_px;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!visible(v)) continue;
    const double cx = X(positions[v].x);
    const double cy = Y(positions[v].y);
    switch (roles[v]) {
      case NodeRole::kBoundary:
        out << "<rect x=\"" << cx - r << "\" y=\"" << cy - r << "\" width=\""
            << 2 * r << "\" height=\"" << 2 * r << "\" fill=\""
            << style.boundary_color << "\"/>\n";
        break;
      case NodeRole::kActive:
        out << "<circle cx=\"" << cx << "\" cy=\"" << cy << "\" r=\"" << r
            << "\" fill=\"" << style.active_color << "\"/>\n";
        break;
      case NodeRole::kDeleted:
        out << "<circle cx=\"" << cx << "\" cy=\"" << cy << "\" r=\""
            << 0.75 * r << "\" fill=\"none\" stroke=\"" << style.deleted_color
            << "\" stroke-width=\"1\"/>\n";
        break;
      case NodeRole::kHidden:
        break;
    }
  }
  out << "</svg>\n";
  close_out(out, path);
}

}  // namespace tgc::io
