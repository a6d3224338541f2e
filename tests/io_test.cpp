#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tgcover/gen/deployments.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/io/svg.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::io {
namespace {

std::filesystem::path temp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("tgc_io_test_" + name);
}

TEST(NetworkIo, DeploymentRoundTrip) {
  util::Rng rng(81);
  const gen::Deployment original = gen::random_udg(120, 4.0, 1.0, rng);

  std::stringstream buffer;
  save_deployment(original, buffer);
  const gen::Deployment loaded = load_deployment(buffer);

  ASSERT_EQ(loaded.graph.num_vertices(), original.graph.num_vertices());
  ASSERT_EQ(loaded.graph.num_edges(), original.graph.num_edges());
  EXPECT_DOUBLE_EQ(loaded.rc, original.rc);
  EXPECT_DOUBLE_EQ(loaded.area.xmax, original.area.xmax);
  for (graph::VertexId v = 0; v < original.graph.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(loaded.positions[v].x, original.positions[v].x);
    EXPECT_DOUBLE_EQ(loaded.positions[v].y, original.positions[v].y);
  }
  for (graph::EdgeId e = 0; e < original.graph.num_edges(); ++e) {
    const auto [u, v] = original.graph.edge(e);
    EXPECT_TRUE(loaded.graph.has_edge(u, v));
  }
}

TEST(NetworkIo, DeploymentFileRoundTrip) {
  util::Rng rng(82);
  const gen::Deployment original = gen::random_udg(40, 3.0, 1.0, rng);
  const auto path = temp_file("net.tgc");
  save_deployment(original, path.string());
  const gen::Deployment loaded = load_deployment(path.string());
  EXPECT_EQ(loaded.graph.num_edges(), original.graph.num_edges());
  std::filesystem::remove(path);
}

TEST(NetworkIo, MaskRoundTrip) {
  std::vector<bool> mask(50, false);
  mask[0] = mask[7] = mask[49] = true;
  std::stringstream buffer;
  save_mask(mask, buffer);
  EXPECT_EQ(load_mask(buffer, 50), mask);
}

TEST(NetworkIo, EmptyMaskRoundTrip) {
  const std::vector<bool> mask(10, false);
  std::stringstream buffer;
  save_mask(mask, buffer);
  EXPECT_EQ(load_mask(buffer, 10), mask);
}

TEST(NetworkIo, RejectsWrongHeader) {
  std::stringstream buffer("bogus 1\nnodes 3\n");
  EXPECT_THROW(load_deployment(buffer), tgc::CheckError);
}

TEST(NetworkIo, RejectsWrongVersion) {
  std::stringstream buffer("tgcover-network 9\nnodes 1\n");
  EXPECT_THROW(load_deployment(buffer), tgc::CheckError);
}

TEST(NetworkIo, RejectsTruncatedFile) {
  std::stringstream buffer("tgcover-network 1\nnodes 3\nrc 1.0\n");
  EXPECT_THROW(load_deployment(buffer), tgc::CheckError);
}

TEST(NetworkIo, RejectsOutOfRangeMaskId) {
  std::stringstream buffer("tgcover-mask 1\nnodes 3\nset 9\n");
  EXPECT_THROW(load_mask(buffer, 3), tgc::CheckError);
}

TEST(NetworkIo, IgnoresCommentsAndBlankLines) {
  std::stringstream buffer(
      "# a comment\n\n"
      "tgcover-mask 1\n"
      "# sizes\n"
      "nodes 4\n\n"
      "set 2\n");
  const auto mask = load_mask(buffer, 4);
  EXPECT_EQ(mask, (std::vector<bool>{false, false, true, false}));
}

/// A saved 30-node network, one string per line, for the corruption cases
/// below.
std::vector<std::string> network_lines() {
  util::Rng rng(3);
  const gen::Deployment dep = gen::random_udg(30, 2.0, 1.0, rng);
  EXPECT_GT(dep.graph.num_edges(), 2u);
  std::stringstream buffer;
  save_deployment(dep, buffer);
  std::vector<std::string> lines;
  for (std::string line; std::getline(buffer, line);) lines.push_back(line);
  return lines;
}

/// Index of the first line starting with `prefix`.
std::size_t line_starting(const std::vector<std::string>& lines,
                          const std::string& prefix) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind(prefix, 0) == 0) return i;
  }
  ADD_FAILURE() << "no line starts with '" << prefix << "'";
  return 0;
}

/// The CheckError message of loading `lines`, which must name line
/// `index` + 1; "" (and a failure) when they load.
std::string load_error(const std::vector<std::string>& lines,
                       std::size_t index) {
  std::stringstream buffer;
  for (const std::string& line : lines) buffer << line << '\n';
  try {
    load_deployment(buffer);
  } catch (const tgc::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(index + 1)),
              std::string::npos)
        << what;
    return what;
  }
  ADD_FAILURE() << "the corrupted network loaded";
  return "";
}

TEST(NetworkIo, RefusesAMalformedEdgeEndpoint) {
  // "e u x" must not load as the edge u-0.
  std::vector<std::string> lines = network_lines();
  const std::size_t i = line_starting(lines, "e ");
  lines[i] = lines[i].substr(0, lines[i].rfind(' ')) + " x";
  EXPECT_NE(load_error(lines, i).find("bad value 'x'"), std::string::npos);
}

TEST(NetworkIo, RefusesEdgeLinesBeyondTheDeclaredCount) {
  // One edge fewer declared than listed must not drop the last edge line.
  std::vector<std::string> lines = network_lines();
  const std::size_t i = line_starting(lines, "edges ");
  const std::size_t m = std::stoul(lines[i].substr(6));
  lines[i] = "edges " + std::to_string(m - 1);
  EXPECT_NE(load_error(lines, lines.size() - 1)
                .find("after the " + std::to_string(m - 1) + " declared edges"),
            std::string::npos);
}

TEST(NetworkIo, RefusesAMalformedEdgeCount) {
  std::vector<std::string> lines = network_lines();
  const std::size_t i = line_starting(lines, "edges ");
  lines[i] = "edges x";
  load_error(lines, i);
}

TEST(NetworkIo, RefusesAMalformedRadius) {
  std::vector<std::string> lines = network_lines();
  const std::size_t i = line_starting(lines, "rc ");
  lines[i] = "rc one";
  load_error(lines, i);
}

TEST(NetworkIo, RefusesTrailingTokens) {
  std::vector<std::string> lines = network_lines();
  const std::size_t i = line_starting(lines, "e ");
  lines[i] += " 7";
  EXPECT_NE(load_error(lines, i).find("takes 2 field(s), got 3"),
            std::string::npos);
}

TEST(NetworkIo, RefusesNegativeAndOverflowingFields) {
  std::vector<std::string> lines = network_lines();
  const std::size_t i = line_starting(lines, "e ");
  const std::string edge = lines[i];
  for (const char* bad : {"e -1 2", "e 4294967296 2"}) {
    lines[i] = bad;
    load_error(lines, i);
  }
  lines[i] = edge;
  const std::size_t p = line_starting(lines, "pos ");
  lines[p] = "pos 0 1e999 0";
  load_error(lines, p);
}

TEST(NetworkIo, RefusesAMalformedMaskId) {
  // "set abc" must not mark node 0 awake.
  std::stringstream buffer("tgcover-mask 1\nnodes 3\nset abc\n");
  try {
    load_mask(buffer, 3);
    ADD_FAILURE() << "the mask loaded";
  } catch (const tgc::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(NetworkIo, RefusesAMaskOfAnotherSizeBeforeAllocating) {
  // A header claiming 2^32 - 1 nodes would size a 512 MiB mask.
  std::stringstream buffer("tgcover-mask 1\nnodes 4294967295\nset 0\n");
  try {
    load_mask(buffer, 30);
    ADD_FAILURE() << "the mask loaded";
  } catch (const tgc::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "mask has 4294967295 nodes but the network has 30 (mask, "
                  "line 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(NetworkIo, RolesCsv) {
  const geom::Embedding pos{{0, 0}, {1, 1}};
  const std::vector<std::string> roles{"active", "deleted"};
  const auto path = temp_file("roles.csv");
  save_roles_csv(pos, roles, path.string());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y,role");
  std::getline(in, line);
  EXPECT_NE(line.find("active"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Svg, RendersWellFormedDocument) {
  util::Rng rng(83);
  const gen::Deployment dep = gen::random_udg(30, 2.0, 1.0, rng);
  std::vector<NodeRole> roles(30, NodeRole::kActive);
  roles[0] = NodeRole::kBoundary;
  roles[1] = NodeRole::kDeleted;
  roles[2] = NodeRole::kHidden;
  const auto path = temp_file("net.svg");
  render_network_svg(dep.graph, dep.positions, roles, util::Gf2Vector(),
                     path.string());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string svg = content.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Svg, HighlightsBoundaryCycle) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  const graph::Graph g = b.build();
  const geom::Embedding pos{{0, 0}, {1, 0}, {0.5, 1}};
  const std::vector<NodeRole> roles(3, NodeRole::kBoundary);
  util::Gf2Vector cb(g.num_edges());
  cb.set(0);
  cb.set(1);
  cb.set(2);
  const auto path = temp_file("cb.svg");
  SvgStyle style;
  render_network_svg(g, pos, roles, cb, path.string(), style);
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find(style.cb_color), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tgc::io
