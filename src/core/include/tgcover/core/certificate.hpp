#pragma once

#include <cstddef>
#include <istream>
#include <string>
#include <vector>

#include "tgcover/graph/graph.hpp"

namespace tgc::core {

/// What `check_certificate` found: `ok`, or the 1-based number of the first
/// bad line and why (line 0 when every line is a valid cycle but together
/// they do not sum to the boundary).
struct CertificateVerdict {
  bool ok = false;
  std::size_t line = 0;
  std::string error;
};

/// Re-checks a cycle-partition certificate in the form `tgcover verify
/// --certificate` writes ('#' comment lines, then one line
/// "cycle v0 v1 ... v(k-1)" per cycle) with code that shares nothing with
/// the GF(2) kernel that produced it. Every line must be a closed walk
/// v0 → v1 → … → v(k-1) → v0 of at most `tau` edges of `g` between nodes
/// awake in `active`, and the edges of all lines, each counted mod 2, must
/// be exactly the boundary edges: `cb_edges` holds one flag per edge id.
CertificateVerdict check_certificate(const graph::Graph& g,
                                     const std::vector<bool>& active,
                                     const std::vector<bool>& cb_edges,
                                     unsigned tau, std::istream& in);

}  // namespace tgc::core
