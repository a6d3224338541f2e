#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "tgcover/gen/deployments.hpp"

namespace tgc::io {

/// Plain-text persistence for deployments and node masks, so workloads can
/// be generated once, inspected, exchanged and replayed (the CLI's file
/// format). The format is line-oriented and versioned:
///
///   tgcover-network 1
///   nodes <n>
///   rc <rc>
///   area <xmin> <ymin> <xmax> <ymax>
///   pos <id> <x> <y>          ... n lines
///   edges <m>
///   e <u> <v>                 ... m lines
///
/// Masks (schedules, boundary sets, failure sets):
///
///   tgcover-mask 1
///   nodes <n>
///   set <id>                  ... one line per set bit
///
/// Blank and `#` lines are skipped; any other deviation is a CheckError
/// naming the line.
void save_deployment(const gen::Deployment& dep, std::ostream& out);
void save_deployment(const gen::Deployment& dep, const std::string& path);

gen::Deployment load_deployment(std::istream& in);
gen::Deployment load_deployment(const std::string& path);

void save_mask(const std::vector<bool>& mask, std::ostream& out);
void save_mask(const std::vector<bool>& mask, const std::string& path);

/// Loads a mask for a `nodes`-node network; a header declaring another
/// node count is refused before anything is allocated.
std::vector<bool> load_mask(std::istream& in, std::size_t nodes);
std::vector<bool> load_mask(const std::string& path, std::size_t nodes);

/// FNV-1a 64 digest of the mask's serialized form (the exact bytes
/// `save_mask` writes). `tgcover schedule` prints it and `tgcover fleet`
/// records it per run, so a fleet cell and an individually-run schedule can
/// be compared for byte-identity without keeping the mask files around.
std::uint64_t mask_digest(const std::vector<bool>& mask);

/// Per-node role dump (x, y, role) for external plotting — the format the
/// figure benches' --dump option writes.
void save_roles_csv(const geom::Embedding& positions,
                    const std::vector<std::string>& roles,
                    const std::string& path);

/// Opens `path` for writing; throws, naming the path, when it cannot.
std::ofstream open_out(const std::string& path);

/// Flushes and closes a stream from open_out; throws, naming `path`, when
/// any write to it failed. A full disk shows up only here: the stream opens
/// fine and buffers the bytes it later cannot write.
void close_out(std::ofstream& out, const std::string& path);

}  // namespace tgc::io
