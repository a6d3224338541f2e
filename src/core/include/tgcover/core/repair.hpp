#pragma once

#include <vector>

#include "tgcover/core/scheduler.hpp"
#include "tgcover/util/gf2.hpp"

namespace tgc::core {

/// Failure repair — an incremental extension of DCC for node crashes.
///
/// When awake coverage-set nodes fail, the confine-coverage certificate can
/// break. Waking the whole network and re-running DCC restores it but wastes
/// the energy the schedule saved; instead, the repair wakes only the
/// *sleeping* nodes within `wake_radius` hops of a failure, re-runs the
/// deletion fixpoint with exactly those nodes deletable, and (when a
/// boundary cycle is supplied) escalates the radius until the criterion
/// certifies again or every node a failure can reach is awake — or stops
/// after the first wave when a failed node carried a CB edge, which no wake
/// brings back. Each wave is one fresh scheduler call.
/// Safety is inherited from Theorem 5: re-deletions are VPT steps, so a
/// restored certificate is never broken by the cleanup.
struct RepairResult {
  std::vector<bool> active;     ///< awake set after repair (failed stay dead)
  std::size_t woken = 0;        ///< sleepers brought back up
  std::size_t redeleted = 0;    ///< woken nodes put back to sleep by cleanup
  unsigned final_radius = 0;    ///< wake radius that was ultimately used
  bool criterion_restored = false;  ///< only meaningful when cb was supplied
  std::size_t survivors = 0;
};

/// @param g             full topology
/// @param internal      deletable-node mask of the original schedule
/// @param active_before awake set before the failures
/// @param failed        crashed nodes (must be permanently excluded)
/// @param cb            boundary cycle to re-certify against, or an empty
///                      vector (size 0) for certificate-free repair (single
///                      wake pass, no escalation)
RepairResult dcc_repair(const graph::Graph& g,
                        const std::vector<bool>& internal,
                        const std::vector<bool>& active_before,
                        const std::vector<bool>& failed,
                        const util::Gf2Vector& cb, const DccConfig& config);

}  // namespace tgc::core
