// Checkpointable state of an EcoSession (eco/eco_session.h).
//
// An EcoCheckpoint is a plain-data snapshot of everything a session needs
// to come back *bitwise*: the instance (sinks, source, windows, topology),
// the live formulation's scale and Steiner-row registry, and the solved
// state (primal/dual iterates in LP units, edge lengths in layout units,
// the last solve report). It deliberately excludes two things:
//
//  * the LP model's rows — every row is an exact deterministic function of
//    the captured state (delay rows via DelayWindowLp, Steiner rows via
//    SteinerRowForSinks at the captured scale; eco keeps both invariants by
//    refreshing bounds in place on every edit), so Restore rebuilds them
//    through EbfFormulation::BuildWithSteinerPairs instead of storing them;
//  * the session's sparse symbolic factorization — re-derived on the first
//    post-restore solve. This is bitwise-safe because the live session
//    reuses an analysis only for a compiled model of unchanged structure,
//    and Analyze is a deterministic function of that structure, so the
//    fresh analysis equals the one the live session carries (DESIGN.md
//    section 15).
//
// The serve layer's codec (serve/checkpoint_codec.h) gives this struct a
// bitwise-faithful text format for spill-to-disk; the session cache uses it
// to survive LRU eviction. tests/checkpoint_test.cpp enforces the
// restored-session ≡ never-evicted-session contract with a randomized
// edit-stream oracle.

#ifndef LUBT_ECO_CHECKPOINT_H_
#define LUBT_ECO_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "ebf/formulation.h"
#include "eco/eco_session.h"
#include "io/sink_set.h"
#include "topo/topology.h"

namespace lubt {

/// A complete, self-contained snapshot of one EcoSession. Solve *options*
/// are not part of the snapshot — the restoring caller supplies them, and
/// the bitwise contract holds only when they match the captured session's
/// (the serve layer gives every session the server-wide options, so this is
/// automatic there).
struct EcoCheckpoint {
  // Instance (layout units).
  SinkSet set;
  std::vector<DelayBounds> bounds;
  Topology topo;
  double initial_radius = 1.0;

  // Formulation registry. `has_model` is false when the session is parked
  // in the infeasible-window rebuild state (no live formulation); `pool`
  // is meaningful either way (parked sessions carry it into the next
  // rebuild). `scale` is the live model's LP scale when has_model.
  bool has_model = false;
  double scale = 1.0;
  std::vector<std::array<std::int32_t, 2>> pool;

  // Solved state. LP-unit vectors are captured bit for bit.
  bool lp_valid = false;
  bool needs_rebuild = false;
  std::vector<double> lp_x;
  std::vector<double> lp_dual;
  std::vector<double> edge_len;  ///< layout units, by node id
  EcoSolveInfo last;
};

}  // namespace lubt

#endif  // LUBT_ECO_CHECKPOINT_H_
