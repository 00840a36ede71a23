#pragma once

// Platform description loader: turns a string into a Platform so cluster
// specs, SimSettings, the farm, and the benches can all select platforms
// by name instead of hand-assembling zone trees.
//
// Two description forms are accepted:
//
//  1. Named presets, auto-sized to the requested node count — see
//     preset_names(). E.g. "fattree-slim" for 32 nodes builds edge
//     switches of 8 Fast-Ethernet hosts behind a single uplink each.
//  2. A compact DSL: "<kind>:key=val,key=val[;disk:...]", e.g.
//       "crossbar:link=fast-ethernet,backplane=50e6"
//       "fattree:hosts_per_edge=8,uplinks=2,up_bw=110e6"
//       "dragonfly:groups=4,routers=4,hosts_per_router=4"
//       "wan:sites=2,wan_bw=2.5e6,wan_latency=30e-3"
//       "crossbar:link=gigabit-ethernet;disk:scratch"
//     The disk segment takes a preset (none|scratch|nfs|pfs<stripes>) or
//     "read=..,write=..,seek=.." fields.
//
// The name "flat" (or the empty string) selects the flat zone: the
// paper's per-pair network, which needs each node's NICs and so is built
// from a cluster spec (cluster::make_platform → Platform::flat), never by
// parse().

#include <cstddef>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace psanim::platform {

/// True when `desc` selects the flat zone (empty or "flat"): the paper's
/// per-pair network, with no shared link and so no contention.
bool is_flat(const std::string& desc);

/// Built-in preset names (excluding "flat").
std::vector<std::string> preset_names();

/// Build a platform from `desc`, auto-sized to exactly `nodes` nodes. Throws
/// std::invalid_argument (message prefixed "platform:") for flat, unknown
/// names, malformed descriptions, or shapes that cannot hold `nodes` —
/// the message lists the valid presets so a typo is actionable.
Platform parse(const std::string& desc, std::size_t nodes);

}  // namespace psanim::platform
