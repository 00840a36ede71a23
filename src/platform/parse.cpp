#include "platform/parse.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace psanim::platform {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("platform: " + msg);
}

std::string preset_list() {
  std::string out;
  for (const std::string& n : preset_names()) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

double to_double(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    fail("'" + key + "' expects a number, got '" + v + "'");
  }
  return d;
}

std::size_t to_size(const std::string& key, const std::string& v) {
  const double d = to_double(key, v);
  if (d < 0.0 || d != static_cast<double>(static_cast<std::size_t>(d))) {
    fail("'" + key + "' expects a non-negative integer, got '" + v + "'");
  }
  return static_cast<std::size_t>(d);
}

net::Interconnect interconnect_from(const std::string& s) {
  if (s == "loopback") return net::Interconnect::kLoopback;
  if (s == "fast-ethernet") return net::Interconnect::kFastEthernet;
  if (s == "gigabit-ethernet") return net::Interconnect::kGigabitEthernet;
  if (s == "myrinet") return net::Interconnect::kMyrinet;
  if (s == "custom") return net::Interconnect::kCustom;
  fail("unknown interconnect '" + s +
       "' (expected loopback, fast-ethernet, gigabit-ethernet, myrinet or "
       "custom)");
}

Link link_from(net::Interconnect ic) {
  const net::LinkModel m = net::LinkModel::preset(ic);
  Link l;
  l.kind = m.kind;
  l.latency_s = m.latency_s;
  l.bandwidth_bps = m.bandwidth_bps;
  return l;
}

// ---------------------------------------------------------------- presets

Platform preset_crossbar(std::size_t n) {
  return Platform::crossbar(n, link_from(net::Interconnect::kFastEthernet));
}

Platform preset_fattree(std::size_t n, std::size_t uplinks) {
  return Platform::fat_tree(n, /*hosts_per_edge=*/8, uplinks,
                            link_from(net::Interconnect::kFastEthernet),
                            link_from(net::Interconnect::kGigabitEthernet));
}

Platform preset_dragonfly(std::size_t n) {
  const std::size_t routers = 4, hosts_per_router = 4;
  const std::size_t per_group = routers * hosts_per_router;
  std::size_t groups = (n + per_group - 1) / per_group;
  if (groups < 2) groups = 2;
  Link local = link_from(net::Interconnect::kGigabitEthernet);
  local.latency_s = 20e-6;
  Link global = link_from(net::Interconnect::kGigabitEthernet);
  global.latency_s = 100e-6;
  return Platform::dragonfly(n, groups, routers, hosts_per_router,
                             link_from(net::Interconnect::kFastEthernet),
                             local, global);
}

Platform preset_wan2(std::size_t n) {
  if (n < 2) fail("preset 'wan2' needs at least 2 nodes, got " +
                  std::to_string(n));
  const std::size_t n1 = (n + 1) / 2;
  std::vector<Platform> sites;
  sites.push_back(preset_crossbar(n1));
  sites.push_back(preset_crossbar(n - n1));
  Link wan;  // ~T3-class uplink: long haul latency, 2.5 MB/s payload
  wan.kind = net::Interconnect::kCustom;
  wan.latency_s = 30e-3;
  wan.bandwidth_bps = 2.5e6;
  Platform p = Platform::wan(std::move(sites), wan);
  p.name = "wan2";
  return p;
}

// ----------------------------------------------------------------- DSL

using KvList = std::vector<std::pair<std::string, std::string>>;

KvList split_kv(const std::string& body, const std::string& kind) {
  KvList out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string item = body.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      fail("'" + kind + "' segment: expected key=value, got '" + item + "'");
    }
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return out;
}

DiskModel parse_disk(const std::string& body) {
  if (body == "none" || body.empty()) return DiskModel::none();
  if (body == "scratch") return DiskModel::scratch_hdd();
  if (body == "nfs") return DiskModel::nfs();
  if (body.rfind("pfs", 0) == 0 && body.size() > 3) {
    return DiskModel::pfs(
        static_cast<int>(to_size("disk stripes", body.substr(3))));
  }
  DiskModel d;
  for (const auto& [k, v] : split_kv(body, "disk")) {
    if (k == "read") d.read_bps = to_double(k, v);
    else if (k == "write") d.write_bps = to_double(k, v);
    else if (k == "seek") d.seek_s = to_double(k, v);
    else fail("disk segment: unknown key '" + k +
              "' (expected read, write, seek, or a preset none|scratch|nfs|"
              "pfs<stripes>)");
  }
  return d;
}

Platform parse_dsl_topo(const std::string& kind, const std::string& body,
                        std::size_t nodes) {
  const KvList kvs = split_kv(body, kind);
  Link host = link_from(net::Interconnect::kFastEthernet);
  auto common = [&](const std::string& k, const std::string& v) {
    if (k == "link") { host = link_from(interconnect_from(v)); }
    else if (k == "bw") { host.bandwidth_bps = to_double(k, v); }
    else if (k == "latency") { host.latency_s = to_double(k, v); }
    else return false;
    return true;
  };

  if (kind == "crossbar") {
    double backplane = 0.0;
    for (const auto& [k, v] : kvs) {
      if (common(k, v)) continue;
      if (k == "backplane") backplane = to_double(k, v);
      else fail("crossbar: unknown key '" + k +
                "' (expected link, bw, latency, backplane)");
    }
    return Platform::crossbar(nodes, host, backplane);
  }
  if (kind == "fattree") {
    std::size_t hpe = 8, up = 2;
    Link uplink = link_from(net::Interconnect::kGigabitEthernet);
    for (const auto& [k, v] : kvs) {
      if (common(k, v)) continue;
      if (k == "hosts_per_edge") hpe = to_size(k, v);
      else if (k == "uplinks") up = to_size(k, v);
      else if (k == "up_bw") uplink.bandwidth_bps = to_double(k, v);
      else if (k == "up_latency") uplink.latency_s = to_double(k, v);
      else fail("fattree: unknown key '" + k +
                "' (expected link, bw, latency, hosts_per_edge, uplinks, "
                "up_bw, up_latency)");
    }
    return Platform::fat_tree(nodes, hpe, up, host, uplink);
  }
  if (kind == "dragonfly") {
    std::size_t groups = 0, routers = 4, hpr = 4;
    Link local = link_from(net::Interconnect::kGigabitEthernet);
    local.latency_s = 20e-6;
    Link global = link_from(net::Interconnect::kGigabitEthernet);
    global.latency_s = 100e-6;
    for (const auto& [k, v] : kvs) {
      if (common(k, v)) continue;
      if (k == "groups") groups = to_size(k, v);
      else if (k == "routers") routers = to_size(k, v);
      else if (k == "hosts_per_router") hpr = to_size(k, v);
      else if (k == "local_bw") local.bandwidth_bps = to_double(k, v);
      else if (k == "local_latency") local.latency_s = to_double(k, v);
      else if (k == "global_bw") global.bandwidth_bps = to_double(k, v);
      else if (k == "global_latency") global.latency_s = to_double(k, v);
      else fail("dragonfly: unknown key '" + k +
                "' (expected link, bw, latency, groups, routers, "
                "hosts_per_router, local_bw/latency, global_bw/latency)");
    }
    if (groups == 0) {
      const std::size_t per_group = routers * hpr;
      if (per_group == 0) fail("dragonfly: routers and hosts_per_router must be >= 1");
      groups = (nodes + per_group - 1) / per_group;
      if (groups < 2) groups = 2;
    }
    return Platform::dragonfly(nodes, groups, routers, hpr, host, local,
                               global);
  }
  if (kind == "wan") {
    std::size_t nsites = 2;
    Link wan;
    wan.kind = net::Interconnect::kCustom;
    wan.latency_s = 30e-3;
    wan.bandwidth_bps = 2.5e6;
    for (const auto& [k, v] : kvs) {
      if (common(k, v)) continue;
      if (k == "sites") nsites = to_size(k, v);
      else if (k == "wan_bw") wan.bandwidth_bps = to_double(k, v);
      else if (k == "wan_latency") wan.latency_s = to_double(k, v);
      else fail("wan: unknown key '" + k +
                "' (expected link, bw, latency, sites, wan_bw, wan_latency)");
    }
    if (nsites == 0 || nsites > nodes) {
      fail("wan: sites must be in [1, nodes]; got sites=" +
           std::to_string(nsites) + " for " + std::to_string(nodes) +
           " nodes");
    }
    std::vector<Platform> sites;
    std::size_t left = nodes;
    for (std::size_t s = 0; s < nsites; ++s) {
      const std::size_t take = (left + (nsites - s) - 1) / (nsites - s);
      sites.push_back(Platform::crossbar(take, host));
      left -= take;
    }
    return Platform::wan(std::move(sites), wan);
  }
  fail("unknown topology kind '" + kind +
       "' (expected crossbar, fattree, dragonfly or wan; presets: " +
       preset_list() + ")");
}

}  // namespace

bool is_flat(const std::string& desc) {
  return desc.empty() || desc == "flat";
}

std::vector<std::string> preset_names() {
  return {"crossbar", "fattree", "fattree-slim", "dragonfly", "wan2"};
}

Platform parse(const std::string& desc, std::size_t nodes) {
  if (is_flat(desc)) {
    fail("'" + desc +
         "' selects the flat zone, which is built from a cluster's NICs "
         "(Platform::flat), not parsed");
  }
  if (nodes == 0) fail("a preset or DSL description needs nodes >= 1");

  // Split off an optional ";disk:..." suffix (any segment order).
  std::string topo;
  DiskModel disk;
  std::size_t pos = 0;
  while (pos < desc.size()) {
    std::size_t semi = desc.find(';', pos);
    if (semi == std::string::npos) semi = desc.size();
    const std::string seg = desc.substr(pos, semi - pos);
    pos = semi + 1;
    if (seg.rfind("disk:", 0) == 0) {
      disk = parse_disk(seg.substr(5));
    } else if (!seg.empty()) {
      if (!topo.empty()) fail("multiple topology segments in '" + desc + "'");
      topo = seg;
    }
  }
  if (topo.empty()) fail("description '" + desc + "' has no topology segment");

  Platform p;
  const std::size_t colon = topo.find(':');
  if (colon == std::string::npos) {
    // Bare name: a preset.
    if (topo == "crossbar") p = preset_crossbar(nodes);
    else if (topo == "fattree") p = preset_fattree(nodes, 4);
    else if (topo == "fattree-slim") p = preset_fattree(nodes, 1);
    else if (topo == "dragonfly") p = preset_dragonfly(nodes);
    else if (topo == "wan2") p = preset_wan2(nodes);
    else fail("unknown platform '" + topo + "' (presets: " + preset_list() +
              "; or a DSL description — see platform/parse.hpp)");
    if (topo == "fattree-slim") p.name = "fattree-slim";
  } else {
    p = parse_dsl_topo(topo.substr(0, colon), topo.substr(colon + 1), nodes);
  }
  if (!disk.free()) p.disk = disk;
  return p;
}

}  // namespace psanim::platform
