#include "net/topology.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace gearsim::net {

namespace {

/// Hosts a topology may seat; keeps link tables and leaf products from
/// overflowing anything (2^22 hosts is far beyond any simulated sweep).
constexpr std::size_t kMaxHosts = std::size_t{1} << 22;

std::string fmt_double(double v) {
  char buf[40];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general);
  GEARSIM_ENSURE(ec == std::errc(), "double rendering failed");
  return std::string(buf, ptr);
}

// ---------------------------------------------------------------------------
// Fat tree.

class FatTreeTopology final : public Topology {
 public:
  FatTreeTopology(const TopologyParams& params, std::size_t num_nodes,
                  double nic_bandwidth) {
    const std::size_t levels = params.down.size();
    GEARSIM_REQUIRE(levels >= 1, "fat-tree needs at least one level");
    GEARSIM_REQUIRE(params.up.size() == levels &&
                        params.parallel.size() == levels,
                    "fat-tree down/up/parallel must have one entry per level");
    const double trunk = params.trunk_bandwidth > 0.0
                             ? params.trunk_bandwidth
                             : nic_bandwidth;
    // C(l) = hosts under one level-l subtree; E(l) = entities at level l.
    subtree_.assign(levels + 1, 1);
    for (std::size_t l = 0; l < levels; ++l) {
      GEARSIM_REQUIRE(params.down[l] >= 1 && params.up[l] >= 1 &&
                          params.parallel[l] >= 1,
                      "fat-tree level counts must be positive");
      subtree_[l + 1] = subtree_[l] * static_cast<std::size_t>(params.down[l]);
      GEARSIM_REQUIRE(subtree_[l + 1] <= kMaxHosts, "fat-tree too large");
    }
    GEARSIM_REQUIRE(subtree_[levels] >= num_nodes,
                    "fat-tree seats fewer hosts than the cluster has nodes");
    up_ = params.up;
    up_base_.resize(levels);
    down_base_.resize(levels);
    capacity_.resize(levels);
    std::size_t next = 0;
    for (std::size_t l = 0; l < levels; ++l) {
      const std::size_t entities = subtree_[levels] / subtree_[l];
      const std::size_t trunks = entities * static_cast<std::size_t>(up_[l]);
      up_base_[l] = next;
      next += trunks;
      down_base_[l] = next;
      next += trunks;
      // Level 0 trunks are host NICs; higher levels are switch trunks.
      // `parallel` cables aggregate into one fat link.
      capacity_[l] = (l == 0 ? nic_bandwidth : trunk) *
                     static_cast<double>(params.parallel[l]);
      GEARSIM_REQUIRE(next <= std::numeric_limits<LinkId>::max(),
                      "fat-tree link table too large");
    }
    link_count_ = next;
  }

  [[nodiscard]] std::size_t link_count() const override { return link_count_; }
  [[nodiscard]] std::size_t num_hosts() const override {
    return subtree_.back();
  }
  [[nodiscard]] std::size_t max_path_links() const override {
    return 2 * up_.size();
  }
  [[nodiscard]] double link_capacity(LinkId link) const override {
    // Levels are few (2-4); linear scan beats a lookup table here.
    for (std::size_t l = capacity_.size(); l-- > 0;) {
      if (link >= up_base_[l]) return capacity_[l];
    }
    GEARSIM_ENSURE(false, "link id below the first level base");
    return 0.0;
  }

  std::size_t route(std::size_t src, std::size_t dst,
                    LinkId* path) const override {
    // Climb to the lowest level where src and dst share a subtree, then
    // descend.  Trunk choice (src + dst) % up[l] is symmetric in the
    // endpoints, so route(dst, src) is the reverse path on the twin
    // (opposite-direction) links.
    std::size_t merge = 1;
    while (src / subtree_[merge] != dst / subtree_[merge]) ++merge;
    std::size_t n = 0;
    for (std::size_t l = 0; l < merge; ++l) {
      path[n++] = static_cast<LinkId>(
          trunk(up_base_[l], l, src, dst, src / subtree_[l]));
    }
    for (std::size_t l = merge; l-- > 0;) {
      path[n++] = static_cast<LinkId>(
          trunk(down_base_[l], l, src, dst, dst / subtree_[l]));
    }
    return n;
  }

 private:
  [[nodiscard]] std::size_t trunk(std::size_t base, std::size_t level,
                                  std::size_t src, std::size_t dst,
                                  std::size_t entity) const {
    const auto fanout = static_cast<std::size_t>(up_[level]);
    return base + entity * fanout + (src + dst) % fanout;
  }

  std::vector<std::size_t> subtree_;  ///< subtree_[l] = hosts per level-l tree.
  std::vector<int> up_;
  std::vector<std::size_t> up_base_;
  std::vector<std::size_t> down_base_;
  std::vector<double> capacity_;
  std::size_t link_count_ = 0;
};

// ---------------------------------------------------------------------------
// Torus.

class TorusTopology final : public Topology {
 public:
  TorusTopology(const TopologyParams& params, std::size_t num_nodes,
                double nic_bandwidth) {
    GEARSIM_REQUIRE(!params.dims.empty(), "torus needs at least one dimension");
    capacity_ = params.trunk_bandwidth > 0.0 ? params.trunk_bandwidth
                                             : nic_bandwidth;
    hosts_ = 1;
    for (int d : params.dims) {
      GEARSIM_REQUIRE(d >= 1, "torus dimensions must be positive");
      hosts_ *= static_cast<std::size_t>(d);
      GEARSIM_REQUIRE(hosts_ <= kMaxHosts, "torus too large");
    }
    GEARSIM_REQUIRE(hosts_ >= num_nodes,
                    "torus seats fewer hosts than the cluster has nodes");
    dims_ = params.dims;
    for (int d : dims_) longest_ += static_cast<std::size_t>(d) / 2;
    GEARSIM_REQUIRE(hosts_ * dims_.size() * 2 <=
                        std::numeric_limits<LinkId>::max(),
                    "torus link table too large");
  }

  [[nodiscard]] std::size_t link_count() const override {
    return hosts_ * dims_.size() * 2;
  }
  [[nodiscard]] std::size_t num_hosts() const override { return hosts_; }
  [[nodiscard]] std::size_t max_path_links() const override {
    return longest_;
  }
  [[nodiscard]] double link_capacity(LinkId) const override {
    return capacity_;
  }

  std::size_t route(std::size_t src, std::size_t dst,
                    LinkId* path) const override {
    // Dimension-ordered routing: per dimension, walk the shorter wrap
    // direction (ties go positive); every step occupies the departing
    // node's directed link for that (dimension, direction).
    std::size_t n = 0;
    std::size_t node = src;
    std::size_t stride = 1;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      const auto k = static_cast<std::size_t>(dims_[d]);
      const std::size_t from = (src / stride) % k;
      const std::size_t to = (dst / stride) % k;
      const std::size_t fwd = (to + k - from) % k;
      const std::size_t bwd = (from + k - to) % k;
      const bool positive = fwd <= bwd;
      const std::size_t steps = positive ? fwd : bwd;
      for (std::size_t s = 0; s < steps; ++s) {
        path[n++] = static_cast<LinkId>((node * dims_.size() + d) * 2 +
                                        (positive ? 0 : 1));
        const std::size_t coord = (node / stride) % k;
        const std::size_t next =
            positive ? (coord + 1) % k : (coord + k - 1) % k;
        node += (next - coord) * stride;
      }
      stride *= k;
    }
    return n;
  }

 private:
  std::vector<int> dims_;
  std::size_t hosts_ = 0;
  std::size_t longest_ = 0;
  double capacity_ = 0.0;
};

// ---------------------------------------------------------------------------
// Spec parsing.

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

int parse_count(const std::string& token, const char* what) {
  GEARSIM_REQUIRE(!token.empty(), std::string("empty ") + what +
                                      " in topology spec");
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  GEARSIM_REQUIRE(ec == std::errc() && ptr == token.data() + token.size() &&
                      value >= 1,
                  std::string("bad ") + what + " in topology spec: " + token);
  return value;
}

std::vector<int> parse_counts(const std::string& token, char sep,
                              const char* what) {
  std::vector<int> values;
  for (const std::string& part : split(token, sep)) {
    values.push_back(parse_count(part, what));
  }
  return values;
}

/// Trailing `key=value` option segments shared by both shapes.
void parse_options(const std::vector<std::string>& parts, std::size_t first,
                   TopologyParams* params) {
  for (std::size_t i = first; i < parts.size(); ++i) {
    const std::size_t eq = parts[i].find('=');
    GEARSIM_REQUIRE(eq != std::string::npos,
                    "bad topology option (want key=value): " + parts[i]);
    const std::string key = parts[i].substr(0, eq);
    const std::string value = parts[i].substr(eq + 1);
    double parsed = 0.0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), parsed);
    GEARSIM_REQUIRE(ec == std::errc() &&
                        ptr == value.data() + value.size() &&
                        std::isfinite(parsed) && parsed >= 0.0,
                    "bad topology option value: " + parts[i]);
    if (key == "hop_us") {
      params->hop_latency = microseconds(parsed);
    } else if (key == "trunk_bw") {
      params->trunk_bandwidth = parsed;
    } else {
      GEARSIM_REQUIRE(false, "unknown topology option: " + key);
    }
  }
}

}  // namespace

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFlat: return "flat";
    case TopologyKind::kFatTree: return "fat-tree";
    case TopologyKind::kTorus: return "torus";
  }
  return "?";
}

TopologyParams parse_topology(const std::string& spec) {
  TopologyParams params;
  const std::vector<std::string> parts = split(spec, ':');
  const std::string& kind = parts[0];
  if (kind == "flat") {
    GEARSIM_REQUIRE(parts.size() == 1, "flat topology takes no arguments");
    return params;
  }
  if (kind == "fat-tree") {
    GEARSIM_REQUIRE(parts.size() >= 4,
                    "fat-tree spec is fat-tree:<down,..>:<up,..>:<parallel,..>");
    params.kind = TopologyKind::kFatTree;
    params.down = parse_counts(parts[1], ',', "down count");
    params.up = parse_counts(parts[2], ',', "up count");
    params.parallel = parse_counts(parts[3], ',', "parallel count");
    GEARSIM_REQUIRE(params.up.size() == params.down.size() &&
                        params.parallel.size() == params.down.size(),
                    "fat-tree down/up/parallel lists must be the same length");
    parse_options(parts, 4, &params);
    return params;
  }
  if (kind == "torus") {
    GEARSIM_REQUIRE(parts.size() >= 2, "torus spec is torus:<d0>x<d1>x..");
    params.kind = TopologyKind::kTorus;
    params.dims = parse_counts(parts[1], 'x', "dimension");
    parse_options(parts, 2, &params);
    return params;
  }
  throw ContractError("unknown topology kind: " + kind +
                      " (expected flat, fat-tree, or torus)");
}

std::string to_spec(const TopologyParams& params) {
  if (params.flat()) return "flat";
  auto join = [](const std::vector<int>& values, char sep) {
    std::string s;
    for (int v : values) {
      if (!s.empty()) s += sep;
      s += std::to_string(v);
    }
    return s;
  };
  std::string spec;
  if (params.kind == TopologyKind::kFatTree) {
    spec = "fat-tree:" + join(params.down, ',') + ":" + join(params.up, ',') +
           ":" + join(params.parallel, ',');
  } else {
    spec = "torus:" + join(params.dims, 'x');
  }
  spec += ":hop_us=" + fmt_double(params.hop_latency.value() * 1e6);
  if (params.trunk_bandwidth > 0.0) {
    spec += ":trunk_bw=" + fmt_double(params.trunk_bandwidth);
  }
  return spec;
}

std::unique_ptr<Topology> Topology::make(const TopologyParams& params,
                                         std::size_t num_nodes,
                                         double nic_bandwidth) {
  GEARSIM_REQUIRE(std::isfinite(params.hop_latency.value()) &&
                      params.hop_latency.value() >= 0.0,
                  "negative or non-finite hop latency");
  GEARSIM_REQUIRE(std::isfinite(params.trunk_bandwidth) &&
                      params.trunk_bandwidth >= 0.0,
                  "negative or non-finite trunk bandwidth");
  switch (params.kind) {
    case TopologyKind::kFlat:
      return nullptr;
    case TopologyKind::kFatTree:
      return std::make_unique<FatTreeTopology>(params, num_nodes,
                                               nic_bandwidth);
    case TopologyKind::kTorus:
      return std::make_unique<TorusTopology>(params, num_nodes, nic_bandwidth);
  }
  GEARSIM_ENSURE(false, "unknown topology kind");
  return nullptr;
}

}  // namespace gearsim::net
