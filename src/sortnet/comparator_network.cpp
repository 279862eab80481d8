#include "sortnet/comparator_network.h"

#include <algorithm>
#include <sstream>

namespace renamelib::sortnet {

ComparatorNetwork::ComparatorNetwork(std::size_t width) : width_(width) {
  RENAMELIB_ENSURE(width >= 1, "network width must be >= 1");
}

void ComparatorNetwork::add(std::uint32_t a, std::uint32_t b) {
  RENAMELIB_ENSURE(a != b, "comparator wires must differ");
  RENAMELIB_ENSURE(a < width_ && b < width_, "comparator wire out of range");
  comps_.push_back(Comparator{std::min(a, b), std::max(a, b)});
}

void ComparatorNetwork::append(const ComparatorNetwork& other,
                               std::uint32_t wire_offset) {
  RENAMELIB_ENSURE(wire_offset + other.width() <= width_,
                   "appended network does not fit");
  comps_.reserve(comps_.size() + other.size());
  for (const Comparator& c : other.comps_) {
    comps_.push_back(Comparator{c.lo + wire_offset, c.hi + wire_offset});
  }
}

std::size_t ComparatorNetwork::depth() const {
  std::vector<std::size_t> wire_depth(width_, 0);
  std::size_t depth = 0;
  for (const Comparator& c : comps_) {
    const std::size_t d = std::max(wire_depth[c.lo], wire_depth[c.hi]) + 1;
    wire_depth[c.lo] = wire_depth[c.hi] = d;
    depth = std::max(depth, d);
  }
  return depth;
}

std::vector<std::size_t> ComparatorNetwork::layer_of_comparators() const {
  std::vector<std::size_t> wire_depth(width_, 0);
  std::vector<std::size_t> layers;
  layers.reserve(comps_.size());
  for (const Comparator& c : comps_) {
    const std::size_t d = std::max(wire_depth[c.lo], wire_depth[c.hi]) + 1;
    wire_depth[c.lo] = wire_depth[c.hi] = d;
    layers.push_back(d - 1);
  }
  return layers;
}

std::vector<std::vector<std::uint32_t>> ComparatorNetwork::per_wire() const {
  std::vector<std::vector<std::uint32_t>> out(width_);
  for (std::uint32_t i = 0; i < comps_.size(); ++i) {
    out[comps_[i].lo].push_back(i);
    out[comps_[i].hi].push_back(i);
  }
  return out;
}

std::size_t ComparatorNetwork::trace_path_length(std::size_t wire) const {
  RENAMELIB_ENSURE(wire < width_, "wire out of range");
  std::size_t hits = 0;
  for (const Comparator& c : comps_) {
    if (c.lo == wire || c.hi == wire) ++hits;
  }
  return hits;
}

std::string ComparatorNetwork::to_dot() const {
  std::ostringstream os;
  os << "digraph sortnet {\n  rankdir=LR;\n";
  const auto layers = layer_of_comparators();
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    os << "  c" << i << " [shape=point label=\"\"];\n";
    os << "  // layer " << layers[i] << ": wires " << comps_[i].lo << " -- "
       << comps_[i].hi << "\n";
  }
  // Chain comparators per wire to show the routing order.
  auto wires = per_wire();
  for (std::size_t w = 0; w < wires.size(); ++w) {
    os << "  in" << w << " [shape=plaintext label=\"w" << w << "\"];\n";
    std::string prev = "in" + std::to_string(w);
    for (std::uint32_t ci : wires[w]) {
      os << "  " << prev << " -> c" << ci << ";\n";
      // Two appends: `"c" + std::to_string(ci)` trips GCC 12's false
      // -Wrestrict at -O3.
      prev = 'c';
      prev += std::to_string(ci);
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace renamelib::sortnet
