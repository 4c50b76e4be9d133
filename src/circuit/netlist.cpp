#include "circuit/netlist.hpp"

#include "util/units.hpp"

namespace psmn {

Netlist::Netlist() {
  nodeNames_.push_back("0");
  nodeIndexByName_["0"] = kGround;
  nodeIndexByName_["gnd"] = kGround;
}

NodeId Netlist::node(const std::string& name) {
  const std::string key = toLower(name);
  auto it = nodeIndexByName_.find(key);
  if (it != nodeIndexByName_.end()) return it->second;
  PSMN_CHECK(!finalized_, "cannot create node '" + name + "' after finalize()");
  const NodeId id = static_cast<NodeId>(nodeNames_.size());
  nodeNames_.push_back(name);
  nodeIndexByName_[key] = id;
  return id;
}

std::optional<NodeId> Netlist::findNode(const std::string& name) const {
  auto it = nodeIndexByName_.find(toLower(name));
  if (it == nodeIndexByName_.end()) return std::nullopt;
  return it->second;
}

const std::string& Netlist::nodeName(NodeId id) const {
  PSMN_CHECK(id >= 0 && id < static_cast<NodeId>(nodeNames_.size()),
             "bad node id");
  return nodeNames_[id];
}

Device* Netlist::find(const std::string& name) {
  auto it = deviceIndex_.find(name);
  return it == deviceIndex_.end() ? nullptr : devices_[it->second].get();
}

const Device* Netlist::find(const std::string& name) const {
  auto it = deviceIndex_.find(name);
  return it == deviceIndex_.end() ? nullptr : devices_[it->second].get();
}

void Netlist::finalize() {
  if (finalized_) return;
  BranchAllocator alloc(static_cast<int>(nodeNames_.size()) - 1);
  for (auto& dev : devices_) dev->allocate(alloc);
  branchNames_ = alloc.names();
  finalized_ = true;
}

size_t Netlist::unknownCount() const {
  PSMN_CHECK(finalized_, "finalize() the netlist first");
  return nodeNames_.size() - 1 + branchNames_.size();
}

int Netlist::nodeIndex(const std::string& name) const {
  auto id = findNode(name);
  PSMN_CHECK(id.has_value(), "unknown node '" + name + "'");
  return nodeIndex(*id);
}

std::string Netlist::unknownName(size_t mnaIndex) const {
  const size_t numNodeUnknowns = nodeNames_.size() - 1;
  if (mnaIndex < numNodeUnknowns) {
    return "v(" + nodeNames_[mnaIndex + 1] + ")";
  }
  const size_t b = mnaIndex - numNodeUnknowns;
  PSMN_CHECK(b < branchNames_.size(), "bad unknown index");
  return "i(" + branchNames_[b] + ")";
}

std::vector<Netlist::MismatchRef> Netlist::mismatchParams() const {
  std::vector<MismatchRef> out;
  for (const auto& dev : devices_) {
    for (size_t k = 0; k < dev->mismatchCount(); ++k) {
      out.push_back({dev.get(), k, dev->mismatchParam(k)});
    }
  }
  return out;
}

void Netlist::clearMismatch() {
  for (const auto& dev : devices_) dev->clearMismatch();
}

}  // namespace psmn
