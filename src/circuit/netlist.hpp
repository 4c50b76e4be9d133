// Netlist: owns nodes and devices, assigns the MNA unknown layout.
//
// Node 0 is always ground (named "0"; "gnd" is an alias). MNA unknowns are
// node voltages for nodes 1..N-1 (MNA index = node id - 1) followed by
// branch currents requested by devices during finalize().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/device.hpp"

namespace psmn {

using NodeId = int;
inline constexpr NodeId kGround = 0;

class Netlist {
 public:
  Netlist();

  /// Returns the node id for `name`, creating it if needed.
  NodeId node(const std::string& name);
  std::optional<NodeId> findNode(const std::string& name) const;
  const std::string& nodeName(NodeId id) const;
  size_t nodeCount() const { return nodeNames_.size(); }  // includes ground

  /// Adds a device; the netlist takes ownership. Returns a typed reference.
  template <class D, class... Args>
  D& add(Args&&... args) {
    PSMN_CHECK(!finalized_, "cannot add devices after finalize()");
    auto dev = std::make_unique<D>(std::forward<Args>(args)...);
    D& ref = *dev;
    PSMN_CHECK(deviceIndex_.emplace(ref.name(), devices_.size()).second,
               "duplicate device name '" + ref.name() + "'");
    devices_.push_back(std::move(dev));
    return ref;
  }

  Device* find(const std::string& name);
  const Device* find(const std::string& name) const;
  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  /// Assigns branch unknowns; must be called before simulation. Idempotent.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Number of MNA unknowns (node voltages + branch currents).
  size_t unknownCount() const;
  size_t branchCount() const { return branchNames_.size(); }

  /// MNA index of a node (-1 for ground).
  int nodeIndex(NodeId id) const { return id - 1; }
  int nodeIndex(const std::string& name) const;

  /// Human-readable unknown name: "v(out)" / "i(V1)".
  std::string unknownName(size_t mnaIndex) const;

  /// All mismatch parameters in the netlist, flattened as (device, k) pairs.
  struct MismatchRef {
    Device* device;
    size_t index;
    MismatchParam param;
  };
  std::vector<MismatchRef> mismatchParams() const;

  /// Zeroes every device's mismatch deltas.
  void clearMismatch();

 private:
  std::vector<std::string> nodeNames_;
  std::unordered_map<std::string, NodeId> nodeIndexByName_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<std::string, size_t> deviceIndex_;
  std::vector<std::string> branchNames_;
  bool finalized_ = false;
};

}  // namespace psmn
