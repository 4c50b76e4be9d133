// Universal finite-difference verification of every device's stamps: the
// analytic G/C matrices and the mismatch dF/dp / dQ/dp columns must match
// central differences of the assembled F/Q vectors at randomized bias
// points (see fd_check.hpp for the numerics). Every device family in the
// repo gets a fixture here; a new device is expected to add one.
#include <gtest/gtest.h>

#include <memory>

#include "circuit/bjt.hpp"
#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "fd_check.hpp"

namespace psmn {
namespace {

void expectFdClean(Netlist& nl, fdcheck::FdOptions opt = {}) {
  const auto failures = fdcheck::checkNetlist(nl, opt);
  for (const auto& msg : failures) ADD_FAILURE() << msg;
  EXPECT_TRUE(failures.empty());
}

TEST(DeviceFd, PassivesAndIndependentSources) {
  Netlist nl;
  const NodeId a = nl.node("a"), b = nl.node("b"), c = nl.node("c");
  nl.add<Resistor>("R1", a, b, 1e3, nl, 50.0);
  nl.add<Capacitor>("C1", b, kGround, 1e-12, nl, 0.05e-12);
  nl.add<Inductor>("L1", b, c, 1e-6, nl, 0.02e-6);
  nl.add<VSource>("V1", a, kGround, SourceWave::dc(1.0), nl);
  nl.add<ISource>("I1", c, kGround, SourceWave::dc(1e-3), nl);
  expectFdClean(nl);
}

TEST(DeviceFd, ControlledSources) {
  Netlist nl;
  const NodeId in1 = nl.node("in1"), in2 = nl.node("in2");
  const NodeId o1 = nl.node("o1"), o2 = nl.node("o2");
  nl.add<Resistor>("Rt1", o1, kGround, 1e3, nl);
  nl.add<Resistor>("Rt2", o2, kGround, 1e3, nl);
  nl.add<VSource>("Vin", in1, kGround, SourceWave::dc(0.0), nl);
  nl.add<Vcvs>("E1", o1, kGround, nl,
               std::vector<ControlTerm>{{nl.nodeIndex(in1), -1, 2.0},
                                        {nl.nodeIndex(in2), -1, -0.5}},
               0.1);
  nl.add<Vccs>("G1", o2, kGround, in1, in2, 1e-3, nl);
  expectFdClean(nl);
}

TEST(DeviceFd, DiodeWithJunctionCap) {
  Netlist nl;
  const NodeId a = nl.node("a"), c = nl.node("c");
  DiodeModel dm;
  dm.is = 1e-14;
  dm.n = 1.5;
  dm.cj0 = 2e-12;
  nl.add<Diode>("D1", a, c, dm, nl);
  nl.add<Resistor>("R1", a, kGround, 1e3, nl);
  nl.add<Resistor>("R2", c, kGround, 1e3, nl);
  expectFdClean(nl);
}

std::shared_ptr<const MosModel> mosModel(bool pmos) {
  auto m = std::make_shared<MosModel>();
  m->pmos = pmos;
  m->lambda = 0.05;
  m->gamma = 0.4;
  return m;
}

/// The FD checks at one fixed bias point (d, g, s, b) where the MOSFET
/// runs with drain and source swapped, i.e. stamps through the second
/// orientation of its declared G slots.
void expectFdCleanSwapped(bool pmos, Real vd, Real vg, Real vs, Real vb) {
  Netlist nl;
  const NodeId d = nl.node("d"), g = nl.node("g"), s = nl.node("s"),
               b = nl.node("b");
  const auto& m =
      nl.add<Mosfet>("M1", d, g, s, b, mosModel(pmos), 2e-6, 0.13e-6, nl);
  nl.add<Resistor>("Rd", d, kGround, 1e4, nl);
  nl.add<Resistor>("Rs", s, kGround, 1e4, nl);
  const MnaSystem sys(nl);
  const RealVector x = {vd, vg, vs, vb};
  ASSERT_TRUE(m.opPoint(Stamper(x, 0.0, sys.size())).swapped);
  std::vector<std::string> failures;
  fdcheck::checkJacobiansAt(sys, x, {}, failures);
  fdcheck::checkMismatchDerivativesAt(sys, x, {}, failures);
  for (const auto& msg : failures) ADD_FAILURE() << msg;
  EXPECT_TRUE(failures.empty());
}

TEST(DeviceFd, MosfetNmos) {
  Netlist nl;
  const NodeId d = nl.node("d"), g = nl.node("g"), s = nl.node("s"),
               b = nl.node("b");
  nl.add<Mosfet>("M1", d, g, s, b, mosModel(false), 2e-6, 0.13e-6, nl);
  nl.add<Resistor>("Rd", d, kGround, 1e4, nl);
  nl.add<Resistor>("Rs", s, kGround, 1e4, nl);
  expectFdClean(nl);
  // vds < 0: the NMOS conducts with its physical source as drain.
  expectFdCleanSwapped(false, 0.2, 1.1, 0.9, -0.1);
}

TEST(DeviceFd, MosfetPmos) {
  Netlist nl;
  const NodeId d = nl.node("d"), g = nl.node("g"), s = nl.node("s"),
               b = nl.node("b");
  nl.add<Mosfet>("M1", d, g, s, b, mosModel(true), 2e-6, 0.13e-6, nl);
  nl.add<Resistor>("Rd", d, kGround, 1e4, nl);
  nl.add<Resistor>("Rs", s, kGround, 1e4, nl);
  expectFdClean(nl);
  // vds > 0 on a PMOS: swapped in its sign-flipped frame.
  expectFdCleanSwapped(true, 0.9, -0.3, 0.2, 1.0);
}

std::shared_ptr<const BjtModel> bjtModel(bool pnp) {
  auto m = std::make_shared<BjtModel>();
  m->pnp = pnp;
  m->is = 5e-15;
  m->bf = 150.0;
  m->br = 4.0;
  m->vaf = 80.0;
  m->cje = 1e-12;
  m->cjc = 0.5e-12;
  m->tf = 0.4e-9;
  return m;
}

TEST(DeviceFd, BjtNpn) {
  Netlist nl;
  const NodeId c = nl.node("c"), b = nl.node("b"), e = nl.node("e");
  nl.add<Bjt>("Q1", c, b, e, bjtModel(false), 1.0, nl);
  nl.add<Resistor>("Rc", c, kGround, 1e4, nl);
  nl.add<Resistor>("Re", e, kGround, 1e4, nl);
  expectFdClean(nl);
}

TEST(DeviceFd, BjtPnp) {
  Netlist nl;
  const NodeId c = nl.node("c"), b = nl.node("b"), e = nl.node("e");
  nl.add<Bjt>("Q1", c, b, e, bjtModel(true), 1.0, nl);
  nl.add<Resistor>("Rc", c, kGround, 1e4, nl);
  nl.add<Resistor>("Re", e, kGround, 1e4, nl);
  expectFdClean(nl);
}

TEST(DeviceFd, BjtWithSeriesResistanceAndArea) {
  // RB/RC/RE > 0 create internal nodes; area = 2 scales IS, the charges,
  // the parasitics, and the mismatch sigmas. The FD sweep covers both the
  // junction core at the internal nodes and the linear parasitic stamps.
  auto m = std::make_shared<BjtModel>(*bjtModel(false));
  m->rb = 100.0;
  m->rc = 20.0;
  m->re = 2.0;
  Netlist nl;
  const NodeId c = nl.node("c"), b = nl.node("b"), e = nl.node("e");
  auto& q = nl.add<Bjt>("Q1", c, b, e, std::move(m), 2.0, nl);
  nl.add<Resistor>("Rc", c, kGround, 1e4, nl);
  nl.add<Resistor>("Re", e, kGround, 1e4, nl);
  EXPECT_NEAR(q.sigmaIs(), q.model().ais / std::sqrt(2.0), 1e-15);
  expectFdClean(nl);
}

TEST(DeviceFd, BjtAtNonzeroMismatchDeltas) {
  // The injection columns depend on the current deltas (dI/d(dis) =
  // I/(1+dis)); verify consistency away from the nominal point too.
  Netlist nl;
  const NodeId c = nl.node("c"), b = nl.node("b"), e = nl.node("e");
  auto& q = nl.add<Bjt>("Q1", c, b, e, bjtModel(false), 1.0, nl);
  nl.add<Resistor>("Rc", c, kGround, 1e4, nl);
  nl.add<Resistor>("Re", e, kGround, 1e4, nl);
  q.setMismatchDelta(0, 0.07);
  q.setMismatchDelta(1, -0.04);
  expectFdClean(nl);
}

TEST(DeviceFd, MixedDeviceNetlist) {
  // Everything at once: catches cross-device assembly issues (double
  // stamps, wrong indices after branch allocation) that the per-family
  // fixtures cannot.
  Netlist nl;
  const NodeId n1 = nl.node("n1"), n2 = nl.node("n2"), n3 = nl.node("n3"),
               n4 = nl.node("n4");
  nl.add<VSource>("V1", n1, kGround, SourceWave::dc(1.0), nl);
  nl.add<Resistor>("R1", n1, n2, 1e3, nl, 20.0);
  nl.add<Capacitor>("C1", n2, kGround, 1e-12, nl, 0.02e-12);
  nl.add<Mosfet>("M1", n3, n2, kGround, kGround, mosModel(false), 1e-6,
                 0.13e-6, nl);
  nl.add<Bjt>("Q1", n4, n3, kGround, bjtModel(false), 1.0, nl);
  nl.add<Diode>("D1", n4, kGround, DiodeModel{.is = 1e-14, .cj0 = 1e-12}, nl);
  nl.add<Inductor>("L1", n4, n1, 1e-6, nl, 0.01e-6);
  expectFdClean(nl);
}

}  // namespace
}  // namespace psmn
