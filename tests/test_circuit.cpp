// Unit and property tests for the circuit layer: device stamps, the MOSFET
// model (finite-difference Jacobian checks across operating regions),
// mismatch stamps, waveforms, and the netlist parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/bjt.hpp"
#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/parser.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "core/correlated_mismatch.hpp"
#include "engine/mna.hpp"
#include "numeric/rng.hpp"

namespace psmn {
namespace {

// Helper: evaluate f and G at state x.
struct Eval {
  RealVector f, q;
  RealMatrix g, c;
};

Eval evalAll(const MnaSystem& sys, const RealVector& x, Real t = 0.0) {
  Eval e;
  sys.evalDense(x, t, &e.f, &e.q, &e.g, &e.c, {});
  return e;
}

/// Property: G must equal dF/dx by central finite difference.
void expectJacobianConsistent(const MnaSystem& sys, const RealVector& x,
                              Real tol = 1e-4) {
  const size_t n = sys.size();
  const Eval e0 = evalAll(sys, x);
  for (size_t j = 0; j < n; ++j) {
    const Real h = 1e-7 * (1.0 + std::fabs(x[j]));
    RealVector xp = x, xm = x;
    xp[j] += h;
    xm[j] -= h;
    const Eval ep = evalAll(sys, xp);
    const Eval em = evalAll(sys, xm);
    for (size_t i = 0; i < n; ++i) {
      const Real fd = (ep.f[i] - em.f[i]) / (2.0 * h);
      EXPECT_NEAR(e0.g(i, j), fd, tol * (1.0 + std::fabs(fd)))
          << "dF[" << i << "]/dx[" << j << "]";
      const Real fdq = (ep.q[i] - em.q[i]) / (2.0 * h);
      EXPECT_NEAR(e0.c(i, j), fdq, tol * (1.0 + std::fabs(fdq)))
          << "dQ[" << i << "]/dx[" << j << "]";
    }
  }
}

// --------------------------------------------------------------- netlist

TEST(Netlist, NodeManagement) {
  Netlist nl;
  EXPECT_EQ(nl.node("0"), kGround);
  EXPECT_EQ(nl.node("gnd"), kGround);
  const NodeId a = nl.node("a");
  EXPECT_EQ(nl.node("A"), a);  // case-insensitive
  EXPECT_NE(nl.node("b"), a);
  EXPECT_FALSE(nl.findNode("zzz").has_value());
}

TEST(Netlist, RejectsDuplicateDeviceNames) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<Resistor>("R1", a, kGround, 1e3, nl);
  EXPECT_THROW(nl.add<Resistor>("R1", a, kGround, 2e3, nl), Error);
}

TEST(Netlist, UnknownNamesAndBranches) {
  Netlist nl;
  const NodeId a = nl.node("out");
  nl.add<VSource>("V1", a, kGround, SourceWave::dc(1.0), nl);
  nl.finalize();
  EXPECT_EQ(nl.unknownCount(), 2u);
  EXPECT_EQ(nl.unknownName(0), "v(out)");
  EXPECT_EQ(nl.unknownName(1), "i(V1)");
}

TEST(Netlist, MismatchParamEnumeration) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<Resistor>("R1", a, kGround, 1e3, nl, /*sigma=*/10.0);
  nl.add<Resistor>("R2", a, kGround, 1e3, nl);  // no mismatch
  auto kit = ProcessKit::cmos130();
  nl.add<Mosfet>("M1", a, a, kGround, kGround, kit.nmos, 1e-6, 0.13e-6, nl);
  const auto params = nl.mismatchParams();
  ASSERT_EQ(params.size(), 3u);  // R1.dr, M1.dvt, M1.dbeta
  EXPECT_EQ(params[0].param.name, "R1.dr");
  EXPECT_EQ(params[1].param.name, "M1.dvt");
  EXPECT_EQ(params[2].param.name, "M1.dbeta");
}

// Mismatch is the only injection-source kind: collectSources hands out one
// source per mismatch parameter and rejects every other flag pair.
TEST(Netlist, CollectSourcesAcceptsOnlyMismatch) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<Resistor>("R1", a, kGround, 1e3, nl, /*sigma=*/10.0);
  MnaSystem sys(nl);
  const auto sources = sys.collectSources(true, false);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].name, "R1.dr");
  EXPECT_EQ(sources[0].sigma, 10.0);
  EXPECT_EQ(sys.collectSources().size(), 1u);
  EXPECT_THROW(sys.collectSources(false, true), Error);
  EXPECT_THROW(sys.collectSources(false, false), Error);
  EXPECT_THROW(sys.collectSources(true, true), Error);
}

// ------------------------------------------------------------ waveforms

TEST(SourceWave, PulseShape) {
  const auto w = SourceWave::pulse(0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 10.0);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(1.25), 0.5);  // mid-rise
  EXPECT_DOUBLE_EQ(w.value(2.0), 1.0);   // high
  EXPECT_DOUBLE_EQ(w.value(3.75), 0.5);  // mid-fall
  EXPECT_DOUBLE_EQ(w.value(5.0), 0.0);   // low
  EXPECT_DOUBLE_EQ(w.value(11.25), 0.5); // next period
}

TEST(SourceWave, PulseBreakpoints) {
  const auto w = SourceWave::pulse(0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 10.0);
  std::vector<Real> bps;
  w.collectBreakpoints(0.0, 12.0, bps);
  // First period corners: 1, 1.5, 3.5, 4; second period: 11, 11.5.
  ASSERT_GE(bps.size(), 6u);
  EXPECT_DOUBLE_EQ(bps[0], 1.0);
  EXPECT_DOUBLE_EQ(bps[1], 1.5);
  EXPECT_DOUBLE_EQ(bps[2], 3.5);
  EXPECT_DOUBLE_EQ(bps[3], 4.0);
}

TEST(SourceWave, PulseRejectsZeroRise) {
  EXPECT_THROW(SourceWave::pulse(0, 1, 0, 0.0, 1e-12, 1, 10), Error);
}

TEST(SourceWave, SineAndPwl) {
  const auto s = SourceWave::sine(0.5, 2.0, 1e3);
  EXPECT_NEAR(s.value(0.0), 0.5, 1e-12);
  EXPECT_NEAR(s.value(0.25e-3), 2.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.period(), 1e-3);

  const auto p = SourceWave::pwl({0.0, 1.0, 2.0}, {0.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(p.value(0.5), 2.5);
  EXPECT_DOUBLE_EQ(p.value(3.0), 5.0);
}

// ------------------------------------------------------- passive stamps

TEST(Stamps, ResistorDividerResidual) {
  Netlist nl;
  const NodeId mid = nl.node("mid");
  const NodeId top = nl.node("top");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(2.0), nl);
  nl.add<Resistor>("R1", top, mid, 1e3, nl);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl);
  MnaSystem sys(nl);
  // At the analytic solution the residual must vanish.
  RealVector x(sys.size(), 0.0);
  x[nl.nodeIndex(mid)] = 1.0;
  x[nl.nodeIndex(top)] = 2.0;
  x[2] = -1e-3;  // branch current: 1 mA flows out of the + terminal
  const Eval e = evalAll(sys, x);
  for (size_t i = 0; i < sys.size(); ++i) EXPECT_NEAR(e.f[i], 0.0, 1e-15);
}

TEST(Stamps, JacobianConsistencyRlcNetwork) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.add<VSource>("V1", a, kGround, SourceWave::dc(1.0), nl);
  nl.add<Resistor>("R1", a, b, 2e3, nl);
  nl.add<Capacitor>("C1", b, kGround, 1e-9, nl);
  nl.add<Inductor>("L1", b, kGround, 1e-3, nl);
  MnaSystem sys(nl);
  RealVector x(sys.size());
  Rng rng(4);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  expectJacobianConsistent(sys, x);
}

TEST(Stamps, ControlledSourcesJacobian) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  const NodeId c = nl.node("c");
  nl.add<ISource>("I1", kGround, a, SourceWave::dc(1e-3), nl);
  nl.add<Resistor>("R1", a, kGround, 1e3, nl);
  nl.add<Vcvs>("E1", b, kGround, a, kGround, 2.0, nl);
  nl.add<Resistor>("R2", b, c, 1e3, nl);
  nl.add<Vccs>("G1", c, kGround, a, kGround, 1e-3, nl);
  nl.add<Resistor>("R3", c, kGround, 1e3, nl);
  MnaSystem sys(nl);
  RealVector x(sys.size());
  Rng rng(6);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  expectJacobianConsistent(sys, x);
}

TEST(Stamps, DiodeJacobian) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<ISource>("I1", kGround, a, SourceWave::dc(1e-4), nl);
  DiodeModel dm;
  dm.cj0 = 1e-12;
  nl.add<Diode>("D1", a, kGround, dm, nl);
  MnaSystem sys(nl);
  for (Real v : {-0.5, 0.0, 0.3, 0.6, 0.7}) {
    RealVector x{v};
    expectJacobianConsistent(sys, x, 1e-3);
  }
}

// ----------------------------------------------------------- MOSFET model

struct MosBias {
  Real vd, vg, vs, vb;
  bool pmos;
};

class MosfetJacobian : public ::testing::TestWithParam<MosBias> {};

TEST_P(MosfetJacobian, MatchesFiniteDifference) {
  const MosBias bias = GetParam();
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId d = nl.node("d");
  const NodeId g = nl.node("g");
  const NodeId s = nl.node("s");
  const NodeId b = nl.node("b");
  nl.add<Mosfet>("M1", d, g, s, b, bias.pmos ? kit.pmos : kit.nmos, 2e-6,
                 0.13e-6, nl);
  // Pin every node so the state is exactly the chosen bias.
  MnaSystem sys(nl);
  RealVector x(sys.size(), 0.0);
  x[nl.nodeIndex(d)] = bias.vd;
  x[nl.nodeIndex(g)] = bias.vg;
  x[nl.nodeIndex(s)] = bias.vs;
  x[nl.nodeIndex(b)] = bias.vb;
  expectJacobianConsistent(sys, x, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    OperatingRegions, MosfetJacobian,
    ::testing::Values(
        MosBias{1.2, 1.0, 0.0, 0.0, false},   // nmos saturation
        MosBias{0.1, 1.0, 0.0, 0.0, false},   // nmos triode
        MosBias{1.2, 0.2, 0.0, 0.0, false},   // nmos near cutoff
        MosBias{0.0, 1.0, 1.2, 0.0, false},   // nmos swapped d/s
        MosBias{0.6, 0.8, 0.0, -0.3, false},  // nmos with body bias
        MosBias{0.0, 0.2, 1.2, 1.2, true},    // pmos saturation
        MosBias{1.1, 0.2, 1.2, 1.2, true},    // pmos triode
        MosBias{0.0, 1.0, 1.2, 1.2, true},    // pmos near cutoff
        MosBias{1.2, 0.2, 0.0, 1.2, true}));  // pmos swapped

TEST(Mosfet, CurrentContinuityAcrossVdsZero) {
  // The drain-source swap must not introduce a current discontinuity.
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId d = nl.node("d");
  const NodeId g = nl.node("g");
  nl.add<Mosfet>("M1", d, g, kGround, kGround, kit.nmos, 2e-6, 0.13e-6, nl);
  MnaSystem sys(nl);
  RealVector f;
  auto idAt = [&](Real vds) {
    RealVector x(sys.size(), 0.0);
    x[nl.nodeIndex(d)] = vds;
    x[nl.nodeIndex(g)] = 1.0;
    sys.evalDense(x, 0.0, &f, nullptr, nullptr, nullptr, {});
    return f[nl.nodeIndex(d)];
  };
  const Real eps = 1e-9;
  EXPECT_NEAR(idAt(eps), -idAt(-eps), 1e-12);
  EXPECT_NEAR(idAt(0.0), 0.0, 1e-15);
}

TEST(Mosfet, SaturationCurrentMagnitude) {
  // 2u/0.13u nmos, vgs=1.0: ids ~ 0.5*kp*(W/L)*veff^2*(1+lambda*vds).
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId d = nl.node("d");
  const NodeId g = nl.node("g");
  nl.add<Mosfet>("M1", d, g, kGround, kGround, kit.nmos, 2e-6, 0.13e-6, nl);
  MnaSystem sys(nl);
  RealVector x(sys.size(), 0.0);
  x[nl.nodeIndex(d)] = 1.2;
  x[nl.nodeIndex(g)] = 1.0;
  RealVector f;
  sys.evalDense(x, 0.0, &f, nullptr, nullptr, nullptr, {});
  const Real id = f[nl.nodeIndex(d)];
  // veff ~ vgs - vt0 (smoothing adds a little): expect within 10% of the
  // ideal square-law number.
  const Real ideal = 0.5 * kit.nmos->kp * (2e-6 / 0.13e-6) * 0.65 * 0.65 *
                     (1.0 + kit.nmos->lambda * 1.2);
  EXPECT_NEAR(id, ideal, 0.1 * ideal);
  EXPECT_GT(id, 0.0);
}

TEST(Mosfet, PmosConductsWithLowGate) {
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId d = nl.node("d");
  const NodeId g = nl.node("g");
  const NodeId s = nl.node("s");
  nl.add<Mosfet>("M1", d, g, s, s, kit.pmos, 2e-6, 0.13e-6, nl);
  MnaSystem sys(nl);
  RealVector x(sys.size(), 0.0);
  x[nl.nodeIndex(s)] = 1.2;
  x[nl.nodeIndex(g)] = 0.0;  // on
  x[nl.nodeIndex(d)] = 0.0;
  RealVector f;
  sys.evalDense(x, 0.0, &f, nullptr, nullptr, nullptr, {});
  // Current must flow INTO the drain node from the device (f negative at d
  // means the device pushes current into the node).
  EXPECT_LT(f[nl.nodeIndex(d)], -1e-5);
}

TEST(Mosfet, PelgromSigmaScalesWithArea) {
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId d = nl.node("d");
  auto& m1 = nl.add<Mosfet>("M1", d, d, kGround, kGround, kit.nmos, 1e-6,
                            0.13e-6, nl);
  auto& m4 = nl.add<Mosfet>("M4", d, d, kGround, kGround, kit.nmos, 4e-6,
                            0.13e-6, nl);
  EXPECT_NEAR(m1.sigmaVt() / m4.sigmaVt(), 2.0, 1e-12);
  EXPECT_NEAR(m1.sigmaVt(), 6.5e-9 / std::sqrt(1e-6 * 0.13e-6), 1e-12);
  EXPECT_NEAR(m1.sigmaBetaRel(), 3.25e-8 / std::sqrt(1e-6 * 0.13e-6), 1e-12);
}

TEST(Mosfet, MismatchStampMatchesFiniteDifference) {
  // dF/d(dvt) and dF/d(dbeta) from mismatchStampF must equal the finite
  // difference of the residual under setMismatchDelta.
  auto kit = ProcessKit::cmos130();
  for (bool pmos : {false, true}) {
    Netlist nl;
    const NodeId d = nl.node("d");
    const NodeId g = nl.node("g");
    const NodeId s = nl.node("s");
    auto& fet = nl.add<Mosfet>("M1", d, g, s, s,
                               pmos ? kit.pmos : kit.nmos, 2e-6, 0.13e-6, nl);
    MnaSystem sys(nl);
    RealVector x(sys.size(), 0.0);
    if (pmos) {
      x[nl.nodeIndex(s)] = 1.2;
      x[nl.nodeIndex(g)] = 0.2;
      x[nl.nodeIndex(d)] = 0.4;
    } else {
      x[nl.nodeIndex(g)] = 1.0;
      x[nl.nodeIndex(d)] = 0.8;
    }
    for (size_t k = 0; k < 2; ++k) {
      InjectionSource src;
      src.components = {{&fet, k, 1.0}};
      RealVector bf;
      sys.evalInjection(src, x, 0.0, &bf, nullptr);

      const Real h = (k == 0) ? 1e-6 : 1e-6;
      RealVector fp, fm;
      fet.setMismatchDelta(k, h);
      sys.evalDense(x, 0.0, &fp, nullptr, nullptr, nullptr, {});
      fet.setMismatchDelta(k, -h);
      sys.evalDense(x, 0.0, &fm, nullptr, nullptr, nullptr, {});
      fet.setMismatchDelta(k, 0.0);
      for (size_t i = 0; i < sys.size(); ++i) {
        const Real fd = (fp[i] - fm[i]) / (2.0 * h);
        EXPECT_NEAR(bf[i], fd, 1e-6 + 1e-4 * std::fabs(fd))
            << (pmos ? "pmos" : "nmos") << " param " << k << " row " << i;
      }
    }
  }
}

TEST(Resistor, MismatchStampMatchesFiniteDifference) {
  Netlist nl;
  const NodeId a = nl.node("a");
  auto& r = nl.add<Resistor>("R1", a, kGround, 1e3, nl, /*sigma=*/10.0);
  nl.add<ISource>("I1", kGround, a, SourceWave::dc(1e-3), nl);
  MnaSystem sys(nl);
  RealVector x{1.0};
  InjectionSource src;
  src.components = {{&r, 0, 1.0}};
  RealVector bf;
  sys.evalInjection(src, x, 0.0, &bf, nullptr);
  const Real h = 1e-3;
  RealVector fp, fm;
  r.setMismatchDelta(0, h);
  sys.evalDense(x, 0.0, &fp, nullptr, nullptr, nullptr, {});
  r.setMismatchDelta(0, -h);
  sys.evalDense(x, 0.0, &fm, nullptr, nullptr, nullptr, {});
  r.setMismatchDelta(0, 0.0);
  EXPECT_NEAR(bf[0], (fp[0] - fm[0]) / (2 * h), 1e-9);
  // Analytic: dI/dR = -(v/R)/R = -1e-3/1e3 = -1e-6 A/ohm.
  EXPECT_NEAR(bf[0], -1e-6, 1e-12);
}

TEST(Capacitor, MismatchChargeStamp) {
  Netlist nl;
  const NodeId a = nl.node("a");
  auto& c = nl.add<Capacitor>("C1", a, kGround, 1e-9, nl, /*sigma=*/1e-11);
  MnaSystem sys(nl);
  RealVector x{2.5};
  InjectionSource src;
  src.components = {{&c, 0, 1.0}};
  RealVector bq;
  sys.evalInjection(src, x, 0.0, nullptr, &bq);
  EXPECT_NEAR(bq[0], 2.5, 1e-15);  // dQ/dC = v
}

// The LPTV streams evaluate and visit a source's injection only on its
// rows (InjectionRows: the equations its devices declared G and C positions
// in). So at any iterate the dense injection of every source must be
// exactly zero off those rows, and the row-limited evaluation must return
// the dense values on them bit for bit, whatever the buffers held before.
// A mismatch stamp that writes a row its device never declared fails here.
// The deck covers MOSFETs in both D/S orientations (an NMOS with a
// floating bulk too), a BJT whose series resistances give it internal
// nodes and whose transit time gives it a charge injection, R, C and L,
// and correlated composite sources spanning devices.
TEST(MnaInjection, SourcesInjectOnlyOnTheirDeclaredRows) {
  ParsedCircuit pc = parseNetlistString(R"(test deck, injection rows
.model nch nmos
.model pch pmos
.model qn npn rb=100 rc=10 re=1 tf=1e-10 cje=1p
V1 vdd 0 DC 1.2
M1 a g b 0 nch W=1u L=0.13u
M2 b g vdd vdd pch W=2u L=0.13u
M3 c a b x nch W=1u L=0.13u
Q1 c b e qn
R1 a c 1k sigma=10
C1 c e 1p sigma=0.01p
L1 e 0 1n sigma=0.01n
R2 x 0 1k
R3 g 0 1k
.end
)");
  Netlist& nl = *pc.netlist;
  const MnaSystem sys(nl);
  const size_t n = sys.size();

  std::vector<InjectionSource> sources = sys.collectSources();
  std::vector<const Mosfet*> fets;
  CorrelatedMismatch corr;
  std::vector<CorrelatedMismatch::ParamRef> group;
  for (const auto& dev : nl.devices()) {
    if (const auto* m = dynamic_cast<const Mosfet*>(dev.get())) {
      fets.push_back(m);
    }
    if (dev->name() == "M1" || dev->name() == "M3" || dev->name() == "Q1") {
      group.push_back({dev.get(), 0});
    }
  }
  ASSERT_EQ(fets.size(), 3u);
  corr.addUniformCorrelationGroup(group, 0.5);
  size_t composites = 0;
  for (InjectionSource& src : corr.compositeSources()) {
    composites += src.components.size() > 1;
    sources.push_back(std::move(src));
  }
  ASSERT_GE(composites, 2u);
  ASSERT_EQ(sources.size(), 6 + 2 + 3 + 3u);  // 3 FETs, Q1, R1 C1 L1, group

  const InjectionRows table(sources);
  Rng rng(29);
  std::vector<int> seen(fets.size(), 0);  // bit 0 unswapped, bit 1 swapped
  RealVector bf, bq, rf, rq;
  for (int iterate = 0; iterate < 8; ++iterate) {
    RealVector x(n);
    for (Real& v : x) v = rng.uniform(-0.5, 1.5);
    const Stamper at(x, 0.0, n);
    for (size_t d = 0; d < fets.size(); ++d) {
      seen[d] |= fets[d]->opPoint(at).swapped ? 2 : 1;
    }
    for (size_t s = 0; s < sources.size(); ++s) {
      const InjectionSource& src = sources[s];
      const std::span<const int> rows = table.of(s);
      ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end())) << src.name;
      ASSERT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end())
          << src.name;
      std::vector<bool> on(n, false);
      for (int i : rows) on[static_cast<size_t>(i)] = true;

      sys.evalInjection(src, x, 0.0, &bf, &bq);
      rf.assign(n, 7.0);  // stale values the row-limited call must not read
      rq.assign(n, -3.0);
      sys.evalInjection(src, x, 0.0, &rf, &rq, rows);
      for (size_t i = 0; i < n; ++i) {
        if (on[i]) {
          EXPECT_EQ(rf[i], bf[i]) << src.name << " row " << i;
          EXPECT_EQ(rq[i], bq[i]) << src.name << " row " << i;
        } else {
          EXPECT_EQ(bf[i], 0.0) << src.name << " off-row " << i;
          EXPECT_EQ(bq[i], 0.0) << src.name << " off-row " << i;
        }
      }
    }
  }
  for (size_t d = 0; d < fets.size(); ++d) {
    EXPECT_EQ(seen[d], 3) << fets[d]->name() << " seen in one orientation";
  }
}

// --------------------------------------------------------------- parser

TEST(Parser, ParsesRcDivider) {
  const auto pc = parseNetlistString(R"(
test divider
V1 in 0 DC 2.0
R1 in mid 1k
R2 mid 0 1k sigma=10
.op
.end
)");
  EXPECT_EQ(pc.title, "test divider");
  ASSERT_NE(pc.netlist->find("R1"), nullptr);
  ASSERT_NE(pc.netlist->find("R2"), nullptr);
  EXPECT_EQ(pc.netlist->mismatchParams().size(), 1u);
  ASSERT_EQ(pc.analyses.size(), 1u);
  EXPECT_EQ(pc.analyses[0].kind, "op");
}

TEST(Parser, ParsesMosWithModel) {
  const auto pc = parseNetlistString(R"(
.model mynmos nmos (kp=400u vto=0.35 lambda=0.15 avt=6.5n abeta=32.5n)
M1 d g 0 0 mynmos W=2u L=0.13u
V1 d 0 1.2
V2 g 0 PULSE(0 1.2 0 0.1n 0.1n 4n 10n)
.tran 0.1n 20n
)");
  const auto* m = dynamic_cast<const Mosfet*>(pc.netlist->find("M1"));
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->width(), 2e-6);
  EXPECT_DOUBLE_EQ(m->model().kp, 400e-6);
  EXPECT_FALSE(m->model().pmos);
  EXPECT_EQ(pc.netlist->mismatchParams().size(), 2u);
  ASSERT_EQ(pc.analyses.size(), 1u);
  EXPECT_EQ(pc.analyses[0].kind, "tran");
  ASSERT_EQ(pc.analyses[0].args.size(), 2u);
}

TEST(Parser, ContinuationLinesAndComments) {
  const auto pc = parseNetlistString(
      "* full-line comment\n"
      "V1 a 0 PULSE(0 1\n"
      "+ 0 1n 1n 5n 20n) ; trailing comment\n"
      "R1 a 0 1k\n");
  EXPECT_NE(pc.netlist->find("V1"), nullptr);
  EXPECT_NE(pc.netlist->find("R1"), nullptr);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parseNetlistString("R1 a 0\n");
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(parseNetlistString("M1 d g 0 0 nomodel W=1u L=1u\n"),
               NetlistError);
  // Unknown element letter (after the title line, which is skipped).
  EXPECT_THROW(parseNetlistString("some title\nX1 a b c\n"), NetlistError);
}

TEST(Parser, ParsesBjtWithModel) {
  const auto pc = parseNetlistString(R"(
.model fastnpn npn (is=2f bf=180 br=3 vaf=90 cje=1p cjc=0.6p tf=0.35n
+ rb=120 rc=15 re=2)
.model fastpnp pnp (is=1f bf=60)
Q1 c b e fastnpn area=2
Q2 c2 b2 e2 fastpnp
V1 c 0 3.0
.op
)");
  const auto* q1 = dynamic_cast<const Bjt*>(pc.netlist->find("Q1"));
  ASSERT_NE(q1, nullptr);
  EXPECT_DOUBLE_EQ(q1->model().is, 2e-15);
  EXPECT_DOUBLE_EQ(q1->model().bf, 180.0);
  EXPECT_DOUBLE_EQ(q1->model().vaf, 90.0);
  EXPECT_DOUBLE_EQ(q1->model().rb, 120.0);
  EXPECT_DOUBLE_EQ(q1->area(), 2.0);
  EXPECT_FALSE(q1->model().pnp);
  const auto* q2 = dynamic_cast<const Bjt*>(pc.netlist->find("Q2"));
  ASSERT_NE(q2, nullptr);
  EXPECT_TRUE(q2->model().pnp);
  EXPECT_DOUBLE_EQ(q2->area(), 1.0);
  // Two mismatch parameters (dIS/IS, dBF/BF) per BJT.
  EXPECT_EQ(pc.netlist->mismatchParams().size(), 4u);
  // RB/RC/RE > 0 on Q1 adds three internal nodes.
  EXPECT_NE(pc.netlist->findNode("Q1:b"), std::nullopt);
  EXPECT_NE(pc.netlist->findNode("Q1:c"), std::nullopt);
  EXPECT_NE(pc.netlist->findNode("Q1:e"), std::nullopt);
  EXPECT_EQ(pc.netlist->findNode("Q2:b"), std::nullopt);
}

// Malformed .model cards must fail loudly with the offending line number —
// never fall back to silent defaults.
TEST(Parser, RejectsUnknownModelParameter) {
  try {
    parseNetlistString(".model m1 npn (is=1f bff=100)\n");
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown parameter 'bff'"), std::string::npos) << what;
  }
  // Same strictness for the other model types and element cards.
  EXPECT_THROW(parseNetlistString(".model m1 nmos (kpp=1)\n"), NetlistError);
  EXPECT_THROW(parseNetlistString(".model m1 d (isx=1f)\n"), NetlistError);
  EXPECT_THROW(parseNetlistString("R1 a 0 1k sgma=10\n"), NetlistError);
  EXPECT_THROW(parseNetlistString(
                   ".model m1 npn (is=1f)\nQ1 c b e m1 aerea=2\n"),
               NetlistError);
}

TEST(Parser, RejectsDuplicateModelNames) {
  try {
    parseNetlistString(
        ".model m1 npn (is=1f)\n"
        ".model m1 d (is=2f)\n");
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate model name 'm1'"), std::string::npos)
        << what;
  }
  // Duplicate parameters within one card are rejected too.
  EXPECT_THROW(parseNetlistString(".model m1 npn (is=1f is=2f)\n"),
               NetlistError);
}

TEST(Parser, RejectsMalformedBjtCards) {
  // Too few nodes.
  EXPECT_THROW(parseNetlistString("Q1 c b\n"), NetlistError);
  // Unknown model.
  EXPECT_THROW(parseNetlistString("Q1 c b e nomodel\n"), NetlistError);
  // Non-positive area.
  EXPECT_THROW(parseNetlistString(
                   ".model m1 npn (is=1f)\nQ1 c b e m1 area=0\n"),
               NetlistError);
  // Unknown model type.
  EXPECT_THROW(parseNetlistString(".model m1 bjt (is=1f)\n"), NetlistError);
  // Dangling key without value.
  EXPECT_THROW(parseNetlistString(".model m1 npn (is)\n"), NetlistError);
}

// --------------------------------------------------------------- stdcell

TEST(StdCell, ComparatorHasElevenFets) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto tb = buildComparatorTestbench(nl, kit);
  EXPECT_EQ(tb.comp.fets.size(), 11u);
  EXPECT_EQ(tb.comp.fet("M2")->width(), ComparatorOptions{}.wInput);
  // 22 mismatch parameters: 2 per transistor.
  EXPECT_EQ(nl.mismatchParams().size(), 22u);
  EXPECT_GE(tb.vosIndex, 0);
}

TEST(StdCell, LogicPathStructure) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto lp = buildLogicPath(nl, kit);
  nl.finalize();
  // 4 inverters (2 fets) + 2 nands (4 fets) = 16 fets = 32 params.
  EXPECT_EQ(nl.mismatchParams().size(), 32u);
  EXPECT_NE(lp.srcX, nullptr);
}

TEST(StdCell, RingOscillatorStageCount) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  EXPECT_EQ(osc.stages.size(), 5u);
  Netlist nl2;
  EXPECT_THROW(buildRingOscillator(nl2, kit, {.stages = 4}), Error);
}

}  // namespace
}  // namespace psmn
