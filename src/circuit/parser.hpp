// SPICE-flavoured netlist parser.
//
// Supported cards (case-insensitive, '*'/';' comments, '+' continuation):
//   Rname n+ n- value [sigma=<ohms>]
//   Cname n+ n- value [sigma=<farads>]
//   Lname n+ n- value [sigma=<henries>]
//   Vname n+ n- [dc] <val> | PULSE(v1 v2 td tr tf pw per) |
//                     SIN(off amp freq [td] [damp]) | PWL(t1 v1 t2 v2 ...)
//   Iname n+ n- <same waveforms>
//   Ename out+ out- c+ c- gain          (VCVS)
//   Gname out+ out- c+ c- gain          (VCCS)
//   Dname a c <model>
//   Mname d g s b <model> W=<m> L=<m>
//   Qname c b e <model> [area=<mult>]
//   .model <name> nmos|pmos|d|npn|pnp (param=value ...)
//        MOS params: kp vto lambda gamma phi cox cj cgso cgdo avt abeta
//        Diode params: is n cj0
//        BJT params: is bf br nf nr vaf cje cjc vje vjc mje mjc fc tf
//                    rb rc re ais abf   (ais/abf: relative mismatch
//                    sigmas of IS and BF; area scales IS and the
//                    junction capacitances)
//   .tran <tstep> <tstop> | .op | .pss <period> | .pnoise <out-node>
//   .end
//
// Analysis cards are collected, not executed: the caller decides how to
// run them (see examples/netlist_runner.cpp).
#pragma once

#include <istream>

#include "circuit/netlist.hpp"

namespace psmn {

struct AnalysisCard {
  std::string kind;                // "tran", "op", "pss", "pnoise"
  std::vector<std::string> args;   // raw argument tokens
};

struct ParsedCircuit {
  std::string title;
  std::unique_ptr<Netlist> netlist;
  std::vector<AnalysisCard> analyses;
};

/// Parses a netlist; throws NetlistError with a line reference on failure.
ParsedCircuit parseNetlist(std::istream& in);
ParsedCircuit parseNetlistString(const std::string& text);

}  // namespace psmn
