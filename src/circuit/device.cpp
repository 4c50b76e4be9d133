#include "circuit/device.hpp"

namespace psmn {

MismatchParam Device::mismatchParam(size_t) const {
  throw Error("device '" + name() + "' has no mismatch parameters");
}

void Device::setMismatchDelta(size_t, Real) {
  throw Error("device '" + name() + "' has no mismatch parameters");
}

Real Device::mismatchDelta(size_t) const {
  throw Error("device '" + name() + "' has no mismatch parameters");
}

void Device::mismatchStampF(size_t, Stamper&) const {
  throw Error("device '" + name() + "' has no mismatch parameters");
}

void Device::mismatchStampQ(size_t, Stamper&) const {
  // Most mismatch parameters perturb only static currents; devices with
  // reactive mismatch (C, L) override this.
}

void Device::collectBreakpoints(Real, Real, std::vector<Real>&) const {}

}  // namespace psmn
