#include "engine/transient_sensitivity.hpp"

#include "runtime/thread_pool.hpp"

namespace psmn {
namespace {

/// Per-slot scratch for the parallel column update: at most one chunk of
/// source columns runs per slot at a time (ThreadPool contract), so no
/// locking is needed. Persists across time steps — the steady-state loop
/// stays allocation-free once every slot's buffers are warm.
struct SensSlotScratch {
  RealVector bf, bq;
  RealVector c0s;  // C0 * s_i
  LuSolveScratch<Real> lu;
};

}  // namespace

TransientSensitivityResult runTransientSensitivity(
    const MnaSystem& sys, Real t0, Real t1, Real dt,
    std::span<const InjectionSource> sources, const TranOptions& opt) {
  TraceSpan span(Phase::kSensitivity, "transient_sensitivity");
  const size_t n = sys.size();
  const size_t ns = sources.size();
  TransientSensitivityResult result;

  // runTransient's loop in fixed-step backward Euler (the recursion below is
  // BE's), keeping the states crossingTimeSensitivity reads.
  TranOptions stepOpt = opt;
  stepOpt.method = IntegrationMethod::kBackwardEuler;
  stepOpt.storeStates = true;

  // One workspace for the whole run: the Newton kernel factors the
  // accepted-step Jacobian J = G1 + C1/h exactly once per step (mostly
  // numeric refactorizations), and the sensitivity update below
  // reuses that factorization for all `ns` injection columns at once.
  TransientWorkspace ws;

  std::vector<RealVector> s(ns, RealVector(n, 0.0));
  std::vector<RealVector> qp(ns, RealVector(n, 0.0));  // dq/dp at t
  RealVector rhsAll(n * ns, 0.0);  // column-major batch of all ns columns
  // C at the latest accepted point ("C0" in the recursion). A copy on the
  // system's pattern, refreshed each step from the workspace; the
  // assignments reuse capacity, so the steady-state loop stays heap-quiet.
  RealSparse cPrev;
  // The initial DC-sensitivity factorization and the column solves: costs
  // the Newton workspace does not see, counted on the dispatching side.
  SolveStats sensCost;

  // Column partition across the execution runtime: the update below is
  // embarrassingly parallel over injection sources — the accepted-step
  // factorization is read-only after the Newton kernel built it, every
  // column's triangular solve touches only that column, and each slot
  // carries private stamp/solve scratch. Chunk boundaries depend only on
  // (ns, slots), and each column's arithmetic is identical however the
  // block is chunked, so results are bit-identical for every jobs count.
  const size_t slots = columnBlockSlots(opt.pool, ns);
  std::vector<SensSlotScratch> slotScratch(slots);
  for (auto& sl : slotScratch) sl.c0s.resize(n);
  const auto updateColumns = [&](const RealVector& x, Real t, Real h,
                                  size_t i0, size_t i1, size_t slot) {
    SensSlotScratch& sl = slotScratch[slot];
    for (size_t i = i0; i < i1; ++i) {
      sys.evalInjection(sources[i], x, t, &sl.bf, &sl.bq);
      cPrev.multiplyInto(s[i], sl.c0s);
      Real* col = rhsAll.data() + i * n;
      for (size_t r = 0; r < n; ++r) {
        col[r] = sl.c0s[r] / h - sl.bf[r] - (sl.bq[r] - qp[i][r]) / h;
      }
      qp[i] = sl.bq;
    }
    ws.slu.solveManyInPlace({rhsAll.data() + i0 * n, (i1 - i0) * n},
                            i1 - i0, sl.lu);
    for (size_t i = i0; i < i1; ++i) {
      s[i].assign(rhsAll.begin() + i * n, rhsAll.begin() + (i + 1) * n);
    }
  };

  result.sens.assign(ns, {});
  const auto onPoint = [&](Real t, Real h, const RealVector& x) {
    if (h == 0.0) {
      // Initial sensitivities from the DC system, G s = -df/dp (zero from
      // a caller-provided state); the workspace holds G and C at t0.
      RealVector bf, bq;
      for (size_t i = 0; i < ns; ++i) {
        sys.evalInjection(sources[i], x, t, &bf, &bq);
        for (size_t r = 0; r < n; ++r) rhsAll[i * n + r] = -bf[r];
        qp[i] = bq;
      }
      if (opt.initialState == nullptr && ns > 0) {
        SparseLU<Real> lu(ws.gsp);
        lu.solveManyInPlace(rhsAll, ns);
        ++sensCost.factorizations;
        sensCost.solves += ns;
        for (size_t i = 0; i < ns; ++i) {
          s[i].assign(rhsAll.begin() + i * n, rhsAll.begin() + (i + 1) * n);
        }
      }
    } else {
      // Sensitivity update at the accepted point:
      //   (G1 + C1/h) s1 = (C0/h) s0 - [bf1 + (bq1 - bq0)/h]
      // with C0 s0 linearized around the previous accepted point; we store
      // dq/dp (= bq) and d q/dx * s as combined charge sensitivity to keep
      // the recursion exact:
      //   d/dt [ C s + dq/dp ] -> ((C1 s1 + bq1) - (C0 s0 + bq0))/h.
      // The Jacobian J = G1 + C1/h is exactly the matrix the Newton kernel
      // factored to accept this step, and C1 was evaluated there too: the
      // update costs no extra evaluation or factorization, just the
      // multi-RHS substitutions for all ns injection columns — fanned
      // across the pool's slots when the caller supplied one.
      forEachColumnBlock(opt.pool, ns, [&](size_t i0, size_t i1, size_t slot) {
        updateColumns(x, t, h, i0, i1, slot);
      });
      // The per-slot solves run on worker threads, but their column total
      // is deterministic.
      sensCost.solves += ns;
    }
    cPrev = ws.csp;
    for (size_t i = 0; i < ns; ++i) result.sens[i].push_back(s[i]);
  };

  TransientResult tr = runTransient(sys, t0, t1, dt, stepOpt, ws, onPoint);
  result.times = std::move(tr.times);
  result.states = std::move(tr.states);
  result.stats = tr.stats;
  result.stats.add(sensCost);
  return result;
}

Real TransientSensitivityResult::crossingTimeSensitivity(size_t sourceIndex,
                                                         int outIndex,
                                                         Real level,
                                                         int direction) const {
  PSMN_CHECK(sourceIndex < sens.size(), "bad source index");
  PSMN_CHECK(outIndex >= 0 && !states.empty() &&
                 static_cast<size_t>(outIndex) < states.front().size(),
             "bad output index");
  const auto& sv = sens[sourceIndex];
  for (size_t k = 1; k < times.size(); ++k) {
    const Real y0 = states[k - 1][outIndex];
    const Real y1 = states[k][outIndex];
    const bool crosses = direction >= 0 ? (y0 < level && y1 >= level)
                                        : (y0 > level && y1 <= level);
    if (!crosses) continue;
    const Real vdot = (y1 - y0) / (times[k] - times[k - 1]);
    PSMN_CHECK(vdot != 0.0, "flat crossing");
    // Interpolate the sensitivity at the crossing.
    const Real u = (level - y0) / (y1 - y0);
    const Real sAtCross =
        sv[k - 1][outIndex] + u * (sv[k][outIndex] - sv[k - 1][outIndex]);
    return -sAtCross / vdot;
  }
  throw Error("crossingTimeSensitivity: no crossing found");
}

}  // namespace psmn
