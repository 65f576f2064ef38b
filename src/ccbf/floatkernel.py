"""The closed-loop step on Python floats, for small networks.

`FloatKernel.step` does what `simulate.ArrayKernel.step` does: every
node's Lie terms and psi2 blocks, the negotiation of its region, and the
certificate filter.  It works one node at a time, on lists of Python
floats.  At a few nodes numpy's per-call dispatch costs the array kernel
more than its arithmetic, and this loop skips that cost.

Both kernels give the same bits.  Every expression keeps the array
kernel's operation order.  Every sum starts from +0.0 and adds its terms
in EdgeLayout's order: by target, then ascending source.  Both raise the
same errors with the same messages and log the same warnings.  Edge data
lives in flat lists over the by-target slots of the model's EdgeLayout,
padding included, so a sub-round's record is the (sub_round, eligible,
shares, eps) that `collab.message_rows` reads.  This module shares no
arithmetic with the array kernel, so each one checks the other.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .barrier import CERT_TOL, PSI1_TOL, BarrierArrays
from .collab import MARGIN_TOL, _infeasible
from .dynamics import SisModel
from .errors import (EmptyRegionError, GeometryConvergenceError, NumericsError,
                     ProtocolStallError)
from .geometry import NEGLIGIBLE_NORMAL

# the negotiation's warnings are the protocol's, as the array kernel logs them
log = logging.getLogger("ccbf.collab")


def _clamp(v: float, lo: float, hi: float) -> float:
    """min(max(v, lo), hi), keeping the first argument on ties."""
    if lo > v:
        v = lo
    return hi if hi < v else v


def _certificate_point(c: float, l: float, q: float, want: float,
                       flo: float, fhi: float) -> float | None:
    """The point of c + l u + q u^2 >= -CERT_TOL in [flo, fhi] nearest want, or None.

    The pieces are tried first piece first, and a later one must be
    strictly nearer to win.
    """
    c = c + CERT_TOL
    disc = l * l - 4.0 * q * c
    flat = abs(q) <= NEGLIGIBLE_NORMAL
    crossing = not flat and disc > 0.0
    root = math.sqrt(disc) if crossing else 0.0
    r1 = r2 = 0.0
    if not flat:
        two_q = 2.0 * q
        r1, r2 = (-l - root) / two_q, (-l + root) / two_q
        if r2 < r1:
            r1, r2 = r2, r1
    concave = q < 0.0
    lo1, hi1 = -math.inf, math.inf
    if crossing:  # between the roots, or below the lower one
        lo1, hi1 = (r1, r2) if concave else (-math.inf, r1)
    has1 = crossing or not concave
    if flat:
        if abs(l) <= NEGLIGIBLE_NORMAL:
            has1 = c >= 0.0
        else:
            cut = -c / l
            if l > 0.0:
                lo1 = cut
            else:
                hi1 = cut
            has1 = True
    seg_lo = lo1 if lo1 > flo else flo
    seg_hi = hi1 if hi1 < fhi else fhi
    found = has1 and not seg_lo > seg_hi
    best = _clamp(want, seg_lo, seg_hi)
    if crossing and not concave:  # the second piece, above the upper root
        seg_lo = r2 if r2 > flo else flo
        if not seg_lo > fhi:
            u = _clamp(want, seg_lo, fhi)
            if not found or abs(u - want) < abs(best - want):
                best = u
            found = True
    return best if found else None


class FloatKernel:
    """The closed-loop step on Python floats; see the module docstring."""

    def __init__(self, model: SisModel, gains: BarrierArrays, nominal: np.ndarray,
                 box_lo: np.ndarray, box_hi: np.ndarray, *,
                 outer_cap: int, inner_cap: int, weights_mode: str):
        layout = model.layout
        n, width = layout.in_mask.shape
        beta = model.params.beta
        sources, mask = layout.in_source.tolist(), layout.in_mask.tolist()
        self.n, self.size = n, n * width
        self.outer_cap, self.inner_cap = outer_cap, inner_cap
        self.uniform = weights_mode == "uniform"
        # per node: -gamma, beta_ii, threshold, eta, kappa, eta + kappa
        self.own = list(zip((-model.params.gamma).tolist(), np.diagonal(beta).tolist(),
                            gains.threshold.tolist(), gains.eta.tolist(),
                            gains.kappa.tolist(), gains.eta_kappa.tolist()))
        # per node: (slot, source, beta weight) of each in-edge, ascending source
        self.in_edges = [tuple((i * width + c, j, float(beta[i, j]))
                               for c, (j, real) in enumerate(zip(sources[i], mask[i])) if real)
                         for i in range(n)]
        self.rows = [tuple(s for s, _, _ in edges) for edges in self.in_edges]
        self.slots = [s for row in self.rows for s in row]
        self.row_of = layout.in_row.tolist()
        self.source = layout.in_source.ravel().tolist()
        self.padding = (~layout.in_mask).ravel().tolist()
        # per helper: the slots of its out-edges, ascending target
        self.out_slots = [slots[real].tolist()
                          for slots, real in zip(layout.out_slot, layout.out_mask)]
        self.box_lo, self.box_hi = box_lo.tolist(), box_hi.tolist()
        self.nominal = nominal.tolist()

    def step(self, x_array: np.ndarray, udot: np.ndarray, records: list[tuple] | None,
             negotiate: bool) -> tuple:
        """ArrayKernel.step on Python floats: the same arguments and results.

        The controls, capability and relaxed flags come back as lists.
        """
        x = x_array.tolist()
        rate = udot.tolist()
        n, own, in_edges = self.n, self.own, self.in_edges
        drift = [0.0] * n
        slope = [0.0] * n
        for i, (neg_gamma, b_ii, _, _, _, _) in enumerate(own):
            xi = x[i]
            pressure = 0.0 + b_ii * xi
            for _, j, w in in_edges[i]:
                pressure += w * x[j]
            one_minus = 1.0 - xi
            drift[i] = neg_gamma * xi + one_minus * pressure
            slope[i] = neg_gamma - pressure + one_minus * b_ii

        # psi2's self-term blocks, its coupling on the by-target slots, and
        # psi1 at zero control
        constant, linear, base = [], [], []
        coupling = [0.0] * self.size
        probe = 0.0
        for i, (_, _, threshold, eta, kappa, eta_kappa) in enumerate(own):
            xi, f, dfdx = x[i], drift[i], slope[i]
            one_minus = 1.0 - xi
            cross = 0.0
            for s, j, w in in_edges[i]:
                shared = one_minus * w
                lfj = -shared * drift[j]
                lgj = shared * x[j]
                coupling[s] = lgj
                cross += lfj
                probe += lfj + lgj
            lf_h = -f
            lf2_h = -dfdx * f
            lg_lf_h = dfdx * xi
            probe += xi + f + lf2_h + lg_lf_h
            pull = eta * (threshold - xi)
            constant.append(cross + lf2_h + xi * rate[i] + eta * lf_h + kappa * (lf_h + pull))
            linear.append(f + lg_lf_h + eta_kappa * xi)
            base.append(lf_h + pull)
        if not math.isfinite(probe):  # some term is not finite, or their sum overflowed
            self._check_lie_terms(x, drift, slope)
        quadratic = [-xi for xi in x]
        return self.settle(x, base, constant, linear, quadratic, coupling, records, negotiate)

    def settle(self, x: list, base: list, constant: list, linear: list, quadratic: list,
               coupling: list, records: list[tuple] | None, negotiate: bool) -> tuple:
        """ArrayKernel.settle on lists; coupling is flat over the by-target slots."""
        n = self.n
        if negotiate:
            lo, hi, frozen, point, caps, allocated, *rounds = self.negotiate(
                constant, linear, quadratic, coupling, records)
        else:
            lo, hi, frozen, point = self.box_lo, self.box_hi, [False] * n, [0.0] * n
            caps = self._capability(constant, linear, quadratic, lo, hi, frozen, point)
            rounds = 0, 0, False

        for i in range(n):
            if not frozen[i] and lo[i] > hi[i]:
                raise EmptyRegionError(f"node {i + 1}: negotiated region is empty")
        controls, relaxed = [], []
        for i, (a, b) in enumerate(zip(x, base)):  # L_g h of a scalar node is its state
            lo_i, hi_i = lo[i], hi[i]
            up, down = a > NEGLIGIBLE_NORMAL, a < -NEGLIGIBLE_NORMAL
            flo, fhi = lo_i, hi_i
            if up or down:
                bound = -b / a
                if up and bound > lo_i:
                    flo = bound
                if down and bound < hi_i:
                    fhi = bound
            elif b < -PSI1_TOL:  # control cannot reach psi1 at all
                flo, fhi = hi_i, lo_i
            want = self.nominal[i]
            if frozen[i]:
                u = point[i]
                relaxed.append(b + a * u < -PSI1_TOL)
            elif flo <= fhi:
                u = _clamp(want, flo, fhi)
                # a node that negotiated help owes its own share of the closed margin
                if negotiate and allocated[i] < 0.0:
                    best = _certificate_point(constant[i] - allocated[i], linear[i],
                                              quadratic[i], want, flo, fhi)
                    if best is not None:
                        u = best
                relaxed.append(False)
            else:
                u = (hi_i if up else lo_i) if up or down else _clamp(want, lo_i, hi_i)
                relaxed.append(True)
            controls.append(u)
        return (controls, caps, *rounds, relaxed)

    def _check_lie_terms(self, x: list, drift: list, slope: list) -> None:
        """Raise NumericsError naming the lowest node with a non-finite Lie term."""
        for i, edges in enumerate(self.in_edges):
            xi, f, dfdx = x[i], drift[i], slope[i]
            one_minus = 1.0 - xi
            terms = [xi, f, -dfdx * f, dfdx * xi]
            for _, j, w in edges:
                terms += (-(one_minus * w) * drift[j], one_minus * w * x[j])
            if not all(map(math.isfinite, terms)):
                raise NumericsError(f"node {i + 1}: non-finite Lie derivative")

    @staticmethod
    def _capability(constant: list, linear: list, quadratic: list, lo: list, hi: list,
                    frozen: list, point: list) -> list:
        """Each node's best self term on its region; its value at a frozen point."""
        caps = []
        for i, (c, l, q) in enumerate(zip(constant, linear, quadratic)):
            lo_i, hi_i = lo[i], hi[i]
            if frozen[i]:
                p = point[i]
                # QuadraticForm.value: its one-element dot products add to +0.0
                caps.append((c + (l * p + 0.0)) + ((p * q + 0.0) * p + 0.0))
                continue
            if lo_i > hi_i:
                raise EmptyRegionError(f"node {i + 1}: admissible interval is empty "
                                       f"({lo_i} > {hi_i})")
            best = c + l * lo_i + q * lo_i * lo_i
            f_hi = c + l * hi_i + q * hi_i * hi_i
            if f_hi > best:
                best = f_hi
            if q != 0.0:  # the interior stationary point
                t = -l / (2.0 * q)
                f_t = c + l * t + q * t * t
                if lo_i < t < hi_i and f_t > best:
                    best = f_t
            caps.append(best)
        return caps

    def _partition(self, deficit: list, weight: list, eligible: list) -> list:
        """Each asking node's deficit split over its eligible slots by weight."""
        shares = [0.0] * self.size
        asking = []
        for i, row in enumerate(self.rows):
            ask = [s for s in row if eligible[s]]
            if not ask:
                continue
            asking.append(i)
            live = [s for s in ask if weight[s] > NEGLIGIBLE_NORMAL]
            total = 0.0
            for s in live:
                total += weight[s]
            parts = [(s, weight[s]) for s in live]
            if not total > 0.0:
                log.warning("node %d: all coupling weights negligible, splitting uniformly",
                            i + 1)
                total = 0.0
                for _ in ask:
                    total += 1.0
                parts = [(s, 1.0) for s in ask]
            d = deficit[i]
            for s, w in parts:
                shares[s] = d * (w / total)
        for i in asking:
            spread = 0.0
            for s in self.rows[i]:
                spread += shares[s]
            spread -= deficit[i]
            assert abs(spread) <= 1e-12 * max(1.0, abs(deficit[i])), \
                "partition must conserve the margin"
        return shares

    def negotiate(self, constant: list, linear: list, quadratic: list, a: list,
                  records: list[tuple] | None) -> tuple:
        """collaborative_safety_arrays on lists; a is psi2's coupling on the slots.

        Returns lo, hi, frozen, point, capability and allocated per node,
        then the outer rounds, the sub-rounds and whether the cap tripped.
        Only a frozen node's point is meaningful.
        """
        n, rows, slots = self.n, self.rows, self.slots
        box_lo, box_hi = self.box_lo, self.box_hi
        source, row_of = self.source, self.row_of
        tables = None
        out_alloc = [0.0] * self.size
        allocated = [0.0] * n
        constrained = self.padding  # padding counts as constrained: never eligible
        lo, hi, frozen, point = box_lo, box_hi, [False] * n, [0.0] * n
        outer = total_sub = 0
        cap_tripped = False
        while True:
            outer += 1
            caps = self._capability(constant, linear, quadratic, lo, hi, frozen, point)
            deficit = [cap - got for cap, got in zip(caps, allocated)]
            if all(d >= -MARGIN_TOL for d in deficit):
                break
            if outer >= self.outer_cap:
                stuck = tuple(i + 1 for i in range(n) if deficit[i] < -MARGIN_TOL
                              and all(constrained[s] for s in rows[i]))
                if stuck:
                    raise _infeasible(stuck)
                cap_tripped = True
                break
            if tables is None:  # built once the first sub-round runs
                tables = self._edge_tables(a)
            dead, weight, rising, falling = tables
            constrained = list(self.padding)
            sub = 0
            while True:
                if sub >= self.inner_cap:
                    raise ProtocolStallError(f"no agreement after {self.inner_cap} sub-rounds")
                sub += 1

                eligible = [not v for v in constrained]
                shares = self._partition(deficit, weight, eligible)
                target = [held + share for held, share in zip(out_alloc, shares)]
                eps = [0.0] * self.size
                for s in dead:  # nothing the helper does reaches this requester
                    if target[s] < 0.0:
                        eps[s] = -target[s]
                lo, hi, frozen = [], [], []
                for j in range(n):
                    lo_j, hi_j = box_lo[j], box_hi[j]
                    for s, a_s in rising[j]:
                        b = -target[s] / a_s
                        if b > lo_j:
                            lo_j = b
                    for s, a_s in falling[j]:
                        b = -target[s] / a_s
                        if b < hi_j:
                            hi_j = b
                    lo.append(lo_j)
                    hi.append(hi_j)
                    frozen.append(lo_j > hi_j)
                    if lo_j > hi_j:
                        point[j] = p = self._closest_point(j, target, rising[j], falling[j])
                        for s, a_s in rising[j] + falling[j]:
                            short = a_s * p + target[s]
                            if short < 0.0:
                                eps[s] = -short
                out_alloc = [t + e for t, e in zip(target, eps)]
                allocated = []
                for row in rows:
                    total = 0.0
                    for s in row:
                        total += out_alloc[s]
                    allocated.append(total)

                if records is not None:
                    records.append((total_sub + sub, eligible, shares, eps))

                # a sub-round without a refusal touches no node, which ends
                # the negotiation for this capability estimate
                refused = [s for s in slots if eps[s] > 0.0]
                if not refused:
                    break
                touched = set()
                for s in refused:
                    constrained[s] = True
                    touched.add(row_of[s])
                    touched.add(source[s])
                if all(i not in touched or all(constrained[s] for s in rows[i])
                       for i in range(n)):
                    break
                deficit = [cap - got for cap, got in zip(caps, allocated)]
            total_sub += sub
        return lo, hi, frozen, point, caps, allocated, outer, total_sub, cap_tripped

    def _edge_tables(self, a: list) -> tuple:
        """The slots whose coupling is negligible, the split weights, and per
        helper the requests that bound its interval from below and above."""
        dead = [s for s in self.slots if not abs(a[s]) > NEGLIGIBLE_NORMAL]
        weight = [1.0] * self.size if self.uniform else [abs(v) for v in a]
        rising = [[(s, a[s]) for s in out if a[s] > NEGLIGIBLE_NORMAL]
                  for out in self.out_slots]
        falling = [[(s, a[s]) for s in out if a[s] < -NEGLIGIBLE_NORMAL]
                   for out in self.out_slots]
        return dead, weight, rising, falling

    def _closest_point(self, j: int, target: list, rising: list, falling: list) -> float:
        """The point of helper j's box nearest its request polytope."""
        plo, phi = -math.inf, math.inf
        for s, a_s in rising:
            b = -target[s] / a_s
            if b > plo:
                plo = b
        for s, a_s in falling:
            b = -target[s] / a_s
            if b < phi:
                phi = b
        box_lo, box_hi = self.box_lo[j], self.box_hi[j]
        if plo > phi:
            raise GeometryConvergenceError("empty request polytope",
                                           last_iterate=np.array([box_lo]),
                                           residual=plo - phi)
        if phi < box_lo:
            return box_lo
        if plo > box_hi:
            return box_hi
        inside = box_lo if box_lo > plo else plo
        return box_hi if box_hi < inside else inside
