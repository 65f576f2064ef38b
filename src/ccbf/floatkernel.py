"""The closed-loop step on Python floats, for small networks.

`FloatKernel.step` does what `simulate.ArrayKernel.step` does: every
node's Lie terms and psi2 blocks, the negotiation of its region, and the
certificate filter; `advance` its RK4 step and clamp.  It works one node
at a time on Python floats, but for `SisModel.pressure`, the BLAS product
of each RK4 stage.  At a few nodes numpy's per-call dispatch costs the
array kernel more than its arithmetic, and this loop skips that cost.

Both kernels give the same bits.  Every expression keeps the array
kernel's operation order.  Every sum starts from +0.0 and adds its terms
in EdgeLayout's order: by target, then ascending source.  Both raise the
same errors with the same messages and log the same warnings.  Edge data
lives in lists over the edges of the model's EdgeLayout, in its order, so
a sub-round's record is the (sub_round, eligible, shares, eps) that
`collab.message_rows` reads.

The per-node reference calls the same scalar rules: the capability on an
interval (`barrier._max_quadratic_on_interval`, as `max_capability`), the
certificate filter (`filter_point` here, as `simulate.safety_filter`),
the proportional split (`collab._split`, as `partition`) and the nearest
point (`geometry.nearest_point`, as `closest_point`).  The array stages
share no arithmetic with either: they are the independent implementation
that both are pinned to.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .barrier import CERT_TOL, PSI1_TOL, BarrierArrays, _max_quadratic_on_interval
from .collab import MARGIN_TOL, _infeasible, _split
from .dynamics import SisModel
from .errors import EmptyRegionError, NumericsError, ProtocolStallError
from .geometry import NEGLIGIBLE_NORMAL, nearest_point

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


def filter_point(a: float, base: float, lo: float, hi: float, want: float,
                 certificate: tuple[float, float, float] | None) -> tuple[float, bool]:
    """A node's filtered control on its interval [lo, hi], and whether psi1 was relaxed.

    a is the node's L_g h and base its psi1 at zero control.  The control
    nearest want keeps psi1 = base + a u nonnegative; certificate, the
    (constant, linear, quadratic) of the node's own margin, is honored
    when some such control meets it (see _certificate_point).  When none
    does, the end of [lo, hi] that comes closest is returned, or the
    clamped nominal when the control cannot move psi1 at all.
    """
    up, down = a > NEGLIGIBLE_NORMAL, a < -NEGLIGIBLE_NORMAL
    flo, fhi = lo, hi
    if up or down:
        bound = -base / a
        if up and bound > lo:
            flo = bound
        if down and bound < hi:
            fhi = bound
    elif base < -PSI1_TOL:  # control cannot reach psi1 at all
        flo, fhi = hi, lo
    if flo <= fhi:
        best = None if certificate is None else _certificate_point(*certificate, want, flo, fhi)
        return (_clamp(want, flo, fhi) if best is None else best), False
    return ((hi if up else lo) if up or down else _clamp(want, lo, hi)), True


class FloatKernel:
    """The closed-loop step on Python floats; see the module docstring."""

    def __init__(self, model: SisModel, gains: BarrierArrays, nominal: np.ndarray,
                 box_lo: np.ndarray, box_hi: np.ndarray, *,
                 outer_cap: int, inner_cap: int, weights_mode: str):
        layout = model.layout
        n = self.n = model.graph.node_count
        self.source, self.target = layout.source.tolist(), layout.target.tolist()
        self.outer_cap, self.inner_cap = outer_cap, inner_cap
        self.uniform = weights_mode == "uniform"
        # per node: -gamma, beta_ii, threshold, eta, kappa, eta + kappa
        self.own = list(zip((-model.params.gamma).tolist(), model.self_weight.tolist(),
                            gains.threshold.tolist(), gains.eta.tolist(),
                            gains.kappa.tolist(), gains.eta_kappa.tolist()))
        # per node: its in-edges, a run of the edge order, ascending source
        ends = np.cumsum(np.bincount(layout.target, minlength=n)).tolist()
        self.rows = [range(start, end) for start, end in zip([0, *ends], ends)]
        # per node: (source, beta weight) of each in-edge
        weight = model.edge_weight.tolist()
        self.in_edges = [tuple((self.source[e], weight[e]) for e in row) for row in self.rows]
        # per helper: its out-edges, ascending target
        self.out_slots = [slots[real].tolist()
                          for slots, real in zip(layout.out_slot, layout.out_mask)]
        self.box_lo, self.box_hi = box_lo.tolist(), box_hi.tolist()
        self.nominal = nominal.tolist()
        self.gamma, self.pressure = model.params.gamma.tolist(), model.pressure

    def step(self, x, udot: np.ndarray, records: list[tuple] | None,
             negotiate: bool) -> tuple:
        """ArrayKernel.step on Python floats: the same arguments and results.

        x may be a list; the controls, capability and relaxed flags come back as lists.
        """
        x = x if isinstance(x, list) else x.tolist()
        rate = udot.tolist()
        n, own, in_edges = self.n, self.own, self.in_edges
        drift = [0.0] * n
        slope = [0.0] * n
        for i, (neg_gamma, b_ii, _, _, _, _) in enumerate(own):
            xi = x[i]
            pressure = 0.0 + b_ii * xi
            for j, w in in_edges[i]:
                pressure += w * x[j]
            one_minus = 1.0 - xi
            drift[i] = neg_gamma * xi + one_minus * pressure
            slope[i] = neg_gamma - pressure + one_minus * b_ii

        # psi2's self-term blocks, its coupling over the edges, and psi1 at
        # zero control
        constant, linear, base, coupling = [], [], [], []
        probe = 0.0
        for i, (_, _, threshold, eta, kappa, eta_kappa) in enumerate(own):
            xi, f, dfdx = x[i], drift[i], slope[i]
            one_minus = 1.0 - xi
            cross = 0.0
            for j, w in in_edges[i]:
                shared = one_minus * w
                lfj = -shared * drift[j]
                lgj = shared * x[j]
                coupling.append(lgj)
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
        """ArrayKernel.settle on lists; coupling is over the edges."""
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
            if frozen[i]:
                u = point[i]
                relaxed.append(b + a * u < -PSI1_TOL)
            else:
                # a node that negotiated help owes its own share of the closed margin
                certificate = (constant[i] - allocated[i], linear[i], quadratic[i]) \
                    if negotiate and allocated[i] < 0.0 else None
                u, lax = filter_point(a, b, lo[i], hi[i], self.nominal[i], certificate)
                relaxed.append(lax)
            controls.append(u)
        return (controls, caps, *rounds, relaxed)

    def advance(self, x, u, dt: float) -> tuple[list, float]:
        """ArrayKernel.advance in rk4_step's and clamp_state's operation order.

        x may be an array, u is a list as step returns it, and the next state is a list.
        """
        x = x if isinstance(x, list) else x.tolist()
        loss = [-(g + v) for g, v in zip(self.gamma, u)]
        half = 0.5 * dt

        def flow(y: list) -> list:
            p = self.pressure(y).tolist()
            return [a * yi + (1.0 - yi) * pi for a, yi, pi in zip(loss, y, p)]

        k1 = flow(x)
        k2 = flow([xi + half * k for xi, k in zip(x, k1)])
        k3 = flow([xi + half * k for xi, k in zip(x, k2)])
        k4 = flow([xi + dt * k for xi, k in zip(x, k3)])
        out = [xi + dt / 6.0 * (((a + 2.0 * b) + 2.0 * c) + d)
               for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, out)):
            node = next(i for i, v in enumerate(out) if not math.isfinite(v)) + 1
            raise NumericsError(f"node {node}: non-finite state after step")
        clipped = [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in out]  # -0.0 stays
        return clipped, max(abs(c - v) for c, v in zip(clipped, out))

    def _check_lie_terms(self, x: list, drift: list, slope: list) -> None:
        """Raise NumericsError naming the lowest node with a non-finite Lie term."""
        for i, edges in enumerate(self.in_edges):
            xi, f, dfdx = x[i], drift[i], slope[i]
            one_minus = 1.0 - xi
            terms = [xi, f, -dfdx * f, dfdx * xi]
            for j, w in edges:
                terms += (-(one_minus * w) * drift[j], one_minus * w * x[j])
            if not all(map(math.isfinite, terms)):
                raise NumericsError(f"node {i + 1}: non-finite Lie derivative")

    @staticmethod
    def _capability(constant: list, linear: list, quadratic: list, lo: list, hi: list,
                    frozen: list, point: list) -> list:
        """Each node's best self term on its region; its value at a frozen point."""
        caps = []
        for i, (c, l, q) in enumerate(zip(constant, linear, quadratic)):
            if frozen[i]:
                p = point[i]
                # QuadraticForm.value: its one-element dot products add to +0.0
                caps.append((c + (l * p + 0.0)) + ((p * q + 0.0) * p + 0.0))
            elif lo[i] > hi[i]:
                raise EmptyRegionError(f"node {i + 1}: admissible interval is empty "
                                       f"({lo[i]} > {hi[i]})")
            else:
                caps.append(_max_quadratic_on_interval(c, l, q, lo[i], hi[i])[0])
        return caps

    def _partition(self, deficit: list, weight: list, eligible: list) -> list:
        """Each asking node's deficit split over its eligible in-edges by weight."""
        shares = [0.0] * len(eligible)
        for i, row in enumerate(self.rows):
            ask = [e for e in row if eligible[e]]
            if not ask:
                continue
            parts = _split(deficit[i], [weight[e] for e in ask])
            if parts is None:
                log.warning("node %d: all coupling weights negligible, splitting uniformly",
                            i + 1)
                parts = _split(deficit[i], [1.0] * len(ask))
            for e, share in zip(ask, parts):
                shares[e] = share
        return shares

    def negotiate(self, constant: list, linear: list, quadratic: list, a: list,
                  records: list[tuple] | None) -> tuple:
        """collaborative_safety_arrays on lists; a is psi2's coupling over the edges.

        Returns lo, hi, frozen, point, capability and allocated per node,
        then the outer rounds, the sub-rounds and whether the cap tripped.
        Only a frozen node's point is meaningful.
        """
        n, rows, edges = self.n, self.rows, len(a)
        box_lo, box_hi = self.box_lo, self.box_hi
        helper, asker = self.source, self.target
        tables = None
        out_alloc = [0.0] * edges
        allocated = [0.0] * n
        constrained = [False] * edges
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
                              and all(constrained[e] for e in rows[i]))
                if stuck:
                    raise _infeasible(stuck)
                cap_tripped = True
                break
            if tables is None:  # built once the first sub-round runs
                tables = self._edge_tables(a)
            dead, weight, rising, falling = tables
            constrained = [False] * edges
            sub = 0
            while True:
                if sub >= self.inner_cap:
                    raise ProtocolStallError(f"no agreement after {self.inner_cap} sub-rounds")
                sub += 1

                eligible = [not v for v in constrained]
                shares = self._partition(deficit, weight, eligible)
                target = [held + share for held, share in zip(out_alloc, shares)]
                eps = [0.0] * edges
                for e in dead:  # nothing the helper does reaches this requester
                    if target[e] < 0.0:
                        eps[e] = -target[e]
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
                    for e in row:
                        total += out_alloc[e]
                    allocated.append(total)

                if records is not None:
                    records.append((total_sub + sub, eligible, shares, eps))

                # a sub-round without a refusal touches no node, which ends
                # the negotiation for this capability estimate
                refused = [e for e, v in enumerate(eps) if v > 0.0]
                if not refused:
                    break
                touched = set()
                for e in refused:
                    constrained[e] = True
                    touched.add(asker[e])
                    touched.add(helper[e])
                if all(i not in touched or all(constrained[e] for e in rows[i])
                       for i in range(n)):
                    break
                deficit = [cap - got for cap, got in zip(caps, allocated)]
            total_sub += sub
        return lo, hi, frozen, point, caps, allocated, outer, total_sub, cap_tripped

    def _edge_tables(self, a: list) -> tuple:
        """The edges whose coupling is negligible, the split weights, and per
        helper the requests that bound its interval from below and above."""
        dead = [e for e, v in enumerate(a) if not abs(v) > NEGLIGIBLE_NORMAL]
        weight = [1.0] * len(a) if self.uniform else [abs(v) for v in a]
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
        return nearest_point(plo, phi, self.box_lo[j], self.box_hi[j])
