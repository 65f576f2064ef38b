"""The closed-loop step on Python floats, for small networks.

`FloatKernel` has `arraykernel.ArrayKernel`'s interface: `step` builds
every node's Lie terms and psi2 blocks and hands them to `settle`, which
calls `negotiate` for the regions and runs the certificate filter, and
`advance` takes the RK4 step and clamp.  Each stage takes the arguments
and returns the fields of the array kernel's, as lists.  It works one
node at a time on Python floats, but for `SisModel.pressure`, the BLAS
product `beta @ y` of each RK4 stage, which both kernels call.  No other
product will do: on a one-node network np.dot rounds beta_11 * y to -0.0
where `@` gives +0.0.  At a few nodes numpy's per-call dispatch costs the
array kernel more than its arithmetic, and this loop skips that cost.

Both kernels give the same bits.  Every expression keeps the array
kernel's operation order.  Every sum starts from +0.0 and adds its terms
in EdgeLayout's order: by target, then ascending source.  Both raise the
same errors with the same messages and log the same warnings.  Edge data
lives in lists over the edges of the model's EdgeLayout, in its order, so
a sub-round's record is the (sub_round, eligible, shares, eps) that
`collab.message_rows` reads.  Each node's in-edges (a run of the edge
order) and each helper's out-edges (in EdgeLayout.by_source order) are
listed at construction, so every pass of a step is one loop over nodes or
edges.  No SIS coupling is negative, so every request raises its
helper's floor: each sub-round folds a helper's requests once into the low
end of its box, and a helper whose floor passes the top of its box freezes
there.  Negligible split weights split evenly.

Each implementation of the step has its own home: the per-node reference
in `dynamics`, `barrier`, `geometry`, `collab` and `simulate`, this kernel
here, and the array kernel in `arraykernel`.  The reference calls the same
scalar rules as this kernel: the capability on an interval
(`barrier._max_quadratic_on_interval`, as `max_capability`), the
certificate filter (`filter_point` here, as `simulate.safety_filter`) and
the proportional split (`barrier._split`, as `partition`).  The tolerances,
caps and logger it shares with the reference live in `barrier` too, so a
run never loads `collab` or `geometry`.  The array kernel shares no
arithmetic with either: it is the independent implementation that both
are pinned to.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from .barrier import (CERT_TOL, MARGIN_TOL, NEGLIGIBLE_NORMAL, PSI1_TOL, BarrierArrays,
                      _infeasible, _max_quadratic_on_interval, _split, log)
from .dynamics import SisModel
from .errors import NumericsError, ProtocolStallError


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
        # per node: its in-edges, a run of the edge order, ascending source
        ends = np.cumsum(np.bincount(layout.target, minlength=n)).tolist()
        self.rows = [range(start, end) for start, end in zip([0, *ends], ends)]
        # per node: -gamma, beta_ii, and the (source, beta weight) of each in-edge
        weight = model.edge_weight.tolist()
        self.rates = list(zip((-model.params.gamma).tolist(), model.self_weight.tolist(),
                              [tuple((self.source[e], weight[e]) for e in row)
                               for row in self.rows]))
        # per node: threshold, eta, kappa, eta + kappa
        self.gains = list(zip(gains.threshold.tolist(), gains.eta.tolist(),
                              gains.kappa.tolist(), gains.eta_kappa.tolist()))
        # per helper: its out-edges in by-source order, ascending target
        self.out_edges = [[] for _ in range(n)]
        for e in layout.by_source.tolist():
            self.out_edges[self.source[e]].append(e)
        self.box_lo, self.box_hi = box_lo.tolist(), box_hi.tolist()
        self.nominal = nominal.tolist()
        self.gamma, self.pressure = model.params.gamma.tolist(), model.pressure

    def step(self, x, udot: np.ndarray, records: list[tuple] | None,
             negotiate: bool) -> tuple:
        """ArrayKernel.step on Python floats: the same arguments and results.

        x may be a list; the controls, capability and relaxed flags come back as lists.
        """
        x = x if isinstance(x, list) else x.tolist()
        drift, slope = [], []
        for (neg_gamma, b_ii, edges), xi in zip(self.rates, x):
            pressure = 0.0 + b_ii * xi
            for j, w in edges:
                pressure += w * x[j]
            one_minus = 1.0 - xi
            drift.append(neg_gamma * xi + one_minus * pressure)
            slope.append(neg_gamma - pressure + one_minus * b_ii)

        # psi2's self-term blocks, its coupling over the edges, and psi1 at
        # zero control
        constant, linear, base, coupling = [], [], [], []
        probe = 0.0
        for (_, _, edges), (threshold, eta, kappa, eta_kappa), xi, f, dfdx, rate in zip(
                self.rates, self.gains, x, drift, slope, udot.tolist()):
            one_minus = 1.0 - xi
            cross = 0.0
            for j, w in edges:
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
            constant.append(cross + lf2_h + xi * rate + eta * lf_h + kappa * (lf_h + pull))
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
            lo, hi, frozen, caps, allocated, _, *rounds = self.negotiate(
                constant, linear, quadratic, coupling, records)
        else:
            lo, hi, frozen = self.box_lo, self.box_hi, [False] * n
            caps = self._capability(constant, linear, quadratic, lo, hi, frozen)
            allocated = [0.0] * n  # so no node owes a certificate
            rounds = 0, 0, False

        controls, relaxed = [], []
        for a, b, c, l, q, lo_i, hi_i, stuck, want, got in zip(
                x, base, constant, linear, quadratic, lo, hi, frozen, self.nominal,
                allocated):  # L_g h of a scalar node is its state
            if stuck:  # frozen at the top of its box
                u, lax = hi_i, b + a * hi_i < -PSI1_TOL
            else:
                # a node that negotiated help owes its own share of the closed margin
                u, lax = filter_point(a, b, lo_i, hi_i, want,
                                      (c - got, l, q) if got < 0.0 else None)
            controls.append(u)
            relaxed.append(lax)
        return (controls, caps, *rounds, relaxed)

    def advance(self, x, u, dt: float) -> tuple[list, float]:
        """ArrayKernel.advance in rk4_step's and clamp_state's operation order.

        x may be an array, u is a list as step returns it, and the next state is a list.
        """
        x = x if isinstance(x, list) else x.tolist()
        loss = [-(g + v) for g, v in zip(self.gamma, u)]
        pressure = self.pressure
        half = 0.5 * dt
        # each stage's flow, loss * y + (1 - y) * pressure(y), then the next stage's y
        k1 = [a * xi + (1.0 - xi) * p for a, xi, p in zip(loss, x, pressure(x).tolist())]
        y = [xi + half * k for xi, k in zip(x, k1)]
        k2 = [a * yi + (1.0 - yi) * p for a, yi, p in zip(loss, y, pressure(y).tolist())]
        y = [xi + half * k for xi, k in zip(x, k2)]
        k3 = [a * yi + (1.0 - yi) * p for a, yi, p in zip(loss, y, pressure(y).tolist())]
        y = [xi + dt * k for xi, k in zip(x, k3)]
        k4 = [a * yi + (1.0 - yi) * p for a, yi, p in zip(loss, y, pressure(y).tolist())]
        sixth = dt / 6.0
        out = [xi + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
               for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, out)):
            node = next(i for i, v in enumerate(out) if not math.isfinite(v)) + 1
            raise NumericsError(f"node {node}: non-finite state after step")
        if min(out) < 0.0 or max(out) > 1.0:
            clipped = [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in out]  # -0.0 stays
            return clipped, max(abs(c - v) for c, v in zip(clipped, out))
        return out, 0.0

    def _check_lie_terms(self, x: list, drift: list, slope: list) -> None:
        """Raise NumericsError naming the lowest node with a non-finite Lie term."""
        for i, (_, _, edges) in enumerate(self.rates):
            xi, f, dfdx = x[i], drift[i], slope[i]
            one_minus = 1.0 - xi
            terms = [xi, f, -dfdx * f, dfdx * xi]
            for j, w in edges:
                terms += (-(one_minus * w) * drift[j], one_minus * w * x[j])
            if not all(map(math.isfinite, terms)):
                raise NumericsError(f"node {i + 1}: non-finite Lie derivative")

    @staticmethod
    def _capability(constant: list, linear: list, quadratic: list, lo: list, hi: list,
                    frozen: list) -> list:
        """Each node's best self term on its region; a frozen node's value at hi."""
        # a point's value is QuadraticForm.value's: its one-element dot products add to +0.0
        return [(c + (l * hi_i + 0.0)) + ((hi_i * q + 0.0) * hi_i + 0.0) if stuck
                else _max_quadratic_on_interval(c, l, q, lo_i, hi_i)[0]
                for c, l, q, lo_i, hi_i, stuck in zip(constant, linear, quadratic, lo, hi,
                                                      frozen)]

    def _partition(self, deficit: list, weight: list, eligible: list) -> list:
        """Each asking node's deficit split over its eligible in-edges by weight."""
        shares = []
        for i, row in enumerate(self.rows):
            asks = eligible[row.start:row.stop]
            if not any(asks):
                shares += [0.0] * len(asks)
                continue
            every = all(asks)
            weights = weight[row.start:row.stop]
            if not every:
                weights = list(compress(weights, asks))
            parts = _split(deficit[i], weights)
            if parts is None:
                log.warning("node %d: all coupling weights negligible, splitting uniformly",
                            i + 1)
                parts = _split(deficit[i], [1.0] * len(weights))
            if every:
                shares += parts
            else:
                parts = iter(parts)
                shares += [next(parts) if ask else 0.0 for ask in asks]
        return shares

    def negotiate(self, constant: list, linear: list, quadratic: list, a: list,
                  records: list[tuple] | None) -> tuple:
        """ArrayKernel.negotiate on lists; a is psi2's coupling over the edges.

        Returns lo, hi, frozen, capability and allocated per node, out_alloc
        per edge, then the outer rounds, the sub-rounds and whether the cap
        tripped.  A frozen node's region is the point hi, its box_hi.
        """
        n, rows, edges = self.n, self.rows, len(a)
        box_lo, box_hi = self.box_lo, self.box_hi
        helper, asker = self.source, self.target
        tables = None
        out_alloc = [0.0] * edges
        allocated = [0.0] * n
        eligible = [True] * edges
        lo, frozen = box_lo, [False] * n
        outer = total_sub = 0
        cap_tripped = False
        while True:
            outer += 1
            caps = self._capability(constant, linear, quadratic, lo, box_hi, frozen)
            deficit = [cap - got for cap, got in zip(caps, allocated)]
            if all(d >= -MARGIN_TOL for d in deficit):
                break
            if outer >= self.outer_cap:
                stuck = tuple(i + 1 for i, row in enumerate(rows) if deficit[i] < -MARGIN_TOL
                              and not any(eligible[row.start:row.stop]))
                if stuck:
                    raise _infeasible(stuck)
                cap_tripped = True
                break
            if tables is None:  # built once the first sub-round runs
                tables = self._edge_tables(a)
            dead, weight, rising = tables
            eligible = [True] * edges  # a fresh capability estimate deserves fresh refusals
            sub = 0
            while True:
                if sub >= self.inner_cap:
                    raise ProtocolStallError(f"no agreement after {self.inner_cap} sub-rounds")
                sub += 1

                shares = self._partition(deficit, weight, eligible)
                target = [held + share for held, share in zip(out_alloc, shares)]
                eps = [0.0] * edges
                for e in dead:  # nothing the helper does reaches this requester
                    if target[e] < 0.0:
                        eps[e] = -target[e]
                lo, frozen = [], []
                for lo_j, hi_j, up in zip(box_lo, box_hi, rising):
                    for s, a_s in up:
                        b = -target[s] / a_s
                        if b > lo_j:
                            lo_j = b
                    lo.append(lo_j)
                    frozen.append(lo_j > hi_j)
                    if lo_j > hi_j:  # frozen at hi_j: refuse each request's shortfall there
                        for s, a_s in up:
                            short = a_s * hi_j + target[s]
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
                refused = [v > 0.0 for v in eps]
                if not any(refused):
                    break
                eligible = [ask and not no for ask, no in zip(eligible, refused)]
                touched = set()
                for e in compress(range(edges), refused):
                    touched.add(asker[e])
                    touched.add(helper[e])
                # done once no touched node has an in-neighbor left to ask
                if not any(any(eligible[rows[i].start:rows[i].stop]) for i in touched):
                    break
                deficit = [cap - got for cap, got in zip(caps, allocated)]
            total_sub += sub
        return lo, box_hi, frozen, caps, allocated, out_alloc, outer, total_sub, cap_tripped

    def _edge_tables(self, a: list) -> tuple:
        """The edges whose coupling is negligible, the split weights, and per
        helper the requests that raise its floor."""
        dead, rising = [], []
        for out in self.out_edges:
            up = []
            for s in out:
                a_s = a[s]
                if a_s > NEGLIGIBLE_NORMAL:
                    up.append((s, a_s))
                else:
                    dead.append(s)
            rising.append(up)
        weight = [1.0] * len(a) if self.uniform else list(map(abs, a))
        return dead, weight, rising
