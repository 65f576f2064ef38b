"""The closed-loop step on Python floats, for small networks.

`FloatKernel` has `arraykernel.ArrayKernel`'s interface: `step` builds
every node's Lie terms and psi2 blocks and hands them to `settle`, which
calls `negotiate` for the regions and runs the certificate filter, and
`advance` takes the RK4 step and clamp.  Each stage takes the arguments
and returns the fields of the array kernel's, as lists.  It works on
Python floats, but for `SisModel.pressure`, the BLAS product `beta @ y` of
each RK4 stage, which both kernels call.  No other product will do: on a
one-node network np.dot rounds beta_11 * y to -0.0 where `@` gives +0.0.
At a few nodes numpy's per-call dispatch costs the array kernel more than
its arithmetic, and this kernel skips that cost.

`step` and `advance` are written out for each network.  When a kernel is
built, `_generate` writes Python source for the Lie-term and psi2-block
pass of `step` and for the four RK4 stages of `advance`, with the finite
check and the clamp, unrolled over the nodes and over each node's
in-edges in EdgeLayout order, and the kernel compiles it once.  The text
holds only identifiers and integer indices, so it depends on the graph
alone: -gamma, gamma, beta_ii, the edge weights, the thresholds and the
gains are names bound in the namespace the code runs in, and no float is
ever formatted into it.  `generated_source` holds the text, and the file
name it is compiled under, `<ccbf.floatkernel n=N e=E crc32>`, is
registered in `linecache`, so tracebacks, cProfile and sys.settrace show
its lines.  A stage's flat code does only the arithmetic: at three nodes
the loops it replaced spent most of a step on their own machinery.
`settle` and `negotiate` stay loops over nodes or edges that call the
shared scalar rules.

Both kernels give the same bits.  Every expression keeps the array
kernel's operation order.  Every sum starts from +0.0 and adds its terms
in EdgeLayout's order: by target, then ascending source.  Both raise the
same errors with the same messages and log the same warnings.  Edge data
lives in lists over the edges of the model's EdgeLayout, in its order, so
a sub-round's record is the (sub_round, eligible, shares, eps) that
`collab.message_rows` reads.  Each node's in-edges (a run of the edge
order) and each helper's out-edges (in EdgeLayout.by_source order) are
listed at construction, so every pass of `settle` and `negotiate` is one
loop over nodes or edges, most of them plain loops that append: on Python
3.11 a comprehension or generator scan is a call of its own, which costs
more at a few nodes than the appends.  No SIS coupling is negative, so
every request raises its helper's floor: each sub-round folds a helper's
requests once into the low end of its box, and a helper whose floor passes
the top of its box freezes there.  Negligible split weights split evenly.

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

import linecache
import math
import zlib
from itertools import compress

import numpy as np

from .barrier import (CERT_TOL, MARGIN_TOL, NEGLIGIBLE_NORMAL, PSI1_TOL, BarrierArrays,
                      _infeasible, _max_quadratic_on_interval, _split, log)
from .dynamics import SisModel
from .errors import NumericsError, ProtocolStallError


# whether a margin is closed: d >= -MARGIN_TOL, False for NaN as that comparison is
_NOT_SHORT = (-MARGIN_TOL).__le__


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


# terms per generated statement: the compiler recurses once per term of a sum
_TERMS = 256


def _sum(name: str, terms: list[str]) -> list[str]:
    """Indented statements that add terms into name left to right, as one sum would."""
    chunks = [terms[k:k + _TERMS] for k in range(0, len(terms), _TERMS)]
    return [f"    {name} = {' + '.join(chunk if k == 0 else [name, *chunk])}"
            for k, chunk in enumerate(chunks)]


def _names(prefix: str, count: int) -> str:
    """[prefix0, prefix1, ...]: count values to unpack or to list."""
    return f"[{', '.join(f'{prefix}{i}' for i in range(count))}]"


def _generate(rows: list[range], source: list[int]) -> str:
    """The source of FloatKernel's step and advance for one network; see the module docstring.

    rows[i] are node i+1's in-edges and source[e] is edge e's source.
    """
    n = len(rows)
    lines = [
        f'"""FloatKernel.step and .advance for a network of {n} nodes and {len(source)} edges.',
        "",
        "A name ending in k is node k+1's (x0 is node 1's state) or, for w, edge k's",
        "beta weight in EdgeLayout order.  The kernel binds the rates and gains by",
        "name when it is built: ng and gamma are -gamma and gamma, bii is beta_ii,",
        "xbar the threshold, eta and kappa the gains and ek eta + kappa.",
        '"""',
        "",
        "",
        "def step(self, x, udot, records, negotiate):",
        "    if not isinstance(x, list):",
        "        x = x.tolist()",
        f"    {_names('x', n)} = x",
        f"    {_names('r', n)} = udot.tolist()",
        "    # every node's infection pressure, 1 - x, drift and drift slope",
    ]
    for i, row in enumerate(rows):
        lines += _sum(f"p{i}", ["0.0", f"bii{i} * x{i}",
                                *(f"w{e} * x{source[e]}" for e in row)])
        lines += [f"    m{i} = 1.0 - x{i}",
                  f"    f{i} = ng{i} * x{i} + m{i} * p{i}",
                  f"    df{i} = ng{i} - p{i} + m{i} * bii{i}"]
    lines.append("    # every node's psi1 at zero control and psi2 blocks")
    for i, row in enumerate(rows):
        lines.append(f"    psi{i} = -f{i} + eta{i} * (xbar{i} - x{i})")
        lines += _sum(f"c{i}", ["0.0", *(f"-(m{i} * w{e}) * f{source[e]}" for e in row),
                                f"-df{i} * f{i}", f"x{i} * r{i}", f"eta{i} * -f{i}",
                                f"kappa{i} * psi{i}"])
        lines.append(f"    l{i} = f{i} + df{i} * x{i} + ek{i} * x{i}")
    coupling = ", ".join(f"m{i} * w{e} * x{source[e]}" for i, row in enumerate(rows)
                         for e in row)
    lines += [
        f"    constant = {_names('c', n)}",
        f"    linear = {_names('l', n)}",
        f"    coupling = [{coupling}]",
        "    # each Lie term enters these as a summand or times a finite nonzero gain,",
        "    # so a non-finite one leaves their sum non-finite (as may an overflow)",
        "    if not isfinite(sum(constant) + sum(linear) + sum(coupling)):",
        f"        self._check_lie_terms(x, {_names('f', n)}, {_names('df', n)})",
        f"    quadratic = [{', '.join(f'-x{i}' for i in range(n))}]",
        f"    return self.settle(x, {_names('psi', n)}, constant, linear, quadratic, coupling,",
        "                       records, negotiate)",
        "",
        "",
        "def advance(self, x, u, dt):",
        "    if not isinstance(x, list):",
        "        x = x.tolist()",
        f"    {_names('x', n)} = x",
        f"    {_names('u', n)} = u",
        "    half = 0.5 * dt",
        "    # each stage's flow, loss * y + (1 - y) * pressure(y), then the next stage's y",
        f"    {_names('p', n)} = pressure(x).tolist()",
    ]
    for i in range(n):
        lines += [f"    a{i} = -(gamma{i} + u{i})",
                  f"    k1_{i} = a{i} * x{i} + (1.0 - x{i}) * p{i}",
                  f"    y{i} = x{i} + half * k1_{i}"]
    for stage, step_of in ((2, "half"), (3, "dt")):
        lines.append(f"    {_names('p', n)} = pressure({_names('y', n)}).tolist()")
        for i in range(n):
            lines += [f"    k{stage}_{i} = a{i} * y{i} + (1.0 - y{i}) * p{i}",
                      f"    y{i} = x{i} + {step_of} * k{stage}_{i}"]
    lines += [f"    {_names('p', n)} = pressure({_names('y', n)}).tolist()",
              "    sixth = dt / 6.0"]
    for i in range(n):
        lines.append(f"    o{i} = x{i} + sixth * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i})"
                     f" + (a{i} * y{i} + (1.0 - y{i}) * p{i}))")
    inside = " and ".join(f"0.0 <= o{i} <= 1.0" for i in range(n))
    lines += [f"    if {inside}:  # finite, and nothing to clamp",
              f"        return {_names('o', n)}, 0.0",
              f"    return clamped({_names('o', n)})",
              ""]
    return "\n".join(lines)


def _clamped(out: list) -> tuple[list, float]:
    """An RK4 result with a node outside [0, 1]: NumericsError at the first
    non-finite node, else the clamp_state of it."""
    for i, v in enumerate(out):
        if not math.isfinite(v):
            raise NumericsError(f"node {i + 1}: non-finite state after step")
    clipped = [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in out]  # -0.0 stays
    return clipped, max(abs(c - v) for c, v in zip(clipped, out))


class FloatKernel:
    """The closed-loop step on Python floats; see the module docstring."""

    def __init__(self, model: SisModel, gains: BarrierArrays, nominal: np.ndarray,
                 box_lo: np.ndarray, box_hi: np.ndarray, *,
                 outer_cap: int, inner_cap: int, weights_mode: str):
        layout = model.layout
        n = self.n = model.graph.node_count
        self.source, self.target = layout.source.tolist(), layout.target.tolist()
        self.outer_cap, self.inner_cap = outer_cap, inner_cap
        # per node: its in-edges, a run of the edge order, ascending source
        ends = np.cumsum(np.bincount(layout.target, minlength=n)).tolist()
        self.rows = [range(start, end) for start, end in zip([0, *ends], ends)]
        # uniform mode's split weights, per node over its in-edges
        self.uniform = weights_mode == "uniform" and [[1.0] * len(row) for row in self.rows]
        self.weight = model.edge_weight.tolist()
        # per helper: its out-edges in by-source order, ascending target
        self.out_edges = [[] for _ in range(n)]
        for e in layout.by_source.tolist():
            self.out_edges[self.source[e]].append(e)
        self.box_lo, self.box_hi = box_lo.tolist(), box_hi.tolist()
        self.nominal = nominal.tolist()
        self.every_edge = [True] * len(self.weight)  # never written: no request refused

        # step and advance, written out for this network: the text names
        # every rate and gain, and this namespace binds them
        self.generated_source = text = _generate(self.rows, self.source)
        filename = f"<ccbf.floatkernel n={n} e={len(self.weight)} {zlib.crc32(text.encode()):08x}>"
        linecache.cache[filename] = len(text), None, text.splitlines(True), filename
        namespace = {"isfinite": math.isfinite, "clamped": _clamped, "pressure": model.pressure}
        for name, values in (("ng", (-model.params.gamma).tolist()),
                             ("gamma", model.params.gamma.tolist()),
                             ("bii", model.self_weight.tolist()), ("w", self.weight),
                             ("xbar", gains.threshold.tolist()), ("eta", gains.eta.tolist()),
                             ("kappa", gains.kappa.tolist()), ("ek", gains.eta_kappa.tolist())):
            namespace.update((f"{name}{k}", v) for k, v in enumerate(values))
        exec(compile(text, filename, "exec"), namespace)
        self._step, self._advance = namespace["step"], namespace["advance"]

    def step(self, x, udot: np.ndarray, records: list[tuple] | None,
             negotiate: bool) -> tuple:
        """ArrayKernel.step on Python floats: the same arguments and results.

        x may be a list; the controls, capability and relaxed flags come back
        as lists.  Every node's Lie terms, psi2 blocks and psi1 at zero
        control go to settle, from the step generated for this network.
        """
        return self._step(self, x, udot, records, negotiate)

    def settle(self, x: list, base: list, constant: list, linear: list, quadratic: list,
               coupling: list, records: list[tuple] | None, negotiate: bool) -> tuple:
        """ArrayKernel.settle on lists; coupling is over the edges."""
        if negotiate:
            lo, hi, frozen, caps, allocated, _, *rounds = self.negotiate(
                constant, linear, quadratic, coupling, records)
        else:
            lo, hi, frozen = self.box_lo, self.box_hi, [False] * self.n
            caps = self._capability(constant, linear, quadratic, lo, hi, frozen)
            allocated = [0.0] * self.n  # so no node owes a certificate
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

        x may be an array, u is a list as step returns it, and the next state
        is a list.  It runs the advance generated for this network.
        """
        return self._advance(self, x, u, dt)

    def _check_lie_terms(self, x: list, drift: list, slope: list) -> None:
        """Raise NumericsError naming the lowest node with a non-finite Lie term."""
        for i, row in enumerate(self.rows):
            xi, f, dfdx = x[i], drift[i], slope[i]
            one_minus = 1.0 - xi
            terms = [xi, f, -dfdx * f, dfdx * xi]
            for e in row:
                j, w = self.source[e], self.weight[e]
                terms += (-(one_minus * w) * drift[j], one_minus * w * x[j])
            if not all(map(math.isfinite, terms)):
                raise NumericsError(f"node {i + 1}: non-finite Lie derivative")

    @staticmethod
    def _capability(constant: list, linear: list, quadratic: list, lo: list, hi: list,
                    frozen: list) -> list:
        """Each node's best self term on its region; a frozen node's value at hi."""
        caps = []
        for c, l, q, lo_i, hi_i, stuck in zip(constant, linear, quadratic, lo, hi, frozen):
            # a point's value is QuadraticForm.value's: its one-element dot products add to +0.0
            caps.append((c + (l * hi_i + 0.0)) + ((hi_i * q + 0.0) * hi_i + 0.0) if stuck
                        else _max_quadratic_on_interval(c, l, q, lo_i, hi_i)[0])
        return caps

    def _partition(self, deficit: list, weights: list, eligible: list) -> list:
        """Each asking node's deficit split over its eligible in-edges by weight;
        weights[i] lists node i+1's in-edge weights, eligible is over the edges."""
        every = eligible is self.every_edge  # no request refused yet
        shares = []
        for i, row in enumerate(self.rows):
            asks = None if every else eligible[row.start:row.stop]
            row_weights = weights[i] if every else list(compress(weights[i], asks))
            if not row_weights:  # no in-edge left to ask
                shares += [0.0] * len(row)
                continue
            parts = _split(deficit[i], row_weights)
            if parts is None:
                log.warning("node %d: all coupling weights negligible, splitting uniformly",
                            i + 1)
                parts = _split(deficit[i], [1.0] * len(row_weights))
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
        weights = None
        out_alloc = [0.0] * edges
        allocated = [0.0] * n
        eligible = self.every_edge
        lo, frozen = box_lo, [False] * n
        outer = total_sub = 0
        cap_tripped = False
        while True:
            outer += 1
            caps = self._capability(constant, linear, quadratic, lo, box_hi, frozen)
            deficit = [cap - got for cap, got in zip(caps, allocated)]
            if all(map(_NOT_SHORT, deficit)):
                break
            if outer >= self.outer_cap:
                stuck = tuple(i + 1 for i, row in enumerate(rows) if deficit[i] < -MARGIN_TOL
                              and not any(eligible[row.start:row.stop]))
                if stuck:
                    raise _infeasible(stuck)
                cap_tripped = True
                break
            if weights is None:  # each node's split weights over its in-edges
                weights = self.uniform or [list(map(abs, a[row.start:row.stop]))
                                           for row in rows]
            eligible = self.every_edge  # a fresh capability estimate deserves fresh refusals
            sub = 0
            while True:
                if sub >= self.inner_cap:
                    raise ProtocolStallError(f"no agreement after {self.inner_cap} sub-rounds")
                sub += 1

                shares = self._partition(deficit, weights, eligible)
                target = [held + share for held, share in zip(out_alloc, shares)]
                # every helper raises its floor to the requests whose coupling
                # reaches it, and refuses the others what they ask; a helper
                # whose floor passes its top freezes there and refuses each
                # request its shortfall
                eps, refused = [0.0] * edges, []
                lo, frozen = [], []
                for lo_j, hi_j, out in zip(box_lo, box_hi, self.out_edges):
                    for s in out:
                        a_s = a[s]
                        if a_s > NEGLIGIBLE_NORMAL:
                            b = -target[s] / a_s
                            if b > lo_j:
                                lo_j = b
                        elif target[s] < 0.0:
                            eps[s] = -target[s]
                            refused.append(s)
                    lo.append(lo_j)
                    frozen.append(lo_j > hi_j)
                    if lo_j > hi_j:
                        for s in out:
                            a_s = a[s]
                            if a_s > NEGLIGIBLE_NORMAL:
                                short = a_s * hi_j + target[s]
                                if short < 0.0:
                                    eps[s] = -short
                                    refused.append(s)
                out_alloc, allocated = [], []
                for row in rows:
                    total = 0.0
                    for e in row:
                        held = target[e] + eps[e]
                        out_alloc.append(held)
                        total += held
                    allocated.append(total)

                if records is not None:
                    records.append((total_sub + sub, eligible, shares, eps))

                # a sub-round without a refusal touches no node, which ends
                # the negotiation for this capability estimate
                if not refused:
                    break
                eligible = eligible.copy()  # a record may hold the last one
                touched = set()
                for e in refused:
                    eligible[e] = False
                    touched.add(asker[e])
                    touched.add(helper[e])
                # done once no touched node has an in-neighbor left to ask
                if not any(any(eligible[rows[i].start:rows[i].stop]) for i in touched):
                    break
                deficit = [cap - got for cap, got in zip(caps, allocated)]
            total_sub += sub
        return lo, box_hi, frozen, caps, allocated, out_alloc, outer, total_sub, cap_tripped
