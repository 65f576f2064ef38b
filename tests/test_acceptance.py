"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test exercises one shipping requirement at its stated tolerance and
prints a single [PASS]/[FAIL] line so the suite doubles as a checklist.
Oracles are independent of the implementation under test: closed-form
equilibria, finite differences, grid search, and vertex enumeration.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np
import pytest

import ccbf.arraykernel as arraykernel_mod
import ccbf.collab as collab_mod
import ccbf.simulate as simulate_mod
from ccbf.arraykernel import ArrayKernel
from ccbf.barrier import (BarrierSpec, Psi2Decomposition, QuadraticForm, barrier_arrays,
                          decompose_psi2, psi0, psi1)
from ccbf.dynamics import SisModel, SisParams, neighborhood
from ccbf.errors import TerminallyInfeasibleError
from ccbf.floatkernel import FloatKernel
from ccbf.geometry import ControlRegion, Halfspace, closest_point, is_empty, weakly_non_interfering
from ccbf.graph import NetworkGraph, edge_layout
from ccbf.plot import read_result_csv
from ccbf.simulate import run_scenario, run_uncontrolled

from conftest import PAPER_BETA, PAPER_GAMMA, PAPER_UMAX, PAPER_X0, PAPER_XBAR, run_paper
from test_array_protocol import _protocol_kernel


def report(capsys, num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _paper_model() -> tuple[SisModel, dict[int, BarrierSpec]]:
    graph = NetworkGraph(3, [(j, i) for j in range(1, 4) for i in range(1, 4) if i != j])
    model = SisModel(graph, SisParams(PAPER_BETA, PAPER_GAMMA, PAPER_UMAX))
    specs = {i: BarrierSpec(PAPER_XBAR[i - 1]) for i in (1, 2, 3)}
    return model, specs


def _read_messages(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_uncontrolled_endemic_baseline(capsys):
    # with no curing effort every node settles at the endemic level
    # 1 - gamma/(sum of incoming infection rates) = 1 - 0.3/1.0 = 0.7
    model, _ = _paper_model()
    x0 = np.full(3, 0.5)
    start = time.perf_counter()
    _, states = run_uncontrolled(model, x0, dt=0.01, t_final=100.0)
    wall = time.perf_counter() - start
    err = float(np.max(np.abs(states[-1] - 0.7)))
    ok = err <= 1e-3 and wall < 1.0
    report(capsys, 1, ok,
           f"symmetric start settles at 0.700 (max error {err:.2e} <= 1e-3), "
           f"wall {wall:.2f}s < 1s")


def test_criterion_2_paper_scenario_safety(capsys, paper_run):
    rc, out, wall = paper_run("traced")
    assert rc == 0, f"run exited with {rc}"
    table = read_result_csv(out / "result.csv")
    margins = np.asarray(PAPER_XBAR) - table.states
    min_margin = float(margins.min())
    u1_max = float(table.controls[:, 0].max())

    requests_from_1 = [float(m["sim_time"]) for m in _read_messages(out / "messages.csv")
                       if m["kind"] == "request" and m["from"] == "1"]
    t_req = min(requests_from_1) if requests_from_1 else float("inf")
    u3 = table.controls[:, 2]
    before = u3[table.times < t_req]
    after = u3[table.times >= t_req]
    quiet_start = before.size > 0 and float(np.max(np.abs(before))) == 0.0
    wakes_after = after.size > 0 and float(after.max()) > 0.0

    ok = (min_margin >= -1e-3
          and u1_max >= 0.75 - 1e-6
          and np.isfinite(t_req) and t_req > 0.0
          and quiet_start and wakes_after
          and wall < 30.0)
    report(capsys, 2, ok,
           f"min margin {min_margin:.2e} >= -1e-3, max u1 {u1_max:.8f} reaches 0.75, "
           f"u3 silent until node 1's first request at t={t_req:.2f}, "
           f"wall {wall:.1f}s < 30s")


def test_criterion_3_no_collaboration_counterfactual(capsys, paper_run):
    rc, out, _ = paper_run("no_collab")
    table = read_result_csv(out / "result.csv")
    h1_min = float((PAPER_XBAR[0] - table.states[:, 0]).min())
    ok = rc == 0 and h1_min < 0.0
    report(capsys, 3, ok,
           f"without collaboration node 1 breaches its threshold (min h1 {h1_min:.4f} < 0)")


def _random_protocol_instance(rng):
    """Complete digraph with constant capabilities and coverable demands."""
    n = int(rng.integers(2, 5))
    graph = NetworkGraph(n, [(j, i) for j in range(1, n + 1)
                             for i in range(1, n + 1) if i != j])
    lips = rng.uniform(0.0, 0.1, n)
    ubs = lips + rng.uniform(0.3, 1.2, n)
    boxes = {i: ((float(lips[i - 1]), float(ubs[i - 1])),) for i in graph.nodes()}
    coupling = {i: {j: np.array([rng.uniform(0.1, 1.0)])
                    for j in graph.nodes() if j != i} for i in graph.nodes()}
    decomps = {}
    for i in graph.nodes():
        # a deficit of at most 0.8 * sum_j a_ij * min_k ub_k splits into
        # shares each neighbor can absorb inside its own box
        reach = sum(float(coupling[i][j][0]) for j in coupling[i]) * float(ubs.min())
        c = rng.uniform(-0.8 * reach, 0.6)
        decomps[i] = Psi2Decomposition(coupling[i],
                                       QuadraticForm(c, np.zeros(1), np.zeros((1, 1))))
    return graph, decomps, boxes


def _kernel_negotiations(graph, decomps, boxes):
    """The instance negotiated by both step kernels' negotiate.

    Returns each edge's coupling and helper, and per kernel (lo, hi,
    frozen, capability, allocated, cap_tripped, commitments): the
    commitment of each edge is summed from the sub-round records, as the
    kernels sum it, and must be the kernel's own out_alloc.
    """
    layout = edge_layout(graph)
    source, target = layout.source, layout.target
    coupling = np.array([float(decomps[i + 1].coupling[j + 1][0])
                         for j, i in zip(source.tolist(), target.tolist())])
    forms = [decomps[i].self_term for i in graph.nodes()]
    psi2 = (np.array([f.constant for f in forms]),
            np.array([float(f.linear[0]) for f in forms]),
            np.array([float(f.quadratic[0, 0]) for f in forms]), coupling)
    lo = np.array([boxes[i][0][0] for i in graph.nodes()])
    hi = np.array([boxes[i][0][1] for i in graph.nodes()])
    results = []
    for kind in (ArrayKernel, FloatKernel):
        records: list = []
        lo_k, hi_k, frozen, caps, allocated, out_alloc, _, _, tripped = \
            _protocol_kernel(kind, graph, lo, hi).negotiate(*psi2, records)
        committed = np.zeros(len(coupling))
        for _, _, shares, eps in records:
            committed = (committed + np.array(shares)) + np.array(eps)
        assert np.array_equal(committed, out_alloc)
        results.append((np.asarray(lo_k), np.asarray(hi_k), np.asarray(frozen),
                        np.asarray(caps), np.asarray(allocated), tripped, committed))
    return coupling, source, results


def test_criterion_4_protocol_convergence(capsys):
    rng = np.random.default_rng(7)
    for _ in range(200):
        graph, decomps, boxes = _random_protocol_instance(rng)
        outcome = collab_mod.collaborative_safety(graph, decomps, boxes)
        assert not outcome.cap_tripped
        for i in graph.nodes():
            region = outcome.regions[i]
            assert not region.frozen
            assert not is_empty(region)
            lo, hi = region.interval()
            assert lo <= hi
            for v in (lo, 0.5 * (lo + hi), hi):
                p = np.array([v])
                for h in region.requests:
                    assert h.value(p) >= -1e-9
            normals = [h.normal for h in region.requests]
            if normals:
                assert weakly_non_interfering(normals)
        # the protocols the step kernels run, on the same instance
        coupling, helper, results = _kernel_negotiations(graph, decomps, boxes)
        for lo, hi, frozen, caps, allocated, tripped, committed in results:
            assert not tripped and not frozen.any()
            assert (caps - allocated >= -1e-9).all() and (lo <= hi).all()
            for v in (lo, 0.5 * (lo + hi), hi):
                assert (coupling * v[helper] + committed >= -1e-9).all()

    dead_ends = 10
    for _ in range(dead_ends):
        graph = NetworkGraph(2, [(1, 2), (2, 1)])
        ub = float(rng.uniform(0.1, 0.3))
        boxes = {1: ((0.0, ub),), 2: ((0.0, ub),)}
        decomps = {
            1: Psi2Decomposition({2: np.array([rng.uniform(0.1, 0.3)])},
                                 QuadraticForm(-5.0, np.zeros(1), np.zeros((1, 1)))),
            2: Psi2Decomposition({1: np.array([rng.uniform(0.1, 0.3)])},
                                 QuadraticForm(float(rng.uniform(0.0, 0.5)),
                                               np.zeros(1), np.zeros((1, 1)))),
        }
        with pytest.raises(TerminallyInfeasibleError) as err:
            collab_mod.collaborative_safety(graph, decomps, boxes)
        assert 1 in err.value.nodes

    report(capsys, 4, True,
           "200 random instances converged within caps to nonempty regions whose "
           "sampled points honor every request within 1e-9, on the per-node protocol "
           f"and on both step kernels' protocols; {dead_ends} "
           "uncoverable instances all raised instead of returning a bad region")


def _step_kernels(model: SisModel, specs: dict[int, BarrierSpec]) -> list:
    """Both step kernels on the model, with every box [0, u_max]."""
    nodes = model.graph.nodes()
    n = len(nodes)
    return [kind(model, barrier_arrays(specs, nodes), np.zeros(n), np.zeros(n),
                 model.params.u_max.copy(), outer_cap=collab_mod.DEFAULT_OUTER_CAP,
                 inner_cap=collab_mod.DEFAULT_INNER_CAP, weights_mode="coupling")
            for kind in (ArrayKernel, FloatKernel)]


def _settled_blocks(kernel, x: np.ndarray, udot: np.ndarray) -> list[np.ndarray]:
    """The psi1 at zero control and the psi2 constant, linear, quadratic and
    coupling blocks that kernel.step hands to settle."""
    handed = []
    kernel.settle = lambda *args: handed.append(args[1:-2])
    kernel.step(x, udot, None, True)
    return [np.asarray(v, dtype=float) for v in handed[0]]


def _grouped_psi2(model: SisModel, blocks: list[np.ndarray], u: np.ndarray) -> np.ndarray:
    """Every node's psi2 reassembled from its settled blocks under the controls u."""
    _, constant, linear, quadratic, coupling = blocks
    layout = model.layout
    neighbors = np.bincount(layout.target, coupling * u[layout.source], len(u))
    return constant + linear * u + quadratic * u * u + neighbors


def _direct_psi2(model: SisModel, specs, x: np.ndarray, u: np.ndarray,
                 udot: np.ndarray) -> np.ndarray:
    """psi2 = d(psi1)/dt + kappa psi1 by the chain rule on the SIS flow."""
    beta, gamma = model.params.beta, model.params.gamma
    nodes = model.graph.nodes()
    threshold = np.array([specs[i].threshold for i in nodes])
    eta = np.array([specs[i].eta for i in nodes])
    kappa = np.array([specs[i].kappa for i in nodes])
    xdot = -(gamma + u) * x + (1.0 - x) * (beta @ x)
    xddot = -udot * x - (gamma + u + beta @ x) * xdot + (1.0 - x) * (beta @ xdot)
    psi1 = -xdot + eta * (threshold - x)
    return -xddot - eta * xdot + kappa * psi1


def test_criterion_5_decomposition_identity(capsys):
    model, specs = _paper_model()
    graph = model.graph
    kernels = _step_kernels(model, specs)
    rng = np.random.default_rng(11)
    worst = worst_kernels = 0.0
    for _ in range(1000):
        x = rng.uniform(0.01, 0.99, 3)
        u = rng.uniform(0.0, 0.75, 3)
        udot = rng.uniform(-1.0, 1.0, 3)
        direct = _direct_psi2(model, specs, x, u, udot)
        for kernel in kernels:
            grouped = _grouped_psi2(model, _settled_blocks(kernel, x, udot), u)
            worst_kernels = max(worst_kernels, float(np.abs(grouped - direct).max()))
        states = {i: np.array([x[i - 1]]) for i in graph.nodes()}
        for i in graph.nodes():
            spec = specs[i]
            lie = model.lie_table(neighborhood(graph, states, i), i)
            u_i = np.array([u[i - 1]])
            neighbor_u = {j: np.array([u[j - 1]]) for j in lie.lgj_lf_h}
            decomp = decompose_psi2(spec, lie, states[i], np.array([udot[i - 1]]))
            grouped = decomp.reassemble(u_i, neighbor_u)

            # ungrouped second-order expansion, summed term by term
            h0 = psi0(spec, states[i])
            psi1_dot = (lie.lf2_h
                        + sum(lie.lfj_lf_h[j] for j in sorted(lie.lfj_lf_h))
                        + float(lie.lg_lf_h @ u_i)
                        + sum(float(lie.lgj_lf_h[j] @ neighbor_u[j])
                              for j in sorted(lie.lgj_lf_h))
                        + float(lie.lf_lg_h @ u_i)
                        + float(u_i @ lie.lg2_h @ u_i)
                        + float(lie.lg_h @ np.array([udot[i - 1]]))
                        + spec.eta * (lie.lf_h + float(lie.lg_h @ u_i)))
            direct = psi1_dot + spec.kappa * (lie.lf_h + float(lie.lg_h @ u_i)
                                              + spec.eta * h0)
            worst = max(worst, abs(grouped - direct))
    ok = worst <= 1e-12 and worst_kernels <= 1e-12
    report(capsys, 5, ok,
           f"grouped vs direct second-order value agrees to {worst:.2e} <= 1e-12 "
           f"on 1000 random states and controls, and to {worst_kernels:.2e} <= 1e-12 "
           "on the blocks both step kernels settle")


def test_criterion_6_lie_table_finite_differences(capsys):
    model, specs = _paper_model()
    graph = model.graph
    kernels = _step_kernels(model, specs)
    threshold = np.array(PAPER_XBAR)
    eta = np.array([specs[i].eta for i in graph.nodes()])
    kappa = np.array([specs[i].kappa for i in graph.nodes()])
    rng = np.random.default_rng(13)
    eps = 1e-5
    worst_lf = 0.0
    worst_psi1dot = 0.0
    for _ in range(1000):
        x = rng.uniform(0.05, 0.95, 3)
        u = rng.uniform(0.0, 0.75, 3)
        udot = rng.uniform(-1.0, 1.0, 3)
        states = {i: np.array([x[i - 1]]) for i in graph.nodes()}
        drift = model.packed_flow(np.zeros(3))(x)
        flow = model.packed_flow(u)(x)
        xp, xm = x + eps * flow, x - eps * flow
        up, um = u + eps * udot, u - eps * udot
        states_p = {i: np.array([xp[i - 1]]) for i in graph.nodes()}
        states_m = {i: np.array([xm[i - 1]]) for i in graph.nodes()}
        for i in graph.nodes():
            spec = specs[i]
            lie = model.lie_table(neighborhood(graph, states, i), i)

            dp = np.array([x[i - 1] + eps * drift[i - 1]])
            dm = np.array([x[i - 1] - eps * drift[i - 1]])
            lf_fd = (psi0(spec, dp) - psi0(spec, dm)) / (2.0 * eps)
            worst_lf = max(worst_lf, abs(lf_fd - lie.lf_h))

            lie_p = model.lie_table(neighborhood(graph, states_p, i), i)
            lie_m = model.lie_table(neighborhood(graph, states_m, i), i)
            p1p = psi1(spec, lie_p, states_p[i], np.array([up[i - 1]]))
            p1m = psi1(spec, lie_m, states_m[i], np.array([um[i - 1]]))
            fd = (p1p - p1m) / (2.0 * eps)

            u_i = np.array([u[i - 1]])
            decomp = decompose_psi2(spec, lie, states[i], np.array([udot[i - 1]]))
            psi2 = decomp.reassemble(u_i, {j: np.array([u[j - 1]]) for j in lie.lgj_lf_h})
            closed = psi2 - spec.kappa * psi1(spec, lie, states[i], u_i)
            worst_psi1dot = max(worst_psi1dot, abs(fd - closed))

        # the same differences on the blocks both step kernels settle, where
        # psi1 is base + L_g h u and a scalar node's L_g h is its state
        lf_fd = ((threshold - (x + eps * drift)) - (threshold - (x - eps * drift))) / (2.0 * eps)
        for kernel in kernels:
            blocks = _settled_blocks(kernel, x, udot)
            base = blocks[0]
            worst_lf = max(worst_lf, float(np.abs(lf_fd - (base - eta * (threshold - x))).max()))
            p1p = _settled_blocks(kernel, xp, udot)[0] + xp * up
            p1m = _settled_blocks(kernel, xm, udot)[0] + xm * um
            closed = _grouped_psi2(model, blocks, u) - kappa * (base + x * u)
            worst_psi1dot = max(worst_psi1dot,
                                float(np.abs((p1p - p1m) / (2.0 * eps) - closed).max()))
    ok = worst_lf <= 1e-6 and worst_psi1dot <= 1e-6
    report(capsys, 6, ok,
           f"finite differences match closed forms: drift derivative {worst_lf:.2e}, "
           f"constraint-rate {worst_psi1dot:.2e}, both <= 1e-6 on 1000 interior states, "
           "per node and on both step kernels")


def _grid_distance_to_polytope(points, normals, offsets):
    """Exact distance from each point to an intersection of 2-D halfspaces."""
    vals = points @ normals.T + offsets
    dist = np.full(points.shape[0], np.inf)
    dist[(vals >= -1e-12).all(axis=1)] = 0.0
    k = normals.shape[0]
    for a in range(k):
        # foot of the perpendicular onto plane a, kept when it satisfies the rest
        n = normals[a]
        shift = np.minimum(vals[:, a], 0.0) / float(n @ n)
        feet = points - shift[:, None] * n
        fv = feet @ normals.T + offsets
        good = (fv >= -1e-9).all(axis=1)
        cand = np.where(good, np.abs(np.minimum(vals[:, a], 0.0)) / np.linalg.norm(n), np.inf)
        dist = np.minimum(dist, cand)
    for a in range(k):
        for b in range(a + 1, k):
            mat = np.stack([normals[a], normals[b]])
            if abs(np.linalg.det(mat)) <= 1e-12:
                continue
            vertex = np.linalg.solve(mat, -np.array([offsets[a], offsets[b]]))
            if np.all(vertex @ normals.T + offsets >= -1e-9):
                dist = np.minimum(dist, np.linalg.norm(points - vertex, axis=1))
    return dist


def _nonempty_by_vertex_enumeration(box, halfspaces) -> bool:
    """A bounded nonempty 2-D region always exposes a feasible pair-vertex."""
    (lx, hx), (ly, hy) = box
    planes = [(np.array([1.0, 0.0]), -lx), (np.array([-1.0, 0.0]), hx),
              (np.array([0.0, 1.0]), -ly), (np.array([0.0, -1.0]), hy)]
    planes += [(h.normal, h.offset) for h in halfspaces]
    normals = np.array([n for n, _ in planes])
    offsets = np.array([o for _, o in planes])
    m = len(planes)
    for a in range(m):
        for b in range(a + 1, m):
            mat = np.stack([normals[a], normals[b]])
            if abs(np.linalg.det(mat)) <= 1e-12:
                continue
            vertex = np.linalg.solve(mat, -np.array([offsets[a], offsets[b]]))
            if np.all(vertex @ normals.T + offsets >= -1e-9):
                return True
    return False


def test_criterion_7_geometry_grid_oracle(capsys):
    rng = np.random.default_rng(17)
    worst = 0.0
    agreements = 0
    for _ in range(100):
        center = rng.uniform(-0.5, 0.5, 2)
        side = rng.uniform(0.1, 0.2, 2)
        box = tuple((float(center[d] - side[d] / 2), float(center[d] + side[d] / 2))
                    for d in range(2))
        anchor = center + rng.normal(0.0, 0.25, 2)
        halfspaces = []
        for _ in range(int(rng.integers(1, 4))):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            n = float(rng.uniform(0.5, 2.0)) * np.array([np.cos(angle), np.sin(angle)])
            edge_point = anchor + rng.normal(0.0, 0.3, 2)
            if float(n @ (anchor - edge_point)) < 0.0:
                n = -n  # keep the anchor feasible so the polytope is nonempty
            halfspaces.append(Halfspace(n, -float(n @ edge_point)))

        gx = np.linspace(box[0][0], box[0][1], 200)
        gy = np.linspace(box[1][0], box[1][1], 200)
        grid = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
        grid_min = float(_grid_distance_to_polytope(
            grid,
            np.array([h.normal for h in halfspaces]),
            np.array([h.offset for h in halfspaces])).min())

        _, dist = closest_point(box, halfspaces)
        worst = max(worst, abs(dist - grid_min))

        region = ControlRegion(box, tuple(halfspaces))
        oracle_nonempty = _nonempty_by_vertex_enumeration(box, halfspaces)
        assert is_empty(region) == (not oracle_nonempty)
        assert is_empty(region) == (dist > 1e-9)
        agreements += 1
    ok = worst <= 1e-3 and agreements == 100
    report(capsys, 7, ok,
           f"closest-point distance within {worst:.2e} <= 1e-3 of a 200x200 grid "
           f"search; emptiness matched vertex enumeration on {agreements}/100 instances")


def test_criterion_8_partition_conservation(capsys, monkeypatch):
    # the closed loop splits every node's margin at once; each row of a
    # split with an eligible in-neighbor is one node's partition.  The paper
    # run is recorded on both step kernels, which must split alike.
    residuals: dict[str, list[float]] = {"float": [], "array": []}

    def record(kernel, total, deficit):
        residuals[kernel].append(abs(total - deficit) / max(1.0, abs(deficit)))

    real_arrays = arraykernel_mod.partition_arrays

    def recording_arrays(deficit, weights, eligible, target):
        shares = real_arrays(deficit, weights, eligible, target)
        for node in np.flatnonzero(np.bincount(target[eligible], minlength=len(deficit))):
            sent = shares[eligible & (target == node)]
            record("array", sum(float(v) for v in sent), deficit[node])
        return shares

    real_floats = FloatKernel._partition

    def recording_floats(self, deficit, weight, eligible):
        shares = real_floats(self, deficit, weight, eligible)
        for i, row in enumerate(self.rows):
            sent = [shares[s] for s in row if eligible[s]]
            if sent:
                record("float", sum(sent), deficit[i])
        return shares

    monkeypatch.setattr(arraykernel_mod, "partition_arrays", recording_arrays)
    monkeypatch.setattr(FloatKernel, "_partition", recording_floats)
    model, specs = _paper_model()
    run_scenario(model, specs, np.asarray(PAPER_X0, dtype=float))
    monkeypatch.setattr(simulate_mod, "FLOAT_KERNEL_NODES", 0)
    run_scenario(model, specs, np.asarray(PAPER_X0, dtype=float))
    splits = {kernel: len(found) for kernel, found in residuals.items()}
    worst = max(max(found, default=float("inf")) for found in residuals.values())
    ok = splits["float"] == splits["array"] > 0 and worst <= 1e-12
    report(capsys, 8, ok,
           f"every split over {splits['float']} (float kernel) and {splits['array']} "
           f"(array kernel) sub-round partitions returned shares summing to the margin "
           f"within {worst:.2e} <= 1e-12")


def test_criterion_9_determinism(capsys, paper_run, tmp_path):
    _, first, _ = paper_run("traced")
    assert run_paper("traced", tmp_path) == 0
    same_result = ((tmp_path / "result.csv").read_bytes()
                   == (first / "result.csv").read_bytes())
    same_messages = ((tmp_path / "messages.csv").read_bytes()
                     == (first / "messages.csv").read_bytes())
    ok = same_result and same_messages
    report(capsys, 9, ok,
           "repeat run reproduced result.csv and messages.csv byte for byte")
