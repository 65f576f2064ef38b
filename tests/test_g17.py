"""The vectorized '%.17g' kernel against CPython's own formatting."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ccbf.g17 import g17_rows, g17_slots


def _oracle(table: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


def _hard_values() -> np.ndarray:
    """About 1.3 million doubles, the kernel's edge cases among them."""
    rng = np.random.default_rng(20231017)
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    mantissas = rng.integers(1, 2 ** 53, 100_000).astype(float)
    near_2_53 = rng.integers(2 ** 52, 2 ** 53, 100_000).astype(float)
    parts = [
        # random bit patterns, both signs, every exponent, subnormals and nans
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64),
        # every power of ten, its float neighbours, both signs
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf), -powers,
        # dyadic ties: m / 2**e has exactly e digits after the point
        np.ldexp(mantissas, -rng.integers(1, 60, mantissas.size)),
        # m * 2**e around 2**53 to 2**60, where hi's parity and the last digit meet
        np.ldexp(near_2_53, rng.integers(-12, 8, near_2_53.size)),
        # integers below 10**17, spelled as %d spells them
        rng.integers(0, 10 ** 17, 100_000).astype(float), np.arange(50_000.0),
        # values spread over the kernel's decades and just past them
        rng.random(100_000) * 10.0 ** rng.integers(-8, 19, 100_000),
        np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan,
                  1e-6, 9.9999999999999995e-07, 1e16, 1e17, 99999999999999999.0]),
    ]
    values = np.concatenate(parts)
    return np.concatenate([values, -values])


def test_kernel_matches_percent_g17_on_a_million_values():
    values = _hard_values()
    assert values.size >= 1_000_000
    for start in range(0, values.size, 70_000):  # blocks keep the test's memory small
        block = values[start:start + 70_000]
        table = block.reshape(-1, 7) if block.size % 7 == 0 else block[:, None]
        assert g17_rows(table) == _oracle(table)


def test_kernel_leaves_only_out_of_range_values_to_percent():
    # the double nearest 1e-6 lies just below it: its decimal exponent is -7
    values = np.array([0.0, -0.0, 1.5e-6, -9.9e-7, 1e-6, 9.99e16, 1e17, np.inf, np.nan, 5e-324])
    _, rest = g17_slots(values)
    assert rest.tolist() == [3, 4, 6, 7, 8, 9]
    assert g17_rows(values[None, :]) == _oracle(values[None, :])


def test_kernel_corrects_a_log10_that_misses(monkeypatch):
    # a log10 off by a little either way puts values next to a power of ten
    # in the wrong decade, or out of the kernel's range and back
    rng = np.random.default_rng(3)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + rng.choice([-1e-9, 0.0, 1e-9], a.shape))
    powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
    values = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0),
                             powers * (1 + 1e-12), powers * (1 - 1e-12)])
    table = np.concatenate([values, -values]).reshape(-1, 5)
    for _ in range(20):
        assert g17_rows(table) == _oracle(table)


def test_kernel_shapes():
    assert g17_rows(np.zeros((0, 4))) == b""
    assert g17_rows(np.array([[1.0]])) == b"1\n"
    assert g17_rows(np.array([[np.nan], [0.5]])) == b"nan\n0.5\n"


@settings(max_examples=400)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=12))
@example([9.9999999999999995e-07, -0.0, 5e-324])
def test_kernel_matches_percent_g17_on_any_floats(values):
    table = np.array(values)[None, :]
    assert g17_rows(table) == _oracle(table)
