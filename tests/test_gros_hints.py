"""The proof hints of `decide_gros`: one stacked solve per block, against the doubling
chunks it replaced (`gros_reference.decide_gros_chunked`).

The hints are LAPACK solves of n x n matrices, n <= 16, at the OpenBLAS thread count of
the test process.  The tier-1 run sets no OPENBLAS_NUM_THREADS, in CI as elsewhere, so
that count is the machine's core count: 2 on the 2-core x86 machine these tests were
written on.  OpenBLAS runs an LU factorisation this small on one thread at any count.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import gros_reference
from conftest import make_connected, make_gnp
from rewirelab import GrosInstance, decide_gros, random_regular_graph, rewiring


def _recorded(monkeypatch, module):
    """Every hint list `module` makes, in call order."""
    calls = []
    hints = module._eigenvector_hints

    def record(mats, mu2):
        out = hints(mats, mu2)
        calls.append(list(out))
        return out

    monkeypatch.setattr(module, "_eigenvector_hints", record)
    return calls


def _corpus():
    rng = random.Random(2201)
    cases = []
    for n in (6, 7, 8, 9, 10, 12, 14, 16):
        budgets = (0, 1, 2) if n <= 10 else (1,)
        for g in (random_regular_graph(n, 3, seed=rng.randrange(1 << 30)) if n % 2 == 0 else make_connected(rng, n),
                  make_gnp(rng, n, 0.4)):
            for k in budgets:
                cases.append((g, k))
    cases.append((random_regular_graph(16, 3, seed=2202), 2))
    return cases


def test_one_hint_solve_per_block_gives_the_chunked_hints(monkeypatch):
    new, old = _recorded(monkeypatch, rewiring), _recorded(monkeypatch, gros_reference)
    rows_compared = 0
    for g, k in _corpus():
        best = decide_gros(GrosInstance(g, k, 1)).value_achieved
        # tau below every mu2 ("no": every row of every block gets a hint), and just above
        # the least one ("yes": the chunked loop stops at the witness)
        for tau, mode in ((Fraction(-1), "signed"), (Fraction(best) + Fraction(1, 10**6), "signed"),
                          (Fraction(best) + Fraction(1, 10**6), "absolute")):
            new.clear()
            old.clear()
            inst = GrosInstance(g, k, min(tau, Fraction(1)), mode)
            got, want = decide_gros(inst), gros_reference.decide_gros_chunked(inst)
            assert got == want and got.value_achieved.hex() == want.value_achieved.hex(), (g, k, tau)
            got_hints, want_hints = sum(new, []), sum(old, [])
            # the chunks stop at the witness; the whole block runs past it
            assert got_hints[: len(want_hints)] == want_hints, (g, k, tau)
            if got.answer == "no":
                assert len(got_hints) == len(want_hints)
            if tau == -1:
                assert len(want_hints) == sum(math.comb(g.n * (g.n - 1) // 2, j) for j in range(k + 1))
            rows_compared += len(want_hints)
    assert rows_compared > 20_000


def _witness_row(g, k, witness) -> int:
    """The index of the witness in the (size, lex) order of toggle sets."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    chosen = tuple(sorted(pairs.index(p) for p in witness.additions | witness.removals))
    before = sum(math.comb(len(pairs), j) for j in range(len(chosen)))
    return before + list(combinations(range(len(pairs)), len(chosen))).index(chosen)


def _middle_tau(g, k, mode, rows) -> Fraction:
    """A tau whose first witness lies past the first block and before the last: halfway
    between the last running-minimum float mu2 found there and the minimum before it."""
    u, v = np.triu_indices(g.n, 1)
    toggles = next(rewiring._toggle_blocks(len(u), k, 1 << 30))
    eigs = np.linalg.eigvalsh(rewiring._propagation_stack(rewiring.matrix_of(g, "adjacency"), u, v, toggles))
    mu2 = eigs[:, -2] if mode == "signed" else np.sort(np.abs(eigs))[:, -2]
    before = np.minimum.accumulate(mu2)
    records = [i for i in range(1, len(mu2)) if before[i - 1] - mu2[i] > 1e-6]
    i = max(i for i in records if 0 < i // rows < (len(mu2) - 1) // rows)
    return (Fraction(mu2[i]) + Fraction(before[i - 1])) / 2


@pytest.mark.parametrize(
    "n, k, tau, mode",
    [
        (6, 2, Fraction(-1), "signed"),  # "no": every block is searched
        (6, 2, None, "signed"),  # "yes" in a middle block
        (7, 2, None, "absolute"),
        (6, 0, Fraction(1), "signed"),  # "yes" at row 0, no row above tau: no hint call
        (8, 2, None, "signed"),
    ],
)
def test_one_hint_call_per_block_up_to_the_witness(monkeypatch, n, k, tau, mode):
    g = make_connected(random.Random(22), n)
    rows = 40  # past the first chunk of the doubling hint solves: 28 rows at n = 6, 16 at n = 8
    tau = _middle_tau(g, k, mode, rows) if tau is None else tau
    monkeypatch.setattr(rewiring, "_BLOCK_ENTRIES", rows * n * n)
    events = []  # per block: [rows with float signed mu2 above tau, rows of its hint call or None]
    stack_of, hints_of = rewiring._propagation_stack, rewiring._eigenvector_hints

    def stack(*args):
        out = stack_of(*args)
        events.append([int((np.linalg.eigvalsh(out)[:, -2] > float(tau)).sum()), None])
        return out

    def hints(mats, mu2):
        assert events[-1][1] is None, "a second hint call in one block"
        events[-1][1] = len(mats)
        return hints_of(mats, mu2)

    monkeypatch.setattr(rewiring, "_propagation_stack", stack)
    monkeypatch.setattr(rewiring, "_eigenvector_hints", hints)
    got = decide_gros(GrosInstance(g, k, tau, mode))
    total = sum(math.comb(n * (n - 1) // 2, j) for j in range(k + 1))
    assert len(events) == -(-total // rows)  # every block is scored for value_achieved
    last = _witness_row(g, k, got.witness) // rows if got.answer == "yes" else len(events) - 1
    for block, (above, hinted) in enumerate(events):
        assert hinted == (above or None if block <= last else None), (block, last, events)
    assert got == gros_reference.decide_gros(GrosInstance(g, k, tau, mode))
    if k and got.answer == "yes":
        assert 0 < last < len(events) - 1
