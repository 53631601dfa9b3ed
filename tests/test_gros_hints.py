"""The proof hints and the block "no" proof of `decide_gros`, against the solver they
replaced (`gros_reference.decide_gros_chunked`).  That solver solved its hints at scale
2^40 in doubling chunks and proved "no" one candidate at a time, with `_certifies_above`
over Python ints; `decide_gros` solves them at scale 2^k (2^28 at n = 8, 2^25 at n = 64)
in one solve per span of a block and proves "no" for the whole span with the int64
kernel `sturm._proves_above`.

The hints are LAPACK solves of n x n matrices, n <= 64, at the OpenBLAS thread count of
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
from rewirelab import Graph, GrosInstance, decide_gros, matrix_of, random_regular_graph, rewiring, sturm


def _recorded(monkeypatch, module):
    """Every hint solve `module` makes, in call order, as lists of int rows (None where singular)."""
    calls = []
    hints = module._eigenvector_hints

    def record(mats, mu2):
        out = hints(mats, mu2)
        rows = [None] * len(mats) if out is None else list(out)
        calls.append([None if row is None else [int(a) for a in row] for row in rows])
        return out

    monkeypatch.setattr(module, "_eigenvector_hints", record)
    return calls


def _hint_bits(n: int) -> int:
    """k of the 2^k scale of `decide_gros`' hints at n vertices."""
    return (62 - 2 * (n - 1).bit_length()) // 2


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
    # one solve per span, and so per block while every row whose float mu2 is at most tau
    # is a witness; the same vectors as the chunks', at scale 2^k for 2^40
    new, old = _recorded(monkeypatch, rewiring), _recorded(monkeypatch, gros_reference)
    rows_compared = 0
    for g, k in _corpus():
        best = decide_gros(GrosInstance(g, k, 1)).value_achieved
        # tau below every mu2 ("no": every row of every block gets a hint), and just above
        # the least one ("yes": both stop at the witness)
        for tau, mode in ((Fraction(-1), "signed"), (Fraction(best) + Fraction(1, 10**6), "signed"),
                          (Fraction(best) + Fraction(1, 10**6), "absolute")):
            new.clear()
            old.clear()
            inst = GrosInstance(g, k, min(tau, Fraction(1)), mode)
            got, want = decide_gros(inst), gros_reference.decide_gros_chunked(inst)
            assert got == want and got.value_achieved.hex() == want.value_achieved.hex(), (g, k, tau)
            got_hints, want_hints = sum(new, []), sum(old, [])
            shift = 40 - _hint_bits(g.n)
            for a, b in zip(got_hints, want_hints):  # rint(2^k z) and rint(2^40 z); None where singular
                assert a is None or b is None or max(abs((x << shift) - y) for x, y in zip(a, b)) <= 1 << (shift - 1), (g, k, tau)
            # the chunks run past the witness to their end, the spans to the witness's span
            if got.answer == "no":
                assert len(got_hints) == len(want_hints)
            if tau == -1:
                assert len(want_hints) == sum(math.comb(g.n * (g.n - 1) // 2, j) for j in range(k + 1))
            rows_compared += min(len(got_hints), len(want_hints))
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
    eigs = np.linalg.eigvalsh(rewiring._propagation_stack(matrix_of(g, "adjacency"), u, v, toggles)[0])
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
    # one hint call per span, and no row hinted past the span of the witness, which ends
    # at the first row from the witness on whose float mu2 is at most tau
    g = make_connected(random.Random(22), n)
    rows = 40  # past the first chunk of the doubling hint solves: 28 rows at n = 6, 16 at n = 8
    tau = _middle_tau(g, k, mode, rows) if tau is None else tau
    monkeypatch.setattr(rewiring, "_BLOCK_ENTRIES", rows * n * n)
    blocks = []  # per block: its row of each matrix, float signed and mode mu2, hinted rows per call
    stack_of, hints_of = rewiring._propagation_stack, rewiring._eigenvector_hints

    def stack(*args):
        mats, flips = stack_of(*args)
        eigs = np.linalg.eigvalsh(mats)
        mu2 = eigs[:, -2] if mode == "signed" else np.sort(np.abs(eigs))[:, -2]
        blocks.append(({m.tobytes(): r for r, m in enumerate(mats)}, eigs[:, -2], mu2, []))
        return mats, flips

    def hints(mats, mu2):
        blocks[-1][3].append([blocks[-1][0][m.tobytes()] for m in mats])
        return hints_of(mats, mu2)

    monkeypatch.setattr(rewiring, "_propagation_stack", stack)
    monkeypatch.setattr(rewiring, "_eigenvector_hints", hints)
    got = decide_gros(GrosInstance(g, k, tau, mode))
    total = sum(math.comb(n * (n - 1) // 2, j) for j in range(k + 1))
    assert len(blocks) == -(-total // rows)  # every block is scored for value_achieved
    witness = _witness_row(g, k, got.witness) if got.answer == "yes" else None
    last = len(blocks) - 1 if witness is None else witness // rows
    for block, (_, signed, mu2, calls) in enumerate(blocks):
        at_most = [i for i in range(len(mu2)) if mu2[i] <= float(tau)]
        end = len(mu2) - 1
        if block == last and witness is not None:
            end = min(i for i in at_most + [end] if i >= witness % rows)
        want = [i for i in range(end + 1) if signed[i] > float(tau)] if block <= last else []
        assert sum(calls, []) == want, (block, last, calls)
        spans = [[sum(i < r for i in at_most) for r in call] for call in calls]
        assert all(len(set(span)) == 1 for span in spans), spans  # a call never crosses a span
        assert [span[0] for span in spans] == sorted({span[0] for span in spans}), spans  # one per span
    assert got == gros_reference.decide_gros(GrosInstance(g, k, tau, mode))
    if k and got.answer == "yes":
        assert 0 < last < len(blocks) - 1


def _near_threshold():
    """K = 0 at tau = mu2 - 1e-6 and mu2 - 1e-7 on 3-regular graphs, n = 16-64, 20 seeds
    each: 200 decisions the kernel must prove "no" from 2^k hints."""
    cases = []
    for n in (16, 24, 32, 48, 64):
        for seed in range(20):
            g = random_regular_graph(n, 3, seed=seed)
            mu2 = Fraction(float(np.linalg.eigvalsh(matrix_of(g, "propagation"))[-2]))
            cases += [(g, 0, mu2 - Fraction(1, 10**d)) for d in (6, 7)]
    return cases


def _small_blocks():
    """K = 1 and 2 searches at thresholds between, at and past the float mu2 of their rows."""
    rng = random.Random(2701)
    cases = []
    for n in (5, 6, 7, 8, 9):
        for g in (make_connected(rng, n), make_gnp(rng, n, 0.5)):
            for k in (1, 2):
                best = decide_gros(GrosInstance(g, k, 1)).value_achieved
                cases += [(g, k, tau) for tau in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(99, 100),
                                                   Fraction(best) - Fraction(1, 10**6), Fraction(best) + Fraction(1, 10**6))]
    return cases


def test_block_proof_matches_the_per_candidate_proof():
    # on every row above tau, the kernel on 2^k hints proves what _certifies_above proves
    # on the same hints and on the 2^40 hints it had
    proved = rows_checked = 0
    near = _near_threshold()
    for case, (g, k, tau) in enumerate(near + _small_blocks()):
        n = g.n
        u, v = np.triu_indices(n, 1)
        pairs = list(zip(u.tolist(), v.tolist()))
        toggles = next(rewiring._toggle_blocks(len(u), k, 1 << 30))
        stack, flips = rewiring._propagation_stack(matrix_of(g, "adjacency").astype(np.int8), u, v, toggles)
        signed = np.linalg.eigvalsh(stack)[:, -2]
        above = np.flatnonzero(signed > float(tau))
        if not len(above):
            continue
        xk = rewiring._eigenvector_hints(stack[above], signed[above])
        x40 = gros_reference._eigenvector_hints(stack[above], signed[above])
        got = sturm._proves_above(flips[above], xk, tau).tolist()
        for r, a, b, ok in zip(above.tolist(), xk.tolist(), x40, got):
            h = Graph(n=n, edges=g.edges ^ {pairs[t] for t in toggles[r].tolist() if t < len(pairs)})
            assert ok == gros_reference._certifies_above(h, tau, a) == gros_reference._certifies_above(h, tau, b)
            proved += ok
        rows_checked += len(above)
        if case < len(near):
            assert got == [True], (g, tau)
    assert rows_checked > 10_000 and proved > 10_000, (rows_checked, proved)


def _counted(monkeypatch, module) -> list:
    calls = []
    exact = module.exact_mu2_leq

    def counted(*args):
        calls.append(args[1])
        return exact(*args)

    monkeypatch.setattr(module, "exact_mu2_leq", counted)
    return calls


def _same_decisions(cases, reference):
    for g, k, tau, mode in cases:
        inst = GrosInstance(g, k, min(tau, Fraction(1)), mode)
        got, want = decide_gros(inst), reference(inst)
        assert got == want and got.value_achieved.hex() == want.value_achieved.hex(), (g, k, tau, mode)


def test_exact_calls_match_the_per_candidate_solver(monkeypatch):
    # the same decisions from the same exact_mu2_leq calls: the kernel leaves open only
    # the rows that the per-candidate proof left open
    near = [(g, k, tau, "signed") for g, k, tau in _near_threshold()]
    small = [(g, k, tau, mode) for g, k, tau in _small_blocks() for mode in ("signed", "absolute")]
    new, old = _counted(monkeypatch, sturm), _counted(monkeypatch, gros_reference)
    _same_decisions(near, gros_reference.decide_gros_chunked)
    assert new == old == []
    _same_decisions(small, gros_reference.decide_gros_chunked)
    assert new == old and len(new) > 50


def test_rows_past_the_int64_bound_keep_the_decisions(monkeypatch):
    # a bound below n^2 2^40 leaves every row unproved: guided_mu2_leq decides them all
    cases = [(g, k, tau, mode) for g, k, tau in _small_blocks()[::4] for mode in ("signed", "absolute")]
    monkeypatch.setattr(sturm, "_INT64_RANGE", 1 << 40)
    proofs = []
    kernel = rewiring._proves_above

    def recorded(*args):
        out = kernel(*args)
        proofs.extend(out.tolist())
        return out

    monkeypatch.setattr(rewiring, "_proves_above", recorded)
    exact = _counted(monkeypatch, sturm)
    _same_decisions(cases, gros_reference.decide_gros)
    assert len(proofs) > 3_000 and not any(proofs)
    assert len(exact) > len(proofs)


def test_hints_scaled_from_n_leave_open_only_what_2_40_hints_leave_open(monkeypatch):
    # tau exactly at the least float mu2: rows whose mu2 lies within about 1e-12 of tau
    # need fine hints, and hints scaled to 2^k leave open, per decision, as many rows
    # for exact_mu2_leq as the per-candidate proof on 2^40 hints
    rng = random.Random(2903)
    cases = []
    for _ in range(60):
        n = rng.randrange(6, 17)
        g = make_gnp(rng, n, rng.uniform(0.3, 0.7))
        k = 2 if n <= 8 else 1 if n <= 12 else 0
        cases.append(GrosInstance(g, k, Fraction(decide_gros(GrosInstance(g, k, 1)).value_achieved)))
    new, old = _counted(monkeypatch, sturm), _counted(monkeypatch, gros_reference)
    for inst in cases:
        new.clear()
        old.clear()
        got, want = decide_gros(inst), gros_reference.decide_gros_chunked(inst)
        assert got == want and got.value_achieved.hex() == want.value_achieved.hex(), inst
        assert len(new) == len(old), (inst, len(new), len(old))
