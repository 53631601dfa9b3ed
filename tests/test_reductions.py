import json
import random
from fractions import Fraction

import pytest

from conftest import make_gnp, make_max_degree_3
from rewirelab import (
    BisectionInstance,
    ReductionConstants,
    build_certified_expander,
    build_graph,
    certificate_json_text,
    complete_graph,
    conductance_of,
    cycle_graph,
    embed_instance,
    measure_constants,
    min_bisection_exact,
    rebuild_certificate,
    reduce_to_groc,
    reduce_to_gros,
    scale_instance_between,
    scale_instance_large,
    verify_reduction,
)
from rewirelab.errors import (
    CertificationFailure,
    ConstantConditionViolated,
    DegreeTooHigh,
    InfeasibleParameters,
)

GROC_CONSTS = ReductionConstants(Fraction(1, 10), Fraction(1, 10), Fraction(1, 2))
GROS_CONSTS = ReductionConstants(Fraction(1, 64), Fraction(1, 10), Fraction(1, 2))


def _decision(inst: BisectionInstance) -> bool:
    return min_bisection_exact(inst.h).width <= inst.b


def test_expander_k4_case():
    ce = build_certified_expander(4, 0.0, seed=3)
    assert abs(ce.lambda2 - 4 / 3) < 1e-9  # the only 3-regular graph on 4 vertices is K4


def test_expander_parity_rejected():
    with pytest.raises(InfeasibleParameters):
        build_certified_expander(5, 0.0)


def test_expander_certification_failure_reports_best():
    with pytest.raises(CertificationFailure) as exc:
        build_certified_expander(16, 1.9, seed=1, max_retries=3)
    assert exc.value.best_lambda2 > 0


def test_embed_c4():
    emb = embed_instance(cycle_graph(4), seed=5)
    g = emb.g
    assert g.n == 8
    assert all(d == 3 for d in g.degrees)
    induced = {e for e in g.edges if e[0] < 4 and e[1] < 4}
    assert induced == set(cycle_graph(4).edges)
    # every C4 vertex has exactly one pad edge
    for v in range(4):
        pad_nbrs = [w for w in g.neighbors[v] if w >= 4]
        assert len(pad_nbrs) == 1


def test_embed_rejects_degree_four():
    star = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    with pytest.raises(DegreeTooHigh):
        embed_instance(star)


def test_embed_matching_demand():
    two_k2 = build_graph(4, [(0, 1), (2, 3)])
    emb = embed_instance(two_k2, seed=2)
    # deficiency 2 per vertex: 8 stubs into U, so U needs 4 internal stub-ends = 2 edges
    vu = [e for e in emb.g.edges if (e[0] < 4) != (e[1] < 4)]
    uu = [e for e in emb.g.edges if e[0] >= 4 and e[1] >= 4]
    assert len(vu) == 8 and len(uu) == 2


def test_embed_deterministic():
    a = embed_instance(cycle_graph(6), seed=11)
    b = embed_instance(cycle_graph(6), seed=11)
    assert a.g == b.g and a.certified_lambda2 == b.certified_lambda2


def test_measured_c1_is_the_enumerated_maximum():
    h = cycle_graph(4)
    emb = embed_instance(h, seed=7)
    mc = measure_constants(emb, h)
    n = h.n
    u_set = set(emb.pad_vertices)
    # definitional property: the bound holds for every S, tight somewhere
    tight = False
    for bits in range(1 << n):
        members = {v for v in range(n) if bits >> v & 1}
        if len(members) > n // 2:
            continue
        width = sum(1 for a, b in h.edges if (a in members) != (b in members))
        phi = conductance_of(emb.g, members | u_set).phi
        assert phi <= mc.c1 * Fraction(width + n, n)
        if phi == mc.c1 * Fraction(width + n, n):
            tight = True
    assert tight
    assert mc.c1 > 0 and mc.c2 > 0 and mc.c3 > 0


def test_measured_c2_c3_bound_all_cuts():
    h = cycle_graph(4)
    emb = embed_instance(h, seed=7)
    mc = measure_constants(emb, h)
    g = emb.g
    n = h.n
    rng = random.Random(13)
    for _ in range(300):
        bits = rng.randrange(1, (1 << g.n) - 1)
        side = {v for v in range(g.n) if bits >> v & 1}
        cut = conductance_of(g, side)
        if cut.phi == 0:
            continue
        s = {v for v in side if v < n}
        width = sum(1 for a, b in h.edges if (a in s) != (b in s))
        assert Fraction(width) <= mc.c2 * cut.phi * n
        if 0 < len(s) < n:
            from rewirelab import balance_cut

            _, factor = balance_cut(h, s)
            assert factor <= mc.c3


def test_scale_large_window_and_equivalence():
    for b in (0, 1, 2, 3):
        inst = BisectionInstance(cycle_graph(4), b)
        scaled = scale_instance_large(inst)
        assert scaled.b >= 2 * scaled.h.n
        assert _decision(scaled) == _decision(inst)
    ok = BisectionInstance(cycle_graph(4), 8)
    assert scale_instance_large(ok) is ok


def test_scale_between_window_and_equivalence():
    cases = [(cycle_graph(4), 0), (cycle_graph(4), 100), (complete_graph(6), 1), (cycle_graph(6), 40)]
    for h, b in cases:
        inst = BisectionInstance(h, b)
        scaled = scale_instance_between(inst)
        assert scaled.h.n <= 2 * scaled.b <= 4 * scaled.h.n
        if scaled.h.n <= 20:
            assert _decision(scaled) == _decision(inst)
    ok = BisectionInstance(cycle_graph(4), 2)
    assert scale_instance_between(ok) is ok


def test_scaling_equivalence_random_instances():
    rng = random.Random(97)
    for _ in range(12):
        n = rng.choice([4, 6, 8])
        h = make_gnp(rng, n, rng.random())
        b = rng.randrange(0, h.m + 3)
        inst = BisectionInstance(h, b)
        truth = _decision(inst)
        big = scale_instance_large(inst)
        assert _decision(big) == truth and big.b >= 2 * big.h.n
        mid = scale_instance_between(inst)
        assert mid.h.n <= 2 * mid.b <= 4 * mid.h.n
        if mid.h.n <= 20:
            assert _decision(mid) == truth


def test_reduce_to_groc_threshold_formula():
    inst = BisectionInstance(cycle_graph(4), 2)
    target, cert = reduce_to_groc(inst, GROC_CONSTS, seed=5)
    assert target.phi0 == Fraction(17, 20)  # 1 - 0.1 * 6/4
    assert target.budget_k == 0
    assert cert.inverted
    # phi0 > 1/2 whenever B <= 2n and c1 < 1/6
    assert target.phi0 > Fraction(1, 2)


def test_reduce_to_groc_rejects_bad_constants():
    inst = BisectionInstance(cycle_graph(4), 2)
    with pytest.raises(ConstantConditionViolated):
        reduce_to_groc(inst, ReductionConstants(Fraction(1, 5), Fraction(1, 10), Fraction(1, 2)))
    with pytest.raises(ConstantConditionViolated):
        reduce_to_groc(inst, ReductionConstants(Fraction(1, 10), Fraction(3), Fraction(1, 2)))


def test_reduce_to_gros_threshold_and_epsilon():
    # B = 2n with c1 = 1/64: headroom = 1 - 2*(1/64)*3 = 29/32
    h = cycle_graph(4)
    inst = BisectionInstance(h, 8)
    target, cert = reduce_to_gros(inst, GROS_CONSTS, seed=5)
    eps = cert.constants.epsilon
    assert eps == min(Fraction(29, 64), Fraction(1, 64) * Fraction(8, 4))
    assert target.tau == Fraction(29, 32) - eps
    assert cert.kind == "gros"


def test_reduce_to_gros_rejects_bad_constants_and_unscaled():
    inst = BisectionInstance(cycle_graph(4), 8)
    with pytest.raises(ConstantConditionViolated):
        reduce_to_gros(inst, ReductionConstants(Fraction(1, 32), Fraction(1, 10), Fraction(1, 2)))
    with pytest.raises(InfeasibleParameters):
        reduce_to_gros(BisectionInstance(cycle_graph(4), 2), GROS_CONSTS)


def test_verify_groc_forward_direction():
    inst = BisectionInstance(cycle_graph(4), 2)  # bisection YES
    _, cert = reduce_to_groc(inst, GROC_CONSTS, seed=5)
    done = verify_reduction(inst, cert)
    assert done.bisection_width == 2
    assert done.forward_check["applicable"]
    assert done.forward_check["holds_with_measured"]
    assert done.reverse_check == {"applicable": False}
    assert done.graph_phi < done.threshold  # maps to a rewiring NO
    assert done.agreement is True


def test_verify_groc_reverse_direction_records_terms():
    inst = BisectionInstance(cycle_graph(4), 0)  # width 2 > 0: bisection NO
    _, cert = reduce_to_groc(inst, GROC_CONSTS, seed=5)
    done = verify_reduction(inst, cert)
    assert not done.forward_check["applicable"]
    rc = done.reverse_check
    assert rc["applicable"]
    assert "min_cut_conductance" in rc and "extracted_side" in rc
    assert done.agreement in (True, False)  # recorded, never asserted


def test_verify_empty_graph_zero_budget():
    h = build_graph(4, [])
    inst = BisectionInstance(h, 0)
    _, cert = reduce_to_groc(inst, GROC_CONSTS, seed=9)
    done = verify_reduction(inst, cert)
    assert done.bisection_width == 0
    assert done.forward_check["applicable"]


def test_verify_gros_directions():
    yes_inst = BisectionInstance(cycle_graph(4), 8)
    _, cert = reduce_to_gros(yes_inst, GROS_CONSTS, seed=5)
    done = verify_reduction(yes_inst, cert)
    assert done.forward_check["applicable"]
    assert done.mu2_leq_tau in (True, False)
    no_inst = BisectionInstance(cycle_graph(4), 1)
    _, cert2 = reduce_to_gros(no_inst, GROS_CONSTS, seed=5, require_scaled=False)
    done2 = verify_reduction(no_inst, cert2)
    assert done2.reverse_check["applicable"]
    assert "delta" in done2.reverse_check and "sqrt_two_delta" in done2.reverse_check


def test_certificate_reproducible_byte_for_byte():
    inst = BisectionInstance(make_max_degree_3(random.Random(3), 6), 2)
    _, cert = reduce_to_groc(inst, GROC_CONSTS, seed=21)
    done = verify_reduction(inst, cert)
    text = certificate_json_text(done)
    again = certificate_json_text(verify_reduction(inst, reduce_to_groc(inst, GROC_CONSTS, seed=21)[1]))
    assert text == again
    rebuilt = rebuild_certificate(json.loads(text))
    assert certificate_json_text(rebuilt) == text


def test_certificate_tamper_detected():
    inst = BisectionInstance(cycle_graph(4), 2)
    _, cert = reduce_to_groc(inst, GROC_CONSTS, seed=5)
    done = verify_reduction(inst, cert)
    recorded = json.loads(certificate_json_text(done))
    recorded["threshold"] = "9/10"
    rebuilt = rebuild_certificate(recorded)
    from rewirelab import certificate_to_json

    assert certificate_to_json(rebuilt)["threshold"] != recorded["threshold"]


_GROC_FORWARD = [
    "applicable", "configured_bound", "holds_with_configured", "holds_with_measured", "measured_bound",
    "one_minus_threshold", "threshold_above_half", "witness_cut_conductance",
]
_GROS_FORWARD = [
    "applicable", "cheeger_lambda2_bound", "configured_bound", "holds_with_measured", "lambda2_measured",
    "lambda2_within_bound", "measured_bound", "mu2_exceeds_tau", "witness_cut_conductance",
]
_GROC_REVERSE = [
    "applicable", "balanced_side", "conclusion_phi_at_least_threshold", "extracted_side", "extracted_width",
    "extraction_bound_configured", "extraction_holds_configured", "hypothesis_phi_below_threshold",
    "min_cut_conductance", "threshold",
]
_GROC_REVERSE_BALANCED = sorted(
    _GROC_REVERSE
    + ["balance_bound_configured", "balance_factor", "balanced_width", "balanced_width_below_budget", "contradiction_bound"]
)
_GROS_REVERSE = [
    "applicable", "conclusion_mu2_leq_tau", "cut_conductance_target", "delta", "extracted_side", "extracted_width",
    "extraction_bound", "half_sqrt_bn", "lambda2_measured", "min_cut_conductance", "sqrt_bound_holds", "sqrt_two_delta",
]
_GROS_REVERSE_BALANCED = sorted(_GROS_REVERSE + ["balance_factor", "balanced_width"])
_PATH_4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "kind, h, b, forward, reverse",
    [
        ("groc", cycle_graph(4), 2, _GROC_FORWARD, ["applicable"]),
        ("gros", cycle_graph(4), 2, _GROS_FORWARD, ["applicable"]),
        ("groc", cycle_graph(4), 0, ["applicable"], _GROC_REVERSE),
        ("gros", cycle_graph(4), 0, ["applicable"], _GROS_REVERSE),
        ("groc", _PATH_4, 0, ["applicable"], _GROC_REVERSE_BALANCED),
        ("gros", _PATH_4, 0, ["applicable"], _GROS_REVERSE_BALANCED),
    ],
)
def test_certificate_chain_keys(kind, h, b, forward, reverse):
    """The chain keys a certificate records, per kind and proof direction."""
    inst = BisectionInstance(h, b)
    if kind == "groc":
        _, cert = reduce_to_groc(inst, GROC_CONSTS, seed=5)
    else:
        _, cert = reduce_to_gros(inst, GROS_CONSTS, seed=5, require_scaled=False)
    done = verify_reduction(inst, cert)
    assert sorted(done.forward_check) == forward
    assert sorted(done.reverse_check) == reverse
