import hashlib
import math
import random
from fractions import Fraction

import pytest

import weylcalc.laws
import weylcalc.operators
from weylcalc.laws import (
    ACCEPTANCE_CONFIG,
    GenConfig,
    IdealSpec,
    LAWS,
    LawReport,
    MAX_COUNTEREXAMPLES,
    _below,
    _trial_rng,
    gen_derivation,
    gen_diffop,
    gen_point,
    gen_poly,
    gen_rational,
    gen_symbol,
    run_all,
    run_law,
)
from weylcalc.operators import DiffOp
from weylcalc.parser import MAX_JET_BASIS
from weylcalc.poly import Poly

FAST = GenConfig(n=2, max_order=2, max_coeff_degree=2, coeff_bound=5, trials=25, seed=11)

REQUIRED_LAWS = [
    "compose-oracle",
    "filtration-additivity",
    "commutator-drop",
    "jacobi",
    "leibniz-peel",
    "ideal-lemma",
    "gorder-eq-syntactic",
    "diff1-split",
    "reconstruction",
    "symbol-mult",
    "gr-commutative",
    "quantize-roundtrip",
    "weyl-relations",
]


def test_registry_contains_required_laws():
    for name in REQUIRED_LAWS:
        assert name in LAWS


@pytest.mark.parametrize("name", sorted(LAWS))
def test_each_law_passes_at_fast_scale(name):
    report = run_law(name, FAST)
    assert report.passed, report.failures
    assert report.trials == FAST.trials
    assert report.failure_count == 0 and report.failures == []


def test_unknown_law_is_rejected():
    with pytest.raises(ValueError, match="unknown law"):
        run_law("no-such-law", FAST)


def test_runs_are_deterministic():
    def snapshot(reports):
        return [(r.law, r.trials, r.failure_count, tuple(r.failures)) for r in reports]

    assert snapshot(run_all(FAST)) == snapshot(run_all(FAST))


def test_trial_rng_streams():
    a = _trial_rng(FAST, "jacobi", 0)
    b = _trial_rng(FAST, "jacobi", 0)
    assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]
    c = _trial_rng(FAST, "jacobi", 1)
    d = _trial_rng(FAST, "compose-oracle", 0)
    first = _trial_rng(FAST, "jacobi", 0).random()
    assert c.random() != first
    assert d.random() != first


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig(n=0)
    with pytest.raises(ValueError):
        GenConfig(n=4)
    with pytest.raises(ValueError):
        GenConfig(max_order=-1)
    # max_order is bounded like a jet table's degree: C(n + k, n) <= MAX_JET_BASIS
    for n, k in [(1, 299), (2, 23), (3, 10)]:
        assert math.comb(n + k, n) <= MAX_JET_BASIS < math.comb(n + k + 1, n)
        GenConfig(n=n, max_order=k)
        with pytest.raises(ValueError, match=f"gives a jet basis of {math.comb(n + k + 1, n)} monomials"):
            GenConfig(n=n, max_order=k + 1)
    with pytest.raises(ValueError):
        GenConfig(coeff_bound=0)
    with pytest.raises(ValueError):
        GenConfig(trials=0)


def test_idealspec_validation_and_membership():
    t1 = Poly.variable(1, 1)
    spec = IdealSpec(kind="principal", generator=t1)
    assert spec.contains(t1 * t1 + t1)
    assert not spec.contains(t1 + 1)
    at0 = IdealSpec(kind="point", point=(Fraction(0),))
    assert at0.contains(t1)
    assert not at0.contains(t1 + 1)
    with pytest.raises(ValueError):
        IdealSpec(kind="principal")
    with pytest.raises(ValueError):
        IdealSpec(kind="point")
    with pytest.raises(ValueError):
        IdealSpec(kind="odd")


def test_generated_coefficients_respect_bounds():
    for trial in range(200):
        rng = _trial_rng(FAST, "bounds-audit", trial)
        p = gen_poly(FAST, rng)
        for c in p.terms.values():
            assert abs(c.numerator) <= FAST.coeff_bound
            assert c.denominator <= FAST.coeff_bound
        q = gen_rational(rng, 3, nonzero=True)
        assert q != 0


def test_gen_diffop_forces_the_requested_order():
    for trial in range(50):
        rng = _trial_rng(FAST, "order-audit", trial)
        want = trial % (FAST.max_order + 1)
        D = gen_diffop(FAST, rng, order=want)
        assert D.order == want


def test_gen_symbol_is_homogeneous_and_nonzero():
    for trial in range(50):
        rng = _trial_rng(FAST, "symbol-audit", trial)
        s = gen_symbol(FAST, rng)
        assert s
        assert all(J.degree == s.grade for J in s.terms)


def test_report_line_format():
    r = LawReport(law="jacobi", trials=7, failure_count=0)
    assert r.machine_line() == "jacobi 7 0 PASS"
    bad = LawReport(law="jacobi", trials=7, failure_count=2, failures=["trial 0: x"])
    assert bad.machine_line() == "jacobi 7 2 FAIL"
    assert not bad.passed


def test_broken_compose_is_caught_with_counterexamples(monkeypatch):
    def skewed(a, b):
        c = math.comb(a, b)
        return c + 1 if 0 < b < a else c

    monkeypatch.setattr(weylcalc.operators, "_binom", skewed)
    report = run_law("compose-oracle", GenConfig(n=2, max_order=2, trials=40, seed=3))
    assert not report.passed
    assert 0 < len(report.failures) <= MAX_COUNTEREXAMPLES
    assert report.failure_count >= len(report.failures)
    assert "D1 =" in report.failures[0]


def test_acceptance_config_is_the_documented_scale():
    assert ACCEPTANCE_CONFIG.n == 3
    assert ACCEPTANCE_CONFIG.max_order == 3
    assert ACCEPTANCE_CONFIG.max_coeff_degree == 3
    assert ACCEPTANCE_CONFIG.coeff_bound == 5
    assert ACCEPTANCE_CONFIG.trials == 100


def test_weyl_relations_draw_a_new_instance_each_trial(monkeypatch):
    # a commutator that forgets its second half breaks [d_i, m_f] = m_{df/dt_i}
    # and [m_f, m_g] = 0 on every trial, and each counterexample names its own f
    monkeypatch.setattr(weylcalc.laws, "commutator", lambda a, b: a.compose(b))
    report = run_law("weyl-relations", GenConfig(n=3, trials=20, seed=5))
    assert report.failure_count == 20
    drawn = {line.split(": ", 1)[1].split(";")[0] for line in report.failures}
    assert len(drawn) == MAX_COUNTEREXAMPLES


def test_the_instance_stream_is_pinned():
    # every law draws its instances from these generators, so a rewrite of them
    # must leave the rendered instances, and the draws they consume, unchanged
    digest = hashlib.sha256()
    for cfg in (ACCEPTANCE_CONFIG, GenConfig(n=1, max_order=4, coeff_bound=7)):
        for seed in range(40):
            rng = random.Random(seed)
            items = [
                gen_diffop(cfg, rng),
                gen_poly(cfg, rng),
                gen_poly(cfg, rng, nonzero=True),
                gen_symbol(cfg, rng),
                gen_derivation(cfg, rng),
                gen_diffop(cfg, rng, order=1),
            ]
            text = "; ".join(map(str, items)) + f"; {gen_point(cfg, rng)}; {rng.random()!r}\n"
            digest.update(text.encode())
    assert digest.hexdigest() == "a84bcc938fddd67bd6da36ced3a860d43259ae3f8cffc2b41f8a055a05ddfc4c"


def _truncated_commutator(a, b):
    # only the |K| = 1 terms of the star product: right order and symbol, wrong action
    n, s, u = a.n, a.poly, b.poly
    out = Poly.zero(2 * n)
    for i in range(1, n + 1):
        out = out + s.partial(n + i) * u.partial(i) - u.partial(n + i) * s.partial(i)
    return DiffOp._make(n, out)


def _sign_flipped_commutator(a, b):
    # the K != 0 terms of a b plus those of b a: the K = 0 term is the commuting product
    return a.compose(b) + b.compose(a) - DiffOp._make(a.n, a.poly * b.poly).scale(2)


@pytest.mark.parametrize("broken", [_truncated_commutator, _sign_flipped_commutator])
def test_commutator_drop_catches_a_wrong_commutator(monkeypatch, broken):
    monkeypatch.setattr(weylcalc.laws, "commutator", broken)
    report = run_law("commutator-drop", ACCEPTANCE_CONFIG)
    assert report.failure_count > 0
    assert "D1 =" in report.failures[0]


def test_commutator_drop_catches_a_skewed_binomial(monkeypatch):
    def skewed(a, b):
        c = math.comb(a, b)
        return c + 1 if 0 < b < a else c

    monkeypatch.setattr(weylcalc.operators, "_binom", skewed)
    assert run_law("commutator-drop", ACCEPTANCE_CONFIG).failure_count > 0


def test_below_draws_what_randrange_and_randint_draw():
    # _below keeps, draw for draw, the stream that randrange and randint drew before it
    for seed in range(20):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in [*range(1, 41), 255, 256, 1000, 2**40 + 3]:
            assert _below(ours, n) == ref.randrange(n)
            assert 7 + _below(ours, n) == ref.randint(7, 7 + n - 1)
        assert ours.random() == ref.random()


def test_every_law_draws_are_pinned():
    # the verdicts and the draws of the laws themselves, their bodies' own draws included
    digest = hashlib.sha256()
    for cfg in (ACCEPTANCE_CONFIG, GenConfig(n=1, max_order=4, coeff_bound=7)):
        for law, fn in LAWS.items():
            for t in range(10):
                rng = _trial_rng(cfg, law, t)
                verdict = fn(cfg, rng, t)
                digest.update(repr((law, t, verdict, rng.random())).encode())
    assert digest.hexdigest() == "c197a573fd09996f341ae508ecfba0f87e44a9df2521e54f266c16f4a3ff52a6"
