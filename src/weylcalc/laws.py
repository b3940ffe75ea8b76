"""Randomized checking of the algebraic laws, with seeded reproducibility.

Every law is a pure function of a GenConfig and a trial index: the RNG
for trial t of law L is seeded from SHA-256 of "seed:L:t", so runs are
reproducible across processes and machines, single trials can be
replayed in isolation, and inserting a new law never shifts the random
stream of an existing one.

All checks are exact equalities of canonical forms or exact order
comparisons; there are no tolerances anywhere.  A report with an empty
failure list is a pass; counterexamples are capped at
MAX_COUNTEREXAMPLES per law.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .grothendieck import grothendieck_order, is_derivation, split_order_one
from .jets import JetMap, from_jet_map, restriction
from .operators import DiffOp, commutator
from .poly import MultiIndex, Poly, monomials_up_to, reduce_by
from .symbols import SymbolElem, principal_symbol, quantize, symbol_mul

MAX_COUNTEREXAMPLES = 5


@dataclass(frozen=True)
class GenConfig:
    """Bounds for the random instance generators."""

    n: int = 2
    max_order: int = 2
    max_coeff_degree: int = 2
    coeff_bound: int = 5
    trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 3:
            raise ValueError(f"n must be in 1..3, got {self.n}")
        if self.max_order < 0:
            raise ValueError(f"max_order must be nonnegative, got {self.max_order}")
        if self.max_coeff_degree < 0:
            raise ValueError(f"max_coeff_degree must be nonnegative, got {self.max_coeff_degree}")
        if self.coeff_bound < 1:
            raise ValueError(f"coeff_bound must be positive, got {self.coeff_bound}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")


# The scale every acceptance run uses: small enough to stay exact and
# fast, large enough that wrong composition rules or dropped terms
# surface within the trial budget.
ACCEPTANCE_CONFIG = GenConfig(
    n=3, max_order=3, max_coeff_degree=3, coeff_bound=5, trials=100, seed=1729
)


@dataclass(frozen=True)
class IdealSpec:
    """An ideal to test membership against: principal (g) or a point's vanishing ideal."""

    kind: str
    generator: Poly | None = None
    point: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "principal":
            if self.generator is None or not self.generator:
                raise ValueError("a principal IdealSpec needs a nonzero generator")
        elif self.kind == "point":
            if self.point is None:
                raise ValueError("a point IdealSpec needs a point")
        else:
            raise ValueError(f"unknown ideal kind {self.kind!r}")

    def contains(self, p: Poly) -> bool:
        if self.kind == "principal":
            assert self.generator is not None
            return not reduce_by(p, self.generator)
        assert self.point is not None
        return p.evaluate(self.point) == 0

    def describe(self) -> str:
        if self.kind == "principal":
            return f"ideal generated by {self.generator}"
        assert self.point is not None
        return "vanishing ideal of (" + ", ".join(str(c) for c in self.point) + ")"


@dataclass
class LawReport:
    law: str
    trials: int
    failure_count: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def machine_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.law} {self.trials} {self.failure_count} {status}"


def _trial_rng(cfg: GenConfig, law: str, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{cfg.seed}:{law}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# instance generators


def gen_rational(rng: random.Random, bound: int, nonzero: bool = False) -> Fraction:
    num = rng.randint(1, bound) if nonzero else rng.randint(0, bound)
    if num and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, bound))


def _spread(rng: random.Random, n: int, degree: int) -> MultiIndex:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return MultiIndex(exps)


def gen_multiindex(rng: random.Random, n: int, max_degree: int) -> MultiIndex:
    return _spread(rng, n, rng.randint(0, max_degree))


def gen_poly(cfg: GenConfig, rng: random.Random, nonzero: bool = False) -> Poly:
    """Sparse polynomial, at most 3 monomials, coefficients within the bound.

    Colliding monomial draws overwrite instead of accumulating, so every
    surviving coefficient still satisfies the magnitude bound.
    """
    terms: dict[MultiIndex, Fraction] = {}
    for _ in range(rng.randint(1 if nonzero else 0, 3)):
        terms[gen_multiindex(rng, cfg.n, cfg.max_coeff_degree)] = gen_rational(
            rng, cfg.coeff_bound, nonzero=True
        )
    return Poly(cfg.n, terms)


def gen_nonconstant_poly(cfg: GenConfig, rng: random.Random) -> Poly:
    p = gen_poly(cfg, rng, nonzero=True)
    if p.degree == 0:
        p = p * Poly.variable(cfg.n, rng.randint(1, cfg.n))
    return p


def gen_point(cfg: GenConfig, rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(gen_rational(rng, cfg.coeff_bound) for _ in range(cfg.n))


def gen_diffop(cfg: GenConfig, rng: random.Random, order: int | None = None) -> DiffOp:
    """Random operator with a forced nonzero word at the top order."""
    if order is None:
        order = rng.randint(0, cfg.max_order)
    terms: dict[MultiIndex, Poly] = {
        _spread(rng, cfg.n, order): gen_poly(cfg, rng, nonzero=True)
    }
    for _ in range(rng.randint(0, 2)):
        J = gen_multiindex(rng, cfg.n, order)
        f = gen_poly(cfg, rng)
        if J not in terms and f:
            terms[J] = f
    return DiffOp(cfg.n, terms)


def gen_derivation(cfg: GenConfig, rng: random.Random) -> DiffOp:
    coeffs = [gen_poly(cfg, rng) for _ in range(cfg.n)]
    if not any(coeffs):
        coeffs[rng.randrange(cfg.n)] = gen_poly(cfg, rng, nonzero=True)
    return DiffOp.from_vector_field(coeffs)


def gen_symbol(cfg: GenConfig, rng: random.Random, grade: int | None = None) -> SymbolElem:
    if grade is None:
        grade = rng.randint(0, cfg.max_order)
    terms: dict[MultiIndex, Poly] = {}
    for _ in range(rng.randint(1, 3)):
        terms[_spread(rng, cfg.n, grade)] = gen_poly(cfg, rng, nonzero=True)
    return SymbolElem(cfg.n, grade, terms)


# ---------------------------------------------------------------------------
# the laws; each returns None on success or a counterexample string


def _law_compose_oracle(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    D1 = gen_diffop(cfg, rng)
    D2 = gen_diffop(cfg, rng)
    comp = D1.compose(D2)
    for _ in range(10):
        p = gen_poly(cfg, rng)
        lhs = comp.apply(p)
        rhs = D1.apply(D2.apply(p))
        if lhs != rhs:
            return (
                f"D1 = {D1}; D2 = {D2}; p = {p}; "
                f"composed normal form gives {lhs} but applying twice gives {rhs}"
            )
    return None


def _law_filtration_additivity(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    D1 = gen_diffop(cfg, rng)
    D2 = gen_diffop(cfg, rng)
    want = (D1.order or 0) + (D2.order or 0)
    got = D1.compose(D2).order
    if got != want:
        return f"D1 = {D1}; D2 = {D2}; order of the product is {got}, expected {want}"
    return None


def _law_commutator_drop(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    D1 = gen_diffop(cfg, rng)
    D2 = gen_diffop(cfg, rng)
    bound = (D1.order or 0) + (D2.order or 0) - 1
    got = commutator(D1, D2).order
    if got is not None and got > bound:
        return f"D1 = {D1}; D2 = {D2}; commutator has order {got}, bound {bound}"
    return None


def _law_jacobi(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    A = gen_diffop(cfg, rng)
    B = gen_diffop(cfg, rng)
    C = gen_diffop(cfg, rng)
    lhs = commutator(A, commutator(B, C))
    rhs = commutator(commutator(A, B), C) + commutator(B, commutator(A, C))
    if lhs != rhs:
        return f"A = {A}; B = {B}; C = {C}; [A,[B,C]] = {lhs} but [[A,B],C] + [B,[A,C]] = {rhs}"
    return None


def _law_leibniz_peel(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    D = gen_diffop(cfg, rng)
    k = max(D.order or 0, 1)
    factors = [gen_poly(cfg, rng, nonzero=True) for _ in range(k)]
    head, rest = factors[0], factors[1:]
    rest_prod = Poly.const(cfg.n, 1)
    for p in rest:
        rest_prod = rest_prod * p
    peeled = commutator(D, DiffOp.from_poly(head))
    lhs = D.apply(head * rest_prod)
    rhs = peeled.apply(rest_prod) + head * D.apply(rest_prod)
    if lhs != rhs:
        return (
            f"D = {D}; head = {head}; rest = {rest_prod}; "
            f"D(head*rest) = {lhs} but peeled form gives {rhs}"
        )
    drop = (D.order or 0) - 1
    got = peeled.order
    if got is not None and got > drop:
        return f"D = {D}; head = {head}; [D, m_head] has order {got}, bound {drop}"
    return None


def _law_ideal_lemma(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    D = gen_diffop(cfg, rng)
    k = D.order or 0
    if trial % 2 == 0:
        g = gen_nonconstant_poly(cfg, rng)
        spec = IdealSpec(kind="principal", generator=g)
        members = [g * gen_poly(cfg, rng, nonzero=True) for _ in range(k + 1)]
    else:
        x = gen_point(cfg, rng)
        spec = IdealSpec(kind="point", point=x)
        members = []
        for _ in range(k + 1):
            p = gen_nonconstant_poly(cfg, rng)
            members.append(p - Poly.const(cfg.n, p.evaluate(x)))
    f = Poly.const(cfg.n, 1)
    for m in members:
        f = f * m
    image = D.apply(f)
    if not spec.contains(image):
        return f"D = {D} of order {k}; {spec.describe()}; f = {f}; D(f) = {image} is outside"
    return None


def _law_gorder(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    branch = trial % 10
    if branch == 1:
        D = DiffOp.from_poly(gen_poly(cfg, rng, nonzero=True))
    elif branch == 2:
        D = gen_derivation(cfg, rng)
    else:
        D = gen_diffop(cfg, rng)
    try:
        got = grothendieck_order(D)
    except AssertionError as exc:
        return f"D = {D}; {exc}"
    if got != D.order:
        return f"D = {D}; inductive order {got} but syntactic order {D.order}"
    return None


def _law_diff1_split(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    D = gen_diffop(cfg, rng, order=rng.randint(0, 1))
    X, a = split_order_one(D)
    if not is_derivation(X):
        return f"D = {D}; split gave non-derivation X = {X}"
    if X + DiffOp.from_poly(a) != D:
        return f"D = {D}; X = {X}; a = {a}; X + m_a does not recompose D"
    if X.apply(Poly.const(cfg.n, 1)):
        return f"D = {D}; X = {X} does not kill constants"
    return None


def _law_reconstruction(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    if trial == 0:
        blank = from_jet_map(JetMap.zero(cfg.n, cfg.max_order))
        if blank != DiffOp.zero(cfg.n):
            return f"zero table of degree {cfg.max_order} rebuilt as {blank}"
    D = gen_diffop(cfg, rng)
    k = D.order or 0
    rebuilt = from_jet_map(restriction(D, k))
    if rebuilt != D:
        return f"D = {D} of order {k}; rebuilt as {rebuilt}"
    return None


def _law_interpolation(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    k = rng.randint(0, cfg.max_order)
    table = JetMap(
        cfg.n, k, {I: gen_poly(cfg, rng) for I in monomials_up_to(cfg.n, k)}
    )
    D = from_jet_map(table)
    if D.order is not None and D.order > k:
        return f"table of degree {k} produced order {D.order}: D = {D}"
    if restriction(D, k) != table:
        return f"table of degree {k} not realized; got {restriction(D, k).render()!r}"
    return None


def _law_symbol_mult(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    D1 = gen_diffop(cfg, rng)
    D2 = gen_diffop(cfg, rng)
    j = D1.order or 0
    k = D2.order or 0
    lhs = principal_symbol(D1.compose(D2), j + k)
    rhs = symbol_mul(principal_symbol(D1, j), principal_symbol(D2, k))
    if lhs != rhs:
        return f"D1 = {D1}; D2 = {D2}; symbol of the product is {lhs}, product of symbols is {rhs}"
    return None


def _law_gr_commutative(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    s = gen_symbol(cfg, rng)
    u = gen_symbol(cfg, rng)
    lhs = symbol_mul(s, u)
    rhs = symbol_mul(u, s)
    if lhs != rhs:
        return f"s = {s}; u = {u}; s*u = {lhs} but u*s = {rhs}"
    return None


def _law_quantize_roundtrip(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    s = gen_symbol(cfg, rng)
    D = quantize(s)
    if D.order != s.grade:
        return f"s = {s} of grade {s.grade}; quantize has order {D.order}"
    back = principal_symbol(D, s.grade)
    if back != s:
        return f"s = {s}; round trip through quantize gives {back}"
    return None


def _law_weyl_relations(cfg: GenConfig, rng: random.Random, trial: int) -> str | None:
    n = cfg.n
    f = gen_poly(cfg, rng, nonzero=True)
    g = gen_poly(cfg, rng)
    i, j = rng.randint(1, n), rng.randint(1, n)
    di, mf = DiffOp.partial(n, i), DiffOp.from_poly(f)
    got = commutator(di, mf)
    if got != DiffOp.from_poly(f.partial(i)):
        return f"f = {f}; [d{i}, m_f] = {got}, expected multiplication by {f.partial(i)}"
    got = commutator(mf, DiffOp.from_poly(g))
    if got:
        return f"f = {f}; g = {g}; [m_f, m_g] = {got}, expected 0"
    got = commutator(di, DiffOp.partial(n, j))
    if got:
        return f"[d{i}, d{j}] = {got}, expected 0"
    return None


LawFn = Callable[[GenConfig, random.Random, int], str | None]

LAWS: dict[str, LawFn] = {
    "compose-oracle": _law_compose_oracle,
    "filtration-additivity": _law_filtration_additivity,
    "commutator-drop": _law_commutator_drop,
    "jacobi": _law_jacobi,
    "leibniz-peel": _law_leibniz_peel,
    "ideal-lemma": _law_ideal_lemma,
    "gorder-eq-syntactic": _law_gorder,
    "diff1-split": _law_diff1_split,
    "reconstruction": _law_reconstruction,
    "interpolation": _law_interpolation,
    "symbol-mult": _law_symbol_mult,
    "gr-commutative": _law_gr_commutative,
    "quantize-roundtrip": _law_quantize_roundtrip,
    "weyl-relations": _law_weyl_relations,
}


def run_law(name: str, cfg: GenConfig) -> LawReport:
    try:
        fn = LAWS[name]
    except KeyError:
        known = ", ".join(LAWS)
        raise ValueError(f"unknown law {name!r}; known laws: {known}") from None
    start = time.perf_counter()
    failure_count = 0
    failures: list[str] = []
    for trial in range(cfg.trials):
        message = fn(cfg, _trial_rng(cfg, name, trial), trial)
        if message is not None:
            failure_count += 1
            if len(failures) < MAX_COUNTEREXAMPLES:
                failures.append(f"trial {trial}: {message}")
    return LawReport(
        law=name,
        trials=cfg.trials,
        failure_count=failure_count,
        failures=failures,
        elapsed=time.perf_counter() - start,
    )


def run_all(cfg: GenConfig) -> list[LawReport]:
    return [run_law(name, cfg) for name in LAWS]
