"""Byte-identity fingerprints of large printed results.

The CLI goldens pin only small outputs.  These pin the SHA-256 of the
text of a few large results with mixed denominators, built from fixed
inputs, so that any change to normal forms, term order, signs or
coefficient formatting in long output shows up here.
"""

import hashlib
import random

import pytest

from weylcalc.laws import ACCEPTANCE_CONFIG, gen_diffop, gen_symbol
from weylcalc.operators import DiffOp, commutator
from weylcalc.parser import parse_operator
from weylcalc.symbols import SymbolElem, principal_symbol, symbol_mul


def _sixth_power():
    return str(parse_operator("(t1+t2+t3+d1+d2+d3)^6"))


def _commutator_of_order_three_draws():
    # each side is a sum of three order-3 draws, so the output is long
    rng = random.Random(20240601)
    draws = [gen_diffop(ACCEPTANCE_CONFIG, rng, order=3) for _ in range(6)]
    A, B = sum(draws[:3], DiffOp.zero(3)), sum(draws[3:], DiffOp.zero(3))
    return str(commutator(A, B))


def _grade_four_symbol_product(prefix):
    rng = random.Random(314159)
    draws = [gen_symbol(ACCEPTANCE_CONFIG, rng, grade=2) for _ in range(6)]
    s, u = sum(draws[:3], SymbolElem.zero(3, 2)), sum(draws[3:], SymbolElem.zero(3, 2))
    product = symbol_mul(s, u)
    return product.render(prefix) if prefix else str(product)


def _field_power():
    # a first-order field shaped like the heavy benchmark's, mixed denominators
    return parse_operator("1/2*t1 - 2/3*t2 + 3/4*t3 + 2*d1 - 1/3*d2 + 5/2*d3") ** 8


FINGERPRINTS = {
    "(t1+t2+t3+d1+d2+d3)^6": (
        _sixth_power,
        "9eb8a884a4512804b9b007339731838ad77a816ba72b35bff28c86838d95d929",
    ),
    "commutator of order-3 draws": (
        _commutator_of_order_three_draws,
        "1b3326958274cee56ad3baf10bf2d4da4dd47d20dc9cf5a6b65ffff7ba5f375d",
    ),
    "grade-4 symbol product, xi": (
        lambda: _grade_four_symbol_product("xi"),
        "7c4cbeab9fe1cff95d4389b9059aeb63e00dc61ff6a4e99e96973dcda9733697",
    ),
    "grade-4 symbol product, str": (
        lambda: _grade_four_symbol_product(None),
        "dd9cb6396ec7aa753912ea64c0a16a6a81d6ba5237b47446ecd66ea85b39cd82",
    ),
    "field^8": (
        lambda: str(_field_power()),
        "16bbbaf0a52fcd0429322ce6c8089f7814d5482029da3c96b6b80738da8985a6",
    ),
    "principal symbol of field^8, xi": (
        lambda: principal_symbol(_field_power()).render("xi"),
        "cc3a58707e48809273c3293c7081f6d76e5ac5314e4cc48d5d8aec78556939b7",
    ),
}


@pytest.mark.parametrize("name", FINGERPRINTS)
def test_fingerprint(name):
    build, digest = FINGERPRINTS[name]
    text = build()
    assert len(text) > 1000  # large enough to exercise long output
    assert hashlib.sha256(text.encode()).hexdigest() == digest
