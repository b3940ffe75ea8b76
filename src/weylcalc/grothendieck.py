"""Order of an operator defined inductively through commutators.

An operator has order 0 when it commutes with every multiplication
operator (equivalently, when it is multiplication by some polynomial),
and order at most i when every commutator with a multiplication has
order at most i - 1.  It suffices to test multiplications by the
variables t_1..t_n: D -> [D, m_a] is a derivation in a, so vanishing
(resp. low order) on the generators propagates to all products and
sums.  Unwinding the induction, D has order at most i exactly when
every nested commutator [..[[D, m_j1], m_j2].., m_j(i+1)] vanishes.

Both questions are decided by one descent over *multisets* of
variables.  Multiplications commute, so by the Jacobi identity
[[D, m_a], m_b] = [[D, m_b], m_a]: a nested commutator depends only on
the multiset {j1, ..., jL}, and level L of the descent holds one node
per multiset, reached through j1 <= j2 <= ... <= jL.  A node whose
commutator is zero is pruned, since everything below it vanishes too.
The order is the deepest level that still has a nonzero node.  The
descent stops at a cap: at the cap level the first nonzero commutator
settles the answer.

grothendieck_order recomputes the order this way, capped at the
syntactic order read off the normal form plus one, and checks that the
two agree.  The agreement is a theorem, so disagreement raises
AssertionError rather than returning either answer.
"""

from __future__ import annotations

from .operators import DiffOp, commutator
from .poly import Poly


def _mult_by_var(n: int, j: int) -> DiffOp:
    return DiffOp.from_poly(Poly.variable(n, j))


def _commutator_depth(D: DiffOp, cap: int) -> int:
    """Deepest level <= cap of the multiset descent from nonzero D with a nonzero node."""
    gens = [_mult_by_var(D.n, j) for j in range(1, D.n + 1)]
    level = [(D, 0)]  # (nested commutator, index of the last variable used)
    for depth in range(1, cap + 1):
        below = []
        for C, last in level:
            for j in range(last, D.n):
                c = commutator(C, gens[j])
                if c:
                    if depth == cap:
                        return cap
                    below.append((c, j))
        if not below:
            return depth - 1
        level = below
    return cap


def is_order_at_most(D: DiffOp, i: int) -> bool:
    """Does D have inductive order <= i?  Decided on generators only."""
    if i < 0:
        raise ValueError(f"order bound must be nonnegative, got {i}")
    return not D or _commutator_depth(D, i + 1) <= i


def grothendieck_order(D: DiffOp) -> int | None:
    """Smallest i with is_order_at_most(D, i); None for the zero operator.

    Cross-checks the result against the syntactic order of the normal
    form and raises AssertionError on disagreement.
    """
    syntactic = D.order
    if syntactic is None:
        return None
    i = _commutator_depth(D, syntactic + 1)
    if i > syntactic:
        raise AssertionError(
            f"no inductive order up to the syntactic order {syntactic} for {D}"
        )
    if i != syntactic:
        raise AssertionError(
            f"inductive order {i} disagrees with syntactic order {syntactic} for {D}"
        )
    return i


def is_derivation(D: DiffOp) -> bool:
    """Is D a polynomial vector field (every derivative word of length 1)?"""
    n = D.n
    return all(sum(key[n:]) == 1 for key in D.poly._num)


def split_order_one(D: DiffOp) -> tuple[DiffOp, Poly]:
    """Write an operator of order <= 1 as X + m_a with X a derivation.

    a = D(1) and X = D - m_a; the pair is unique.  Raises ValueError
    when D has order 2 or more.
    """
    order = D.order
    if order is not None and order > 1:
        raise ValueError(f"cannot split an operator of order {order}, need order <= 1")
    a = D.apply(Poly.const(D.n, 1))
    X = D - DiffOp.from_poly(a)
    return X, a
