"""One routing table from a bribery cell to its solver, and ``solve``.

A cell is (rule, operation, priced, restricted to p).  ``ROUTES`` is read
first match wins: a row lists the algorithms it serves, the cells it covers
(None matches either value of a flag), its solver and its guarantee.  Row
order matters where rows overlap: the exact/auto assignment-search row for
the coverage rules comes before type enumeration, fpt-n's row for them after
it.  Solvers are
looked up on their modules at call time and return uncertified answers;
``solve`` passes each through ``rules.certify`` once, the package's one
certifier.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import approx, avbribery, fpt, oracle
from .core import BriberyInstance, BriberySolution, Op
from .rules import Rule, certify

EXACT, APPROX2, APPROX_EPS = "exact", "2-approximation", "(1+{epsilon})-approximation"
ALGORITHMS = ("auto", "exact", "approx", "fpt-n", "oracle")
_UNSUPPORTED = {
    "auto": "no algorithm for this rule/operation cell; rerun with --algorithm oracle",
    "exact": "no exact polynomial/FPT algorithm for this cell",
    "approx": "no approximation algorithm for this cell",
    "fpt-n": "no voter-parameterized algorithm for this cell",
}


class UnsupportedCombination(Exception):
    """No solver serves this cell under the requested algorithm."""


class Route(NamedTuple):
    algorithms: str  # the --algorithm values served, space-separated
    rules: tuple[Rule, ...] | None
    ops: tuple[Op, ...] | None
    priced: bool | None
    restricted: bool | None
    solver: Callable[[BriberyInstance, Rule, Fraction], BriberySolution]
    guarantee: str = EXACT


_AV, _SAV, _GAV, _RAV = (Rule.AV,), (Rule.SAV,), (Rule.GAV,), (Rule.RAV,)
_COVERAGE = (Rule.CCAV, Rule.GAV)
_ADD, _DELETE, _SWAP = (Op.ADD,), (Op.DELETE,), (Op.SWAP,)

ROUTES = (
    Route("oracle", None, None, None, None, lambda i, r, eps: oracle.oracle_bribery(i, r)),
    Route("auto exact", _AV, _ADD, None, None, lambda i, r, eps: avbribery.av_add(i)),
    Route("auto exact", _AV, _DELETE, None, None, lambda i, r, eps: avbribery.av_delete(i)),
    Route("auto exact", _AV, _SWAP, False, None, lambda i, r, eps: avbribery.av_swap_unit(i)),
    Route("auto exact", _AV, _SWAP, True, None,
          lambda i, r, eps: avbribery.av_priced_swap_exact(i)),
    Route("auto approx", _SAV, _ADD, False, None,
          lambda i, r, eps: approx.sav_add_for_p_2approx(i), APPROX2),
    Route("auto approx", _SAV, _ADD, None, True,
          lambda i, r, eps: approx.sav_add_for_p_2approx(i), APPROX2),
    Route("auto exact", _GAV, _ADD, None, True, lambda i, r, eps: approx.gav_add_for_p(i)),
    Route("auto", _RAV, _ADD, False, True, lambda i, r, eps: approx.rav_add_for_p(i, eps)),
    Route("auto approx", _RAV, _ADD, None, True,
          lambda i, r, eps: approx.rav_add_for_p(i, eps), APPROX_EPS),
    Route("auto exact", _COVERAGE, _ADD + _DELETE, None, None,
          lambda i, r, eps: fpt.ccav_gav_flow_bribery(i, r)),
    Route("fpt-n", None, _ADD, None, True, lambda i, r, eps: fpt.add_for_p_subset_enum(i, r)),
    Route("auto exact fpt-n", None, _ADD + _SWAP, False, None,
          lambda i, r, eps: fpt.unpriced_type_enum(i, r)),
    Route("auto exact fpt-n", None, _SWAP, None, True,
          lambda i, r, eps: fpt.priced_swap_to_p_type_enum(i, r)),
    Route("fpt-n", _COVERAGE, _ADD + _DELETE, None, None,
          lambda i, r, eps: fpt.ccav_gav_flow_bribery(i, r)),
)


def route(instance: BriberyInstance, rule: Rule, algorithm: str = "auto") -> Route:
    """The first row of ``ROUTES`` serving this instance's cell under the algorithm."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    for row in ROUTES:
        if (algorithm in row.algorithms.split()
                and (row.rules is None or rule in row.rules)
                and (row.ops is None or instance.op in row.ops)
                and row.priced in (None, instance.priced)
                and row.restricted in (None, instance.restricted_to_p)):
            return row
    raise UnsupportedCombination(_UNSUPPORTED[algorithm])


def solve(instance: BriberyInstance, rule: Rule, algorithm: str = "auto",
          epsilon: Fraction = Fraction(1, 10)) -> tuple[BriberySolution, str]:
    """Run the routed solver; returns the certified solution and its guarantee.

    ``epsilon`` is the accuracy of the priced RAV scheme.  Raises
    ``UnsupportedCombination`` for a cell no row serves under the algorithm.
    """
    row = route(instance, rule, algorithm)
    solution = certify(instance, rule, row.solver(instance, rule, epsilon))
    return solution, row.guarantee.format(epsilon=epsilon)
