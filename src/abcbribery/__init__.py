"""Approval-based committee elections: winners and bribery margins."""

from .core import (
    FORBIDDEN,
    ApprovalBallot,
    AtomicAction,
    BriberyInstance,
    BriberySolution,
    Candidate,
    Election,
    ElectionError,
    InfeasibleActionError,
    InvalidActionError,
    Op,
    ParseError,
    PriceTable,
    ResourceGuardError,
    apply_actions,
    make_election,
    parse_election,
    parse_solution,
    serialize_election,
    solution_cost,
)
from .rules import (
    CertificationError,
    Rule,
    av_scores,
    ccav_coverage,
    certify,
    gav_committee,
    is_cowinner,
    iter_winning_committees,
    pav_score,
    rav_committee,
    sav_scores,
    winning_committees,
)
from .solve import UnsupportedCombination, solve

__version__ = "0.1.0"
