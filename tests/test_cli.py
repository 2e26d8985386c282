import math

import pytest

from abcbribery import Op, PriceTable, Rule, oracle, parse_election, serialize_election
from abcbribery.cli import build_parser, main
from abcbribery.generators import SuiteConfig, suite_instances


@pytest.fixture
def e0_file(tmp_path, e0_text):
    path = tmp_path / "e0.elect"
    path.write_text(e0_text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_winners_av(e0_file, capsys):
    code, out, _ = run(capsys, "winners", e0_file, "--rule", "av", "--k", "2")
    assert code == 0
    assert "scores: a=7 b=5 c=4 p=1" in out
    assert "winning committees: {a,b}" in out


def test_winners_uses_file_k(e0_file, capsys):
    code, out, _ = run(capsys, "winners", e0_file, "--rule", "gav")
    assert code == 0
    assert "winning committees: {a,b}" in out


def test_winners_k_equals_m(e0_file, capsys):
    code, out, _ = run(capsys, "winners", e0_file, "--rule", "av", "--k", "4")
    assert code == 0
    assert "{a,b,c,p}" in out


def test_winners_sav_rationals(e0_file, capsys):
    code, out, _ = run(capsys, "winners", e0_file, "--rule", "sav", "--k", "2")
    assert code == 0
    assert "a=29/6" in out and "p=1/3" in out


def test_winners_ccav_prints_coverage(e0_file, capsys):
    code, out, _ = run(capsys, "winners", e0_file, "--rule", "ccav", "--k", "2")
    assert code == 0
    assert "coverage: 9\nwinning committees: {a,b} {a,c}\n" in out


def test_winners_pav_prints_score(e0_file, capsys):
    code, out, _ = run(capsys, "winners", e0_file, "--rule", "pav", "--k", "2")
    assert code == 0
    assert "score: 21/2\nwinning committees: {a,b}\n" in out


def test_winners_without_committee_size(tmp_path, e0_text, capsys):
    path = tmp_path / "no-k.elect"
    path.write_text("".join(line for line in e0_text.splitlines(keepends=True)
                            if not line.startswith("k:")))
    code, out, err = run(capsys, "winners", str(path), "--rule", "av")
    assert (code, out) == (2, "")
    assert "no committee size (use --k or a k: line)" in err


def test_bribe_add_feasible(e0_file, capsys):
    code, out, _ = run(capsys, "bribe", e0_file, "--rule", "av", "--op", "add",
                       "--p", "p", "--budget", "4")
    assert code == 0
    assert "feasible: yes" in out and "cost: 4" in out


def test_bribe_budget_zero_winner(e0_file, capsys):
    code, out, _ = run(capsys, "bribe", e0_file, "--rule", "av", "--op", "add",
                       "--p", "a", "--budget", "0")
    assert code == 0
    assert "cost: 0" in out


def test_bribe_swap_infeasible(e0_file, capsys):
    code, out, _ = run(capsys, "bribe", e0_file, "--rule", "av", "--op", "swap",
                       "--p", "p", "--budget", "2")
    assert code == 1
    assert "feasible: no" in out


def test_bribe_unsupported_cell(e0_file, capsys):
    code, _, err = run(capsys, "bribe", e0_file, "--rule", "sav", "--op", "delete",
                       "--p", "p", "--budget", "3")
    assert code == 4
    code, out, _ = run(capsys, "bribe", e0_file, "--rule", "sav", "--op", "delete",
                       "--p", "p", "--budget", "3", "--algorithm", "oracle")
    assert code in (0, 1)


def test_bribe_approx_banner(e0_file, capsys):
    code, out, _ = run(capsys, "bribe", e0_file, "--rule", "sav", "--op", "add",
                       "--p", "p", "--budget", "9", "--restrict-to-p")
    assert code == 0
    assert "2-approximation" in out


def test_rank_swap(e0_file, capsys):
    code, out, _ = run(capsys, "rank", e0_file, "--rule", "av", "--op", "swap")
    assert code == 0
    lines = [line for line in out.splitlines() if ":" in line][1:]
    assert lines == ["a: 0", "b: 0", "c: 1", "p: 3"]


def test_rank_add(e0_file, capsys):
    code, out, _ = run(capsys, "rank", e0_file, "--rule", "av", "--op", "add")
    assert code == 0
    assert "p: 4" in out


def test_rank_single_candidate(tmp_path, capsys):
    path = tmp_path / "one.elect"
    path.write_text("candidates: solo\nvoter v1: solo\n")
    code, out, _ = run(capsys, "rank", str(path), "--rule", "av", "--op", "add", "--k", "1")
    assert code == 0
    assert "solo: 0" in out


def test_rank_infinite_margin(tmp_path, capsys):
    path = tmp_path / "stuck.elect"
    path.write_text("candidates: a p b\nvoter v1: a p\n")
    code, out, _ = run(capsys, "rank", str(path), "--rule", "gav", "--op", "add", "--k", "1")
    assert code == 0
    assert "p: inf" in out


def test_verify_paper_swaps(e0_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("swap v1 b p\nswap v2 b p\nswap v6 c p\n")
    code, out, _ = run(capsys, "verify", e0_file, str(sol), "--rule", "av", "--p", "p")
    assert code == 0
    assert "cost: 3" in out and "p co-winner: yes" in out


def test_verify_empty_solution_for_winner(e0_file, tmp_path, capsys):
    sol = tmp_path / "empty.txt"
    sol.write_text("")
    code, out, _ = run(capsys, "verify", e0_file, str(sol), "--rule", "av", "--p", "a")
    assert code == 0
    assert "cost: 0" in out


def test_verify_invalid_action(e0_file, tmp_path, capsys):
    sol = tmp_path / "bad.txt"
    sol.write_text("swap v1 b a\n")  # a is already approved in v1
    code, out, err = run(capsys, "verify", e0_file, str(sol), "--rule", "av", "--p", "p")
    assert code == 5 and out == ""
    assert err == "invalid action 1 (swap v1 b a): v1 already approves a\n"
    # The second action fails on the ballot the first one left: v1 gave b to p.
    sol.write_text("swap v1 b p\nswap v1 b a\n")
    code, out, err = run(capsys, "verify", e0_file, str(sol), "--rule", "av", "--p", "p")
    assert code == 5 and out == ""
    assert err == "invalid action 2 (swap v1 b a): v1 does not approve b\n"


def test_verify_replays_before_it_prices(tmp_path, e0_text, capsys):
    # Action 1 is forbidden by the price table and action 2 does not replay:
    # every action replays before any is priced, so action 2 is reported.
    path = tmp_path / "priced.elect"
    path.write_text(e0_text + "swapprice v1 b p inf\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("swap v1 b p\nswap v2 a p\n")
    code, out, err = run(capsys, "verify", str(path), str(sol), "--p", "p", "--priced")
    assert code == 5 and out == ""
    assert err == "invalid action 2 (swap v2 a p): v2 does not approve a\n"


@pytest.mark.parametrize("k", ["0", "5"])
def test_verify_committee_size_out_of_range_is_a_parameter_error(e0_file, tmp_path, capsys, k):
    sol = tmp_path / "sol.txt"
    sol.write_text("swap v1 b p\n")
    code, out, err = run(capsys, "verify", e0_file, str(sol), "--p", "p", "--k", k)
    assert (code, out) == (2, "")
    assert err == f"error: committee size {k} out of range 1..4\n"


def test_verify_unparsable_solution(e0_file, tmp_path, capsys):
    sol = tmp_path / "garbled.txt"
    sol.write_text("swap v1 b p\nmove v2 b p\n")
    code, out, err = run(capsys, "verify", e0_file, str(sol), "--rule", "av", "--p", "p")
    assert code == 5 and out == ""
    assert err == "invalid solution: line 2: malformed action line: 'move v2 b p'\n"


def test_verify_forbidden_price(tmp_path, e0_text, capsys):
    # The action replays, but the file's price table forbids it: only a
    # priced verify reads that table.
    path = tmp_path / "priced.elect"
    path.write_text(e0_text + "swapprice v1 b p inf\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("swap v1 b p\n")
    code, out, err = run(capsys, "verify", str(path), str(sol), "--p", "p", "--priced")
    assert code == 5 and out == ""
    assert err.startswith("invalid solution: forbidden operation: ")
    code, out, _ = run(capsys, "verify", str(path), str(sol), "--p", "p")
    assert code == 1 and "cost: 1" in out


def test_gen_is_reduction(tmp_path, capsys):
    out_path = tmp_path / "is.elect"
    code, out, _ = run(capsys, "gen", "--kind", "is-reduction", "--vertices", "4",
                       "--edges", "0-1,0-2,0-3,1-2,1-3,2-3", "--h", "1",
                       "--out", str(out_path))
    assert code == 0
    assert "5 candidates, 9 voters" in out
    election, prices, k = parse_election(out_path.read_text())
    assert election.m == 5 and election.n == 9 and k == 4


def test_gen_is_reduction_skips_empty_edge_parts(tmp_path, capsys):
    out_path = tmp_path / "is.elect"
    code, _, _ = run(capsys, "gen", "--kind", "is-reduction", "--vertices", "4",
                     "--edges", " 0-1,,0-2, 0-3,1-2,1-3,2-3,", "--h", "1", "--out", str(out_path))
    assert code == 0
    election, _, _ = parse_election(out_path.read_text())
    assert election.m == 5 and election.n == 9


def test_gen_x3c_reduction(tmp_path, capsys):
    out_path = tmp_path / "x3c.elect"
    code, out, _ = run(capsys, "gen", "--kind", "x3c-reduction",
                       "--sets", "0,1,2;0,1,2;0,1,2", "--alpha", "1",
                       "--out", str(out_path))
    assert code == 0
    assert "599 voters" in out
    election, _, _ = parse_election(out_path.read_text())
    assert election.n == 599


def test_gen_random_rejects_zero_candidates(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--kind", "random", "--m", "0",
                       "--out", str(tmp_path / "x.elect"))
    assert code == 2


def test_gen_random_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "r.elect"
    code, out, _ = run(capsys, "gen", "--kind", "random", "--m", "4", "--n", "5",
                       "--seed", "3", "--out", str(out_path))
    assert code == 0
    election, _, _ = parse_election(out_path.read_text())
    assert election.m == 4 and election.n == 5


def test_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "broken.elect"
    path.write_text("candidates: a b\ngarbage\n")
    code, _, err = run(capsys, "winners", str(path), "--rule", "av", "--k", "1")
    assert code == 2
    assert "line 2" in err


def test_resource_guard_exit(tmp_path, capsys):
    names = " ".join(f"c{i}" for i in range(26))
    path = tmp_path / "big.elect"
    path.write_text(f"candidates: {names}\nvoter v1: c0\n")
    code, _, err = run(capsys, "winners", str(path), "--rule", "pav", "--k", "13")
    assert code == 3


def test_identical_runs_identical_output(e0_file, capsys):
    _, out1, _ = run(capsys, "bribe", e0_file, "--rule", "av", "--op", "swap",
                     "--p", "p", "--budget", "3")
    _, out2, _ = run(capsys, "bribe", e0_file, "--rule", "av", "--op", "swap",
                     "--p", "p", "--budget", "3")
    assert out1 == out2


@pytest.fixture
def priced_file(tmp_path):
    """Five candidates, four voters, k = 1, seeded prices 1-3."""
    inst = next(suite_instances(SuiteConfig(op=Op.SWAP, count=1, seed=31, priced=True,
                                            max_candidates=5, max_voters=4)))
    path = tmp_path / "priced.elect"
    path.write_text(serialize_election(inst.election, inst.prices, k=inst.k))
    return str(path)


@pytest.mark.parametrize("rule", [r.value for r in Rule if r is not Rule.AV])
def test_rank_equals_per_candidate_oracle_margins(priced_file, capsys, rule):
    with open(priced_file, encoding="utf-8") as handle:
        e, prices, k = parse_election(handle.read())
    ops = {"add": Op.ADD, "delete": Op.DELETE, "swap": Op.SWAP}
    for op, restricted in [("add", False), ("delete", False), ("swap", False),
                           ("add", True), ("swap", True)]:
        for priced in (False, True):
            flags = ["--priced"] * priced + ["--restrict-to-p"] * restricted
            code, out, _ = run(capsys, "rank", priced_file, "--rule", rule, "--op", op, *flags)
            table = prices if priced else PriceTable()
            want = sorted((oracle.oracle_margin(e, Rule(rule), k, c.index, ops[op], table,
                                                restricted=restricted), c.name)
                          for c in e.candidates)
            assert code == 0
            assert out.splitlines()[1:] == [
                f"{name}: {'inf' if margin == math.inf else margin}" for margin, name in want]


@pytest.mark.parametrize("rule", [rule.value for rule in Rule])
@pytest.mark.parametrize("flags", [("--k", "0"), ("--k", "5"), ("--k", "5", "--restrict-to-p")])
def test_rank_committee_size_out_of_range_is_a_parameter_error(e0_file, capsys, rule, flags):
    code, out, err = run(capsys, "rank", e0_file, "--rule", rule, "--op", "add", *flags)
    assert (code, out) == (2, "")
    assert "committee size" in err


def test_rank_restricted_delete_is_a_parameter_error(e0_file, capsys):
    code, _, err = run(capsys, "rank", e0_file, "--rule", "sav", "--op", "delete",
                       "--restrict-to-p")
    assert code == 2
    assert "restricted-to-p" in err


def test_rank_option_lists_built_once_unless_restricted(priced_file, capsys, monkeypatch):
    calls = []
    real = oracle._vote_options

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_vote_options", counted)
    assert run(capsys, "rank", priced_file, "--rule", "pav", "--op", "swap")[0] == 0
    assert len(calls) == 1
    calls.clear()
    assert run(capsys, "rank", priced_file, "--rule", "pav", "--op", "swap",
               "--restrict-to-p")[0] == 0
    assert len(calls) == 5


def test_rank_option_list_guard_exit(tmp_path, capsys):
    # one voter with 21 unapproved candidates has 2^21 addition ballots,
    # above the oracle's default cap of 2,000,000 configurations
    names = " ".join(f"c{i}" for i in range(22))
    path = tmp_path / "wide.elect"
    path.write_text(f"candidates: {names}\nvoter v1: c0\n")
    code, _, err = run(capsys, "rank", str(path), "--rule", "sav", "--op", "add", "--k", "1")
    assert code == 3
    assert "2097152 reachable ballots" in err


def test_parser_built_once_per_process(e0_file, capsys):
    build_parser.cache_clear()
    for _ in range(3):
        assert run(capsys, "winners", e0_file, "--rule", "av", "--k", "2")[0] == 0
    assert run(capsys, "rank", e0_file, "--rule", "av", "--op", "add")[0] == 0
    assert build_parser.cache_info().misses == 1


def _guarded_file(tmp_path, solver):
    """An election whose bribe trips the named solver's guard at its default cap."""
    twenty = [f"c{i}" for i in range(20)]
    if solver == "av-priced-swap":
        # C(20, 9) committees with p times 4 thresholds > 500,000 guesses
        candidates, ballots = twenty + ["p"], [twenty] * 3
    elif solver == "unit-type-enum":
        # 3 candidates of each approver set over 4 voters: 2,400 single swaps,
        # so the pairs exceed 2,000,000 action sets
        types = [(f"t{t}x{j}", t) for t in range(16) for j in range(3)]
        candidates = [name for name, _ in types] + ["p"]
        ballots = [[name for name, t in types if t >> v & 1] for v in range(4)]
    elif solver == "priced-swap-enum":
        # 21 voters approve one type of 22 candidates, more members than
        # voters: the donor pool would rank them over its 2^21 > 2,000,000
        # approver subsets
        many = [f"c{i}" for i in range(22)]
        candidates, ballots = many + ["p"], [many] * 21
    else:
        # 8 candidates approved by all 4 voters, p by none: within a budget of
        # 31 unit deletions p never wins, and the sweep would expand 113,492
        # (candidates, types present, p's type) states, > 100,000
        candidates, ballots = twenty[:8] + ["p"], [twenty[:8]] * 4
    path = tmp_path / f"{solver}.elect"
    path.write_text("candidates: " + " ".join(candidates) + "\n"
                    + "".join(f"voter v{i}: {' '.join(b)}\n" for i, b in enumerate(ballots)))
    return str(path)


@pytest.mark.parametrize("solver, flags, message", [
    ("av-priced-swap", ["--rule", "av", "--op", "swap", "--priced", "--k", "10", "--budget", "3"],
     "committee/threshold guesses"),
    ("unit-type-enum", ["--rule", "pav", "--op", "swap", "--k", "1", "--budget", "3"],
     "action sets of size 2"),
    ("priced-swap-enum", ["--rule", "pav", "--op", "swap", "--priced", "--restrict-to-p",
                          "--k", "1", "--budget", "3"], "approver subsets of a candidate type"),
    ("flow", ["--rule", "ccav", "--op", "delete", "--k", "1", "--budget", "31"],
     "assignment search states"),
])
def test_solver_guard_exits_3_with_default_caps(tmp_path, capsys, solver, flags, message):
    path = _guarded_file(tmp_path, solver)
    code, _, err = run(capsys, "bribe", path, "--p", "p", *flags)
    assert code == 3 and message in err, err


@pytest.mark.parametrize("rule", [Rule.CCAV, Rule.GAV])
def test_coverage_bribe_past_four_voters(tmp_path, capsys, rule):
    # Six voters, priced deletions: the coverage search answers with the
    # oracle's cost, feasible or not.
    cfg = SuiteConfig(op=Op.DELETE, count=60, seed=33, priced=True, max_candidates=5,
                      max_voters=6, max_budget=3)
    checked = set()
    for inst in suite_instances(cfg):
        if inst.election.n != 6:
            continue
        path = tmp_path / "six.elect"
        path.write_text(serialize_election(inst.election, inst.prices, k=inst.k))
        want = oracle.oracle_bribery(inst, rule)
        code, out, err = run(capsys, "bribe", str(path), "--rule", rule.value, "--op", "delete",
                             "--priced", "--p", inst.election.candidates[inst.p].name,
                             "--budget", str(inst.budget))
        assert code == (0 if want.feasible else 1), err
        assert ("cost: " in out) == (want.cost is not None)
        if want.cost is not None:
            assert f"cost: {want.cost}\n" in out
        checked.add(want.feasible)
    assert checked == {False, True}
