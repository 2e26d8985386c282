"""Source hygiene: no unused imports, each private helper defined once, no assert,
the rule state's internals used in rules only, no Election replay in rules or cli,
solve the one certifier, and every name the benchmark tracer wraps still there."""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import abcbribery

PACKAGE = Path(abcbribery.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(PACKAGE.glob("*.py"))
# perfbench/tracing.py wraps these module attributes by name, so they stay
# importable although the module no longer calls them.
TRACED_ONLY = {("cli.py", "oracle_bribery"), ("fpt.py", "apply_actions"),
               ("fpt.py", "min_cost_flow_lb"),
               ("oracle.py", "_is_cowinner_from_ballots"), ("oracle.py", "_score_cowinner")}
# How each rule's state moves when one ballot changes is known to rules._Tally
# alone, and the greedy runs behind rules' own membership test and committee
# functions; the solvers go through them.
TALLY_INTERNALS = {"_score_delta", "_committee_values", "_greedy_picks"}
# certify and verify replay action lists on ballot masks (core.replay_masks);
# the Election-level replay is public API, not their path.
ELECTION_REPLAY = {"apply_action", "apply_actions"}
# Solvers return uncertified answers and solve certifies each once; rules
# defines certify and __init__ re-exports it.
CERTIFIER_MODULES = {"solve.py", "rules.py", "__init__.py"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":  # its imports are the public re-exports
            continue
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used and (path.name, name) not in TRACED_ONLY]
    assert not unused, unused


def _uses(path, names):
    """Where the module imports or refers to any of the names."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            used = [alias.name for alias in node.names]
        else:  # a bare name or an attribute such as rules._score_delta
            used = [getattr(node, "id", None), getattr(node, "attr", None)]
        found += [f"{path.name}:{node.lineno} {name}" for name in used if name in names]
    return found


def test_tally_internals_stay_in_rules():
    found = [use for path in MODULES if path.name != "rules.py"
             for use in _uses(path, TALLY_INTERNALS)]
    assert not found, found


def test_certify_and_verify_replay_on_masks():
    found = [use for name in ("rules.py", "cli.py") for use in _uses(PACKAGE / name, ELECTION_REPLAY)]
    assert not found, found


def test_solve_is_the_one_certifier():
    found = [use for path in MODULES if path.name not in CERTIFIER_MODULES
             for use in _uses(path, {"certify"})]
    assert not found, found


def test_private_helpers_defined_once():
    defined = defaultdict(list)
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[node.name].append(path.name)
    duplicates = {name: where for name, where in defined.items() if len(where) > 1}
    assert not duplicates, duplicates


def test_no_assert_statements():
    # python -O strips assert, so a check in the package must raise explicitly.
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not found, found


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/tracing.py wraps module attributes by name, so a name the
    # package drops would break only traced benchmark runs.  Install the
    # tracer over the modules perfbench/run.py imports, then uninstall it.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    mods = SimpleNamespace(**{name: importlib.import_module(f"abcbribery.{name}")
                              for name in run.MODULES})
    names = [(getattr(mods, module), attr) for module, attr, *_ in run.tracing.TRACED_NAMES]
    originals = [getattr(module, attr) for module, attr in names]
    tracer = run.tracing.Tracer()
    try:
        tracer.install(mods)
        wrapped = [getattr(module, attr).__wrapped__ for module, attr in names]
    finally:
        tracer.uninstall()
    assert wrapped == originals
    assert [getattr(module, attr) for module, attr in names] == originals
