"""Every shipped config, with up to two leaves replaced or deleted, run in process.

Claims pinned here:
    - ``cli.main`` on any shipped config with up to two leaves deleted, or
      replaced by a size (0, -1, 63, 64, 100, 2^63, 2^64 + 1), an extreme
      or special float (+-1e308, 1e-320, -0.0, NaN), the string "x" or a
      value of another JSON type, returns 0, 2, 3 or 4 and raises nothing
      (no warning either); a failing run writes exactly one stderr line and
      a passing one none, and a passing ``moments``, ``feasibility`` or
      ``adversary`` run reports strict JSON (no NaN or Infinity)
    - so does ``tables`` with its graph read from a file whose node count is
      0, -1, 64, 1075, 20000 or 2^63, before or after its leaves are mutated
"""

import copy
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from interference_lab import cli
from test_golden import COMMANDS, ROOT

# fresh copies, since a later mutation may write into a drawn list or object
_VALUES = st.sampled_from(
    [0, -1, 63, 64, 100, 2**63, 2**64 + 1]
    + [1e308, -1e308, 1e-320, -0.0, math.nan]
    + ["x", True, None, [], {}, [1], {"x": 1}]
).map(copy.deepcopy)


# node counts of a two-line graph file for tables: not positive, past the
# code width, past the tables cap, past int-to-str's digit limit for 2^n
_GRAPH_FILE_SIZES = [0, -1, 64, 1075, 20000, 2**63]
_GRAPH_FILE = "graph.txt"  # relative to the run's working directory


# commands whose report is a JSON document
_JSON_COMMANDS = ("moments", "feasibility", "adversary")


def _not_json(constant):
    """Refuse NaN, Infinity and -Infinity, which Python writes but JSON
    has no literal for."""
    raise AssertionError(f"report holds {constant}, which is not JSON")


def _shipped(name):
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


def _leaves(node, path=()):
    """The paths to every scalar in a JSON value, and to every empty list or
    object."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, (*path, key))
    else:
        yield path


@st.composite
def _mutated_configs(draw):
    """A shipped config's name, the config with up to two leaves replaced
    or deleted, and the node count of the graph file it reads, if any (a
    tables config may read one in place of its ER graph)."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    cfg = _shipped(name)
    nodes = None
    if COMMANDS[name] == "tables" and draw(st.booleans()):
        nodes = draw(st.sampled_from(_GRAPH_FILE_SIZES))
        cfg["graph"] = {"path": _GRAPH_FILE}
    reps = cfg.get("reps")
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from([p for p in _leaves(cfg) if p]))
        block = cfg
        for key in parents:
            block = block[key]
        if draw(st.booleans()):
            del block[last]
            continue
        value = draw(_VALUES)
        # Replicates stay at or below the shipped count: a larger one only
        # makes a legitimate run longer, since the count has no cap of its
        # own. This bounds runtime and hides no defect.
        if last == "reps" and type(value) in (int, float) and value > reps:
            value = reps
        block[last] = value
    return name, cfg, nodes


def _unmutated_graph_files(test):
    """The shipped tables config on a graph file of each size, as examples."""
    cfg = dict(_shipped("tables"), graph={"path": _GRAPH_FILE})
    for nodes in _GRAPH_FILE_SIZES:
        test = example(("tables", cfg, nodes))(test)
    return test


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_mutated_configs())
@_unmutated_graph_files
def test_mutated_shipped_configs_exit_cleanly(tmp_path_factory, case):
    name, cfg, nodes = case
    work = tmp_path_factory.getbasetemp() / "mutated_config"
    work.mkdir(exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(cfg))
    if nodes is not None:
        (work / _GRAPH_FILE).write_text(f"{nodes}\n0 1\n")
    out = work / ("out" if COMMANDS[name] == "tables" else "out.txt")
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # a relative output path, like an adversary table_json, lands here
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = cli.main([COMMANDS[name], "--config", str(config), "--out", str(out)])
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    err = stderr.getvalue()
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
    else:
        assert err == ""
        if COMMANDS[name] in _JSON_COMMANDS:
            json.loads(out.read_text(), parse_constant=_not_json)
