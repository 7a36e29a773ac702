"""Fuzz guard of the config contract: the golden configs of
``test_cli_golden``, each with one numeric leaf or one top-level key set to
NaN, -1, 0, inf, 0.5, 2.5 or true, run through ``cli.main``.

A mutated config either runs (exit 0), and then every JSON file it wrote is
strict JSON with no NaN or Infinity, or it is refused (exit 2) with one
``{stage, message, hint}`` line on stderr. A traceback, a warning or any
other exit code fails.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from opiniondyn.cli import main
from test_cli_golden import CONFIGS, in_matrix_dir

VALUES = (float("nan"), -1, 0, float("inf"), 0.5, 2.5, True)


def numeric_leaves(node, path=()):
    """Paths of the int and float leaves of a JSON value (bools excluded)."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in numeric_leaves(value, path + (key,))]
    if isinstance(node, list):
        return [p for k, value in enumerate(node) for p in numeric_leaves(value, path + (k,))]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [path]
    return []


TARGETS = {
    case: sorted(set(numeric_leaves(config)) | {(key,) for key in config}, key=repr)
    for case, config in CONFIGS.items()
}
mutations = st.sampled_from(sorted(CONFIGS)).flatmap(
    lambda case: st.tuples(st.just(case), st.sampled_from(TARGETS[case]), st.sampled_from(VALUES))
)


def _no_constant(name):
    raise ValueError(f"{name} in a JSON output")


# the matrix-file setup of the golden tests is made once per test, and every
# example writes into a directory of its own
@settings(max_examples=1500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations)
def test_mutated_config_runs_or_is_refused_with_a_payload(tmp_path, monkeypatch, mutation):
    in_matrix_dir(tmp_path, monkeypatch)
    case, path, value = mutation
    config = copy.deepcopy(CONFIGS[case])
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        config_path = Path(work) / "config.json"
        config_path.write_text(json.dumps(config))
        out = Path(work) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code in (0, 2), (code, config)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert sorted(json.loads(lines[0])) == ["hint", "message", "stage"]
        else:
            for written in out.glob("*.json"):
                json.loads(written.read_text(), parse_constant=_no_constant)
