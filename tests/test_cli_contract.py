"""Contract fuzzer for the CLI, in the style of QuickCheck (Claessen &
Hughes, ICFP 2000).

Configs are drawn per command from its table in ``cli.PIPELINES``: each
param is absent, valid, at a bound, one past a bound, or of a wrong JSON
type, and ``command``, ``seed``, ``inputs`` and ``params`` may be of a
malformed shape.  ``main`` must return 0, 1 or 2 and raise nothing; a
config the table rejects must exit 2; a run that reports must echo, for
every param of the table, the value the documented rules resolve it to,
and that is the value the pipeline read.
"""

import contextlib
import io
import json
import math
import pathlib
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from germlin import cli
from test_cli import decks_json, hopf_spec_json, toroidal_spec_json, write

ABSENT = object()
# the README's type rules: the JSON types each kind takes, never a bool
JSON_TYPES = {int: (int,), Fraction: (int, str), float: (int, float, str)}
WRONG_TYPES = [None, True, False, [], [1], {}, {"a": 1}]
WRONG_BY_KIND = {int: [1.5, "3", 2.0], Fraction: [0.5, "abc", "1/0"],
                 float: ["abc", "1/0", "nan", float("nan"), float("inf")],
                 list: [1, "1", [None], [0.5], ["x"]]}
# malformed top-level entries: each makes any config an input error
BAD_TOP = [("command", ["linearize"]), ("command", 5), ("command", None),
           ("command", "nope"), ("command", ABSENT), ("seed", None), ("seed", "abc"),
           ("seed", 1.5), ("seed", True), ("inputs", []), ("inputs", 5),
           ("inputs", "spec.json"), ("inputs", {"spec": 5}), ("params", []), ("params", None),
           ("params", {"bogus": 1}), ("mode", "banana"), ("mode", []), ("threads", 8)]
# what load_config's own rejections say
TABLE_ERRORS = ("params.", "unknown", "config '", "needs inputs", "does not exist")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    write(root / "toroidal.json", toroidal_spec_json())
    write(root / "hopf.json", hopf_spec_json((("0.5", "0"), ("5/9", "0"))))
    write(root / "bundle.json", {"beta": {"re": "0.5", "im": "0.1"}})
    write(root / "decks.json", decks_json())
    return root


def _file(command, name):
    if name == "spec":
        return "toroidal.json" if command == "toroidal-validate" else "hopf.json"
    return f"{name}.json"


def _resolve(p, raw):
    """The README's rules: (accepted, value) for one raw JSON value."""
    if raw is ABSENT:
        return True, p.default
    if raw is None:
        return p.default is None, None
    if isinstance(p.kind, tuple):
        return isinstance(raw, str) and raw in p.kind, raw
    if p.kind is list:
        if not isinstance(raw, list):
            return False, None
        items = [_resolve(cli.Param(Fraction, 0, p.lo, p.hi), x) for x in raw]
        return all(ok for ok, _ in items), [x for _, x in items]
    if isinstance(raw, bool) or not isinstance(raw, JSON_TYPES[p.kind]):
        return False, None
    try:
        value = Fraction(raw) if isinstance(raw, str) else raw
    except (ValueError, ZeroDivisionError):
        return False, None
    value = {int: int, Fraction: Fraction, float: float}[p.kind](value)
    ok = p.lo <= value <= p.hi
    return ok and (p.kind is not float or math.isfinite(value)), value


def _pools(p):
    """(accepted, rejected) raw values: valid ones near the lower bound,
    the bounds and one past them, and wrong JSON types."""
    if isinstance(p.kind, tuple):
        pool = list(p.kind) + ["bogus", 1]
    elif p.kind is list:
        pool = [["1", "1"], ["3/2", 1], ["1"], [], ["0", "1"], ["1", "x"]]
    else:
        edges = [b + d for b in (p.lo, p.hi) if abs(b) != math.inf for d in (-1, 0, 1)]
        if p.kind is int:
            pool = edges or [0, 1, 2]
        else:
            pool = [str(x) for x in edges] + ["1/5", "18/100", "1", "-1/3", 2]
            pool += [0.25, 1.5] if p.kind is float else []
    pool += [ABSENT] * 3 + WRONG_TYPES + WRONG_BY_KIND.get(p.kind, [])
    accepted = [x for x in pool if _resolve(p, x)[0]]
    return accepted, [x for x in pool if not _resolve(p, x)[0]]


@st.composite
def configs(draw, command):
    """A config with at most one fault: a param the table rejects, a
    malformed top-level entry, or a misspelt or missing input."""
    table = cli.PIPELINES[command]
    pools = {name: _pools(p) for name, p in table.params.items()}
    raw = {name: draw(st.sampled_from(ok)) for name, (ok, _) in pools.items()}
    inputs = {name: _file(command, name) for name in table.needs}
    inputs.update((name, _file(command, name))
                  for name in table.takes if draw(st.booleans()))
    modes = ["exact", "float", ABSENT] if command == "dioph-scan" else ["exact", ABSENT]
    config = {"command": command, "inputs": inputs, "seed": draw(st.integers(-2, 3)),
              "mode": draw(st.sampled_from(modes))}
    faults = sorted(pools) + BAD_TOP + ["misspelt input"]
    faults += ["missing input"] if table.needs else []
    fault = draw(st.none() | st.sampled_from(faults))
    if isinstance(fault, str) and fault in pools:
        raw[fault] = draw(st.sampled_from(pools[fault][1]))
    config["params"] = {k: v for k, v in raw.items() if v is not ABSENT}
    if fault == "misspelt input":
        config["inputs"]["bundel"] = "bundle.json"
    elif fault == "missing input":
        del config["inputs"][table.needs[0]]
    elif isinstance(fault, tuple):
        config[fault[0]] = fault[1]
    return {k: v for k, v in config.items() if v is not ABSENT}, raw, fault


def _derived(command, name, config):
    """The value a pipeline derives for a param whose table default is None."""
    params = config["params"]
    if name == "r1":
        return [Fraction(1)] * 2                          # one per coordinate
    if name == "variant":
        return "mall_generic" if "bundle" in config["inputs"] else None
    if name == "alpha":
        return 0.5 if params.get("fields") == "jordan" else None   # |alpha_0|
    raise AssertionError(f"{command}.{name} has no derived default")


class Recording(dict):
    """A params dict that records the last value read or written per key."""

    def __init__(self, data, seen):
        super().__init__(data)
        self.seen = seen

    def __getitem__(self, key):
        self.seen[key] = value = super().__getitem__(key)
        return value

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.seen[key] = value


def _json(value):
    return json.loads(json.dumps(value, default=str))


def check_contract(files, command, drawn):
    config, raw, fault = drawn
    table = cli.PIPELINES[command]
    resolved = {name: _resolve(p, raw[name]) for name, p in table.params.items()}
    valid = fault is None
    write(files / "cfg.json", config)
    out = files / "report.json"
    if out.exists():
        out.unlink()
    seen = {}

    def spy(cfg):
        cfg["params"] = Recording(cfg["params"], seen)
        return table.run(cfg)

    with mock.patch.dict(cli.PIPELINES, {command: table._replace(run=spy)}), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["--config", str(files / "cfg.json"), "--out", str(out)])
    assert code in (0, 1, 2)
    rejected_by_table = any(m in err.getvalue() for m in TABLE_ERRORS)
    if not valid:
        assert code == 2 and rejected_by_table, f"{config}: {err.getvalue()}"
        return
    if code == 2:
        # a library check may reject it, but not the table's
        assert err.getvalue().startswith("input error"), err.getvalue()
        assert not rejected_by_table, err.getvalue()
        return
    echo = json.loads(out.read_text(encoding="utf-8"))["config"]["params"]
    want = {name: value for name, (_, value) in resolved.items()}
    for name in [name for name, value in want.items() if value is None]:
        want[name] = _derived(command, name, {**config, "params": want})
    assert echo == _json(want)
    assert seen and all(echo[k] == _json(v) for k, v in seen.items())


@pytest.mark.parametrize("command", sorted(cli.PIPELINES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_contract(files, command, data):
    check_contract(files, command, data.draw(configs(command)))


def _readme_tables():
    """command -> (needs, takes, params) as the README's CLI section lists them."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    out = {}
    for block in re.split(r"^#### ", text, flags=re.M)[1:]:
        head, *rows = block.splitlines()
        command, _, inputs = head.partition(": ")
        needs, _, takes = inputs.partition("may take")
        params = {name for row in rows if row.startswith("| `")
                  for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
        out[command.strip("`")] = (re.findall(r"`([^`]+)`", needs.partition("needs")[2]),
                                   re.findall(r"`([^`]+)`", takes), params)
    return out


def test_readme_lists_every_command_table():
    # the README described params in prose, and could drift from the code
    listed = _readme_tables()
    assert set(listed) == set(cli.PIPELINES)
    for command, table in cli.PIPELINES.items():
        assert listed[command] == (list(table.needs), list(table.takes), set(table.params))
