"""Tooling guard: the dependencies in ``pyproject.toml`` are exactly the
third-party packages ``src/germlin`` imports, a rank-2
``toroidal-validate`` run loads no package outside them, and the pipelines
that build no array never load numpy."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from test_cli import decks_json, hopf_spec_json, write
from test_payload_pins import rank2_rational_toroidal_json

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imported_packages() -> set:
    """Top-level package of every absolute import, lazy ones included."""
    names = set()
    for path in (ROOT / "src" / "germlin").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared() -> set:
    """Import names of the ``project.dependencies`` in ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
            for req in requirements}


def test_declared_dependencies_match_imports():
    declared = _declared()
    third_party = _imported_packages() - set(sys.stdlib_module_names) - {"germlin"}
    assert third_party <= declared, f"imported but not declared: {third_party - declared}"
    assert declared <= third_party, f"declared but never imported: {declared - third_party}"


def _run_loaded(cfg: str, cwd) -> tuple[int, list]:
    """Exit code of ``cli.main`` on the config in a fresh interpreter, and
    the top-level modules it loaded, the import of ``germlin.cli``
    included."""
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "from germlin import cli\n"
              f"code = cli.main(['--config', {cfg!r}])\n"
              "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
              "print(json.dumps([code, sorted(loaded)]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_rank2_toroidal_validate_loads_only_declared_packages(tmp_path):
    # the convex-hull margin once pulled in a hull library for q >= 2
    write(tmp_path / "spec.json", rank2_rational_toroidal_json())
    cfg = write(tmp_path / "cfg.json", {
        "command": "toroidal-validate", "inputs": {"spec": "spec.json"},
        "params": {"height_bound": 20, "epsilon": "0.25"}})
    code, loaded = _run_loaded(cfg, tmp_path)
    assert code == 1              # periods in (1/3)Z: certified witness
    third_party = set(loaded) - set(sys.stdlib_module_names) - {"germlin"}
    assert third_party <= _declared(), f"undeclared packages loaded: {third_party}"


HOPF_INPUTS = {"spec": "spec.json", "bundle": "bundle.json"}


@pytest.mark.parametrize("command, inputs, params", [
    ("hopf-classify", HOPF_INPUTS, {"exp_bound": 8}),
    ("hopf-precheck", HOPF_INPUTS, {"n_v": 3, "exp_bound": 8}),
    ("hopf-cover", HOPF_INPUTS, {"delta": "18/100", "r1": ["1", "1"], "mc_points": 50}),
    ("dioph-scan", {"decks": "decks.json"}, {"N": 4}),
    ("linearize", {}, {"n_v": 3}),
])
def test_array_free_pipelines_never_load_numpy(tmp_path, command, inputs, params):
    # every pipeline imported numpy with germlin.cli, about 60% of start-up
    write(tmp_path / "spec.json", hopf_spec_json((("0.5", "0"), ("5/9", "0"))))
    write(tmp_path / "bundle.json", {"beta": {"re": "0.5", "im": "0.1"}})
    write(tmp_path / "decks.json", decks_json())
    cfg = write(tmp_path / "cfg.json", {"command": command, "inputs": inputs,
                                         "params": params})
    code, loaded = _run_loaded(cfg, tmp_path)
    assert code == 0
    assert "numpy" not in loaded

