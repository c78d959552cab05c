"""Every public top-level function or class of the package is reached from
outside its own definition: by a name, attribute or import in
``src/germlin``, or as a word of the benchmark scripts ``perfbench/*.py``.
The only exceptions are the test references in TEST_ONLY, each kept for
the reason given; an entry that is reached, or no longer defined, is stale.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "germlin"

TEST_ONLY = {
    "kappa0_estimate": "acceptance criterion 06, the slab separation constant",
    "kappa0_grid_check": "acceptance criterion 06, the sampled check of kappa0",
    "jordan_field_matrix": "acceptance criterion 11, the Jordan Shilov constant",
    "cauchy_bound_check": "acceptance criterion 12, the slice-wise Cauchy estimate",
    "delta_membership_bruteforce": "acceptance criteria 08 and 09, the unfiltered oracle",
    "h0_monomial_oracle": "the monomial-section reference of the vanishing tests",
    "reachable_with_contraction": "the closure reference of the chain-search tests",
    "series_from_dict": "the field round trips of test_fields",
    "deck_linear_parts": "the toroidal decks that ROADMAP item 21 wires in",
    "deck_consistency_residual": "the deck check that ROADMAP item 21 wires in",
}


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]


def _public_definitions() -> set:
    return {node.name for tree in _trees() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _reached() -> set:
    """Names used in src/germlin outside the top-level definition of that
    name, and every word of perfbench/*.py."""
    seen = set()
    for tree in _trees():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rsplit(".", 1)[-1]
                else:
                    continue
                if name != own:
                    seen.add(name)
    for path in (ROOT / "perfbench").glob("*.py"):
        seen.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return seen


def test_every_public_definition_is_reached():
    unreached = _public_definitions() - _reached() - set(TEST_ONLY)
    assert not unreached, f"reached by no pipeline or benchmark: {sorted(unreached)}"


def test_test_only_entries_are_not_stale():
    stale = set(TEST_ONLY) - (_public_definitions() - _reached())
    assert not stale, f"stale TEST_ONLY entries: {sorted(stale)}"
