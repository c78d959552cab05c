import json
import math

import pytest

from germlin.cli import main, render_summary

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


def write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def toroidal_spec_json(a=SQRT2, b=SQRT3):
    def c(x):
        return {"re": repr(float(x.real)), "im": repr(float(x.imag))}

    return {"n": 2, "a": 0, "b": 0, "q": 1,
            "R1": [[repr(a)]], "R2": [[repr(b)]],
            "R3": [[c(1j)]], "P0": [[c(1j)]], "P1": [[c(0j)]]}


def decks_json():
    def c(re, im="0"):
        return {"re": re, "im": im}

    return {"lambda": [[c("3/5", "4/5")]], "mu": [[c("1/2")]]}


def resonant_decks_json():
    # mu_2 = lambda * mu_1^2 exactly
    def c(re, im="0"):
        return {"re": re, "im": im}

    return {"lambda": [[c("3/5", "4/5")]],
            "mu": [[c("1/2"), c("3/20", "1/5")]]}


def hopf_spec_json(alpha=(("0.3", "0"), ("0.53", "0"))):
    return {"alpha": [{"re": a, "im": b} for a, b in alpha],
            "jordan_overdiag": []}


def run_cli(tmp_path, config, name="cfg.json", out="report.json"):
    cfg = write(tmp_path / name, config)
    out_path = tmp_path / out
    code = main(["--config", cfg, "--out", str(out_path)])
    report = json.loads(out_path.read_text(encoding="utf-8"))
    return code, report


def test_unknown_command_is_input_error(tmp_path):
    cfg = write(tmp_path / "cfg.json", {"command": "nope"})
    assert main(["--config", cfg]) == 2


def test_missing_input_file_is_input_error(tmp_path):
    cfg = write(tmp_path / "cfg.json",
                {"command": "dioph-scan", "inputs": {"decks": "absent.json"}})
    assert main(["--config", cfg]) == 2


def test_toroidal_validate_pass(tmp_path):
    spec = write(tmp_path / "spec.json", toroidal_spec_json())
    code, report = run_cli(tmp_path, {
        "command": "toroidal-validate", "inputs": {"spec": "spec.json"},
        "params": {"height_bound": 25, "epsilon": "0.25"}})
    assert code == 0
    assert report["payload"]["irrationality"]["passed"]


def test_toroidal_validate_witness_fails(tmp_path):
    write(tmp_path / "spec.json", toroidal_spec_json(0.5, 1 / 3))
    code, report = run_cli(tmp_path, {
        "command": "toroidal-validate", "inputs": {"spec": "spec.json"},
        "params": {"height_bound": 6}})
    assert code == 1
    assert report["payload"]["irrationality"]["witness"] == [6]


@pytest.mark.parametrize("param", [{"rcap": 1.0}, {"eta_depth": 30}])
def test_toroidal_validate_dropped_knobs_are_input_errors(tmp_path, param):
    # rcap changed nothing and eta = 1/q needs no search depth
    write(tmp_path / "spec.json", toroidal_spec_json())
    cfg = write(tmp_path / "cfg.json", {
        "command": "toroidal-validate", "inputs": {"spec": "spec.json"},
        "params": {"height_bound": 6, **param}})
    assert main(["--config", cfg]) == 2


def test_dioph_scan_clean_and_resonant(tmp_path):
    write(tmp_path / "decks.json", decks_json())
    code, report = run_cli(tmp_path, {
        "command": "dioph-scan", "inputs": {"decks": "decks.json"},
        "params": {"N": 10}})
    assert code == 0
    assert report["payload"]["min_divisor"] >= 0.25 - 1e-12

    write(tmp_path / "bad.json", resonant_decks_json())
    code2, report2 = run_cli(tmp_path, {
        "command": "dioph-scan", "inputs": {"decks": "bad.json"},
        "params": {"N": 6}}, name="cfg2.json", out="rep2.json")
    assert code2 == 1
    assert report2["payload"]["resonances"]


def test_linearize_full_pipeline(tmp_path):
    code, report = run_cli(tmp_path, {
        "command": "linearize", "seed": 3,
        "params": {"n_v": 4, "lin_mode": "full", "scale": "1/32"}})
    assert code == 0
    payload = report["payload"]
    assert payload["commutation_residual"] == 0.0
    assert payload["recovered_ground_truth"] is True
    assert all(r == 0.0 for r in payload["result"]["residual_per_degree"])


def test_certify_pipeline(tmp_path):
    code, report = run_cli(tmp_path, {
        "command": "certify", "seed": 5,
        "params": {"n_v": 4, "scale": "1/64"}})
    assert code == 0
    assert report["payload"]["domination"]["passed"]


def test_hopf_classify_and_vanishing(tmp_path):
    write(tmp_path / "spec.json", hopf_spec_json())
    write(tmp_path / "bundle.json", {"beta": {"re": "0.2", "im": "0"}})
    code, report = run_cli(tmp_path, {
        "command": "hopf-classify",
        "inputs": {"spec": "spec.json", "bundle": "bundle.json"},
        "params": {"exp_bound": 8}})
    assert code == 0
    assert report["payload"]["kind"] == "generic"
    assert report["payload"]["vanishing"]["criterion_holds"]


def test_hopf_precheck_failure_witness(tmp_path):
    write(tmp_path / "spec.json", hopf_spec_json())
    # beta alpha_1 = alpha_2 exactly
    write(tmp_path / "bundle.json", {"beta": {"re": "53/30", "im": "0"}})
    code, report = run_cli(tmp_path, {
        "command": "hopf-precheck",
        "inputs": {"spec": "spec.json", "bundle": "bundle.json"},
        "params": {"n_v": 3, "exp_bound": 8}})
    assert code == 1
    failing = [it for it in report["payload"]["items"] if it["verdict"] == "fail"]
    assert failing and all(it["witness"] for it in failing)


def nongeneric_cfg(tmp_path, command, bundle=True):
    """alpha = (1/4, 1/2) satisfies alpha_1 = alpha_2^2 exactly."""
    write(tmp_path / "spec.json", hopf_spec_json((("1/4", "0"), ("1/2", "0"))))
    write(tmp_path / "bundle.json", {"beta": {"re": "1/3", "im": "0"}})
    inputs = {"spec": "spec.json"}
    if bundle:
        inputs["bundle"] = "bundle.json"
    return write(tmp_path / "cfg.json", {"command": command, "inputs": inputs,
                                         "params": {"exp_bound": 8}})


def test_hopf_precheck_non_generic_spec_exits_1(tmp_path, capsys):
    # the certified monomial relation was reported as an input error (exit 2)
    assert main(["--config", nongeneric_cfg(tmp_path, "hopf-precheck")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certified failure") and "got diagonal" in err


def test_hopf_classify_bundle_non_generic_spec_exits_1(tmp_path, capsys):
    # without the bundle the same relation already exited 1; with it, 2
    assert main(["--config", nongeneric_cfg(tmp_path, "hopf-classify", False)]) == 1
    assert main(["--config", nongeneric_cfg(tmp_path, "hopf-classify")]) == 1
    assert "certified failure" in capsys.readouterr().err
    # a classical spec stays an input error for the generic-only checks
    write(tmp_path / "spec.json", hopf_spec_json((("1/2", "0"), ("1/2", "0"))))
    cfg = write(tmp_path / "cfg.json", {
        "command": "hopf-precheck",
        "inputs": {"spec": "spec.json", "bundle": "bundle.json"}, "params": {}})
    assert main(["--config", cfg]) == 2


def test_hopf_cover_with_chains(tmp_path):
    write(tmp_path / "spec.json",
          hopf_spec_json((("0.5", "0"), ("5/9", "0"))))
    write(tmp_path / "bundle.json", {"beta": {"re": "0.5", "im": "0.1"}})
    code, report = run_cli(tmp_path, {
        "command": "hopf-cover",
        "inputs": {"spec": "spec.json", "bundle": "bundle.json"},
        "params": {"delta": "18/100", "r1": ["1", "1"], "mc_points": 300}})
    assert code == 0
    mc = report["payload"]["monte_carlo"]
    assert mc["uncovered"] == 0 and mc["triple_overlaps"] == 0
    assert all(chain for chain in report["payload"]["chains"].values())


def test_shilov_command(tmp_path):
    write(tmp_path / "spec.json", hopf_spec_json((("0.5", "0"), ("5/9", "0"))))
    code, report = run_cli(tmp_path, {
        "command": "shilov", "inputs": {"spec": "spec.json"},
        "params": {"delta": "18/100", "r1": ["1", "1"], "band": 1, "coord": 0}})
    assert code == 0
    piece = report["payload"]["piece"]
    want = max(1.0 / piece["annulus"][0], 1.0 / piece["disc_radius"])
    assert report["payload"]["constant"] == pytest.approx(want)


def test_exact_mode_payload_determinism(tmp_path):
    config = {"command": "linearize", "seed": 11,
              "params": {"n_v": 4, "lin_mode": "full", "scale": "1/32"}}
    _, rep1 = run_cli(tmp_path, config, name="c1.json", out="r1.json")
    _, rep2 = run_cli(tmp_path, config, name="c2.json", out="r2.json")
    assert json.dumps(rep1["payload"], sort_keys=True) == \
        json.dumps(rep2["payload"], sort_keys=True)


def test_render_summary_contains_witness(tmp_path):
    write(tmp_path / "bad.json", resonant_decks_json())
    cfg = write(tmp_path / "cfg.json", {
        "command": "dioph-scan", "inputs": {"decks": "bad.json"},
        "params": {"N": 6}})
    out = tmp_path / "rep.json"
    code = main(["--config", cfg, "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    text = render_summary(report)
    assert "resonances" in text
    assert report["payload"]["resonances"][0]["P"] == [1]


def test_dioph_scan_float_mode(tmp_path):
    write(tmp_path / "decks.json", decks_json())
    code, report = run_cli(tmp_path, {
        "command": "dioph-scan", "mode": "float",
        "inputs": {"decks": "decks.json"}, "params": {"N": 8}})
    assert code == 0
    assert report["config"]["mode"] == "float"


def test_hopf_classify_relation_fails(tmp_path):
    write(tmp_path / "spec.json",
          hopf_spec_json((("1/4", "0"), ("1/2", "0"))))
    code, report = run_cli(tmp_path, {
        "command": "hopf-classify", "inputs": {"spec": "spec.json"},
        "params": {"exp_bound": 4}})
    assert code == 1
    assert report["payload"]["witness"] is not None


def test_hopf_cover_bad_delta_is_input_error(tmp_path):
    write(tmp_path / "spec.json", hopf_spec_json((("0.5", "0"), ("5/9", "0"))))
    cfg = write(tmp_path / "cfg.json", {
        "command": "hopf-cover", "inputs": {"spec": "spec.json"},
        "params": {"delta": "1/50", "r1": ["1", "1"], "mc_points": 10}})
    assert main(["--config", cfg]) == 2


def test_linearize_linear_deck_fixture(tmp_path):
    code, report = run_cli(tmp_path, {
        "command": "linearize", "seed": 1,
        "params": {"n_v": 4, "lin_mode": "full", "scale": "0"}})
    assert code == 0
    assert all(r == 0.0 for r in report["payload"]["result"]["residual_per_degree"])
    assert report["payload"]["result"]["phi_v"][0]["records"] == []


def test_cli_seed_override(tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "command": "linearize", "seed": 1,
        "params": {"n_v": 3, "lin_mode": "full", "scale": "1/32"}})
    out = tmp_path / "rep.json"
    code = main(["--config", cfg, "--out", str(out), "--seed", "9"])
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 9


def test_unknown_top_level_key_is_input_error(tmp_path):
    write(tmp_path / "decks.json", decks_json())
    cfg = write(tmp_path / "cfg.json", {
        "command": "dioph-scan", "threads": 8, "inputs": {"decks": "decks.json"},
        "params": {"N": 4}})
    assert main(["--config", cfg]) == 2


def test_unknown_param_is_input_error(tmp_path):
    write(tmp_path / "decks.json", decks_json())
    cfg = write(tmp_path / "cfg.json", {
        "command": "dioph-scan", "inputs": {"decks": "decks.json"},
        "params": {"N": 4, "bogus": 1}})
    assert main(["--config", cfg]) == 2


def test_params_not_an_object_is_input_error(tmp_path):
    cfg = write(tmp_path / "cfg.json", {"command": "dioph-scan", "params": 5})
    assert main(["--config", cfg]) == 2


def test_param_of_another_pipeline_is_input_error(tmp_path):
    # lin_mode is read by linearize, not by certify
    cfg = write(tmp_path / "cfg.json", {
        "command": "certify", "params": {"n_v": 3, "lin_mode": "full"}})
    assert main(["--config", cfg]) == 2


def test_unknown_mode_is_input_error(tmp_path, capsys):
    # any mode but "exact" once ran a float scan
    write(tmp_path / "decks.json", decks_json())
    cfg = write(tmp_path / "cfg.json", {
        "command": "dioph-scan", "mode": "banana", "inputs": {"decks": "decks.json"},
        "params": {"N": 4}})
    assert main(["--config", cfg]) == 2
    assert "unknown mode 'banana'" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("linearize", {"params": {"n_v": 3}}),
    ("certify", {"params": {"n_v": 3}}),
    ("hopf-classify", {"inputs": {"spec": "spec.json"}})])
def test_float_mode_outside_dioph_scan_is_input_error(tmp_path, command, extra):
    # linearize and certify ran exact while the report echoed "float"
    write(tmp_path / "spec.json", hopf_spec_json())
    cfg = write(tmp_path / "cfg.json", dict(extra, command=command))
    assert main(["--config", cfg, "--mode", "exact"]) == 0
    assert main(["--config", cfg, "--mode", "float"]) == 2
    cfg = write(tmp_path / "cfg.json", dict(extra, command=command, mode="float"))
    assert main(["--config", cfg]) == 2


def test_unknown_lin_mode_is_input_error(tmp_path):
    # "bogus" ran a vertical linearize and was echoed as given
    cfg = write(tmp_path / "cfg.json", {
        "command": "linearize", "params": {"n_v": 3, "lin_mode": "bogus"}})
    assert main(["--config", cfg]) == 2


def test_certified_solver_failures_exit_1(tmp_path, monkeypatch):
    from germlin import cli
    from germlin.divisors import IncompatibleSystem, ResonanceError
    from germlin.linearize import LinearizeError, MajorantFailure
    from germlin.series import SeriesError, TruncationOverflow

    write(tmp_path / "decks.json", decks_json())
    cfg = write(tmp_path / "cfg.json", {
        "command": "dioph-scan", "inputs": {"decks": "decks.json"}, "params": {"N": 4}})
    # a negative majorant coefficient and a Laurent budget overflow exited 2
    for exc, code in ((ResonanceError, 1), (IncompatibleSystem, 1),
                      (MajorantFailure, 1), (TruncationOverflow, 1),
                      (LinearizeError, 2), (SeriesError, 2)):
        def raiser(config, exc=exc):
            raise exc("planted")

        monkeypatch.setitem(cli.PIPELINES, "dioph-scan",
                            cli.PIPELINES["dioph-scan"]._replace(run=raiser))
        assert main(["--config", cfg]) == code


def test_negative_majorant_coefficient_exits_1(tmp_path, monkeypatch):
    # the certify pipeline reported it as an input error (exit 2)
    from germlin import linearize

    g_of = linearize._g_of
    monkeypatch.setattr(linearize, "_g_of", lambda *args: [-x for x in g_of(*args)])
    cfg = write(tmp_path / "cfg.json", {
        "command": "certify", "seed": 5, "params": {"n_v": 4, "scale": "1/64"}})
    assert main(["--config", cfg]) == 1


def test_laurent_budget_overflow_exits_1(tmp_path, monkeypatch):
    # the overflow exited 2, as an input error
    from germlin import linearize
    from germlin.scalars import QC
    from germlin.series import FormalSeries, substitute_shift

    def overflowing(*args):
        # (h + h^2 v^2)^{-1} reaches |P| = 3 at v^8, past a budget of 1
        f = FormalSeries.monomial(1, 1, (-1,), (0,), QC(1), 4, 8)
        phi = FormalSeries.monomial(1, 1, (2,), (2,), QC(1), 4, 8)
        return substitute_shift((f,), [phi], None, 8, n_h=1)

    monkeypatch.setattr(linearize, "full_linearize", overflowing)
    cfg = write(tmp_path / "cfg.json", {"command": "linearize", "params": {"n_v": 3}})
    assert main(["--config", cfg]) == 1


def contract_inputs(tmp_path):
    write(tmp_path / "decks.json", decks_json())
    write(tmp_path / "spec.json", hopf_spec_json())
    write(tmp_path / "cover.json", hopf_spec_json((("0.5", "0"), ("5/9", "0"))))
    write(tmp_path / "bundle.json", {"beta": {"re": "0.2", "im": "0"}})


COVER = {"spec": "cover.json"}
PRECHECK = {"spec": "spec.json", "bundle": "bundle.json"}


@pytest.mark.parametrize("config", [
    # each escaped main as a traceback, exit 1
    pytest.param({"command": "linearize", "seed": None}, id="seed-null"),
    pytest.param({"command": "linearize", "params": {"n_v": 3, "scale": [1]}}, id="scale-list"),
    pytest.param({"command": "dioph-scan", "inputs": ["decks.json"]}, id="inputs-list"),
    pytest.param({"command": ["dioph-scan"]}, id="command-list"),
    pytest.param({"command": "dioph-scan", "inputs": {"decks": 5}}, id="input-path-int"),
    pytest.param({"command": "hopf-cover", "inputs": COVER, "params": {"r1": 1}}, id="r1-int"),
    pytest.param({"command": "hopf-cover", "inputs": COVER,
                  "params": {"delta": "18/100", "r1": ["0", "1"]}}, id="r1-zero"),
    # each exited 0 on another run than the config asked for
    pytest.param({"command": "linearize", "params": {"n_v": 3.5}}, id="n_v-float"),
    pytest.param({"command": "dioph-scan", "inputs": {"decks": "decks.json"},
                  "params": {"N": 4.7}}, id="N-float"),
    pytest.param({"command": "linearize", "params": {"n_v": "4"}}, id="n_v-string"),
    pytest.param({"command": "hopf-cover", "inputs": COVER,
                  "params": {"delta": "18/100", "mc_points": -5}}, id="mc_points-negative"),
    pytest.param({"command": "hopf-precheck", "inputs": PRECHECK, "params": {"n_v": -1}},
                 id="precheck-n_v-negative"),
    pytest.param({"command": "linearize", "inputs": {"deck": "decks.json"},
                  "params": {"n_v": 3}}, id="misspelt-decks"),
    pytest.param({"command": "hopf-classify", "inputs": {
        "spec": "spec.json", "bundel": "bundle.json"}}, id="misspelt-bundle"),
    pytest.param({"command": "dioph-scan", "seed": "abc", "inputs": {"decks": "decks.json"},
                  "params": {"N": 4}}, id="seed-string"),
    pytest.param({"command": "linearize", "inputs": {"decks": "decks.json"},
                  "params": {"n_v": 3, "q": 2}}, id="dims-unlike-decks"),
    # params that did nothing
    pytest.param({"command": "hopf-classify", "inputs": {"spec": "spec.json"},
                  "params": {"variant": "bogus"}}, id="variant-bogus"),
    pytest.param({"command": "hopf-classify", "inputs": {"spec": "spec.json"},
                  "params": {"variant": "classical"}}, id="variant-without-bundle"),
    pytest.param({"command": "shilov", "inputs": COVER,
                  "params": {"delta": "18/100", "alpha": "9"}}, id="alpha-diagonal"),
    # shilov's band and coord: IndexError, or another band's piece
    *[pytest.param({"command": "shilov", "inputs": COVER,
                    "params": {"delta": "18/100", **p}}, id=f"shilov-{k}")
      for k, p in [("band9", {"band": 9}), ("coord9", {"coord": 9}),
                   ("band0", {"band": 0}), ("band-1", {"band": -1})]],
])
def test_malformed_config_is_input_error(tmp_path, capsys, config):
    contract_inputs(tmp_path)
    cfg = write(tmp_path / "cfg.json", config)
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("input error")


@pytest.mark.parametrize("command, name, data", [
    # each escaped main as a TypeError or AttributeError traceback, exit 1
    pytest.param("dioph-scan", "decks", 5, id="decks-int"),
    pytest.param("dioph-scan", "decks", {"lambda": [[5]], "mu": [[5]]}, id="decks-int-entries"),
    pytest.param("linearize", "decks", {"lambda": 5, "mu": []}, id="decks-int-rows"),
    pytest.param("hopf-classify", "spec", {"alpha": 5}, id="hopf-alpha-int"),
    pytest.param("hopf-classify", "spec", 5, id="hopf-spec-int"),
    pytest.param("hopf-precheck", "bundle", {"beta": 5}, id="bundle-beta-int"),
    pytest.param("toroidal-validate", "spec", {**toroidal_spec_json(), "R1": 5},
                 id="toroidal-R1-int"),
    # an unreadable number exited 2 with Fraction's message alone, naming
    # neither the input nor the field; "1/0" and Infinity escaped main as
    # tracebacks, exit 1
    pytest.param("hopf-classify", "spec", hopf_spec_json((("x", "0"), ("0.53", "0"))),
                 id="hopf-alpha-re-x"),
    pytest.param("hopf-classify", "spec", hopf_spec_json((("1/0", "0"), ("0.53", "0"))),
                 id="hopf-alpha-re-zero-denominator"),
    pytest.param("dioph-scan", "decks", {"lambda": [[{"re": "3/5", "im": "abc"}]],
                                         "mu": [[{"re": "1/2", "im": "0"}]]},
                 id="decks-im-abc"),
    pytest.param("linearize", "decks", {"lambda": [[{"re": float("inf"), "im": "0"}]],
                                        "mu": [[{"re": "1/2", "im": "0"}]]},
                 id="decks-re-infinity"),
    pytest.param("toroidal-validate", "spec", {**toroidal_spec_json(), "R1": [["abc"]]},
                 id="toroidal-R1-abc"),
])
def test_malformed_input_file_is_input_error(tmp_path, capsys, command, name, data):
    contract_inputs(tmp_path)
    write(tmp_path / "bad.json", data)
    inputs = {**(PRECHECK if command == "hopf-precheck" else {}), name: "bad.json"}
    cfg = write(tmp_path / "cfg.json", {"command": command, "inputs": inputs})
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"input error: input {name} is malformed")


def _with_number(data, path, number):
    """A copy of data with the string at ``path`` replaced by a JSON number."""
    data = json.loads(json.dumps(data))
    leaf = data
    for step in path[:-1]:
        leaf = leaf[step]
    leaf[path[-1]] = number
    return data


NUMBER_FIELDS = [
    ("dioph-scan", "exact", "decks", decks_json(), ("lambda", 0, 0, "re")),
    ("dioph-scan", "float", "decks", decks_json(), ("lambda", 0, 0, "re")),
    ("hopf-classify", "exact", "spec", hopf_spec_json(), ("alpha", 0, "re")),
    ("hopf-precheck", "exact", "bundle", {"beta": {"re": "0.2", "im": "0"}}, ("beta", "re")),
]


@pytest.mark.parametrize("command, mode, name, data, path", NUMBER_FIELDS,
                         ids=["decks-exact", "decks-float", "hopf-alpha", "bundle-beta"])
@pytest.mark.parametrize("number", [0.6, 0.0, True], ids=["float", "zero", "bool"])
def test_json_number_for_a_digit_string_is_input_error(tmp_path, capsys, command, mode,
                                                       name, data, path, number):
    # {"re": 0.6} was read as the double nearest 0.6, not as 3/5: in exact
    # mode a unit lambda came out 4.4e-17 off the circle and the run exited
    # 0; over floats 0.0 escaped as an AttributeError
    contract_inputs(tmp_path)
    write(tmp_path / "bad.json", _with_number(data, path, number))
    inputs = {**(PRECHECK if command == "hopf-precheck" else {}), name: "bad.json"}
    cfg = write(tmp_path / "cfg.json", {"command": command, "mode": mode, "inputs": inputs})
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: input {name} is malformed")
    assert "digit string or an integer" in err


@pytest.mark.parametrize("command, mode, name, data, path", NUMBER_FIELDS,
                         ids=["decks-exact", "decks-float", "hopf-alpha", "bundle-beta"])
def test_json_integer_part_still_reads(tmp_path, command, mode, name, data, path):
    contract_inputs(tmp_path)
    write(tmp_path / "ok.json", _with_number(data, path[:-1] + ("im",), 0))
    inputs = {**(PRECHECK if command == "hopf-precheck" else {}), name: "ok.json"}
    cfg = write(tmp_path / "cfg.json", {"command": command, "mode": mode, "inputs": inputs})
    assert main(["--config", cfg]) == 0


@pytest.mark.parametrize("command, data, field", [
    # int() read 1.9 as q = 1 and "2" as n = 2, and the run exited 0
    pytest.param("toroidal-validate", {**toroidal_spec_json(), "q": 1.9}, "q",
                 id="toroidal-q-float"),
    pytest.param("toroidal-validate", {**toroidal_spec_json(), "n": "2"}, "n",
                 id="toroidal-n-string"),
    pytest.param("hopf-classify", {**hopf_spec_json(), "torsion": {
        "m": 2.0, "a": {"re": "-1", "im": "0"}}}, "m", id="hopf-torsion-m-float"),
    pytest.param("hopf-classify", {**hopf_spec_json(), "torsion": {
        "m": True, "a": {"re": "1", "im": "0"}}}, "m", id="hopf-torsion-m-bool"),
])
def test_integer_field_of_input_file_must_be_json_integer(tmp_path, capsys, command, data, field):
    write(tmp_path / "spec.json", data)
    cfg = write(tmp_path / "cfg.json", {"command": command, "inputs": {"spec": "spec.json"}})
    assert main(["--config", cfg]) == 2
    assert f"field {field!r} must be a JSON integer" in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    # "empty range for randrange()" and "key beyond vertical truncation"
    ({"d": 0}, "params.d must be finite in [1, inf], got 0"),
    ({"n_v": True}, "params.n_v must be a JSON integer, got True"),
])
def test_param_error_names_the_param(tmp_path, capsys, params, message):
    cfg = write(tmp_path / "cfg.json", {"command": "linearize", "params": params})
    assert main(["--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_report_echoes_resolved_params(tmp_path):
    # defaults were left out of the echo, and "1/32" was echoed unreduced
    contract_inputs(tmp_path)
    _, report = run_cli(tmp_path, {"command": "linearize", "seed": 3,
                                   "params": {"n_v": 3, "scale": "2/64"}})
    assert report["config"]["params"] == {
        "n_h": 1, "d": 1, "q": 1, "n_v": 3, "profile": "coboundary",
        "scale": "1/32", "lin_mode": "full"}
    _, report = run_cli(tmp_path, {"command": "shilov", "inputs": COVER,
                                   "params": {"delta": "18/100", "fields": "jordan"}})
    assert report["config"]["params"] == {
        "delta": "9/50", "r1": ["1", "1"], "band": 1, "coord": 0,
        "fields": "jordan", "alpha": 0.5}
