"""Byte-identity guard: the payload sha256 of small fixed configs, exact
and (for one scan) float, and the same payload from a rerun of the
config each report echoes.

A change to the series kernel, the solvers or the fixture generator must
leave every pinned payload byte for byte as it was.  A change that alters a
payload on purpose updates the pin here and says why.
"""

import hashlib
import json

import pytest

from germlin.cli import PIPELINES
from test_cli import (
    decks_json, hopf_spec_json, resonant_decks_json, run_cli, toroidal_spec_json, write,
)


def two_deck_json():
    """q = 2, n_h = 2, d = 1: at N = 8 a full scan takes deck 1 at about a
    third of its (point, target) pairs, so deck selection shows in the
    payload."""
    def c(re, im="0"):
        return {"re": re, "im": im}

    return {"lambda": [[c("3/5", "4/5"), c("5/13", "12/13")],
                       [c("8/17", "15/17"), c("7/25", "24/25")]],
            "mu": [[c("1/2")], [c("1/3", "1/5")]]}


def rank2_rational_toroidal_json():
    """q = 2 inside n_h = 3 with periods in (1/3)Z, so the irrationality
    scan finds the witness sigma = 3."""
    def c(re, im="0"):
        return {"re": re, "im": im}

    return {"n": 3, "a": 0, "b": 0, "q": 2,
            "R1": [["1/3", "2/3"]], "R2": [["2/3", "1/3"]], "R3": [[c("0", "1")]],
            "P0": [[c("0", "1"), c("1/5")], [c("1/10"), c("0", "1")]],
            "P1": [[c("0")], [c("0")]]}


CONFIGS = {
    "linearize-full-111": {
        "command": "linearize", "seed": 3,
        "params": {"n_v": 8, "lin_mode": "full", "scale": "1/16"}},
    "linearize-full-122": {
        "command": "linearize", "seed": 2,
        "params": {"n_h": 1, "d": 2, "q": 2, "n_v": 4, "lin_mode": "full",
                   "scale": "1/16"}},
    "linearize-full-211": {
        "command": "linearize", "seed": 4,
        "params": {"n_h": 2, "d": 1, "q": 1, "n_v": 4, "lin_mode": "full",
                   "scale": "1/16"}},
    "linearize-vertical-112": {
        "command": "linearize", "seed": 1,
        "params": {"n_h": 1, "d": 1, "q": 2, "n_v": 5, "lin_mode": "vertical",
                   "scale": "1/16"}},
    "linearize-vertical-211": {
        "command": "linearize", "seed": 4,
        "params": {"n_h": 2, "d": 1, "q": 1, "n_v": 4, "lin_mode": "vertical",
                   "scale": "1/16"}},
    "certify-111": {
        "command": "certify", "seed": 5,
        "params": {"n_v": 4, "scale": "1/64"}},
    # q = 2: the vertical majorant couples A with 2q B
    "certify-112": {
        "command": "certify", "seed": 1,
        "params": {"n_h": 1, "d": 1, "q": 2, "n_v": 5, "scale": "1/64"}},
    "dioph-scan-full": {
        "command": "dioph-scan", "inputs": {"decks": "decks.json"},
        "params": {"N": 8, "scan_mode": "full"}},
    "dioph-scan-two-decks": {
        "command": "dioph-scan", "inputs": {"decks": "decks2.json"},
        "params": {"N": 8, "scan_mode": "full"}},
    "dioph-scan-two-decks-float": {
        "command": "dioph-scan", "mode": "float", "inputs": {"decks": "decks2.json"},
        "params": {"N": 8, "scan_mode": "full"}},
    "dioph-scan-resonant": {
        "command": "dioph-scan", "inputs": {"decks": "bad.json"},
        "params": {"N": 6}},
    "hopf-classify": {
        "command": "hopf-classify",
        "inputs": {"spec": "spec.json", "bundle": "bundle.json"},
        "params": {"exp_bound": 8}},
    "toroidal-validate-q1": {
        "command": "toroidal-validate", "inputs": {"spec": "toroidal.json"},
        "params": {"height_bound": 20, "epsilon": "0.25"}},
    "toroidal-validate-q2-rational": {
        "command": "toroidal-validate", "inputs": {"spec": "toroidal2.json"},
        "params": {"height_bound": 20, "epsilon": "0.25"}},
}

PINS = {
    "certify-111": "79737e76406bff76915ada70dea389a79afbaab893946b2e9e967ad72dffb829",
    "certify-112": "30177a3eba66904d29105b60cb8b406e8e081815297130c44680c5fa0a107187",
    "dioph-scan-full": "4aa93228091f4d456fdbaf37a27fb49b780d85429e0f49449b691e07eceb119b",
    "dioph-scan-resonant": "4350a9d93f734b34b197503364f34bc597b56077b7b4e8cf5f3265ba804cc4ef",
    "dioph-scan-two-decks": "8674acfa8083da0dfc510465c10aebabe363f1542d17a9d5300d7857c98b3daa",
    "dioph-scan-two-decks-float": "980a385c17d1f827036195de2819d4d6d3b2e05a8fc1ef4e5e7e0a2a2aabc5d9",
    "hopf-classify": "9bb1a5a6b0113704558d8ab10fd12f5f562c800efbd04f72202a9cec9b6773ef",
    "linearize-full-111": "f8f5db386be4330a5f20592585523c81ae39354a693bc1611cd7d922138890b9",
    "linearize-full-122": "20469919190887510a14af944804d93848b0410708855df49ba64e920ebf12f3",
    "linearize-full-211": "1a4ad8802e68b7ac7456d595600d463be0d53c9f010e7e654aed56d8befb59de",
    "linearize-vertical-112": "e1b05a1bf9615513910f40fb7f09b97601629b4b67d22d63fd442dbd92ae32d0",
    "linearize-vertical-211": "5acab75c4e9004d6eb3ecf976f3596a94aa8b63b04e3e580d520cb1510943860",
    "toroidal-validate-q1": "b524dd391bc4b4bc670262b82359c7fe33bdba7efb173ce17a4a0f7af52f03e9",
    "toroidal-validate-q2-rational": "85b656c672487c6fdaa9fd4ed3c9947fd61f907b05fd869a4aa74e37c787d85e",
}


def write_inputs(tmp_path):
    write(tmp_path / "decks.json", decks_json())
    write(tmp_path / "bad.json", resonant_decks_json())
    write(tmp_path / "decks2.json", two_deck_json())
    write(tmp_path / "spec.json", hopf_spec_json())
    write(tmp_path / "bundle.json", {"beta": {"re": "0.2", "im": "0"}})
    write(tmp_path / "toroidal.json", toroidal_spec_json())
    write(tmp_path / "toroidal2.json", rank2_rational_toroidal_json())


def digest(report) -> str:
    text = json.dumps(report["payload"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_payload_sha256_pinned(tmp_path, name):
    write_inputs(tmp_path)
    _, report = run_cli(tmp_path, CONFIGS[name])
    assert digest(report) == PINS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_echoed_config_reproduces_payload(tmp_path, name):
    # the report's config block, rerun as a config, gives the same payload
    write_inputs(tmp_path)
    code, report = run_cli(tmp_path, CONFIGS[name])
    echo = report["config"]
    assert set(echo["params"]) == set(PIPELINES[echo["command"]].params)
    code2, rerun = run_cli(tmp_path, echo, name="echo.json", out="rerun.json")
    assert (code2, digest(rerun), rerun["config"]) == (code, digest(report), echo)
