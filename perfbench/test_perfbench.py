"""The benchmark's own tests, at a tiny corpus size.

Run from the repository root with ``python -m pytest perfbench -q``. Faults
are injected by replacing program functions for the duration of one test;
the program's files are never edited.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lab():
    return run.load_program()


def tiny(workload, seed=7, trace=0):
    return run.run_workload(workload, seed, seconds=0.1, trace=trace, tiny=True)


def test_wrong_verdict_fails_the_run(lab, monkeypatch):
    real = lab["mixedvol"].check_alexandrov_fenchel

    def flipped(bodies):
        return dataclasses.replace(real(bodies), holds=False)

    monkeypatch.setattr(lab["mixedvol"], "check_alexandrov_fenchel", flipped)
    result = tiny("spatial-af")
    assert result["correct"] is False
    assert result["error"].startswith("wrong verdict")


def test_wrong_verdict_exits_nonzero(lab, monkeypatch, capsys):
    real = lab["mixedvol"].check_isoperimetric
    full_size = run.run_workload

    def flipped(d1, d2):
        return dataclasses.replace(real(d1, d2), holds=False)

    monkeypatch.setattr(lab["mixedvol"], "check_isoperimetric", flipped)
    monkeypatch.setattr(run, "run_workload", lambda *a: full_size(*a, tiny=True))
    rc = run.main(["--workload", "planar", "--seed", "7", "--seconds", "0.1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert last["correct"] is False


def test_exception_counts_in_fail_share(lab, monkeypatch):
    def crash(d1, d2):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(lab["mixedvol"], "check_isoperimetric", crash)
    result = tiny("planar")
    assert result["correct"] is True
    assert result["failed"] >= 1
    assert result["fail_reasons"] == {"isoperimetric: ZeroDivisionError": result["failed"]}
    assert result["fail_share"] == result["failed"] / result["attempted"]
    share = result["metrics"]["verdict_share"]["value"]
    assert share == pytest.approx(1 - result["fail_share"])


def test_same_seed_same_corpus_and_reports():
    first, second, other = tiny("okounkov", 3), tiny("okounkov", 3), tiny("okounkov", 4)
    assert first["correct"] and second["correct"]
    assert first["corpus_sha256"] == second["corpus_sha256"] != other["corpus_sha256"]
    assert first["reports_sha256"] == second["reports_sha256"] != other["reports_sha256"]


def test_traced_run_reports_every_layer_and_restores(lab):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    originals = {name: dict(vars(mod)) for name, mod in lab.items()}
    mul = vars(lab["algebra"].LaurentPolynomial)["__mul__"]
    result = tiny("bkk-count", trace=1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["layer_self_s"] <= result["traced_wall_s"] + 1e-6
    assert result["metrics"]["bkk.trials_attempted"]["value"] > 0
    for name, mod in lab.items():
        for key, value in originals[name].items():
            assert vars(mod).get(key) is value, f"{name}.{key} left wrapped"
    assert vars(lab["algebra"].LaurentPolynomial)["__mul__"] is mul


def test_untraced_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = tiny("bkk-count")
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
