"""BENCHMARK.json is well-formed and agrees with the code that fills it."""

import re

from bench import ROOT, WORKLOADS
from bench.report import declared as spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert s["paths"] == ["bench"]
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert 2 <= len(s["workloads"]) <= 8
    assert 1 <= len(s["end_to_end"]) <= 16
    assert 1 <= len(s["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_units_and_bounds():
    s = spec()
    names = [x["name"] for x in s["workloads"] + s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for w in s["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


def test_workloads_match_the_command():
    assert tuple(w["name"] for w in spec()["workloads"]) == WORKLOADS


def test_run_seconds_is_the_reference_size():
    text = (ROOT / "bench" / "measure.py").read_text()
    assert f"REF_SECONDS = {spec()['run_seconds']}\n" in text
