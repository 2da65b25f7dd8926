"""The commands end to end, at smoke scale (scale 0.1, one timed pass)."""

import json
import os
import shutil
import subprocess
import sys

from perfbench.env import ROOT
from perfbench.layers import PER_LAYER
from perfbench.runner import END_TO_END


def cli(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *arguments],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def document(*arguments):
    done = cli(*arguments, "--smoke", "--json")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_run_repeats_counts_exactly_and_checks_answers():
    first = document("run", "hot_repeat", "--seed", "7")
    again = document("run", "hot_repeat", "--seed", "7")
    assert first["correct"] and first["failed"] == 0 and first["attempted"] == 400
    assert sorted(first["metrics"]) == sorted(name for name, __ in END_TO_END)
    assert all(entry["value"] > 0 for entry in first["metrics"].values())
    for exact in ("attempted", "failed"):
        assert first[exact] == again[exact]
    assert first["metrics"]["virtual_s_per_op"] == again["metrics"]["virtual_s_per_op"]
    other = document("run", "hot_repeat", "--seed", "8")
    assert other["metrics"]["virtual_s_per_op"] == first["metrics"]["virtual_s_per_op"]


def test_trace_counts_repeat_and_the_refresh_defeats_the_memos():
    first = document("trace", "grid_refresh", "--seed", "7")
    again = document("trace", "grid_refresh", "--seed", "7")
    assert first["correct"], first["failures"]
    assert sorted(first["metrics"]) == sorted(name for name, __, __ in PER_LAYER)
    for name, __, exact in PER_LAYER:
        if exact:
            assert first["metrics"][name] == again["metrics"][name], name
    values = {name: entry["value"] for name, entry in first["metrics"].items()}
    assert values["cache.plan_hit_ratio"] == 0
    assert values["sparql.parse_calls_per_op"] == 1
    rounds = first["statements_per_round"]
    assert len(rounds) == 5 and 0 < rounds[0] <= min(rounds)
    assert 0.9 <= values["trace.coverage_ratio"] <= 1.0
    assert values["trace.overhead_ratio"] > 0


def test_hot_repeat_never_parses_after_warm_up():
    values = document("trace", "hot_repeat", "--seed", "7")["metrics"]
    assert values["sparql.parse_calls_per_op"]["value"] == 0
    assert values["cache.plan_hit_ratio"]["value"] == 1
    assert values["trace.coverage_ratio"]["value"] >= 0.9


def test_contract_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    from perfbench.ops import WORKLOADS

    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == [
        (name, unit) for name, unit, __ in PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "traces"),
    )
    done = cli(
        "bench", "--workload", "hot_repeat", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0 and not done.stdout.strip()
