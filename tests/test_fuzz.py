"""Seeded mutation fuzzing of the command line, in process through cli.main.

Shipped configs and a real report.json are mutated at random: values swapped
for other types, NaN, infinities, negative and huge numbers; keys dropped or
added. Whatever the input, `validate` and `report` must end with exit code 0,
1 or 2, let no exception escape, and print nothing or exactly one `error: `
line on stderr. A `report` that succeeds writes only finite, non-negative
latencies. The seed and the case counts are fixed, so a failure reproduces.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random

import pytest

from rasesim.cli import main

SEED = 6
CONFIG_CASES = 200
REPORT_CASES = 100

ODD_VALUES = [
    float("nan"), float("inf"), float("-inf"), -1, -2.5, -1e300, 1e308, 10**400, 0, 0.5, 7,
    True, False, None, "", "4", "a\nb", [], [1, "x"], {}, {"k": 1},
]
ODD_KEYS = ["extra", "", "a\nb", "id", "seed"]


def _slots(node, found=None) -> list:
    """Every (container, key or index) in a JSON tree, parents before children."""
    found = [] if found is None else found
    if isinstance(node, dict):
        for key, child in node.items():
            found.append((node, key))
            _slots(child, found)
    elif isinstance(node, list):
        for index, child in enumerate(node):
            found.append((node, index))
            _slots(child, found)
    return found


def _mutate(document, rng: random.Random):
    """A deep copy of document with one to three random mutations."""
    document = copy.deepcopy(document)
    for _ in range(rng.randint(1, 3)):
        slots = _slots(document)
        if not slots:
            break
        parent, key = rng.choice(slots)
        value = parent[key]
        action = rng.randrange(5)
        if action == 0:
            parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        elif action == 1 and isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                variants = (-value, -1 - value, value * 1e300, value + 0.5)
            except OverflowError:  # an integer beyond the float range, from an earlier mutation
                variants = (-value, value * 2)
            parent[key] = rng.choice(variants)
        elif action == 2:
            del parent[key]
        elif action == 3 and isinstance(parent, dict):
            parent[rng.choice(ODD_KEYS)] = copy.deepcopy(rng.choice(ODD_VALUES))
        else:  # swap in the value of another slot, often of another type
            other_parent, other_key = rng.choice(slots)
            parent[key] = copy.deepcopy(other_parent[other_key])
    return document


def _run(capsys, argv) -> tuple[int, str]:
    try:
        code = main(argv)
    except Exception as exc:
        pytest.fail(f"{type(exc).__name__} escaped main for {argv}: {exc}")
    return code, capsys.readouterr().err


def _assert_one_line_outcome(code: int, err: str, case: str) -> None:
    assert code in (0, 1, 2), case
    if code == 0:
        assert err == "", case
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (case, err)


def _inlined(scenario_dir, name: str) -> dict:
    """A shipped config with its catalog and SFCR files inlined, so mutations reach them too."""
    config = json.loads((scenario_dir / name).read_text())
    for section in ("catalog", "sfcrs"):
        if isinstance(config[section], str):
            config[section] = json.loads((scenario_dir / config[section]).read_text())
    return config


def test_mutated_configs_fail_as_one_line(scenario_dir, tmp_path, capsys):
    bases = [_inlined(scenario_dir, "exp1.json"), _inlined(scenario_dir, "ga_small.json")]
    rng = random.Random(SEED)
    target = tmp_path / "config.json"
    for case in range(CONFIG_CASES):
        mutated = _mutate(bases[case % len(bases)], rng)
        target.write_text(json.dumps(mutated))
        code, err = _run(capsys, ["validate", "--config", str(target), "--quiet"])
        _assert_one_line_outcome(code, err, f"config case {case}: {json.dumps(mutated)[:2000]}")


def test_mutated_reports_fail_as_one_line(scenario_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(scenario_dir / "exp1.json"), "--output-dir", str(run_dir),
                 "--format", "json", "--quiet"]) == 0
    base = json.loads((run_dir / "report.json").read_text())
    rng = random.Random(SEED)
    target = tmp_path / "report.json"
    out = tmp_path / "out"
    for case in range(REPORT_CASES):
        target.write_text(json.dumps(_mutate(base, rng)))
        code, err = _run(capsys, ["report", "--report", str(target), "--output-dir", str(out), "--quiet"])
        _assert_one_line_outcome(code, err, f"report case {case}")
        if code == 0:
            with open(out / "latency.csv", newline="") as handle:
                for row in csv.DictReader(handle):
                    latency = float(row["latency_ms"])
                    assert math.isfinite(latency) and latency >= 0, f"report case {case}: {row}"
