"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys

import pytest

import lifecycle
import run
import tracer
import workloads
from rasesim import experiment

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_and_pass_load_config(name, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    workloads.write_config(name, 5, first)
    workloads.write_config(name, 5, second)
    assert first.read_bytes() == second.read_bytes()
    other = workloads.WORKLOADS[name](6)
    assert other == dict(workloads.WORKLOADS[name](5), seed=6)
    cfg = experiment.load_config(first)
    assert cfg.seed == 5


def test_wrappers_leave_nothing_patched():
    before = tracer.originals()
    with pytest.raises(RuntimeError):
        with tracer.patched(tracer.Tracer()):
            assert experiment.simulate is not before[("rasesim.experiment", "simulate")]
            raise RuntimeError("leave the block early")
    with tracer.patched(tracer.Tracer()):
        pass
    after = tracer.originals()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracing_fails_when_a_layer_has_no_call_site_left(monkeypatch):
    before = tracer.originals()
    gone_site = (experiment, "no_such_function", "engine.simulate", None)
    monkeypatch.setattr(tracer, "SPANNED", tracer.SPANNED + [gone_site])
    with tracer.patched(tracer.Tracer()):
        pass
    gone_layer = (experiment, "no_such_function", "experiment.no_such_layer", None)
    monkeypatch.setattr(tracer, "SPANNED", tracer.SPANNED + [gone_layer])
    with pytest.raises(RuntimeError, match="no_such_layer"):
        with tracer.patched(tracer.Tracer()):
            pass
    assert all(tracer.originals()[key] is before[key] for key in before)


def small_ga(seed):
    config = workloads.ga_search(seed)
    config["solver"]["ga"] = {"population": 6, "generations": 3}
    return config


def test_digest_mismatch_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "ga-search", small_ga)
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"ga-search": {"report.json": "0" * 64}}), "utf-8")
    monkeypatch.setattr(run, "PINNED", pinned)
    args = ["--workload", "ga-search", "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0", "--trace", "0"]
    assert run.main(args) == 1
    assert '"correct"' not in capsys.readouterr().out


def test_failed_check_after_measuring_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "ga-search", small_ga)
    monkeypatch.setattr(lifecycle, "verified_accept_flags", lambda cfg: [])
    assert run.main(["--workload", "ga-search", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1


def test_traced_runs_repeat_counts_and_bytes(tmp_path):
    config = small_ga(3)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), "utf-8")
    checker = run.Checker(None)
    assert run.plain_rep(lifecycle.setup(config_path), tmp_path / "out", checker) is not None
    first = run.traced_rep(config_path, tmp_path / "out", checker)
    second = run.traced_rep(config_path, tmp_path / "out", checker)
    assert checker.failed == 0 and checker.attempted == 3
    assert run.counts_of(first[1]) == run.counts_of(second[1])
    assert first[1]["solver.ga_evals"] > 0 and first[1]["catalog.get_calls"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", "engine-long",
                           "--seed", "2", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == declared
    assert set(result["metrics"]) == declared
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ga-search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
