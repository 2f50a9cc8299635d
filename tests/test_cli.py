import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import rasesim
from rasesim.cli import main
from rasesim.catalog import parse_sfcr_templates, to_json
from rasesim.experiment import generate_requests, load_config
from rasesim.seeding import derive_seed

from helpers import ladder_spec


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def exp1(scenario_dir):
    return str(scenario_dir / "exp1.json")


def test_run_writes_report_files(exp1, tmp_path, capsys):
    code = run_cli("run", "--config", exp1, "--output-dir", str(tmp_path / "out"))
    assert code == 0
    out = capsys.readouterr().out
    assert "acceptance_ratio=1.0" in out
    for name in ("report.json", "outcomes.csv", "latency.csv", "cpu.csv"):
        assert (tmp_path / "out" / name).is_file()


def test_run_format_json_only(exp1, tmp_path):
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path), "--format", "json") == 0
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_run_twice_byte_identical(exp1, tmp_path):
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path / "a"), "--quiet") == 0
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path / "b"), "--quiet") == 0
    for name in ("report.json", "outcomes.csv", "latency.csv", "cpu.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_separate_processes_are_byte_identical(scenario_dir, tmp_path):
    """Fresh interpreters under different str hash seeds must not perturb report bytes."""
    config = str(scenario_dir / "ga_small.json")
    # the child imports the same rasesim as this process, installed or not
    source = str(Path(rasesim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))}
    for tag, hashseed in (("a", "1"), ("b", "2")):
        proc = subprocess.run(
            [sys.executable, "-m", "rasesim.cli", "run", "--config", config,
             "--output-dir", str(tmp_path / tag), "--quiet"],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": hashseed},
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "trace.csv" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_python_dash_m_runs_the_cli(scenario_dir):
    source = str(Path(rasesim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "rasesim", "validate", "--config", str(scenario_dir / "exp1.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "config ok\n"


def test_solve_prints_acceptance_ratio(scenario_dir, capsys):
    code = run_cli("solve", "--config", str(scenario_dir / "exp4.json"), "--quiet")
    assert code == 0
    assert "acceptance_ratio=0.75" in capsys.readouterr().out


def test_solve_lists_outcomes(scenario_dir, capsys):
    assert run_cli("solve", "--config", str(scenario_dir / "exp4.json")) == 0
    out = capsys.readouterr().out
    assert out.count(" accepted") == 24
    assert out.count(" rejected ") == 8
    assert "deep-inspect-8 rejected NoFeasibleHost(position=0)" in out


def test_validate_all_shipped_scenarios(scenario_dir, capsys):
    for n in range(1, 9):
        assert run_cli("validate", "--config", str(scenario_dir / f"exp{n}.json")) == 0
    assert run_cli("validate", "--config", str(scenario_dir / "ga_small.json")) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_broken_config_exits_1_without_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text('{"network": {}, "oops": true}')
    assert run_cli("validate", "--config", str(broken)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert "\n" == err[err.index("\n"):]  # single line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.json"]


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert run_cli("validate", "--config", str(tmp_path / "nope.json")) == 1
    assert "error: config:" in capsys.readouterr().err


def test_unknown_flag_exits_1(exp1, capsys):
    assert run_cli("validate", "--config", exp1, "--frobnicate") == 1
    assert "error: cli:" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    assert run_cli("explode") == 1


def test_missing_required_flag_exits_1(capsys):
    assert run_cli("run") == 1


def test_help_exits_0(capsys):
    assert run_cli("--help") == 0
    assert "rasesim" in capsys.readouterr().out
    for command in ("run", "solve", "generate", "report", "validate"):
        assert run_cli(command, "--help") == 0
        text = capsys.readouterr().out
        assert "--quiet" in text


def test_seed_override_changes_outputs(exp1, tmp_path):
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path / "a"), "--quiet") == 0
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path / "b"),
                   "--seed", "31337", "--quiet") == 0
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert a["config_digest"] != b["config_digest"]
    assert a["frames"] != b["frames"]  # jitter stream follows the seed


def test_env_var_is_output_dir_fallback(exp1, tmp_path, monkeypatch):
    monkeypatch.setenv("RASE_SIM_OUTPUT", str(tmp_path / "from-env"))
    assert run_cli("run", "--config", exp1, "--quiet") == 0
    assert (tmp_path / "from-env" / "report.json").is_file()


def test_flag_beats_env_var(exp1, tmp_path, monkeypatch):
    monkeypatch.setenv("RASE_SIM_OUTPUT", str(tmp_path / "from-env"))
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path / "flag"), "--quiet") == 0
    assert (tmp_path / "flag" / "report.json").is_file()
    assert not (tmp_path / "from-env").exists()


def test_unpinned_output_goes_to_timestamped_subdir(exp1, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RASE_SIM_OUTPUT", raising=False)
    assert run_cli("run", "--config", exp1, "--quiet") == 0
    base = tmp_path / "results" / "exp1"
    subdirs = list(base.iterdir())
    assert len(subdirs) == 1
    assert (subdirs[0] / "report.json").is_file()


def test_generate_materializes_sfcrs(exp1, tmp_path):
    assert run_cli("generate", "--config", exp1, "--output-dir", str(tmp_path)) == 0
    text = (tmp_path / "sfcrs_generated.json").read_bytes().decode("utf-8")
    data = json.loads(text)
    assert "seed" in data
    assert [s["id"] for s in data["sfcrs"]] == ["web-basic-1", "secure-web-1", "media-cdn-1", "deep-inspect-1"]
    cfg = load_config(exp1)
    payload = {"seed": derive_seed(cfg.seed, "sfcrs"), "sfcrs": [to_json(s) for s in generate_requests(cfg)]}
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert parse_sfcr_templates(text) == tuple(generate_requests(cfg))


def test_report_command_reaggregates(exp1, tmp_path):
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path / "run"), "--quiet") == 0
    assert run_cli("report", "--report", str(tmp_path / "run" / "report.json"),
                   "--output-dir", str(tmp_path / "agg"), "--bin-width", "5") == 0
    histogram = (tmp_path / "agg" / "histogram.csv").read_text().splitlines()
    assert histogram[0] == "sfc_id,bin_lower_ms,count"
    assert len(histogram) > 1
    for name in ("outcomes.csv", "latency.csv", "cpu.csv"):
        assert (tmp_path / "agg" / name).is_file()


def test_report_command_ga_trace(scenario_dir, tmp_path):
    assert run_cli("run", "--config", str(scenario_dir / "ga_small.json"),
                   "--output-dir", str(tmp_path), "--quiet") == 0
    assert run_cli("report", "--report", str(tmp_path / "report.json"), "--quiet") == 0
    assert (tmp_path / "trace.csv").is_file()


@pytest.mark.parametrize("scenario", ["exp1.json", "ga_small.json"])
def test_report_command_writes_the_csvs_of_run_byte_for_byte(scenario_dir, tmp_path, scenario):
    """Frames read back from report.json share no objects, unlike those of run: both must write the same CSVs."""
    assert run_cli("run", "--config", str(scenario_dir / scenario), "--output-dir", str(tmp_path / "run"),
                   "--quiet") == 0
    assert run_cli("report", "--report", str(tmp_path / "run" / "report.json"),
                   "--output-dir", str(tmp_path / "agg"), "--quiet") == 0
    names = sorted(path.name for path in (tmp_path / "run").glob("*.csv"))
    assert names == ["cpu.csv", "latency.csv", "outcomes.csv"] + (["trace.csv"] if scenario == "ga_small.json" else [])
    for name in names:
        assert (tmp_path / "agg" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def test_ids_with_a_nul_and_a_lone_cr_are_written_alike_on_every_version(scenario_dir, tmp_path):
    """One CSV field rule: a lone CR is quoted, a NUL is written as it is, and report re-renders the same bytes."""
    config = json.loads((scenario_dir / "exp1.json").read_text("utf-8"))
    sfcrs = json.loads((scenario_dir / "sfcrs.json").read_text("utf-8"))
    sfcrs["sfcrs"][0]["id"], sfcrs["sfcrs"][1]["id"] = "a\u0000x", "cr\rid"
    config.update(catalog=str(scenario_dir / "catalog.json"), sfcrs=sfcrs)
    path = tmp_path / "awkward.json"
    path.write_text(json.dumps(config), "utf-8")
    assert run_cli("run", "--config", str(path), "--output-dir", str(tmp_path / "run"), "--quiet") == 0
    outcomes = (tmp_path / "run" / "outcomes.csv").read_bytes()
    assert b'\n"cr\rid-1",true,\n' in outcomes and b"\na\x00x-1,true,\n" in outcomes
    assert run_cli("report", "--report", str(tmp_path / "run" / "report.json"),
                   "--output-dir", str(tmp_path / "agg"), "--quiet") == 0
    for name in ("latency.csv", "cpu.csv", "outcomes.csv"):
        assert (tmp_path / "agg" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def test_report_missing_file_exits_2(tmp_path, capsys):
    assert run_cli("report", "--report", str(tmp_path / "none.json")) == 2
    assert "error: io:" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_config_that_is_not_utf8_is_one_line_config_error(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_bytes(NOT_UTF8)
    extra = ["--output-dir", str(tmp_path / "out")] if command == "run" else []
    assert run_cli(command, "--config", str(config), *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: cannot read config ") and err.count("\n") == 1
    assert "utf-8" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("section", ["catalog", "sfcrs"])
def test_referenced_file_that_is_not_utf8_is_one_line_config_error(scenario_dir, tmp_path, capsys,
                                                                   command, section):
    config = _edited_exp1(scenario_dir, tmp_path, lambda data: None)
    (tmp_path / f"{section}.json").write_bytes(NOT_UTF8)
    extra = ["--output-dir", str(tmp_path / "out")] if command == "run" else []
    assert run_cli(command, "--config", config, *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {section}: cannot read ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("section", ["catalog", "sfcrs"])
@pytest.mark.parametrize("document,problem", [
    (lambda text: text[:len(text) // 2], ": invalid JSON: "),
    (lambda text: "[" + text + "]", " must be an object"),
    (lambda text: text.replace("{", '{"bogus": 1, ', 1), ": unknown key(s): bogus"),
], ids=["truncated", "top-level-list", "unknown-key"])
def test_a_malformed_referenced_file_names_its_section_once(scenario_dir, tmp_path, capsys,
                                                           command, section, document, problem):
    config = _edited_exp1(scenario_dir, tmp_path, lambda data: None)
    target = tmp_path / f"{section}.json"
    target.write_text(document(target.read_text("utf-8")), "utf-8")
    extra = ["--output-dir", str(tmp_path / "out")] if command == "run" else []
    assert run_cli(command, "--config", config, *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {section}{problem}") and err.count("\n") == 1
    assert err.count(section) == 1, err
    assert not (tmp_path / "out").exists()


def test_report_that_is_not_utf8_is_one_line_io_error(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_bytes(NOT_UTF8)
    assert run_cli("report", "--report", str(report), "--output-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: io: cannot read report ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _small_report(outcome=(), frame=()) -> dict:
    """A well-formed one-SFC, one-frame report.json document, with outcome and frame keys replaced."""
    return {
        "config_digest": "x", "acceptance_ratio": 1.0, "mean_latency_ms": 3.5, "trace": None,
        "outcomes": [{"sfcr_id": "r1", "accepted": True, "reason": "", **dict(outcome)}],
        "frames": [{"timestamp_s": 0.0, "host_cpu": {"h1": 0.25}, "link_bw_mbps": {"h1--sw": 0.16},
                    "sfc_latency_ms": {"r1": 3.5}, **dict(frame)}],
    }


def test_small_report_is_well_formed(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_small_report()))
    assert run_cli("report", "--report", str(report), "--quiet") == 0
    assert (tmp_path / "latency.csv").read_text() == "timestamp_s,sfc_id,latency_ms\n0.0,r1,3.5\n"


def test_a_frame_of_empty_maps_is_read_back(tmp_path):
    report = tmp_path / "report.json"
    empty = {"host_cpu": {}, "link_bw_mbps": {}, "sfc_latency_ms": {}}
    report.write_text(json.dumps(_small_report(outcome={"accepted": False, "reason": "NoHost"}, frame=empty)))
    assert run_cli("report", "--report", str(report), "--quiet") == 0
    assert (tmp_path / "cpu.csv").read_text() == "timestamp_s,host_id,utilization\n"


@pytest.mark.parametrize("content", [
    {"config_digest": "x"},
    [1, 2],
    _small_report(frame={"host_cpu": 5}),
    _small_report(frame={"sfc_latency_ms": {"r1": "x"}}),
    _small_report(frame={"sfc_latency_ms": {}}),  # an accepted SFC without a sample
    _small_report(frame={"sfc_latency_ms": {"r1": float("nan")}}),
    _small_report(outcome={"accepted": "yes"}),
    _small_report(frame={"sfc_latency_ms": {"r1": -5}}),
    _small_report(frame={"host_cpu": {"h1": 1}}),  # an int, which the writer refuses too
    _small_report(frame={"timestamp_s": 0}),
])
def test_malformed_report_is_one_line_io_error(tmp_path, capsys, content):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(content))
    assert run_cli("report", "--report", str(report), "--output-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: io: ") and err.count("\n") == 1
    assert "malformed report" in err
    assert not (tmp_path / "out").exists()


def test_generate_and_report_replace_each_file_atomically(exp1, tmp_path, monkeypatch):
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path), "--quiet") == 0
    replaced = []
    real_replace = os.replace

    def recording(source, target):
        replaced.append(os.path.basename(target))
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", recording)
    assert run_cli("report", "--report", str(tmp_path / "report.json"), "--quiet") == 0
    assert run_cli("generate", "--config", exp1, "--output-dir", str(tmp_path), "--quiet") == 0
    assert sorted(replaced) == ["cpu.csv", "histogram.csv", "latency.csv", "outcomes.csv",
                                "sfcrs_generated.json"]
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("command", ["generate", "report"])
def test_generate_and_report_unwritable_output_dir_exit_2(exp1, tmp_path, capsys, command):
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path / "run"), "--quiet") == 0
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where a directory must go")
    source = (["--config", exp1] if command == "generate"
              else ["--report", str(tmp_path / "run" / "report.json")])
    assert run_cli(command, *source, "--output-dir", str(blocker), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: io: ") and err.count("\n") == 1


def test_unwritable_output_dir_exits_2(exp1, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where a directory must go")
    assert run_cli("run", "--config", exp1, "--output-dir", str(blocker), "--quiet") == 2
    assert "error: io:" in capsys.readouterr().err


def test_failed_write_is_one_line_io_error_and_leaves_no_temp_file(exp1, tmp_path, capsys):
    (tmp_path / "cpu.csv").mkdir()  # a directory where a report file must go
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: io: cannot write into ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.tmp"))
    assert (tmp_path / "cpu.csv").is_dir()


def test_quiet_suppresses_informational_output(exp1, tmp_path, capsys):
    assert run_cli("run", "--config", exp1, "--output-dir", str(tmp_path), "--quiet") == 0
    assert capsys.readouterr().out == ""


def test_ga_solve_prints_acceptance_ratio(scenario_dir, capsys):
    code = run_cli("solve", "--config", str(scenario_dir / "ga_small.json"), "--quiet")
    assert code == 0
    assert "acceptance_ratio=1.0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "solve"])
def test_parallel_flag_is_an_unrecognized_argument(scenario_dir, tmp_path, capsys, command):
    extra = ["--output-dir", str(tmp_path / "out")] if command == "run" else []
    assert run_cli(command, "--config", str(scenario_dir / "ga_small.json"), "--parallel", "2", *extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cli: unrecognized arguments: --parallel 2\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "solve"])
def test_help_no_longer_offers_parallel(capsys, command):
    assert run_cli(command, "--help") == 0
    out = capsys.readouterr().out
    assert "--seed" in out
    assert "--parallel" not in out


def _edited_exp1(scenario_dir, tmp_path, edit):
    data = json.loads((scenario_dir / "exp1.json").read_text())
    edit(data)
    for companion in ("catalog.json", "sfcrs.json"):
        (tmp_path / companion).write_text((scenario_dir / companion).read_text())
    target = tmp_path / "edited.json"
    target.write_text(json.dumps(data))  # writes NaN and Infinity as json.loads reads them
    return str(target)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "edit,needle",
    [
        (lambda d: d["network"]["hosts"][0].update(memory_mb=float("nan")), "memory_mb must be a finite number"),
        (lambda d: d["network"]["hosts"][0].update(cpus=float("inf")), "cpus must be a finite number"),
        (lambda d: d["network"]["hosts"][0].update(memory_mb=10**400), "memory_mb is beyond the float range"),
        (lambda d: d["network"]["links"][0].update(bandwidth_mbps=float("inf")), "bandwidth_mbps must be a finite"),
        (lambda d: d["engine"].update(duration_s=float("inf")), "duration_s must be a finite number"),
        (lambda d: d["engine"].update(jitter_sigma=0.6), r"jitter_sigma must be in \[0, 1/3\)"),
        (lambda d: d["solver"].update(ga={"population": float("inf")}), "population must be a finite number"),
        (lambda d: d.update(catalog={"vnfs": [{"name": "firewall", "cpu_per_request": float("nan"),
                                               "base_service_time_ms": 1, "memory_mb": 1}]}),
         "cpu_per_request must be a finite number"),
        (lambda d: d["engine"].update(sample_interval_s=1e-7), "at most 100000 are allowed"),
        # integer fields are not truncated, and a string or a bool is not a number
        (lambda d: d["network"]["hosts"][0].update(cpus=2.5), "cpus must be a whole number, got 2.5"),
        (lambda d: d["solver"].update(ga={"population": 20.9}), "population must be a whole number"),
        (lambda d: d["network"]["hosts"][0].update(cpus="4"), "cpus must be a number, got '4'"),
        (lambda d: d["network"]["hosts"][0].update(cpus=True), "cpus must be a number, got True"),
        # the message names the JSON path, list index included
        (lambda d: d["network"]["hosts"][3].update(cpus=2.5), r"network\.hosts\[3\]"),
        # no number at all: a run needs at least one SFCR template
        (lambda d: d.update(sfcrs={"sfcrs": []}), r"^error: config: sfcrs: the template list is empty$"),
    ],
)
def test_unusable_numbers_are_one_line_config_errors(scenario_dir, tmp_path, capsys, command, edit, needle):
    config = _edited_exp1(scenario_dir, tmp_path, edit)
    extra = ["--output-dir", str(tmp_path / "out")] if command == "run" else []
    assert run_cli(command, "--config", config, *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert re.search(needle, err)
    assert not (tmp_path / "out").exists()


def test_nonfinite_rate_in_sfcr_templates_is_config_error(scenario_dir, tmp_path, capsys):
    sfcrs = json.loads((scenario_dir / "sfcrs.json").read_text())
    sfcrs["sfcrs"][0]["traffic"] = [{"start_s": 0, "end_s": 1, "rps": float("inf")}]
    config = _edited_exp1(scenario_dir, tmp_path, lambda d: d.update(sfcrs=sfcrs))
    assert run_cli("validate", "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: sfcrs: ") and "rps must be a finite number" in err


@pytest.mark.parametrize("width,code,stage", [
    ("nan", 1, "cli"),
    ("inf", 1, "cli"),
    ("-1", 1, "cli"),
    ("0", 1, "cli"),
    ("wide", 1, "cli"),
    # finite and positive, but 3.5 ms / 1e-320 ms overflows to infinity
    ("1e-320", 2, "run"),
])
def test_unusable_bin_width_is_one_line_error(tmp_path, capsys, width, code, stage):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_small_report()))
    assert run_cli("report", "--report", str(report), "--bin-width", width,
                   "--output-dir", str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_templates_sharing_an_id_are_one_line_config_error(scenario_dir, tmp_path, capsys, command):
    data = json.loads((scenario_dir / "ga_small.json").read_text())
    assert [t["id"] for t in data["sfcrs"]["sfcrs"]] == ["edge-web", "edge-cache", "edge-inspect"]
    data["sfcrs"]["sfcrs"][1]["id"] = "edge-web"
    (tmp_path / "catalog.json").write_text((scenario_dir / "catalog.json").read_text())
    config = tmp_path / "shared.json"
    config.write_text(json.dumps(data))
    extra = ["--output-dir", str(tmp_path / "out")] if command == "run" else []
    assert run_cli(command, "--config", str(config), *extra) == 1
    err = capsys.readouterr().err
    assert err == "error: config: sfcrs: sfcrs[1]: id 'edge-web' is already used by sfcrs[0]\n"
    assert not (tmp_path / "out").exists()


def _shipped(name: str) -> dict:
    return json.loads(resources.files("rasesim").joinpath(f"data/{name}").read_text("utf-8"))


LATENCY_OVERFLOW = r"error: engine: the mean of \d+ latency samples is beyond the float range: [^\n]*\n"
LINK_OVERFLOW = r"error: engine: the use of link '[^']+' at 0\.0 s is beyond the float range: inf Mbps\n"
SOLVERS = pytest.mark.parametrize("solver", [{"kind": "simple-dijkstra"},
                                             {"kind": "ga", "ga": {"population": 4, "generations": 2}}],
                                  ids=["greedy", "ga"])


def _overflow_config(tmp_path, solver, link_mbps, request_mbps, request_bits, duration_s) -> Path:
    """The shipped templates on a 4-host ladder, with every link and request at the given sizes."""
    network = to_json(ladder_spec(4))
    for link in network["links"]:
        link["bandwidth_mbps"] = link_mbps
    sfcrs = _shipped("default_sfcrs.json")
    for template in sfcrs["sfcrs"]:
        template.update(bandwidth_mbps=request_mbps, request_size_bits=request_bits)
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps({"network": network, "catalog": _shipped("default_catalog.json"), "sfcrs": sfcrs,
                                  "solver": solver, "engine": {"duration_s": duration_s, "sample_interval_s": 1},
                                  "seed": 1}))
    return config


@SOLVERS
@pytest.mark.parametrize("link_mbps,request_mbps,request_bits,greedy_error", [
    (1e-290, 1e-300, 1e308, LINK_OVERFLOW),
    (0.04, 1e-3, 1e308, LINK_OVERFLOW),
    (1e-290, 1e-300, 1e300, LATENCY_OVERFLOW),
], ids=["infinite-latency", "latency-sum-overflows", "infinite-latency-finite-link-use"])
def test_latency_past_the_float_range_is_one_line_engine_error(tmp_path, capsys, solver, link_mbps, request_mbps,
                                                                request_bits, greedy_error):
    """Huge requests on a 4-host ladder for 2 ticks: over 1e-290 Mbps links a round trip is infinite;
    over 0.04 Mbps links each is finite, but their sum is not. The GA's evaluations meet the latency
    first. A greedy run meets the link use first, which at 3 or more 1e308-bit requests per second is
    infinite too, and the latency only where the link use stays finite, as with 1e300-bit requests."""
    config = _overflow_config(tmp_path, solver, link_mbps, request_mbps, request_bits, duration_s=2)
    assert run_cli("run", "--config", str(config), "--output-dir", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(LATENCY_OVERFLOW if solver["kind"] == "ga" else greedy_error, captured.err)
    assert not (tmp_path / "out").exists()


@SOLVERS
def test_link_use_past_the_float_range_is_one_line_engine_error(tmp_path, capsys, solver):
    """1e308-bit requests over 1e300 Mbps links for 10 ticks: every latency is finite, but a link
    carrying 3 or more requests per second is used at 2 * 3e308 / 1e6 Mbps, which is infinite."""
    config = _overflow_config(tmp_path, solver, 1e300, 1.0, 1e308, duration_s=10)
    assert run_cli("run", "--config", str(config), "--output-dir", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(LINK_OVERFLOW, captured.err)
    assert not (tmp_path / "out").exists()


@SOLVERS
def test_an_infinite_link_use_bound_on_rejected_requests_is_a_successful_run(tmp_path, capsys, solver):
    """1e308-bit requests at 5000 Mbps: the config's bound on link use (rate times bits) is infinite,
    but no 1000 Mbps link carries 5000 Mbps, so every request is rejected and no link is used. Only a
    finite bound proves anything; an infinite one must not end the run early."""
    config = _overflow_config(tmp_path, solver, 1000, 5000, 1e308, duration_s=10)
    assert run_cli("run", "--config", str(config), "--output-dir", str(tmp_path / "out")) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "acceptance_ratio=0.0\n" in captured.out
    rows = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",false,NoPath(segment=0)") for row in rows)
    assert json.loads((tmp_path / "out" / "report.json").read_text())["acceptance_ratio"] == 0.0
