import json
from collections import Counter

import pytest

import rasesim.engine
import rasesim.experiment
import rasesim.solver
from rasesim.catalog import Catalog, SFCRequest, TrafficSegment, VNFDescriptor, from_json, json_fields, to_json
from rasesim.engine import EngineConfig
from rasesim.errors import ConfigError
from rasesim.experiment import (
    OutputSettings,
    SolverSettings,
    generate_requests,
    load_config,
    outcomes_csv,
    read_report,
    report_files,
    report_from_dict,
    run_experiment,
    run_solver,
    write_report,
)
from rasesim.solver import GAParams, _demand_table, _unit_table, acceptance_ratio, decode_chromosome, verify_scheme
from rasesim.topology import HostSpec, LinkSpec, NetworkSpec, SubstrateNetwork, build_network

from oracles import charge_through_public_api


def load_scenario(scenario_dir, name, **overrides):
    return load_config(scenario_dir / name, **overrides)


def rewrite_config(scenario_dir, tmp_path, name, mutate):
    """Copy a scenario config next to its catalog/sfcrs and apply an edit."""
    data = json.loads((scenario_dir / name).read_text())
    mutate(data)
    target = tmp_path / name
    target.write_text(json.dumps(data))
    for companion in ("catalog.json", "sfcrs.json"):
        (tmp_path / companion).write_text((scenario_dir / companion).read_text())
    return target


def test_experiment_1_analog_accepts_everything(scenario_dir):
    report = run_experiment(load_scenario(scenario_dir, "exp1.json"))
    assert report.acceptance_ratio == 1.0
    assert len(report.outcomes) == 4
    assert len(report.frames) == 60
    assert report.trace is None
    assert report.solve_seconds is not None


def test_missing_catalog_file_is_config_error(scenario_dir, tmp_path):
    target = rewrite_config(scenario_dir, tmp_path, "exp1.json",
                            lambda d: d.update(catalog="missing.json"))
    with pytest.raises(ConfigError, match="missing.json"):
        load_config(target)
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("section", ["catalog", "sfcrs"])
def test_a_referenced_directory_is_not_a_file(scenario_dir, tmp_path, section):
    (tmp_path / "sub").mkdir()
    for value, problem in (("sub", "is not a file"), ("missing.json", "does not exist")):
        target = rewrite_config(scenario_dir, tmp_path, "exp1.json", lambda d: d.update({section: value}))
        with pytest.raises(ConfigError) as error:
            load_config(target)
        assert str(error.value) == f"{section}: referenced file {tmp_path / value} {problem}"


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d["solver"].update(kind="annealing"), "solver.kind"),
        (lambda d: d["engine"].update(mystery=2), "mystery"),
        (lambda d: d["output"].update(formats=["yaml"]), "yaml"),
        (lambda d: d.update(duplicates=-1), "duplicates"),
        (lambda d: d.update(seed="abc"), "seed"),
        (lambda d: d["network"]["hosts"].__setitem__(0, {**d["network"]["hosts"][0], "id": "h02"}), "h02"),
        (lambda d: d["solver"].update(ga={"population": 1}), "population"),
        # a run derives the engine's seed, so the section may not set it
        (lambda d: d["engine"].update(seed=3), r"engine: unknown key\(s\): seed"),
    ],
)
def test_config_validation_catches_typos_and_bad_values(scenario_dir, tmp_path, mutate, needle):
    target = rewrite_config(scenario_dir, tmp_path, "exp1.json", mutate)
    with pytest.raises(ConfigError, match=needle):
        load_config(target)


def test_config_rejects_unknown_vnf_in_chain(scenario_dir, tmp_path):
    def mutate(data):
        data["sfcrs"] = {"sfcrs": [{
            "id": "ghost", "chain": ["phantom"], "bandwidth_mbps": 1,
            "request_size_bits": 100, "traffic": [{"start_s": 0, "end_s": 1, "rps": 1}],
        }]}
    target = rewrite_config(scenario_dir, tmp_path, "exp1.json", mutate)
    with pytest.raises(ConfigError, match="phantom"):
        load_config(target)


def test_invalid_json_is_config_error(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{how about no")
    with pytest.raises(ConfigError):
        load_config(broken)


def _expecting(needle, mutate):
    """mutate, carrying a pattern its config error must match."""
    mutate.needle = needle
    return mutate


_SEGMENT = {"start_s": 0, "end_s": 1, "rps": 1}


def _template(**changes):
    return {"id": "a", "chain": ["nat"], "bandwidth_mbps": 1, "request_size_bits": 1, "traffic": [_SEGMENT],
            **changes}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["network"].update(hosts=5),
        lambda d: d["network"].update(hosts=[{"id": 7, "cpus": 2, "memory_mb": 64}]),
        lambda d: d["network"].update(switches=[3]),
        lambda d: d["network"]["hosts"].__setitem__(0, {**d["network"]["hosts"][0], "cpus": "many"}),
        lambda d: d["network"]["links"].__setitem__(0, {**d["network"]["links"][0], "bandwidth_mbps": {}}),
        lambda d: d["solver"].update(ga={"population": "big"}),
        lambda d: d["engine"].update(idle_spike_range={"low": 0}),
        lambda d: d["output"].update(formats="json"),
        lambda d: d["output"].update(directory=7),
        lambda d: d.update(sfcrs={"sfcrs": [{"id": 1, "chain": ["firewall"], "bandwidth_mbps": 1,
                                             "request_size_bits": 1,
                                             "traffic": [{"start_s": 0, "end_s": 1, "rps": 1}]}]}),
        # a list of the wrong length, a string for a list and an object for a list
        _expecting(r"engine\.idle_spike_range must be a list of 2 items, got \[0\.05, 0\.1, 0\.9\]",
                   lambda d: d["engine"].update(idle_spike_range=[0.05, 0.1, 0.9])),
        _expecting(r"sfcrs\[0\]\.chain must be a list, got 'nat'",
                   lambda d: d.update(sfcrs={"sfcrs": [_template(chain="nat")]})),
        _expecting(r"sfcrs\[1\]\.traffic must be a list, got \{",
                   lambda d: d.update(sfcrs={"sfcrs": [_template(), _template(id="b", traffic=_SEGMENT)]})),
    ],
)
def test_pathological_shapes_become_config_errors(scenario_dir, tmp_path, mutate):
    target = rewrite_config(scenario_dir, tmp_path, "exp1.json", mutate)
    with pytest.raises(ConfigError, match=getattr(mutate, "needle", None)):
        load_config(target)


def test_seed_override_changes_digest(scenario_dir):
    base = load_scenario(scenario_dir, "exp1.json")
    overridden = load_scenario(scenario_dir, "exp1.json", seed_override=9999)
    assert overridden.seed == 9999
    assert base.digest != overridden.digest


def test_digest_ignores_output_section(scenario_dir, tmp_path):
    base = load_scenario(scenario_dir, "exp1.json")
    target = rewrite_config(scenario_dir, tmp_path, "exp1.json",
                            lambda d: d["output"].update(directory="elsewhere"))
    assert load_config(target).digest == base.digest


def test_ga_run_produces_trace_with_generations_plus_one(scenario_dir):
    cfg = load_scenario(scenario_dir, "ga_small.json")
    report = run_experiment(cfg)
    assert report.trace is not None
    assert len(report.trace) == cfg.solver.ga.generations + 1
    assert report.acceptance_ratio == 1.0


def test_report_acceptance_ratio_consistent_with_outcomes(scenario_dir):
    report = run_experiment(load_scenario(scenario_dir, "exp4.json"))
    recomputed = acceptance_ratio([o.accepted for o in report.outcomes])
    assert report.acceptance_ratio == recomputed == 0.75


def test_run_experiment_verifies_the_scheme_once(scenario_dir, monkeypatch):
    """simulate verifies; run_experiment must not verify the same scheme again."""
    calls = []
    original = rasesim.engine.verify_scheme

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rasesim.engine, "verify_scheme", counting)
    # a second call through a name bound in the experiment module counts too
    monkeypatch.setattr(rasesim.experiment, "verify_scheme", counting, raising=False)
    report = run_experiment(load_scenario(scenario_dir, "exp4.json"))
    assert report.acceptance_ratio == 0.75
    assert len(calls) == 1


def _record_evaluations(monkeypatch) -> list:
    """The list that every chromosome the run's GA evaluator is asked about is appended to."""
    evaluated = []
    build = rasesim.experiment.build_ga_evaluator

    def recording_build(*args):
        evaluate = build(*args)

        def recording(chromosome, eval_seed):
            evaluated.append(chromosome)
            return evaluate(chromosome, eval_seed)
        return recording

    monkeypatch.setattr(rasesim.experiment, "build_ga_evaluator", recording_build)
    return evaluated


def test_ga_run_decodes_each_distinct_chromosome_once_and_verifies_once(scenario_dir, monkeypatch):
    """The evaluator copies the network once to convert the demands on, then decodes and copies a
    chromosome at its first evaluation only and verifies nothing; the final scheme is decoded once
    more and verified once, by the one simulate, on the one network the run builds."""
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in [(rasesim.solver, "decode_chromosome"), (rasesim.experiment, "decode_chromosome"),
                         (rasesim.engine, "verify_scheme"), (rasesim.experiment, "simulate"),
                         (rasesim.experiment, "build_network")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # a verify through a name bound in the experiment module counts too
    monkeypatch.setattr(rasesim.experiment, "verify_scheme", counting("verify_scheme", rasesim.solver.verify_scheme),
                        raising=False)
    monkeypatch.setattr(SubstrateNetwork, "copy", counting("copy", SubstrateNetwork.copy))
    evaluated = _record_evaluations(monkeypatch)
    report = run_experiment(load_scenario(scenario_dir, "ga_small.json"))
    assert report.acceptance_ratio == 1.0
    distinct = len(set(evaluated))
    assert len(evaluated) > distinct  # some chromosomes were evaluated again
    assert counts == {"decode_chromosome": distinct + 1, "copy": distinct + 1, "verify_scheme": 1,
                      "simulate": 1, "build_network": 1}


def _tight_hosts(data):
    for host in data["network"]["hosts"]:
        host["cpus"] = 1


@pytest.mark.parametrize("edit", [lambda data: None, _tight_hosts], ids=["ga_small", "one-cpu-hosts"])
def test_every_distinct_chromosome_of_a_ga_solve_decodes_to_a_verified_scheme(scenario_dir, tmp_path,
                                                                               monkeypatch, edit):
    """The evaluator does not verify its decodes; this checks each one that a seeded solve meets,
    decoded on a fresh network and, as the evaluator does, on a copy of one the units were converted
    on. Each leaves the residuals that the public allocate_* calls leave for its accepted placements.
    On one-CPU hosts many chromosomes overload a host, so rejections and their rollbacks are checked."""
    cfg = load_config(rewrite_config(scenario_dir, tmp_path, "ga_small.json", edit))
    evaluated = _record_evaluations(monkeypatch)
    sfcrs = generate_requests(cfg)
    run_solver(cfg, build_network(cfg.network), sfcrs)
    distinct = sorted(set(evaluated))
    assert len(distinct) > 20
    template = build_network(cfg.network)
    table = _unit_table(template, _demand_table(sfcrs, cfg.catalog))
    rejected = 0
    for chromosome in distinct:
        for net, demands in ((build_network(cfg.network), None), (template.copy(), table)):
            scheme = decode_chromosome(net, sfcrs, cfg.catalog, chromosome, demands=demands)
            verify_scheme(cfg.network, sfcrs, cfg.catalog, scheme)
            charged = charge_through_public_api(build_network(cfg.network), sfcrs, cfg.catalog, scheme)
            assert net.residual_snapshot() == charged.residual_snapshot()
        rejected += len(scheme.rejected())
    assert (rejected > 0) == (edit is _tight_hosts)


def test_two_runs_produce_equal_reports(scenario_dir):
    cfg = load_scenario(scenario_dir, "exp2.json")
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first == second  # solve_seconds is excluded from comparison


def test_write_report_json_only_single_file(scenario_dir, tmp_path):
    report = run_experiment(load_scenario(scenario_dir, "exp1.json"))
    paths = write_report(report, tmp_path / "out", formats=("json",))
    assert [p.name for p in paths] == ["report.json"]


def test_write_report_csv_row_counts(scenario_dir, tmp_path):
    report = run_experiment(load_scenario(scenario_dir, "exp1.json"))
    write_report(report, tmp_path, formats=("csv", "json"))
    latency_rows = (tmp_path / "latency.csv").read_text().strip().splitlines()
    accepted = sum(o.accepted for o in report.outcomes)
    assert len(latency_rows) - 1 == len(report.frames) * accepted
    cpu_rows = (tmp_path / "cpu.csv").read_text().strip().splitlines()
    assert len(cpu_rows) - 1 == len(report.frames) * len(report.frames[0].host_cpu)
    outcome_rows = (tmp_path / "outcomes.csv").read_text().strip().splitlines()
    assert len(outcome_rows) - 1 == len(report.outcomes)
    assert not (tmp_path / "trace.csv").exists()


def test_rewrite_is_byte_identical(scenario_dir, tmp_path):
    report = run_experiment(load_scenario(scenario_dir, "exp1.json"))
    first = write_report(report, tmp_path, formats=("json", "csv"))
    before = {p.name: p.read_bytes() for p in first}
    second = write_report(report, tmp_path, formats=("json", "csv"))
    after = {p.name: p.read_bytes() for p in second}
    assert before == after


def test_report_round_trips_through_json(scenario_dir, tmp_path):
    report = run_experiment(load_scenario(scenario_dir, "ga_small.json"))
    write_report(report, tmp_path, formats=("json",))
    loaded = read_report(tmp_path / "report.json")
    assert loaded == report
    assert loaded.solve_seconds is None
    assert report_from_dict(to_json(report)) == report
    # the simulated frames' latency maps encode as JSON objects and read back as the FrameMaps simulate builds
    document = json.loads(json.dumps(to_json(report)))
    assert report_from_dict(document) == report and report == report_from_dict(document)
    simulated, read = report.frames[0].sfc_latency_ms, loaded.frames[0].sfc_latency_ms
    assert type(read) is type(simulated) and type(to_json(simulated)) is dict
    assert read == simulated and simulated == read


def test_reloaded_report_rewrites_byte_identically(scenario_dir, tmp_path):
    report = run_experiment(load_scenario(scenario_dir, "ga_small.json"))
    first_dir, second_dir = tmp_path / "first", tmp_path / "second"
    write_report(report, first_dir, formats=("json", "csv"))
    write_report(read_report(first_dir / "report.json"), second_dir, formats=("json", "csv"))
    for path in first_dir.iterdir():
        assert (second_dir / path.name).read_bytes() == path.read_bytes()


def test_ga_trace_aggregates_match_fitness_lists(scenario_dir):
    report = run_experiment(load_scenario(scenario_dir, "ga_small.json"))
    for entry in report.trace:
        ratios = [f.acceptance_ratio for f in entry.fitnesses]
        assert entry.mean_acceptance == pytest.approx(sum(ratios) / len(ratios))
        assert entry.min_acceptance == min(ratios)
        assert entry.max_acceptance == max(ratios)
        latencies = [f.mean_latency_ms for f in entry.fitnesses if f.mean_latency_ms is not None]
        assert entry.min_latency_ms == min(latencies)
        assert entry.max_latency_ms == max(latencies)
        best = max(entry.fitnesses, key=lambda f: f.sort_key())
        assert entry.best_fitness.sort_key() == best.sort_key()


def test_trace_csv_shape(scenario_dir, tmp_path):
    cfg = load_scenario(scenario_dir, "ga_small.json")
    report = run_experiment(cfg)
    write_report(report, tmp_path, formats=("csv",))
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["generation", "mean_ar", "min_ar", "max_ar",
                      "mean_latency_ms", "min_latency_ms", "max_latency_ms"]
    assert len(rows) - 1 == cfg.solver.ga.generations + 1
    for row in rows[1:]:
        fields = row.split(",")
        mean_ar, min_ar, max_ar = float(fields[1]), float(fields[2]), float(fields[3])
        assert min_ar <= mean_ar <= max_ar


def test_csv_helpers_have_stable_headers(scenario_dir):
    report = run_experiment(load_scenario(scenario_dir, "exp1.json"))
    files = report_files(report, ("csv",))
    assert outcomes_csv(report).splitlines()[0] == "sfcr_id,accepted,reason"
    assert "".join(files["latency.csv"]).splitlines()[0] == "timestamp_s,sfc_id,latency_ms"
    assert "".join(files["cpu.csv"]).splitlines()[0] == "timestamp_s,host_id,utilization"


def test_duplicates_zero_yields_empty_run(scenario_dir, tmp_path):
    target = rewrite_config(scenario_dir, tmp_path, "exp1.json", lambda d: d.update(duplicates=0))
    report = run_experiment(load_config(target))
    assert report.outcomes == ()
    assert report.acceptance_ratio is None
    assert report.mean_latency_ms is None


def test_scenario_catalog_matches_packaged_default(scenario_dir, catalog):
    from rasesim.catalog import default_sfcr_templates, load_catalog, parse_sfcr_templates

    shipped = load_catalog((scenario_dir / "catalog.json").read_text())
    assert tuple(shipped) == tuple(catalog)
    shipped_templates = parse_sfcr_templates((scenario_dir / "sfcrs.json").read_text())
    assert shipped_templates == default_sfcr_templates()


def test_config_dataclasses_round_trip_through_from_json(scenario_dir):
    configs = [p for p in sorted(scenario_dir.glob("*.json")) if p.name not in ("catalog.json", "sfcrs.json")]
    assert len(configs) == 9
    for path in configs:
        cfg = load_config(path)
        sections = [(NetworkSpec, cfg.network), (Catalog, cfg.catalog), (SolverSettings, cfg.solver),
                    (EngineConfig, cfg.engine), (OutputSettings, cfg.output)]
        for kind, value in sections:
            written = to_json(value)
            read = from_json(kind, json.loads(json.dumps(written)), kind.__name__)
            assert read == value
            assert json.dumps(to_json(read)) == json.dumps(written)  # an int stays an int
        requests = generate_requests(cfg)
        assert requests or cfg.duplicates == 0
        for template in (*cfg.templates, *requests):
            written = to_json(template)
            read = from_json(SFCRequest, json.loads(json.dumps(written)), "template")
            assert read == template and to_json(read) == written


README_SECTIONS = {
    "network": (NetworkSpec, HostSpec, LinkSpec),
    "catalog": (VNFDescriptor,),
    "sfcrs": (SFCRequest, TrafficSegment),
    "solver": (SolverSettings, GAParams),
    "engine": (EngineConfig,),
    "output": (OutputSettings,),
}


def test_readme_configuration_names_every_key_the_reader_accepts(scenario_dir):
    readme = (scenario_dir.parent / "README.md").read_text("utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    for name, kinds in README_SECTIONS.items():
        keys = [name] + [key for kind in kinds for key in json_fields(kind)]
        missing = [key for key in keys if f"`{key}`" not in section]
        assert not missing, f"README Configuration does not name {name} key(s) {missing}"
