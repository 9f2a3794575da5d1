"""Tests for the experiment registry, report formats, and the CLI."""

import json
from dataclasses import replace

import numpy as np
import pytest

from chslab.cli import load_config, main
from chslab.errors import ConfigInvalid
from chslab.registry import (
    Caps,
    ExperimentConfig,
    REGISTRY,
    SUITES,
    derive_seed,
    report_to_csv_rows,
    report_to_json,
    run,
    run_suite,
    suite_experiments,
)

REPORT_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["experiment", "params", "seed", "checks", "toolchain",
                     "passed"],
        "properties": {
            "experiment": {"type": "string"},
            "seed": {"type": "integer"},
            "passed": {"type": "boolean"},
            "toolchain": {"type": "object"},
            "checks": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["name", "value", "reference", "mode",
                                 "passed", "runtime_ms"],
                    "properties": {
                        "mode": {"enum": ["exact", "sampled"]},
                        "passed": {"type": "boolean"},
                    },
                },
            },
        },
    },
}


class TestRegistry:
    def test_every_experiment_belongs_to_a_suite(self):
        for name, entry in REGISTRY.items():
            assert entry.suites, name
            assert all(s in SUITES for s in entry.suites)
            assert entry.encodes

    def test_suite_membership(self):
        assert suite_experiments("all") == list(REGISTRY)
        for suite in ("lemmas", "bounds", "montecarlo"):
            names = suite_experiments(suite)
            assert names
            assert all(suite in REGISTRY[n].suites for n in names)

    def test_unknown_suite(self):
        with pytest.raises(ConfigInvalid):
            suite_experiments("nope")

    def test_run_unknown_experiment(self):
        with pytest.raises(ConfigInvalid):
            run(ExperimentConfig("missing"))

    def test_run_unknown_parameter(self):
        with pytest.raises(ConfigInvalid):
            run(ExperimentConfig("kneser", {"vv": 5}))

    def test_kneser_experiment_passes(self):
        report = run(ExperimentConfig("kneser", {"v": 5, "k": 2}, seed=1))
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["one-norm-vs-formula"].value == pytest.approx(16.0)
        assert by_name["one-norm-vs-formula"].reference == pytest.approx(16.0)

    def test_tolerance_override_can_fail_a_check(self):
        report = run(ExperimentConfig("kneser", {"v": 5, "k": 2},
                                      tolerances={"kneser": -1.0}))
        assert not report.passed

    def test_prs_hybrid_records_bound_and_contracts(self):
        report = run(ExperimentConfig("prs-hybrid",
                                      {"lam": 2, "n": 2, "ell": 1, "t": 1}))
        assert report.passed
        names = [c.name for c in report.checks]
        assert "trace-distance" in names
        assert "keyed-trace" in names

    def test_commit_hiding_honours_enum_cap(self):
        report = run(ExperimentConfig("commit-hiding", caps=Caps(enum=1)))
        assert [c.name for c in report.checks] == ["error-EnumerationTooLarge"]
        assert not report.passed

    def test_ppt_chain_past_the_dimension_cap_is_an_error_row(self):
        # C(12,3)^2 = 48400 basis pairs pass the enumeration cap; the
        # 23760-row block does not pass the dimension cap
        report = run(ExperimentConfig("ppt-chain", params={"d": 12, "t": 3}))
        assert [c.name for c in report.checks] == ["error-DimensionOverflow"]
        assert not report.passed

    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError, MemoryError])
    def test_numeric_failure_becomes_error_row(self, monkeypatch, exc):
        def fail(params, seed, caps, rec):
            raise exc("no convergence")

        monkeypatch.setitem(REGISTRY, "kneser", replace(REGISTRY["kneser"], fn=fail))
        report = run(ExperimentConfig("kneser"))
        assert [c.name for c in report.checks] == [f"error-{exc.__name__}"]
        assert not report.passed

    def test_deterministic_reports(self):
        a = run(ExperimentConfig("good-type-prob", {"trials": 20000}, seed=7))
        b = run(ExperimentConfig("good-type-prob", {"trials": 20000}, seed=7))
        for ca, cb in zip(a.checks, b.checks):
            assert repr(ca.value) == repr(cb.value)
            assert ca.passed == cb.passed

    def test_seed_changes_sampled_values(self):
        a = run(ExperimentConfig("good-type-prob", {"trials": 20000}, seed=7))
        b = run(ExperimentConfig("good-type-prob", {"trials": 20000}, seed=8))
        va = [c.value for c in a.checks if c.name == "mc-estimate"]
        vb = [c.value for c in b.checks if c.name == "mc-estimate"]
        assert va != vb

    def test_derive_seed_stable(self):
        assert derive_seed(0, 3) == derive_seed(0, 3)
        assert derive_seed(0, 3) != derive_seed(0, 4)
        assert derive_seed(0, 3) != derive_seed(1, 3)


class TestSuiteRun:
    def test_lemmas_suite_green(self):
        reports = run_suite("lemmas", seed=5)
        assert all(r.passed for r in reports)


class TestReportFormats:
    def test_json_schema_valid(self):
        jsonschema = pytest.importorskip("jsonschema")
        reports = run_suite("lemmas", seed=2)
        payload = json.loads(report_to_json(reports))
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_csv_rows(self):
        report = run(ExperimentConfig("kneser", {"v": 5, "k": 2}))
        rows = report_to_csv_rows(report)
        assert rows[0][0] == "experiment"
        assert len(rows) == 1 + len(report.checks)


class TestCli:
    def write_config(self, tmp_path, body):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(body)
        return str(cfg)

    def test_run_config(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, """
[experiment]
name = kneser
seed = 11

[params]
v = 5
k = 2

[output]
path = {out}
format = json
""".format(out=tmp_path / "kneser.json"))
        code = main(["run", cfg])
        assert code == 0
        payload = json.loads((tmp_path / "kneser.json").read_text())
        assert payload[0]["experiment"] == "kneser"
        assert payload[0]["passed"] is True
        out = capsys.readouterr().out
        assert "one-norm-vs-formula" in out and "pass" in out

    def test_run_with_list_params(self, tmp_path):
        cfg = self.write_config(tmp_path, """
[experiment]
name = prs-decay

[params]
lams = 2,3
""")
        assert main(["--out", str(tmp_path / "d.json"), "run", cfg]) == 0

    @pytest.mark.parametrize("name,body,params", [
        # one value for a tuple default is a one-item tuple, at both levels
        ("prs-decay", "lams = 3", {"lams": (3,)}),
        ("prfs-hybrid", "queries = 1\nells = 1", {"queries": ((1,),), "ells": (1,)}),
        # ';' separates the inner tuples of a tuple-of-tuples default
        ("prfs-hybrid", "queries = 0; 1", {}),
        ("prfs-type", "queries = 0 ; 1 ;\nells = 1, 1", {}),
    ])
    def test_list_params_match_direct_run(self, tmp_path, name, body, params):
        cfg = self.write_config(
            tmp_path, f"[experiment]\nname = {name}\nseed = 3\n\n[params]\n{body}\n")
        out = tmp_path / "l.json"
        assert main(["--out", str(out), "run", cfg]) == 0
        direct = json.loads(report_to_json(run(ExperimentConfig(name, params, seed=3))))

        def strip(reports):
            # runtime_ms is wall-clock metadata, the only field that may differ
            return [r | {"checks": [{k: v for k, v in c.items() if k != "runtime_ms"}
                                    for c in r["checks"]]} for r in reports]

        assert strip(json.loads(out.read_text())) == strip(direct)

    def test_one_item_list_matches_defaults_row(self, tmp_path):
        cfg = self.write_config(
            tmp_path, "[experiment]\nname = prs-decay\n\n[params]\nlams = 3\n")
        out = tmp_path / "one.json"
        assert main(["--out", str(out), "run", cfg]) == 0
        one = json.loads(out.read_text())[0]
        assert one["params"]["lams"] == [3]
        default = run(ExperimentConfig("prs-decay"))
        want = next(c.value for c in default.checks if c.name == "trace-distance-lam3")
        assert [c["value"] for c in one["checks"]
                if c["name"] == "trace-distance-lam3"] == [want]

    @pytest.mark.parametrize("name,line", [
        ("prs-hybrid", "lam = abc"), ("prs-hybrid", "ell = 1.5"), ("kneser", "v = 5,6"),
        ("prs-decay", "lams = true"), ("prfs-hybrid", "queries = 0,1"),
        ("prs-decay", "lams = 2, x"), ("prs-decay", "lams = ,"),
        ("prfs-hybrid", "queries = 0; x"), ("prfs-hybrid", "queries = ;"),
        ("prfs-hybrid", "queries = 0; 1.5"),
    ])
    def test_param_of_wrong_kind_exits_two(self, tmp_path, name, line):
        cfg = self.write_config(
            tmp_path, f"[experiment]\nname = {name}\n\n[params]\n{line}\n")
        out = tmp_path / "w.json"
        assert main(["--out", str(out), "run", cfg]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_hidden_jobs_flag_is_ignored(self, tmp_path, jobs):
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert main(["--seed", "5", "--out", str(plain), "suite", "lemmas"]) == 0
        assert main(["--seed", "5", "--jobs", jobs, "--out", str(flagged),
                     "suite", "lemmas"]) == 0

        def rows(path):
            # runtime_ms is wall-clock metadata, the only field that may differ
            return [[{k: v for k, v in c.items() if k != "runtime_ms"} for c in r["checks"]]
                    for r in json.loads(path.read_text())]

        assert rows(plain) == rows(flagged)

    def test_seed_override_and_csv(self, tmp_path):
        cfg = self.write_config(tmp_path, """
[experiment]
name = kneser
""")
        out = tmp_path / "k.csv"
        assert main(["--seed", "3", "--format", "csv", "--out", str(out),
                     "run", cfg]) == 0
        assert out.read_text().startswith("experiment,seed,check")

    def test_failing_check_exits_one(self, tmp_path):
        cfg = self.write_config(tmp_path, """
[experiment]
name = kneser

[tolerances]
kneser = -1
""")
        assert main(["--out", str(tmp_path / "f.json"), "run", cfg]) == 1

    def test_unknown_experiment_exits_two(self, tmp_path):
        cfg = self.write_config(tmp_path, """
[experiment]
name = not-an-experiment
""")
        assert main(["--out", str(tmp_path / "x.json"), "run", cfg]) == 2

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini")]) == 2

    def test_suite_and_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHSLAB_OUTDIR", str(tmp_path / "reports"))
        assert main(["--seed", "4", "suite", "lemmas"]) == 0
        written = list((tmp_path / "reports").glob("suite-lemmas-4.json"))
        assert len(written) == 1

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kneser" in out and "rank-attack" in out

    @pytest.mark.parametrize("flags", [
        ["--cap-dim", "0"], ["--cap-enum", "0"], ["--cap-dim", "-1"],
        ["--cap-enum", "-5"],
    ])
    def test_cap_below_one_exits_two(self, tmp_path, flags):
        cfg = self.write_config(tmp_path, "[experiment]\nname = kneser\n")
        out = tmp_path / "c.json"
        assert main(flags + ["--out", str(out), "run", cfg]) == 2
        assert main(flags + ["--out", str(out), "suite", "lemmas"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key", ["dim", "enum"])
    def test_config_cap_below_one_exits_two(self, tmp_path, key):
        cfg = self.write_config(
            tmp_path, f"[experiment]\nname = kneser\n\n[caps]\n{key} = 0\n")
        assert main(["--out", str(tmp_path / "c.json"), "run", cfg]) == 2

    @pytest.mark.parametrize("section,line", [
        ("caps", "dim = 1e4"), ("caps", "enum = many"), ("tolerances", "kneser = tight"),
    ])
    def test_config_non_number_exits_two(self, tmp_path, section, line):
        cfg = self.write_config(
            tmp_path, f"[experiment]\nname = kneser\n\n[{section}]\n{line}\n")
        assert main(["--out", str(tmp_path / "c.json"), "run", cfg]) == 2

    def test_cap_flag_overrides_config(self, tmp_path):
        # prs-hybrid at its defaults needs a 16-dimensional operator
        cfg = self.write_config(
            tmp_path, "[experiment]\nname = prs-hybrid\n\n[caps]\ndim = 4\n")
        out = tmp_path / "p.json"
        assert main(["--out", str(out), "run", cfg]) == 1
        names = [c["name"] for c in json.loads(out.read_text())[0]["checks"]]
        assert names == ["error-DimensionOverflow"]
        assert main(["--cap-dim", "16", "--out", str(out), "run", cfg]) == 0
        assert main(["--cap-dim", "15", "--out", str(out), "run", cfg]) == 1

    def test_load_config_validation(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[params]\nv = 5\n")
        with pytest.raises(ConfigInvalid):
            load_config(str(bad))
