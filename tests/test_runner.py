"""Tests for the experiment registry, report formats, and the CLI."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chslab import commitment as cm
from chslab import exact
from chslab import locc as lc
from chslab import registry
from chslab import typespace as ts
from chslab.cli import load_config, main
from chslab.errors import ConfigInvalid
from chslab.linalg import Operator, RegisterShape
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

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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
            "toolchain": {
                "type": "object",
                "required": ["python", "numpy", "chslab", "blas", "threads"],
                "properties": {
                    "blas": {
                        "type": "object",
                        "required": ["name", "version", "openblas configuration"],
                        "properties": {key: {"type": ["string", "null"]} for key in (
                            "name", "version", "openblas configuration")},
                    },
                    "threads": {
                        "type": "object",
                        "required": list(THREAD_VARS),
                        "properties": {var: {"type": ["string", "null"]}
                                       for var in THREAD_VARS},
                        "additionalProperties": False,
                    },
                },
            },
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

    def test_every_default_leaf_is_an_integer(self):
        # the CLI parses every [params] leaf with int(), and run() refuses
        # anything that is not an integer or a nonempty list of them
        def leaves(value):
            if isinstance(value, tuple):
                assert value
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        for name, entry in REGISTRY.items():
            for value in entry.defaults.values():
                assert all(type(leaf) is int for leaf in leaves(value)), name

    @pytest.mark.parametrize("name,params", [
        ("good-type-prob", {"trials": 0}), ("good-type-prob", {"trials": -1}),
        ("commit-complete", {"haar_seeds": 0}), ("commit-fidelity", {"haar_seeds": 0}),
        ("haar-moment-mc", {"samples": 0}), ("haar-overlap-mc", {"samples": 0}),
        # copy counts: t = 0 used to crash on a broadcast or a division by
        # zero, and t = -1 in comb before the moment validated it
        ("haar-moment-mc", {"t": 0}), ("haar-moment-mc", {"t": -1}),
        ("locc-advantage", {"t": 0}),
    ])
    def test_count_below_one_is_an_error_row(self, name, params):
        # each of these used to record a verdict, or crash, without drawing
        # or checking anything
        report = run(ExperimentConfig(name, params))
        assert [c.name for c in report.checks] == ["error-ParameterError"]
        assert not report.passed

    @pytest.mark.parametrize("name,params", [
        ("prs-decay", {"lams": ()}), ("multi-key-decay", {"lams": []}),
        ("commit-hiding", {"ns": ()}), ("prob-monotone", {"ns": ()}),
        ("prfs-hybrid", {"queries": ((0,), ())}),
    ])
    def test_empty_list_parameter_is_refused(self, name, params):
        with pytest.raises(ConfigInvalid):
            run(ExperimentConfig(name, params))

    def test_kneser_experiment_passes(self):
        report = run(ExperimentConfig("kneser", {"v": 5, "k": 2}, seed=1))
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["one-norm-vs-formula"].value == pytest.approx(16.0)
        assert by_name["one-norm-vs-formula"].reference == pytest.approx(16.0)

    def test_failing_check_fails_the_report(self):
        # lams out of order: each distance row passes, the trend row cannot
        report = run(ExperimentConfig("prs-decay", {"lams": (3, 2)}))
        by_name = {c.name: c for c in report.checks}
        assert by_name["trace-distance-lam3"].passed
        assert not by_name["strictly-decreasing"].passed
        assert by_name["strictly-decreasing"].value == 0.0
        assert not report.passed

    def test_no_per_run_tolerances(self):
        with pytest.raises(TypeError):
            ExperimentConfig("kneser", tolerances={"kneser": -1.0})
        with pytest.raises(TypeError):
            run_suite("lemmas", 0, Caps(), {"kneser": -1.0})

    @pytest.mark.parametrize("d,t", [(6, 1), (5, 2)])
    def test_sandwich_slack_difference_is_the_advantage(self, d, t):
        report = run(ExperimentConfig("locc-sandwich", {"d": d, "t": t}))
        row = report.checks[-1]
        assert row.name == "slack-difference-vs-advantage"
        assert row.reference == lc.locc_advantage_closed_form(d, t)
        assert row.passed and report.passed

    def test_sandwich_slack_difference_can_fail(self, monkeypatch):
        # a wrong slack leaves advantage-vs-surrogate-pieces passing, since
        # it only grows the right-hand side; the closed-form row catches it
        true = lc.ppt_vs_haar_bound

        def skewed(*args):
            res = true(*args)
            return replace(res, slack_identical=res.slack_identical + 1e-9)

        monkeypatch.setattr(lc, "ppt_vs_haar_bound", skewed)
        by_name = {c.name: c for c in run(ExperimentConfig("locc-sandwich")).checks}
        assert by_name["advantage-vs-surrogate-pieces"].passed
        assert not by_name["slack-difference-vs-advantage"].passed

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

    def test_kneser_past_the_dimension_cap_is_an_error_row(self):
        # 200 vertices pass the enumeration cap, not a dimension cap of 100
        report = run(ExperimentConfig("kneser", {"v": 200, "k": 1}, caps=Caps(dim=100)))
        assert [c.name for c in report.checks] == ["error-DimensionOverflow"]
        assert not report.passed

    @pytest.mark.parametrize("name,params,error", [
        # the urn's last draw bound d + 2t - 1 = 2^63 + 1 does not fit int64
        ("locc-advantage", {"d": 2**63}, "error-ParameterError"),
        # a Haar state in C^(2^62) is past the dimension cap before it is drawn
        ("commit-complete", {"n": 62}, "error-DimensionOverflow"),
        ("commit-fidelity", {"n": 62}, "error-DimensionOverflow"),
        ("commit-binding", {"n": 62}, "error-DimensionOverflow"),
        ("haar-overlap-mc", {"d": 2**62}, "error-DimensionOverflow"),
        # (2^40)^3 amplitudes for the rebuilt type state
        ("bipartition", {"d": 2**40}, "error-DimensionOverflow"),
        # negative sizes, which raised TypeError (2**-1 is a float)
        ("onewayness", {"n": -1}, "error-ParameterError"),
        ("onewayness", {"m": -1}, "error-ParameterError"),
        ("commit-fidelity", {"lam": -1}, "error-ParameterError"),
    ])
    def test_out_of_range_size_is_an_error_row(self, name, params, error):
        # each of these used to crash run() with a numpy or Python exception
        report = run(ExperimentConfig(name, params))
        assert [c.name for c in report.checks] == [error]
        assert not report.passed

    @pytest.mark.parametrize("name", ["haar-moment-mc", "haar-overlap-mc"])
    def test_haar_draws_come_in_blocks(self, monkeypatch, name):
        # 100000 samples as 16384-row blocks, so memory stays flat in the count
        rows = []
        draw = ts.haar_states_block

        def record(d, count, rng):
            rows.append(count)
            return draw(d, count, rng)

        monkeypatch.setattr(ts, "haar_states_block", record)
        assert run(ExperimentConfig(name, seed=3)).passed
        assert rows == [16384] * 6 + [1696]

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


def _scaled(fn, factor):
    return lambda *args: fn(*args) * factor


def _p0_scaled(fn, factor):
    def mutant(*args):
        p0, p1 = fn(*args)
        return p0 * factor, p1
    return mutant


class TestMutants:
    """A wrong library value fails exactly the row that checks it, at the
    experiment's defaults."""

    ROWS = {
        "prs-hybrid": ["trace-distance", "one-copy-closed-form", "keyed-hermitian-defect",
                       "keyed-trace", "keyed-min-eigenvalue"],
        "prs-decay": ["trace-distance-lam2", "one-copy-closed-form-lam2",
                      "trace-distance-lam3", "one-copy-closed-form-lam3",
                      "strictly-decreasing"],
        "commit-hiding": ["trace-distance-n2", "one-copy-closed-form-n2",
                          "trace-distance-n3", "one-copy-closed-form-n3", "no-copy-distance"],
        "commit-binding": ["max-p0-plus-p1", "optimum-vs-closed-form"],
        "onewayness": ["overlap-value"],
        "rank-attack": ["ideal-rank", "accept-keyed", "accept-ideal",
                        "rank-ratio-vs-formula"],
    }

    @pytest.mark.parametrize("experiment,module,attr,mutate,rows", [
        # the trace-distance rows passed unconditionally before they were
        # compared with their bounds
        pytest.param("prs-hybrid", exact, "hybrid_bound",
                     lambda f: _scaled(f, Fraction(1, 100)), ["trace-distance"],
                     id="hybrid-bound"),
        pytest.param("commit-hiding", exact, "hiding_bound",
                     lambda f: _scaled(f, Fraction(1, 100)),
                     ["trace-distance-n2", "trace-distance-n3"], id="hiding-bound"),
        # the one-copy closed form is each row's reference, so a scaled one
        # fails every equality row and nothing else
        pytest.param("prs-hybrid", exact, "one_copy_distance",
                     lambda f: _scaled(f, 1 + Fraction(1, 10**12)), ["one-copy-closed-form"],
                     id="one-copy-prs-hybrid"),
        pytest.param("prs-decay", exact, "one_copy_distance",
                     lambda f: _scaled(f, 1 + Fraction(1, 10**12)),
                     ["one-copy-closed-form-lam2", "one-copy-closed-form-lam3"],
                     id="one-copy-prs-decay"),
        pytest.param("commit-hiding", exact, "one_copy_distance",
                     lambda f: _scaled(f, 1 + Fraction(1, 10**12)),
                     ["one-copy-closed-form-n2", "one-copy-closed-form-n3"],
                     id="one-copy-commit-hiding"),
        pytest.param("commit-binding", exact, "binding_bound",
                     lambda f: _scaled(f, 0.25), ["max-p0-plus-p1"], id="binding-bound"),
        pytest.param("commit-binding", cm, "binding_sum",
                     lambda f: _p0_scaled(f, 1 + 1e-12), ["optimum-vs-closed-form"],
                     id="binding-sum"),
        pytest.param("commit-binding", registry, "_block_fidelity",
                     lambda f: _scaled(f, 1 + 1e-12), ["optimum-vs-closed-form"],
                     id="block-fidelity"),
        # both pass at the old defaults (n=1, m=1) and (2, 2, 1, 2), whose
        # bounds 1 and 2 are above anything the rows measure
        pytest.param("onewayness", exact, "onewayness_bound",
                     lambda f: _scaled(f, Fraction(3, 4)), ["overlap-value"],
                     id="onewayness-bound"),
        pytest.param("rank-attack", exact, "rank_ratio_bound",
                     lambda f: _scaled(f, Fraction(2, 3)), ["rank-ratio-vs-formula"],
                     id="rank-ratio-bound"),
    ])
    def test_mutant_fails_its_row(self, monkeypatch, experiment, module, attr, mutate,
                                  rows):
        clean = run(ExperimentConfig(experiment, seed=7))
        assert [c.name for c in clean.checks] == self.ROWS[experiment]
        assert clean.passed
        monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
        report = run(ExperimentConfig(experiment, seed=7))
        assert [c.name for c in report.checks] == self.ROWS[experiment]
        assert [c.name for c in report.checks if not c.passed] == rows

    def test_commit_binding_at_two_pairs_has_no_equality_row(self):
        # the p-fold construction is only a lower bound on the optimum
        report = run(ExperimentConfig("commit-binding", {"p": 2}, seed=7))
        assert [c.name for c in report.checks] == ["max-p0-plus-p1"]
        assert report.passed

    def test_commit_binding_samples_no_senders(self):
        with pytest.raises(ConfigInvalid):
            run(ExperimentConfig("commit-binding", {"random_strategies": 20}))


class TestSuiteRun:
    def test_lemmas_suite_green(self):
        reports = run_suite("lemmas", seed=5)
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("suite_seed", [52, 67, 106, 108])
    def test_commit_fidelity_at_suite_seeds(self, suite_seed):
        # `suite all` once failed max-fidelity at these seeds by 1e-9 to
        # 5.8e-9 over the bound 1/2.  Independent reference: the closed
        # form (sum_b sqrt(w_b))^2 / d over the block weights of each draw.
        seed = derive_seed(suite_seed, suite_experiments("all").index("commit-fidelity"))
        report = run(ExperimentConfig("commit-fidelity", {}, seed))
        lam, n, draws = (report.params[k] for k in ("lam", "n", "haar_seeds"))
        closed = max(
            np.sqrt((np.abs(ts.sample_haar(2**n, seed, stream=s).amplitudes) ** 2)
                    .reshape(2**lam, -1).sum(axis=1)).sum() ** 2 / 2**n
            for s in range(draws))
        assert report.passed
        assert [c.name for c in report.checks] == ["max-fidelity",
                                                   "max-gap-to-closed-form"]
        assert report.checks[0].value == pytest.approx(closed, rel=0, abs=1e-14)
        assert report.checks[1].value <= 1e-14


class TestReportFormats:
    def test_toolchain_records_blas_and_threads(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        toolchain = run(ExperimentConfig("kneser")).toolchain
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert toolchain["blas"] == {key: blas.get(key) for key in (
            "name", "version", "openblas configuration")}
        assert toolchain["threads"]["OPENBLAS_NUM_THREADS"] == "3"
        assert toolchain["threads"]["MKL_NUM_THREADS"] is None
        assert set(toolchain["threads"]) == set(THREAD_VARS)
        # no wall time: two reports of one seed share their toolchain
        assert run(ExperimentConfig("kneser")).toolchain == toolchain

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
        ("kneser", "v = 1.5"), ("kneser", "v = true"), ("kneser", "v = five"),
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

    def test_error_row_is_strict_json(self, tmp_path, capsys):
        # an error row's value is null, not NaN, which strict parsers refuse
        cfg = self.write_config(tmp_path, """
[experiment]
name = good-type-prob

[params]
trials = 0
""")
        out = tmp_path / "e.json"
        assert main(["--out", str(out), "run", cfg]) == 1

        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        check, = payload[0]["checks"]
        assert (check["name"], check["value"]) == ("error-ParameterError", None)
        assert "error-ParameterError" in capsys.readouterr().out
        csv_out = tmp_path / "e.csv"
        assert main(["--format", "csv", "--out", str(csv_out), "run", cfg]) == 1
        row = csv_out.read_text().splitlines()[1].split(",")
        assert row[2:5] == ["error-ParameterError", "", ""]

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
name = prs-decay

[params]
lams = 3, 2
""")
        out = tmp_path / "f.json"
        assert main(["--out", str(out), "run", cfg]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())[0]["checks"]}
        assert checks["strictly-decreasing"]["passed"] is False

    @pytest.mark.parametrize("section,line", [
        ("param", "v = 100"), ("tolerances", "kneser = -1"), ("DEFAULT", "v = 100"),
    ])
    def test_unknown_section_exits_two(self, tmp_path, capsys, section, line):
        # [param] is a typo for [params]; without the check it ran the
        # defaults {'v': 5, 'k': 2} and exited 0
        cfg = self.write_config(
            tmp_path, f"[experiment]\nname = kneser\n\n[{section}]\n{line}\n")
        with pytest.raises(ConfigInvalid, match=rf"\[{section}\]"):
            load_config(cfg)
        out = tmp_path / "u.json"
        assert main(["--out", str(out), "run", cfg]) == 2
        assert f"[{section}]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,line", [
        ("experiment", "sed = 5"), ("caps", "dims = 4"), ("output", "fromat = csv"),
    ])
    def test_unknown_key_exits_two(self, tmp_path, capsys, section, line):
        # without the check each typo loaded as the default (seed 0, the
        # default caps, JSON output) and the run exited 0
        extra = f"{line}\n" if section == "experiment" else f"\n[{section}]\n{line}\n"
        cfg = self.write_config(tmp_path, "[experiment]\nname = kneser\n" + extra)
        key = line.split(" = ")[0]
        with pytest.raises(ConfigInvalid, match=rf"'{key}' in config section \[{section}\]"):
            load_config(cfg)
        out = tmp_path / "k.json"
        assert main(["--out", str(out), "run", cfg]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

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


class TestDensityContract:
    """The keyed state's rows read a block operator's blocks and fail on a
    trace or a least eigenvalue off by 1e-6, below and above D = 64."""

    @staticmethod
    def block_density(dim, diagonal):
        # blocks of 2 on the index pairs (2k, 2k+1), with a small coupling
        idx = np.arange(dim).reshape(-1, 2)
        blocks = np.zeros((dim // 2, 2, 2))
        blocks[:, [0, 1], [0, 1]] = np.asarray(diagonal).reshape(-1, 2)
        blocks[:, 0, 1] = blocks[:, 1, 0] = 1e-3 / dim
        return Operator(RegisterShape((dim,)), blocks=[(idx, blocks)])

    @staticmethod
    def rows(op):
        rec = registry._Recorder()
        registry._density_contract(rec, "keyed", op)
        return {c.name: c.passed for c in rec.rows}

    @pytest.mark.parametrize("dim", [16, 128])
    def test_rows_fail_on_their_defect(self, dim):
        exact = np.full(dim, 1.0 / dim)
        assert self.rows(self.block_density(dim, exact)) == {
            "keyed-hermitian-defect": True, "keyed-trace": True,
            "keyed-min-eigenvalue": True}
        heavy = self.block_density(dim, exact * (1 + 1e-6))
        assert abs(heavy.trace().real - (1 + 1e-6)) < 1e-12
        assert self.rows(heavy) == {
            "keyed-hermitian-defect": True, "keyed-trace": False,
            "keyed-min-eigenvalue": True}
        negative = exact.copy()
        negative[-2:] = [2.0 / dim + 1e-6, -1e-6]  # the trace stays 1
        op = self.block_density(dim, negative)
        low = float(np.linalg.eigvalsh(op.block_form[0][1][-1]).min())
        assert -1.1e-6 < low < -1e-6 and abs(op.trace().real - 1.0) < 1e-12
        assert self.rows(op) == {
            "keyed-hermitian-defect": True, "keyed-trace": True,
            "keyed-min-eigenvalue": False}
        if dim > 64:
            assert op._stored is None and heavy._stored is None
