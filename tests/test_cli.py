import collections
import csv
import io
import json
import math
import sys

import numpy as np
import pytest

from grslab.cli import main
from grslab.report import VerificationReport, emit_json, run_check, write_matrix_csv


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_wall_times(doc):
    doc = json.loads(json.dumps(doc))
    for c in doc["checks"]:
        c.pop("wall_time_s", None)
    return doc


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    d = tmp_path_factory.mktemp("shifted")
    json_path = d / "report.json"
    csv_path = d / "gram.csv"
    code = main([
        "verify", "shifted-ho", "--a", "0.5", "--n", "16",
        "--json", str(json_path), "--csv", str(csv_path),
    ])
    return code, read_json(json_path), csv_path


class TestVerifyShiftedHo:
    def test_exit_zero(self, outcome):
        assert outcome[0] == 0

    def test_schema(self, outcome):
        doc = outcome[1]
        assert set(doc) == {"example", "params", "settings", "checks", "matrices", "versions"}
        assert doc["example"] == "shifted_ho"
        assert doc["params"]["a"] == 0.5 and doc["params"]["n"] == 16
        for c in doc["checks"]:
            assert set(c) == {"name", "value", "tolerance", "pass", "wall_time_s", "error"}

    def test_expected_checks_present(self, outcome):
        names = {c["name"] for c in outcome[1]["checks"]}
        assert {
            "biorthogonality", "j_orthonormality", "partner", "classification",
            "c_squared", "c_metric_consistency", "eigen_residuals",
            "weighted_orthonormality", "g0_agreement", "g0_positivity",
            "sign_pattern", "jc_positivity", "expansion",
        } <= names

    def test_self_consistent_pass_flags(self, outcome):
        for c in outcome[1]["checks"]:
            recomputed = c["value"] is not None and abs(c["value"]) <= c["tolerance"]
            assert recomputed == c["pass"]

    def test_all_passed(self, outcome):
        assert all(c["pass"] for c in outcome[1]["checks"])

    def test_tolerances_traceable(self, outcome):
        sources = outcome[1]["settings"]["sources"]
        assert sources["tol_biorth"].startswith("default:") or sources["tol_biorth"] == "flag"
        assert "tol_krein" in sources and "tol_partner" in sources

    def test_matrix_csv(self, outcome):
        with open(outcome[2]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "m", "value_re", "value_im"]
        assert len(rows) == 1 + 16 * 16
        gram = np.zeros((16, 16), dtype=complex)
        for n, m, re, im in rows[1:]:
            gram[int(n), int(m)] = float(re) + 1j * float(im)
        assert np.max(np.abs(gram - np.eye(16))) < 1e-8


class TestVerifyOthers:
    def test_example1_negative_result_passes(self, tmp_path):
        path = tmp_path / "e1.json"
        code = main(["verify", "example1", "--n", "12", "--json", str(path)])
        assert code == 0
        doc = read_json(path)
        names = {c["name"]: c for c in doc["checks"]}
        assert names["classification"]["pass"]
        assert names["negative_witness"]["pass"]

    def test_example1_wrong_expectation_fails(self):
        assert main(["verify", "example1", "--n", "12", "--expect", "first_type"]) == 1

    def test_perturbed_anharmonic(self, tmp_path):
        path = tmp_path / "pa.json"
        code = main([
            "verify", "perturbed-anharmonic", "--beta", "4", "--n", "8",
            "--json", str(path),
        ])
        assert code == 0
        doc = read_json(path)
        assert all(c["pass"] for c in doc["checks"])

    def test_perturbed_report_claims_no_quad_order(self, tmp_path):
        # the uniform grid of perturbed-anharmonic has no Gauss order
        path = tmp_path / "pa.json"
        code = main([
            "verify", "perturbed-anharmonic", "--n", "4", "--quad-order", "7",
            "--json", str(path),
        ])
        assert code == 0
        settings = read_json(path)["settings"]
        assert settings["rule"] == {"kind": "uniform_trapezoid", "points": 2000}
        assert "quad_order" not in settings["resolved"]
        assert "quad_order" not in settings["sources"]

    def test_one_node_rule_scores_zero(self, capsys):
        # both 5% ends of a one-node rule are that node; counted once, all
        # the mass is outer mass and the score is 0 (not -1)
        assert main(["verify", "shifted-ho", "--quad-order", "1"]) == 2
        err = capsys.readouterr().err
        assert "basis member 0: exp(+0.5 Q) mass escapes the window (score 0.000 < 0.9)" in err

    def test_failing_tolerance_writes_report_and_exits_one(self, tmp_path):
        path = tmp_path / "strict.json"
        code = main([
            "verify", "shifted-ho", "--n", "8", "--tol-biorth", "1e-18",
            "--json", str(path),
        ])
        assert code == 1
        doc = read_json(path)
        biorth = next(c for c in doc["checks"] if c["name"] == "biorthogonality")
        assert not biorth["pass"]


class TestOverlapCommand:
    def test_passes_and_writes_table(self, tmp_path):
        path = tmp_path / "cmp.csv"
        jpath = tmp_path / "cmp.json"
        code = main(["overlap", "--n-max", "12", "--csv", str(path), "--json", str(jpath)])
        assert code == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "m", "closed_form", "quad_re", "quad_im", "abs_diff"]
        assert len(rows) == 1 + 13 * 13
        first = rows[1]
        assert float(first[2]) == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
        doc = read_json(jpath)
        assert all(c["pass"] for c in doc["checks"])
        names = {c["name"] for c in doc["checks"]}
        assert names == {"overlap_rel_even", "overlap_abs_odd", "radical_scope_pin"}


class TestDeterminism:
    def test_reports_identical_modulo_wall_time(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "shifted-ho", "--n", "8", "--json", str(p1)]) == 0
        assert main(["verify", "shifted-ho", "--n", "8", "--json", str(p2)]) == 0
        assert strip_wall_times(read_json(p1)) == strip_wall_times(read_json(p2))


class TestUsageErrors:
    def test_unknown_example(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "free-particle"])
        assert exc.value.code == 2

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_beta_is_usage_error(self):
        assert main(["verify", "perturbed-anharmonic", "--beta", "1.0", "--n", "4"]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol-krein", "nan"), ("--tol-biorth", "-1"), ("--tol-krein", "inf")],
        ids=["nan", "negative", "inf"],
    )
    def test_meaningless_tolerance_is_usage_error(self, flag, value, capsys):
        # nan fails every check and inf passes every one
        assert main(["verify", "shifted-ho", "--n", "4", flag, value]) == 2
        assert "must be finite and non-negative" in capsys.readouterr().err

    def test_bad_expect_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "example1", "--expect", "second_type"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify", "shifted-ho", "--n", "8"], ["verify", "example1", "--n", "8"], ["overlap"]],
        ids=["verify-shifted-ho", "verify-example1", "overlap"],
    )
    @pytest.mark.parametrize("by", ["flag", "config"])
    def test_zero_quad_order_is_usage_error(self, argv, by, tmp_path, monkeypatch, capsys):
        # 0 is an order the user asked for, not "unset": it must not fall back
        # to the default rule while the report records 0
        if by == "flag":
            argv = argv + ["--quad-order", "0"]
        else:
            cfg = tmp_path / "zero.cfg"
            cfg.write_text("quad_order = 0\n")
            monkeypatch.setenv("GRSLAB_CONFIG", str(cfg))
        out = tmp_path / "r.json"
        assert main(argv + ["--json", str(out)]) == 2
        assert "order must be an integer in [1, 1024], got 0" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, monkeypatch):
        cfg = tmp_path / "grslab.cfg"
        cfg.write_text("n = 8\na = 0.25\n# comment\n")
        monkeypatch.setenv("GRSLAB_CONFIG", str(cfg))
        out = tmp_path / "r.json"
        assert main(["verify", "shifted-ho", "--json", str(out)]) == 0
        doc = read_json(out)
        assert doc["params"]["n"] == 8 and doc["params"]["a"] == 0.25
        assert doc["settings"]["sources"]["n"] == "config"
        out2 = tmp_path / "r2.json"
        assert main(["verify", "shifted-ho", "--n", "6", "--json", str(out2)]) == 0
        assert read_json(out2)["params"]["n"] == 6
        assert read_json(out2)["settings"]["sources"]["n"] == "flag"

    def test_unknown_key_rejected(self, tmp_path, monkeypatch):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("omega = 3\n")
        monkeypatch.setenv("GRSLAB_CONFIG", str(cfg))
        assert main(["verify", "shifted-ho"]) == 2

    def test_negative_tolerance_rejected(self, tmp_path, monkeypatch):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol_biorth = -1\n")
        monkeypatch.setenv("GRSLAB_CONFIG", str(cfg))
        assert main(["verify", "shifted-ho", "--n", "4"]) == 2

    def test_missing_file_rejected(self, monkeypatch):
        monkeypatch.setenv("GRSLAB_CONFIG", "/nonexistent/grslab.cfg")
        assert main(["verify", "shifted-ho"]) == 2


class TestReportModule:
    def test_empty_check_list_valid_json(self, tmp_path):
        report = VerificationReport(example="none", params={}, settings={})
        path = tmp_path / "empty.json"
        emit_json(report, str(path))
        doc = read_json(path)
        assert doc["checks"] == []
        assert report.all_passed

    def test_identity_matrix_csv(self, tmp_path):
        path = tmp_path / "eye.csv"
        write_matrix_csv(np.eye(2), str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5
        values = sorted(float(r[2]) for r in rows[1:])
        assert values == [0.0, 0.0, 1.0, 1.0]

    def test_matrix_csv_bytes_match_csv_writer(self, tmp_path):
        m = np.array([[complex(-0.0, 5e-324), complex(1e300, -0.0)], [1.0 - 2.5j, complex(-1e300, 0.1)]])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, str(path))
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["n", "m", "value_re", "value_im"])
        for i in range(2):
            for j in range(2):
                writer.writerow([i, j, repr(float(m[i, j].real)), repr(float(m[i, j].imag))])
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_run_check_records_library_errors(self):
        from grslab.errors import DomainError

        def boom():
            raise DomainError("nope")

        c = run_check("boom", 1.0, boom)
        assert c.value is None and not c.passed
        assert "DomainError" in c.error


class TestLargeTruncationSuite:
    def test_gq_check_appears_at_32(self, tmp_path):
        path = tmp_path / "n32.json"
        code = main(["verify", "shifted-ho", "--n", "32", "--json", str(path)])
        assert code == 0
        doc = read_json(path)
        names = {c["name"]: c for c in doc["checks"]}
        assert "gq_resolution" in names
        assert names["gq_resolution"]["pass"]
        assert names["gq_resolution"]["value"] <= 1e-6

    def test_gq_check_absent_below_32(self, outcome):
        names = {c["name"] for c in outcome[1]["checks"]}
        assert "gq_resolution" not in names


class TestNonFiniteValues:
    def test_run_check_rejects_non_finite(self):
        c = run_check("inf", 1.0, lambda: float("inf"))
        assert c.value is None and not c.passed and "non-finite" in c.error


class TestScalingGuard:
    def test_verify_does_no_pairwise_or_per_member_work(self, monkeypatch):
        import grslab.basis
        import grslab.grs
        import grslab.krein
        from grslab import ExampleSpec, krein_gram, make_example

        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # callers look these up through their own module globals
        for name, fn in (("weighted_inner", grslab.grs.weighted_inner),
                         ("to_samples", grslab.krein.to_samples),
                         ("hermite_function_table", grslab.basis.hermite_function_table)):
            wrapper = counted(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("grslab") and getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, wrapper)

        calls = {}
        for n in (16, 32):
            counts.clear()
            assert main(["verify", "example1", "--n", str(n)]) == 0
            calls[n] = dict(counts)
        assert calls[16].get("weighted_inner", 0) == 0 and calls[32].get("weighted_inner", 0) == 0
        assert calls[32].get("to_samples", 0) <= 2.5 * calls[16].get("to_samples", 0)

        # no check builds a Hermite table per span function
        counts.clear()
        assert main(["verify", "shifted-ho", "--n", "16"]) == 0
        assert counts["hermite_function_table"] <= 25

        # one Krein Gram per system
        sys_ = make_example(ExampleSpec(id="shifted_ho", a=0.5, n=8))
        assert krein_gram(sys_) is krein_gram(sys_)
