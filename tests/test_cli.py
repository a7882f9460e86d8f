import collections
import csv
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest

from grslab import defaults as dflt
from grslab.catalog import overlap_matrices
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
            assert set(c) == {
                "name", "value", "tolerance", "tolerance_source", "pass", "wall_time_s", "error",
            }

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

    def test_matrix_csv(self, outcome):
        with open(outcome[2]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "m", "value_re", "value_im"]
        assert len(rows) == 1 + 16 * 16
        gram = np.zeros((16, 16), dtype=complex)
        for n, m, re, im in rows[1:]:
            gram[int(n), int(m)] = float(re) + 1j * float(im)
        assert np.max(np.abs(gram - np.eye(16))) < 1e-8


#: the suites' check order, which stored reports and the benchmark's gate rely on
COMMON_ORDER = ("biorthogonality", "weighted_orthonormality", "g0_agreement", "g0_positivity")
FIRST_TYPE_ORDER = COMMON_ORDER + (
    "j_orthonormality", "sign_pattern", "partner", "classification",
    "c_squared", "jc_positivity", "c_metric_consistency", "expansion",
)
EXAMPLE1_ORDER = COMMON_ORDER + (
    "classification", "negative_witness", "indefinite_spot", "eigen_residuals",
)


class TestSuiteTables:
    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("example", ["shifted-ho", "example1", "perturbed-anharmonic"])
    def test_check_order_and_provenance(self, example, n, tmp_path):
        path = tmp_path / "r.json"
        assert main(["verify", example, "--n", str(n), "--json", str(path)]) == 0
        checks = read_json(path)["checks"]
        if example == "example1":
            want = EXAMPLE1_ORDER
        else:
            want = FIRST_TYPE_ORDER + (("gq_resolution",) if n >= 32 else ()) + ("eigen_residuals",)
        assert tuple(c["name"] for c in checks) == want
        for c in checks:
            kind, _, name = c["tolerance_source"].partition(":")
            # no flag or configuration file: every tolerance is a named default
            assert kind == "default" and hasattr(dflt, name), c
            assert getattr(dflt, name) == c["tolerance"], c

    @pytest.mark.parametrize("by", ["flag", "config"])
    @pytest.mark.parametrize("example", ["shifted-ho", "perturbed-anharmonic"])
    def test_tol_krein_source_recorded_per_check(self, example, by, tmp_path, monkeypatch):
        argv = ["verify", example, "--n", "8", "--json", str(tmp_path / "r.json")]
        if by == "flag":
            argv += ["--tol-krein", "1e-5"]
        else:
            cfg = tmp_path / "krein.cfg"
            cfg.write_text("tol_krein = 1e-5\n")
            monkeypatch.setenv("GRSLAB_CONFIG", str(cfg))
        assert main(argv) == 0
        checks = {c["name"]: c for c in read_json(tmp_path / "r.json")["checks"]}
        krein = ("j_orthonormality", "sign_pattern")
        for name, c in checks.items():
            if name in krein:
                assert c["tolerance_source"] == by and c["tolerance"] == 1e-5
            else:
                assert c["tolerance_source"].startswith("default:"), c


class TestVerifyOthers:
    def test_example1_negative_result_passes(self, tmp_path):
        path = tmp_path / "e1.json"
        code = main(["verify", "example1", "--n", "12", "--json", str(path)])
        assert code == 0
        doc = read_json(path)
        names = {c["name"]: c for c in doc["checks"]}
        assert names["classification"]["pass"]
        assert names["negative_witness"]["pass"]

    def test_tol_krein_reaches_partner_and_expansion(self, tmp_path):
        # [phi_63, phi_63] is 1.3e-6 off -1 at a = 1.0: unimodular to 1e-3, so
        # every check that rounds the sign sequence must read a value
        path = tmp_path / "a1.json"
        argv = ["verify", "shifted-ho", "--a", "1.0", "--n", "64", "--tol-krein", "1e-3"]
        assert main(argv + ["--json", str(path)]) == 1
        checks = {c["name"]: c for c in read_json(path)["checks"]}
        for name in ("sign_pattern", "partner", "expansion"):
            assert checks[name]["error"] is None and checks[name]["value"] is not None
        assert checks["expansion"]["pass"] is False  # 8.8e-7 against TOL_EXPANSION 1e-8

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

    def test_overflowing_generator_fails_the_decay_gate(self, capsys):
        # the moved members reach about 1e171, so their mass overflows; that
        # must score 0 at the gate (a usage error naming member and sign),
        # not read as zero outer mass, and raise no overflow warning
        argv = ["verify", "perturbed-anharmonic", "--n", "8", "--p", "(scale 400 (tanh x))"]
        assert main(argv) == 2
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
        assert [c["tolerance_source"] for c in doc["checks"]] == [
            "default:TOL_OVERLAP_REL", "default:TOL_OVERLAP_ODD", "default:TOL_SPOT",
        ]

    @pytest.mark.parametrize("n_max", [0, 12, 30])
    def test_csv_bytes_match_csv_writer(self, tmp_path, n_max):
        path = tmp_path / "cmp.csv"
        assert main(["overlap", "--n-max", str(n_max), "--csv", str(path)]) == 0
        closed, example1 = overlap_matrices(n_max)
        quad = example1.krein_gram.astype(complex)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["n", "m", "closed_form", "quad_re", "quad_im", "abs_diff"])
        for i in range(n_max + 1):
            for j in range(n_max + 1):
                diff = abs(abs(quad[i, j]) - closed[i, j])
                writer.writerow([i, j, repr(float(closed[i, j])), repr(float(quad[i, j].real)),
                                 repr(float(quad[i, j].imag)), repr(float(diff))])
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_smallest_n_max_is_a_one_member_build(self):
        assert main(["overlap", "--n-max", "0"]) == 0

    def test_default_order_is_example1_working_order(self, tmp_path):
        # the default order at n_max = 30 is example1's 2N + 40 with N = 31
        p1, p2 = tmp_path / "default.json", tmp_path / "explicit.json"
        assert main(["overlap", "--n-max", "30", "--json", str(p1)]) == 0
        assert main(["overlap", "--n-max", "30", "--quad-order", "102", "--json", str(p2)]) == 0
        default, explicit = strip_wall_times(read_json(p1)), strip_wall_times(read_json(p2))
        assert default["checks"] == explicit["checks"]
        # the report names the rule it read and where its order came from
        assert default["settings"] == {
            "rule": {"kind": "gauss_hermite", "points": 102},
            "resolved": {"n_max": 30},
            "sources": {"n_max": "flag", "quad_order": "default:QUAD_ORDER_PAD"},
        }
        assert explicit["settings"]["rule"] == default["settings"]["rule"]
        assert explicit["settings"]["resolved"] == {"n_max": 30, "quad_order": 102}
        assert explicit["settings"]["sources"]["quad_order"] == "flag"

    def test_report_records_the_rule_it_read(self, tmp_path):
        # order 120 fails overlap_rel_even (1.35e-8 against 1e-8), so the
        # rule is what tells the two reports apart
        points = []
        for order, code in (("102", 0), ("120", 1)):
            path = tmp_path / f"q{order}.json"
            assert main(["overlap", "--n-max", "30", "--quad-order", order, "--json", str(path)]) == code
            points.append(read_json(path)["settings"]["rule"]["points"])
        assert points == [102, 120]


class TestDeterminism:
    def test_reports_identical_modulo_wall_time(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "shifted-ho", "--n", "8", "--json", str(p1)]) == 0
        assert main(["verify", "shifted-ho", "--n", "8", "--json", str(p2)]) == 0
        assert strip_wall_times(read_json(p1)) == strip_wall_times(read_json(p2))

    @pytest.mark.parametrize(
        "argv",
        [["shifted-ho", "--n", "32"], ["example1", "--n", "16"], ["perturbed-anharmonic", "--n", "32"]],
        ids=["shifted-ho", "example1", "perturbed-anharmonic"],
    )
    def test_process_caches_change_no_report(self, argv, tmp_path):
        # the Gauss rules, the anharmonic eigenbasis and the finite-difference
        # grid are built once per process: a repeat and a run after clearing
        # them must report exactly what the first run did
        from grslab.basis import _gauss_hermite_rule
        from grslab.catalog import _anharmonic_basis
        from grslab.suites import _fd_grid

        docs = []
        for k in range(3):
            if k == 2:
                caches = (_gauss_hermite_rule, _anharmonic_basis, _fd_grid)
                for cached in caches:
                    cached.cache_clear()
            path = tmp_path / f"r{k}.json"
            assert main(["verify", *argv, "--json", str(path)]) in (0, 1)
            docs.append(strip_wall_times(read_json(path)))
        assert docs[0] == docs[1] == docs[2]


class TestUsageErrors:
    def test_unknown_example(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "free-particle"])
        assert exc.value.code == 2

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_usage_error_after_a_successful_call(self, tmp_path):
        # one parser serves every main() call of a process
        out = tmp_path / "r.json"
        assert main(["verify", "shifted-ho", "--n", "4", "--json", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", "shifted-ho", "--n", "four"])
        assert exc.value.code == 2
        out.unlink()
        assert main(["verify", "shifted-ho", "--n", "4"]) == 0
        assert not out.exists()  # the earlier call's --json does not linger

    def test_bad_beta_is_usage_error(self):
        assert main(["verify", "perturbed-anharmonic", "--beta", "1.0", "--n", "4"]) == 2

    @pytest.mark.parametrize("flag, value", [("--grid-l", "1e80"), ("--beta", "1e300")])
    def test_overflowing_potential_is_usage_error_without_warning(self, flag, value, capsys):
        # |x|^beta overflowing the stencil is refused before LAPACK sees an inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "perturbed-anharmonic", "--n", "8", flag, value]) == 2
        err = capsys.readouterr().err
        assert "cannot build perturbed_anharmonic:" in err and "overflows at beta=" in err

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
        assert "order must be an integer in [1, 728], got 0" in capsys.readouterr().err
        assert not out.exists()


class TestOrderFrontier:
    def test_default_order_error_names_the_knob(self, capsys):
        # the default order 2N + pad is past the order frontier at this N: the
        # message must say where the order came from and how to set it
        assert main(["verify", "example1", "--n", "345"]) == 2
        err = capsys.readouterr().err
        assert "order must be an integer in [1, 728], got 730" in err
        assert f"default 2N + {dflt.QUAD_ORDER_PAD} at N = 345" in err and "--quad-order" in err

    def test_explicit_order_error_keeps_the_plain_message(self, capsys):
        assert main(["verify", "example1", "--n", "175", "--quad-order", "729"]) == 2
        err = capsys.readouterr().err
        assert "order must be an integer in [1, 728], got 729" in err and "--quad-order" not in err

    def test_frontier_past_the_basis_cap_names_the_knob(self, capsys):
        # an order refusal, not the degree cap, at the largest N the basis takes
        assert main(["verify", "shifted-ho", "--n", "513"]) == 2
        err = capsys.readouterr().err
        assert "got 1066" in err and "at N = 513" in err and "--quad-order" in err

    def test_decay_gate_refusal_at_the_default_order_names_the_knob(self, capsys):
        # the default order 540 does not resolve member 248; order 700 does
        assert main(["verify", "example1", "--n", "250"]) == 2
        err = capsys.readouterr().err
        assert "basis member 248" in err and "mass escapes the window" in err
        assert f"default 2N + {dflt.QUAD_ORDER_PAD} at N = 250" in err and "--quad-order" in err
        assert main(["verify", "example1", "--n", "250", "--quad-order", "700"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [["verify", "example1", "--n", "0"],
         ["verify", "shifted-ho", "--n", "16", "--a", "1.5"],
         ["verify", "perturbed-anharmonic", "--n", "8", "--p", "(scale 400 (tanh x))"]],
        ids=["n-zero", "shift-cap", "perturbed-decay-gate"],
    )
    def test_refusal_the_order_cannot_fix_has_no_hint(self, argv, capsys):
        assert main(argv) == 2
        assert "--quad-order" not in capsys.readouterr().err

    def test_first_order_past_the_old_weight_limit_passes(self):
        # the default order 2N + pad = 390 refused at the old weight limit
        assert main(["verify", "example1", "--n", "175"]) == 0


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

    def test_real_matrix_csv_bytes_match_its_complex_cast(self, tmp_path):
        # a real Gram skips formatting its zero imaginary parts, yet writes
        # the bytes of the complex path, signed zeros and non-finite values too
        m = np.array([[-0.0, 5e-324, np.nan], [np.inf, -np.inf, 1e300], [1.0, 0.0, -2.5]])
        real, cast = tmp_path / "real.csv", tmp_path / "cast.csv"
        write_matrix_csv(m, str(real))
        write_matrix_csv(m.astype(complex), str(cast))
        assert real.read_bytes() == cast.read_bytes()
        write_matrix_csv(np.array([[1, -2], [3, 4]]), str(real))  # integers read as floats
        write_matrix_csv(np.array([[1, -2], [3, 4]], dtype=complex), str(cast))
        assert real.read_bytes() == cast.read_bytes()

    def test_scipy_version_read_from_dist_info(self, tmp_path, monkeypatch):
        import types

        from grslab import report

        spec = types.SimpleNamespace(submodule_search_locations=[str(tmp_path / "scipy")])
        meta = tmp_path / "scipy-9.8.7.dist-info" / "METADATA"
        meta.parent.mkdir()
        meta.write_text("Metadata-Version: 2.1\nName: scipy\nVersion: 9.8.7\n\nVersion: not this\n")

        def version(found):
            monkeypatch.setattr(report, "find_spec", lambda name: found)
            report._scipy_version.cache_clear()
            return report.versions_block()["scipy"]

        try:
            assert version(spec) == "9.8.7"
            meta.unlink()
            assert version(spec) is None  # a package without its dist-info
            assert version(None) is None  # scipy not installed
        finally:
            report._scipy_version.cache_clear()

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
        import grslab.metric_ops
        from grslab import ExampleSpec, krein_gram, make_example

        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # callers look these up through their own module globals
        for name, fn in (("weighted_inner", grslab.grs.weighted_inner),
                         ("weighted_gram", grslab.grs.weighted_gram),
                         ("g0_quadratic_check", grslab.grs.g0_quadratic_check),
                         ("decay_scores", grslab.metric_ops.decay_scores),
                         ("to_samples", grslab.krein.to_samples),
                         ("evaluate", grslab.krein.evaluate),
                         ("apply_exp_q", grslab.metric_ops.apply_exp_q),
                         ("unit_vector", grslab.krein.unit_vector),
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

        # a multiplication build moves one member table by both signs
        for n in (16, 32):
            counts.clear()
            make_example(ExampleSpec(id="example1", n=n))
            assert counts["hermite_function_table"] == 1

        # no check builds a Hermite table per span function
        counts.clear()
        assert main(["verify", "shifted-ho", "--n", "16"]) == 0
        assert counts["hermite_function_table"] <= 25
        # the phi Gram of the C-metric and of weighted orthonormality is formed
        # once, and translation's psi Gram is that same Gram, not formed again
        assert counts["weighted_gram"] == 1
        # the families are sample tables, not per-member representations
        assert counts["apply_exp_q"] == 0 and counts["unit_vector"] == 0
        # each g0 check evaluates its 50 random forms as one batch
        assert counts["g0_quadratic_check"] == 2

        # one decay gate for the build and one for the gq probe, both on
        # sample tables: no verify constructs a FunctionRep, and the probe is
        # sampled in closed form, with no Hermite table.  Translation's
        # tables are phi (psi is its conjugate), the one pull-back of its
        # weighted Gram and the finite-difference ladder; the eigenbasis
        # builds none (shifted-ho at N = 128 exits 1 on its known
        # g0_agreement failure)
        for example, n, code, tables in (("shifted-ho", 32, 0, 3), ("shifted-ho", 128, 1, 3),
                                         ("perturbed-anharmonic", 32, 0, 0),
                                         ("perturbed-anharmonic", 64, 0, 0)):
            counts.clear()
            assert main(["verify", example, "--n", str(n)]) == code
            assert counts["decay_scores"] == 2 and counts["hermite_function_table"] == tables
            assert counts["apply_exp_q"] == counts["to_samples"] == counts["evaluate"] == 0

        # one Krein Gram per system
        sys_ = make_example(ExampleSpec(id="shifted_ho", a=0.5, n=8))
        assert krein_gram(sys_) is krein_gram(sys_)
