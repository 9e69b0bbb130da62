import json

import numpy as np
import pytest

from wignerkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerateAnalyze:
    def test_wigner_transpose_round_trip(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        spec = json.dumps({"family": "wigner", "n": 3,
                           "params": {"variant": "transpose"}, "seed": 7})
        code, _, _ = run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert code == 0
        code, stdout, _ = run_cli(capsys, "analyze", str(out), "--k", "2")
        assert code == 0
        report = json.loads(stdout)
        assert report["verdict"] == "wigner"
        assert report["variant"] == "transpose"

    def test_depolarizing_rank_violation_exit_one(self, tmp_path, capsys):
        out = tmp_path / "dep.json"
        spec = json.dumps({"family": "depolarizing", "n": 4,
                           "params": {"lambda": 0.5}, "seed": 0})
        assert run_cli(capsys, "generate", "--spec", spec, "--out", str(out))[0] == 0
        code, stdout, _ = run_cli(capsys, "analyze", str(out), "--k", "2")
        assert code == 1
        assert json.loads(stdout)["reasons"] == ["rank_k_violation"]

    def test_pseudo_depolarizing_flagged_non_positive(self, tmp_path, capsys):
        out = tmp_path / "pseudo.json"
        spec = json.dumps({"family": "pseudo_depolarizing", "n": 3,
                           "params": {"mu": 1.0}})
        assert run_cli(capsys, "generate", "--spec", spec, "--out", str(out))[0] == 0
        code, stdout, _ = run_cli(capsys, "analyze", str(out), "--k", "1")
        assert code == 1
        report = json.loads(stdout)
        assert "positivity_violation" in report["reasons"]
        assert report["hypotheses"]["positivity"]["min_value"] == pytest.approx(
            -1.0 / 3.0, abs=1e-6)

    def test_spec_from_file_and_byte_determinism(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"family": "wigner", "n": 3,
                                         "params": {"variant": "direct"}, "seed": 11}))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, "generate", "--spec", str(spec_file), "--out", str(out1))[0] == 0
        assert run_cli(capsys, "generate", "--spec", str(spec_file), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_analyze_out_file(self, tmp_path, capsys):
        mapfile, report_file = tmp_path / "m.json", tmp_path / "r.json"
        spec = json.dumps({"family": "wigner", "n": 2, "params": {}, "seed": 1})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))
        code, stdout, _ = run_cli(capsys, "analyze", str(mapfile), "--k", "1",
                                  "--out", str(report_file))
        assert code == 0
        assert stdout == ""
        assert json.loads(report_file.read_text())["verdict"] == "wigner"

    def test_tol_override_accepts_perturbed(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        spec = json.dumps({"family": "perturbed_wigner", "n": 3,
                           "params": {"variant": "direct", "epsilon": 1e-3}, "seed": 2})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert run_cli(capsys, "analyze", str(out), "--k", "1")[0] == 1
        assert run_cli(capsys, "analyze", str(out), "--k", "1", "--tol", "1e-2")[0] == 0


class TestInputErrors:
    def test_truncated_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "convention": "column-stacking", "repr": "sup')
        code, _, err = run_cli(capsys, "analyze", str(bad), "--k", "1")
        assert code == 2
        assert err != ""

    def test_missing_file_exit_two(self, capsys):
        assert run_cli(capsys, "analyze", "/nonexistent.json", "--k", "1")[0] == 2

    def test_convention_mismatch_exit_two(self, tmp_path, capsys):
        mapfile = tmp_path / "m.json"
        spec = json.dumps({"family": "depolarizing", "n": 2, "params": {"lambda": 1.0}})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))
        obj = json.loads(mapfile.read_text())
        obj["convention"] = "row-stacking"
        mapfile.write_text(json.dumps(obj))
        assert run_cli(capsys, "analyze", str(mapfile), "--k", "1")[0] == 2

    def test_bad_k_exit_two(self, tmp_path, capsys):
        mapfile = tmp_path / "m.json"
        spec = json.dumps({"family": "depolarizing", "n": 2, "params": {"lambda": 1.0}})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))
        assert run_cli(capsys, "analyze", str(mapfile), "--k", "2")[0] == 2
        assert run_cli(capsys, "analyze", str(mapfile), "--k", "0")[0] == 2

    @pytest.mark.parametrize("flags", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"),
                                       ("--tol", "0"), ("--samples", "-5")])
    def test_bad_tol_or_samples_exit_two(self, tmp_path, capsys, flags):
        # A true Wigner map: a bad value must not turn into a verdict either way.
        mapfile = tmp_path / "m.json"
        spec = json.dumps({"family": "wigner", "n": 4, "params": {}, "seed": 1})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))
        code, stdout, err = run_cli(capsys, "analyze", str(mapfile), "--k", "2", *flags)
        assert code == 2
        assert stdout == "" and err != ""

    def test_boolean_dimension_exit_two(self, tmp_path, capsys):
        spec = json.dumps({"family": "wigner", "n": True})
        out = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert code == 2
        assert err.startswith("error:")
        assert not out.exists()

    def test_unknown_family_exit_two(self, tmp_path, capsys):
        spec = json.dumps({"family": "kraus", "n": 2})
        code, _, err = run_cli(capsys, "generate", "--spec", spec,
                               "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "kraus" in err


class TestLemma:
    def test_standard_basis_output(self, capsys):
        code, stdout, _ = run_cli(capsys, "lemma", "--n", "3", "--k", "2")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["residual"] == 0.0
        assert payload["ranks"] == [2, 2, 2]
        mats = [np.array([[complex(re, im) for re, im in row] for row in p["data"]])
                for p in payload["projections"]]
        np.testing.assert_array_equal(mats[0], np.diag([0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(mats[1], np.diag([1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(mats[2], np.diag([1.0, 1.0, 0.0]))

    def test_degenerate_k1(self, capsys):
        code, stdout, _ = run_cli(capsys, "lemma", "--n", "2", "--k", "1")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["residual"] <= 1e-15
        assert payload["ranks"] == [1, 1]

    def test_haar_basis_seeded(self, capsys):
        code, stdout, _ = run_cli(capsys, "lemma", "--n", "8", "--k", "4", "--seed", "5")
        assert code == 0
        assert json.loads(stdout)["residual"] <= 1e-12

    def test_bad_rank_exit_two(self, capsys):
        assert run_cli(capsys, "lemma", "--n", "3", "--k", "3")[0] == 2


class TestSeedEnv:
    def test_env_seed_changes_default(self, tmp_path, capsys, monkeypatch):
        spec = json.dumps({"family": "wigner", "n": 3, "params": {}})
        out0, out1 = tmp_path / "s0.json", tmp_path / "s1.json"
        run_cli(capsys, "generate", "--spec", spec, "--out", str(out0))
        monkeypatch.setenv("WIGNERKIT_SEED", "123")
        run_cli(capsys, "generate", "--spec", spec, "--out", str(out1))
        assert out0.read_bytes() != out1.read_bytes()

    def test_explicit_seed_wins_over_env(self, tmp_path, capsys, monkeypatch):
        out0, out1 = tmp_path / "s0.json", tmp_path / "s1.json"
        spec = json.dumps({"family": "wigner", "n": 3, "params": {}, "seed": 9})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(out0))
        monkeypatch.setenv("WIGNERKIT_SEED", "123")
        run_cli(capsys, "generate", "--spec", spec, "--out", str(out1))
        assert out0.read_bytes() == out1.read_bytes()


class TestVerdictTruthTable:
    """analyze(generate(spec)) exit code matches the family's expected flag."""

    GRID = [
        ({"family": "wigner", "n": 3, "params": {"variant": "direct"}, "seed": 3}, 1, 0),
        ({"family": "wigner", "n": 4, "params": {"variant": "transpose"}, "seed": 4}, 3, 0),
        ({"family": "depolarizing", "n": 3, "params": {"lambda": 1.0}}, 1, 0),
        ({"family": "depolarizing", "n": 3, "params": {"lambda": 0.5}}, 1, 1),
        ({"family": "depolarizing", "n": 4, "params": {"lambda": 0.0}}, 2, 1),
        ({"family": "pseudo_depolarizing", "n": 2, "params": {"mu": 1.0}}, 1, 0),
        ({"family": "pseudo_depolarizing", "n": 3, "params": {"mu": 1.0}}, 1, 1),
        ({"family": "pseudo_depolarizing", "n": 4, "params": {"mu": 0.1}}, 2, 1),
        ({"family": "perturbed_wigner", "n": 3,
          "params": {"variant": "direct", "epsilon": 0.0}, "seed": 5}, 1, 0),
        ({"family": "perturbed_wigner", "n": 3,
          "params": {"variant": "transpose", "epsilon": 0.1}, "seed": 6}, 1, 1),
    ]

    @pytest.mark.parametrize("spec,k,expected_code", GRID)
    def test_grid_point(self, tmp_path, capsys, spec, k, expected_code):
        from wignerkit import expected_flags
        flags = expected_flags(spec["family"], spec["n"], spec["params"], k)
        assert expected_code == (0 if flags.expected["wigner"] else 1)
        out = tmp_path / "m.json"
        run_cli(capsys, "generate", "--spec", json.dumps(spec), "--out", str(out))
        code, _, _ = run_cli(capsys, "analyze", str(out), "--k", str(k))
        assert code == expected_code


class TestSelftest:
    def test_quick_selftest_passes(self, capsys):
        code, stdout, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 0
        assert "lemma1_identity" in stdout
        assert "PASS" in stdout and "FAIL" not in stdout
