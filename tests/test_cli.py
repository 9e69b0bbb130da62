import contextlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerkit import (
    CONVENTION,
    FAMILIES,
    build_map,
    depolarizing,
    haar_unitary,
    pseudo_depolarizing,
    random_hermitian,
    wigner_map,
)
from wignerkit import cli
from wignerkit.cli import main
from wignerkit.serialize import dumps, iterdumps, matrix_to_json, superop_to_json
from wignerkit.matrix_core import MAX_DRAWS
from wignerkit.superop import MAX_ENTRY


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_loads(text):
    # json.loads that refuses NaN, Infinity and -Infinity, which are not JSON.
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def scaled_choi_file(path, n, seed, scale):
    # A random Hermiticity-preserving map's Choi matrix times scale, written
    # without the SuperOp checks so that any scale reaches the file; returns it.
    choi = random_hermitian(n * n, seed) * scale
    path.write_text(dumps({"n": n, "convention": CONVENTION, "repr": "choi",
                           "data": matrix_to_json(choi)}))
    return choi


def run_quiet(*argv):
    # main's exit code, with argparse's SystemExit read as its code; output is dropped.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code


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

    @pytest.mark.parametrize("old", [b'{"old": true}\n', None], ids=["existing", "absent"])
    def test_analyze_failed_write_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                       old):
        mapfile, report_file = tmp_path / "m.json", tmp_path / "r.json"
        spec = json.dumps({"family": "wigner", "n": 4, "seed": 1})
        assert run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))[0] == 0
        if old is not None:
            report_file.write_bytes(old)
        written = []

        def failing_dump(obj, fh):
            # The text before the unitary's block and its first row reach the file.
            for piece in iterdumps(obj):
                if len(written) == 2:
                    raise OSError(28, "No space left on device")
                fh.write(piece)
                fh.flush()
                written.append(piece)

        monkeypatch.setattr(cli, "dump", failing_dump)
        code, stdout, err = run_cli(capsys, "analyze", str(mapfile), "--k", "2",
                                    "--out", str(report_file))
        assert code == 2 and stdout == "" and "No space left on device" in err
        assert len(written) == 2
        assert (report_file.read_bytes() if report_file.exists() else None) == old
        assert sorted(os.listdir(tmp_path)) == ["m.json"] + ([] if old is None else ["r.json"])

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_analyze_to_standard_output_is_written_directly(self, tmp_path, capfd):
        mapfile = tmp_path / "m.json"
        spec = json.dumps({"family": "wigner", "n": 3, "seed": 2})
        assert main(["generate", "--spec", spec, "--out", str(mapfile)]) == 0
        assert main(["analyze", str(mapfile), "--k", "1"]) == 0
        text = capfd.readouterr().out
        assert main(["analyze", str(mapfile), "--k", "1", "--out", "/dev/stdout"]) == 0
        assert capfd.readouterr().out == text
        assert json.loads(text)["verdict"] == "wigner"

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
                                       ("--tol", "0"), ("--samples", "-5"), ("--seed", "-1"),
                                       ("--tol", "1")])
    def test_bad_tol_or_samples_exit_two(self, tmp_path, capsys, flags):
        # A true Wigner map: a bad value must not turn into a verdict either way.
        mapfile = tmp_path / "m.json"
        spec = json.dumps({"family": "wigner", "n": 4, "params": {}, "seed": 1})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))
        code, stdout, err = run_cli(capsys, "analyze", str(mapfile), "--k", "2", *flags)
        assert code == 2
        assert stdout == "" and err != ""

    def test_negative_samples_rejected_before_any_stage(self, tmp_path, capsys, monkeypatch):
        import wignerkit.wigner

        def stage(*args, **kwargs):
            raise AssertionError("a classify stage ran")

        monkeypatch.setattr(wignerkit.wigner, "is_unital", stage)
        mapfile = tmp_path / "m.json"
        spec = json.dumps({"family": "pseudo_depolarizing", "n": 4, "params": {"mu": 0.6}})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))
        code, stdout, err = run_cli(capsys, "analyze", str(mapfile), "--k", "2",
                                    "--samples", "-5", "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "samples" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("samples", [MAX_DRAWS + 1, 10**9])
    def test_oversized_samples_rejected_before_any_stage(self, tmp_path, capsys, monkeypatch,
                                                          samples):
        # Unchecked, 10^9 samples would allocate a 2 x n x n stack of normals each.
        import wignerkit.wigner

        def stage(*args, **kwargs):
            raise AssertionError("a classify stage ran")

        monkeypatch.setattr(wignerkit.wigner, "is_unital", stage)
        mapfile = tmp_path / "m.json"
        spec = json.dumps({"family": "wigner", "n": 4, "params": {}, "seed": 1})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))
        code, stdout, err = run_cli(capsys, "analyze", str(mapfile), "--k", "1",
                                    "--samples", str(samples), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "samples" in err
        assert not (tmp_path / "r.json").exists()

    def test_deeply_nested_map_file_exit_two(self, tmp_path, capsys):
        # Deeper than the JSON parser's recursion limit.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, stdout, err = run_cli(capsys, "analyze", str(deep), "--k", "1")
        assert code == 2
        assert stdout == "" and err.startswith("error:")

    @pytest.mark.parametrize("where", ["inline", "file"])
    def test_deeply_nested_spec_exit_two(self, tmp_path, capsys, where):
        spec = '{"a": ' * 5000 + "1" + "}" * 5000
        if where == "file":
            (tmp_path / "spec.json").write_text(spec)
            spec = str(tmp_path / "spec.json")
        out = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert code == 2
        assert err.startswith("error:")
        assert not out.exists()

    def test_boolean_dimension_exit_two(self, tmp_path, capsys):
        spec = json.dumps({"family": "wigner", "n": True})
        out = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert code == 2
        assert err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("family,params", [
        ("depolarizing", {"lambda": None}),
        ("perturbed_wigner", {"variant": "direct", "epsilon": [1]}),
        ("depolarizing", {"lambda": True}),
        ("pseudo_depolarizing", {"mu": "0.5"})])
    def test_non_numeric_family_parameter_exit_two(self, tmp_path, capsys, family, params):
        # Unchecked, null and [1] end in a TypeError traceback, and true and
        # "0.5" run as the numbers 1.0 and 0.5.
        out = tmp_path / "x.json"
        spec = json.dumps({"family": family, "n": 3, "params": params})
        code, _, err = run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_huge_integer_entry_exit_two(self, tmp_path, capsys):
        # Unchecked, converting a 400-digit integer to a float raises an
        # OverflowError, which the CLI does not catch.
        mapfile = tmp_path / "m.json"
        spec = json.dumps({"family": "depolarizing", "n": 2, "params": {"lambda": 0.5}})
        run_cli(capsys, "generate", "--spec", spec, "--out", str(mapfile))
        obj = json.loads(mapfile.read_text())
        obj["data"]["data"][3][1][0] = 10**400
        mapfile.write_text(json.dumps(obj))
        code, stdout, err = run_cli(capsys, "analyze", str(mapfile), "--k", "1")
        assert code == 2
        assert stdout == "" and err.startswith("error: entry (3, 1)")

    def test_entry_above_the_ceiling_exit_two(self, tmp_path, capsys):
        # Scaled by 1e150 a random map's report held max_residual Infinity,
        # and by 1e160 NaN: the rank-k audit's squares overflowed.
        mapfile = tmp_path / "m.json"
        scaled_choi_file(mapfile, 3, 1, 1e160)
        code, stdout, err = run_cli(capsys, "analyze", str(mapfile), "--k", "1")
        assert code == 2
        assert stdout == "" and "exceeds 1e+60" in err

    def test_huge_integer_family_parameter_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        spec = '{"family": "depolarizing", "n": 2, "params": {"lambda": 1%s}}' % ("0" * 400)
        code, _, err = run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert code == 2
        assert err.startswith("error: family parameter lambda=") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [list(range(10**4)), [[[[[[0] * 6] * 6] * 6] * 6] * 6]],
                             ids=["long_list", "nested_lists"])
    def test_bad_family_parameter_is_not_echoed_whole(self, tmp_path, capsys, value):
        # Unchecked, the whole value is echoed: 58,890 characters for the
        # list. The nested lists stay within reprlib's six levels, so its repr
        # alone still runs to 26,438 characters.
        out = tmp_path / "x.json"
        spec = json.dumps({"family": "depolarizing", "n": 2, "params": {"lambda": value}})
        code, _, err = run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert code == 2
        assert err.startswith("error: family parameter lambda=[") and "(list)" in err
        assert len(err) < 200
        assert not out.exists()

    @pytest.mark.parametrize("n", [65, 10**6])
    def test_dimension_above_ceiling_exit_two(self, tmp_path, capsys, n):
        # Unchecked, n = 10**6 ends in a MemoryError traceback from the Haar draw.
        out = tmp_path / "x.json"
        spec = json.dumps({"family": "wigner", "n": n})
        code, _, err = run_cli(capsys, "generate", "--spec", spec, "--out", str(out))
        assert code == 2
        assert err.startswith("error: n must be an integer in 1..64") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["spec", "env"])
    def test_negative_seed_exit_two(self, tmp_path, capsys, monkeypatch, where):
        # depolarizing draws nothing from its seed, but the seed is still checked.
        spec = {"family": "depolarizing", "n": 3, "params": {"lambda": 0.5}}
        if where == "spec":
            spec["seed"] = -3
        else:
            monkeypatch.setenv("WIGNERKIT_SEED", "-5")
        out = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "generate", "--spec", json.dumps(spec), "--out", str(out))
        assert code == 2
        assert "seed" in err
        assert not out.exists()

    def test_unknown_family_exit_two(self, tmp_path, capsys):
        spec = json.dumps({"family": "kraus", "n": 2})
        code, _, err = run_cli(capsys, "generate", "--spec", spec,
                               "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "kraus" in err

    @pytest.mark.parametrize("spec", [
        {"family": "wigner", "n": 3, "params": {"varaint": "transpose"}},
        {"family": "wigner", "n": 3, "sed": 7},
        {"family": "wigner", "n": 3, "params": {"variant": "transpose", "epsilon": 0.1}},
        {"family": 5, "n": 3}], ids=["misspelt_param", "misspelt_key", "unread_param",
                                     "non_string_family"])
    def test_unread_or_malformed_spec_exit_two(self, tmp_path, capsys, spec):
        # Unchecked, the first three wrote the direct seed-0 map: the key
        # meant to change it was ignored.
        out = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "generate", "--spec", json.dumps(spec), "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


# Every family, and both variants of those that have one.
GENERATED = [("wigner", {"variant": "direct"}), ("wigner", {"variant": "transpose"}),
             ("depolarizing", {"lambda": 0.3}), ("pseudo_depolarizing", {"mu": 0.7}),
             ("perturbed_wigner", {"variant": "direct", "epsilon": 1e-3}),
             ("perturbed_wigner", {"variant": "transpose", "epsilon": 1e-3})]


class TestGenerateFile:
    def test_cases_cover_every_family(self):
        assert {family for family, _ in GENERATED} == set(FAMILIES)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("family,params", GENERATED,
                             ids=[f"{f}-{p.get('variant', '')}" for f, p in GENERATED])
    def test_file_is_dumps_of_superop_to_json(self, tmp_path, capsys, family, params, n):
        out = tmp_path / "map.json"
        spec = json.dumps({"family": family, "n": n, "params": params, "seed": n + 5})
        assert run_cli(capsys, "generate", "--spec", spec, "--out", str(out))[0] == 0
        expected = dumps(superop_to_json(build_map(family, n, params, n + 5)))
        assert out.read_bytes() == expected.encode()
        assert os.listdir(tmp_path) == ["map.json"]

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                       KeyboardInterrupt()], ids=["OSError", "interrupt"])
    @pytest.mark.parametrize("old", [b'{"old": true}\n', None], ids=["existing", "absent"])
    def test_failed_write_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, old,
                                               error):
        out = tmp_path / "map.json"
        if old is not None:
            out.write_bytes(old)
        written = []

        def failing_dump(obj, fh):
            # The text before the block and four rows reach the file, then the write fails.
            for piece in iterdumps(obj):
                if len(written) == 5:
                    raise error
                fh.write(piece)
                fh.flush()
                written.append(piece)

        monkeypatch.setattr(cli, "dump", failing_dump)
        argv = ["generate", "--spec", json.dumps({"family": "wigner", "n": 8}), "--out", str(out)]
        if isinstance(error, OSError):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and "No space left on device" in err
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert len(written) == 5
        assert (out.read_bytes() if out.exists() else None) == old
        assert os.listdir(tmp_path) == ([] if old is None else ["map.json"])

    def test_overwrite_keeps_the_file_mode(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        out.write_text("old")
        out.chmod(0o640)
        spec = json.dumps({"family": "depolarizing", "n": 2, "params": {"lambda": 0.5}})
        assert run_cli(capsys, "generate", "--spec", spec, "--out", str(out))[0] == 0
        assert out.read_text() == dumps(superop_to_json(depolarizing(2, 0.5)))
        assert out.stat().st_mode & 0o777 == 0o640

    def test_symbolic_link_is_followed(self, tmp_path, capsys):
        target, link = tmp_path / "real.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        spec = json.dumps({"family": "depolarizing", "n": 2, "params": {"lambda": 0.5}})
        assert run_cli(capsys, "generate", "--spec", spec, "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert target.read_text() == dumps(superop_to_json(depolarizing(2, 0.5)))
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_standard_output_is_written_directly(self, capfd):
        spec = json.dumps({"family": "depolarizing", "n": 2, "params": {"lambda": 0.5}})
        assert main(["generate", "--spec", spec, "--out", "/dev/stdout"]) == 0
        assert capfd.readouterr().out == dumps(superop_to_json(depolarizing(2, 0.5)))

    def test_memory_peak_below_two_superoperators(self, tmp_path):
        # Formatting the nested list and joining the text peaked at about 20 x S.
        spec = {"family": "wigner", "n": 24, "params": {"variant": "direct"}, "seed": 1}
        nbytes = build_map(spec["family"], 24, spec["params"], 1).mat.nbytes
        tracemalloc.start()
        try:
            code = main(["generate", "--spec", json.dumps(spec),
                         "--out", str(tmp_path / "map.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * nbytes


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

    @pytest.mark.parametrize("n", ["65", "1000000"])
    def test_dimension_above_ceiling_exit_two(self, capsys, n):
        code, stdout, err = run_cli(capsys, "lemma", "--n", n, "--k", "1")
        assert code == 2
        assert stdout == "" and err.startswith("error: --n=") and "Traceback" not in err


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
    """analyze(generate(spec)) exits with the code the family's closed form predicts."""

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


# Any JSON value but an integer, so that no drawn n is a large valid dimension.
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)
numbers = st.floats() | st.integers(-3, 3) | st.sampled_from([10**400, -(10**400)])
# Each family with the parameters it reads, and no others.
family_params = {
    "wigner": {"variant": st.sampled_from(["direct", "transpose"])},
    "depolarizing": {"lambda": st.floats(0, 1)},
    "pseudo_depolarizing": {"mu": st.floats(0, 10)},
    "perturbed_wigner": {"variant": st.sampled_from(["direct", "transpose"]),
                         "epsilon": st.floats(-1, 1)},
}
valid_specs = st.sampled_from(FAMILIES).flatmap(lambda family: st.fixed_dictionaries({
    "family": st.just(family),
    "n": st.integers(1, 6),
    "params": st.fixed_dictionaries(family_params[family]),
    "seed": st.integers(0, 2**70)}))
# One field of a valid spec at a time is replaced or dropped. Valid dimensions
# stay at most 6; the ceiling cases are the only larger ones.
spec_faults = {
    "family": st.text(max_size=5) | json_values,
    "n": st.integers(-1, 0) | st.sampled_from([65, 10**6, 2**70]) | json_values,
    "params": json_values,
    "seed": st.integers(max_value=-1) | json_values,
}


@pytest.fixture(scope="module")
def map_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("maps")
    paths = []
    for name, s in [("wigner", wigner_map(haar_unitary(3, 5), "transpose")),
                    ("depolarizing", depolarizing(3, 0.5)),
                    ("pseudo", pseudo_depolarizing(3, 1.0))]:
        paths.append(root / f"{name}.json")
        paths[-1].write_text(dumps(superop_to_json(s)))
    return paths


class TestProperties:
    # Any input gives a result or exit 2, never a traceback.
    @settings(max_examples=40, deadline=None, database=None)
    @given(valid_specs, st.data())
    def test_generate_any_spec(self, tmp_path_factory, spec, data):
        fault = data.draw(st.sampled_from([None, "drop", "param", "unread", *spec_faults]))
        if fault == "drop":
            del spec[data.draw(st.sampled_from(sorted(spec)))]
        elif fault == "unread":
            # A key the spec or the family does not read, with a valid value.
            where = data.draw(st.sampled_from([spec, spec["params"]]))
            unread = sorted({"family", "n", "params", "seed", "variant", "lambda", "mu",
                             "epsilon", "sed"} - set(where))
            where[data.draw(st.sampled_from(unread))] = 0.5
        elif fault == "param":
            spec["params"][data.draw(st.sampled_from(sorted(spec["params"])))] = data.draw(
                numbers | json_values)
        elif fault is not None:
            spec[fault] = data.draw(spec_faults[fault])
        out = tmp_path_factory.getbasetemp() / "generated.json"
        out.unlink(missing_ok=True)
        code = run_quiet("generate", "--spec", json.dumps(spec), "--out", str(out))
        assert code in (0, 2)
        assert out.exists() == (code == 0)
        if fault is None:
            assert code == 0
        if fault == "unread":
            assert code == 2

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.integers(0, 2), st.integers(0, 50), st.data())
    def test_analyze_any_flags(self, map_files, which, samples, data):
        flags = {"--k": st.integers(1, 2).map(str),
                 "--seed": st.integers(0, 2**70).map(str),
                 "--tol": st.floats(1e-12, 1e-2).map(repr)}
        spoiled = data.draw(st.sampled_from([None, *flags]))
        if spoiled is not None:
            flags[spoiled] = (st.integers(-2, 4) | st.floats()).map(repr) | st.text(max_size=3)
        argv = ["analyze", str(map_files[which]), "--samples", str(samples)]
        for flag, values in flags.items():
            if flag == "--k" or data.draw(st.booleans()):
                argv += [flag, data.draw(values)]
        assert run_quiet(*argv) in (0, 1, 2)

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.integers(2, 3), st.integers(0, 2**32), st.integers(-300, 300))
    def test_analyze_scaled_map_writes_json(self, tmp_path_factory, n, seed, exponent):
        # A random Hermiticity-preserving map scaled by 10^exponent: analyze
        # exits 2 exactly when an entry exceeds the ceiling, and every report
        # it writes is JSON, with no NaN or Infinity.
        root = tmp_path_factory.getbasetemp()
        mapfile, out = root / "scaled.json", root / "report.json"
        choi = scaled_choi_file(mapfile, n, seed, 10.0 ** exponent)
        out.unlink(missing_ok=True)
        code = run_quiet("analyze", str(mapfile), "--k", "1", "--samples", "10",
                         "--out", str(out))
        too_large = np.abs(choi.view(float)).max() > MAX_ENTRY
        assert code == (2 if too_large else 1)
        assert out.exists() == (code != 2)
        if out.exists():
            strict_loads(out.read_text())
