import json

import numpy as np
import pytest

from wignerkit import (
    ClassifyConfig,
    SerializationError,
    apply,
    classify,
    depolarizing,
    haar_unitary,
    to_choi,
    wigner_map,
)
from wignerkit.serialize import (
    dumps,
    family_spec_from_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    superop_from_json,
    superop_to_json,
)


class TestMatrixJson:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        again = matrix_from_json(json.loads(dumps(matrix_to_json(m))))
        np.testing.assert_array_equal(again, m)

    def test_shape_checks(self):
        with pytest.raises(SerializationError):
            matrix_from_json({"n": 2, "data": [[[0.0, 0.0]]]})
        with pytest.raises(SerializationError):
            matrix_from_json({"n": 2, "data": [[[0.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]]})
        with pytest.raises(SerializationError):
            matrix_from_json({"data": []})

    def test_non_finite_rejected(self):
        bad = {"n": 1, "data": [[[float("inf"), 0.0]]]}
        with pytest.raises(SerializationError):
            matrix_from_json(bad)


    def test_booleans_rejected(self):
        # JSON true/false are not numbers, although Python counts bool as int.
        with pytest.raises(SerializationError):
            matrix_from_json({"n": 1, "data": [[[True, False]]]})
        with pytest.raises(SerializationError):
            matrix_from_json({"n": True, "data": [[[1.0, 0.0]]]})
        obj = superop_to_json(depolarizing(1, 1.0))
        obj["n"] = True
        with pytest.raises(SerializationError):
            superop_from_json(obj)


class TestSuperOpJson:
    def test_superop_repr_round_trip(self):
        s = wigner_map(haar_unitary(3, 2), "transpose")
        again = superop_from_json(json.loads(dumps(superop_to_json(s))))
        assert again.n == 3
        np.testing.assert_array_equal(again.mat, s.mat)

    def test_choi_repr_round_trip(self):
        s = depolarizing(3, 0.4)
        obj = superop_to_json(s, repr_tag="choi")
        assert obj["repr"] == "choi"
        np.testing.assert_array_equal(matrix_from_json(obj["data"]), to_choi(s).mat)
        again = superop_from_json(obj)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(apply(again, a), apply(s, a), atol=1e-14)

    def test_convention_mismatch(self):
        obj = superop_to_json(depolarizing(2, 0.5))
        obj["convention"] = "row-stacking"
        with pytest.raises(SerializationError):
            superop_from_json(obj)

    def test_wrong_data_size(self):
        obj = superop_to_json(depolarizing(2, 0.5))
        obj["n"] = 3
        with pytest.raises(SerializationError):
            superop_from_json(obj)

    def test_unknown_repr(self):
        obj = superop_to_json(depolarizing(2, 0.5))
        obj["repr"] = "kraus"
        with pytest.raises(SerializationError):
            superop_from_json(obj)


class TestReportJson:
    def test_wigner_report_schema(self):
        rep = classify(wigner_map(haar_unitary(3, 4)), 1, ClassifyConfig(seed=4))
        obj = report_to_json(rep)
        assert obj["verdict"] == "wigner"
        assert obj["reasons"] == []
        assert obj["variant"] == "direct"
        assert obj["residual"] <= 1e-9
        u = matrix_from_json(obj["unitary"])
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-11
        hyp = obj["hypotheses"]
        assert hyp["unital"] is True
        assert hyp["positivity"]["min_value"] >= -1e-9
        assert hyp["rank_k_audit"]["pass_fraction"] == 1.0
        json.dumps(obj)  # serializable

    def test_not_wigner_report_schema(self):
        rep = classify(depolarizing(3, 0.5), 1, ClassifyConfig(seed=5))
        obj = report_to_json(rep)
        assert obj["verdict"] == "not_wigner"
        assert obj["reasons"] == ["rank_k_violation"]
        assert obj["variant"] is None
        assert obj["unitary"] is None
        assert obj["residual"] is None
        json.dumps(obj)


class TestFamilySpec:
    def test_parse(self):
        family, n, params, seed = family_spec_from_json(
            {"family": "wigner", "n": 3, "params": {"variant": "transpose"}, "seed": 7})
        assert (family, n, seed) == ("wigner", 3, 7)
        assert params == {"variant": "transpose"}

    def test_defaults(self):
        family, n, params, seed = family_spec_from_json({"family": "depolarizing", "n": 2})
        assert params == {} and seed is None

    @pytest.mark.parametrize("bad", [
        {"n": 3},
        {"family": "wigner"},
        {"family": "wigner", "n": -1},
        {"family": "wigner", "n": 3, "params": 5},
        {"family": "wigner", "n": 3, "seed": "x"},
        [],
        {"family": "wigner", "n": True},
        {"family": "wigner", "n": 3, "seed": False},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SerializationError):
            family_spec_from_json(bad)


class TestDumps:
    def test_deterministic_output(self):
        s = depolarizing(2, 0.25)
        assert dumps(superop_to_json(s)) == dumps(superop_to_json(depolarizing(2, 0.25)))
        assert dumps({"b": 1, "a": 2}).index('"a"') < dumps({"b": 1, "a": 2}).index('"b"')
