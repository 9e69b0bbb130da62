import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerkit import (
    CONVENTION,
    FAMILIES,
    BadParameterError,
    ClassifyConfig,
    NonFiniteError,
    SerializationError,
    SuperOp,
    apply,
    build_map,
    classify,
    depolarizing,
    haar_unitary,
    to_choi,
    wigner_map,
)
from wignerkit.cli import main
from wignerkit.serialize import (
    dump,
    dumps,
    family_spec_from_json,
    iterdumps,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    superop_document,
    superop_from_json,
    superop_to_json,
)
from wignerkit.superop import MAX_ENTRY

PROPERTY = settings(max_examples=150, deadline=None, database=None)
FAMILY_PARAMS = {"wigner": {"variant": "transpose"}, "depolarizing": {"lambda": 0.3},
                 "pseudo_depolarizing": {"mu": 0.7}, "perturbed_wigner": {"epsilon": 1e-3}}


def reference_dumps(obj) -> str:
    """The wire format dumps must reproduce byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def map_json(s: SuperOp, repr_tag: str) -> dict:
    """A map file's object with "repr" repr_tag: superop_to_json(s), or for
    "choi" the same with s's Choi matrix, which the package reads but never
    writes."""
    obj = superop_to_json(s)
    if repr_tag == "choi":
        obj.update(repr="choi", data=matrix_to_json(to_choi(s).mat))
    return obj


def ref_matrix_from_json(obj) -> np.ndarray:
    """The per-entry loop matrix_from_json replaced, for valid payloads."""
    out = np.zeros((obj["n"], obj["n"]), dtype=complex)
    for i, row in enumerate(obj["data"]):
        for j, (re, im) in enumerate(row):
            out[i, j] = complex(float(re), float(im))
    return out


def bits(m: np.ndarray) -> np.ndarray:
    # Compares -0.0 and 0.0 as different, which array_equal does not.
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


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

    def test_integer_entries_read_as_floats(self):
        m = matrix_from_json({"n": 2, "data": [[[1, 0], [0.5, -2]], [[0, 0], [2**60 + 1, 3]]]})
        np.testing.assert_array_equal(m, [[1, 0.5 - 2j], [0, float(2**60 + 1) + 3j]])
        assert m.dtype == complex

    @pytest.mark.parametrize("entry,message", [
        ([10**400, 0.0], "entry (1, 0) is not a finite float"),
        ([0.0, -(10**309)], "entry (1, 0) is not a finite float"),
        ([float("nan"), 0.0], "entry (1, 0) is not a finite float"),
        ([0.0, float("-inf")], "entry (1, 0) is not a finite float"),
        ([0.0, True], "entry (1, 0) must be a [re, im] pair"),
        ([0.0], "entry (1, 0) must be a [re, im] pair"),
        ([0.0, 1.0, 2.0], "entry (1, 0) must be a [re, im] pair"),
        ("0.0", "entry (1, 0) must be a [re, im] pair"),
        (0.0, "entry (1, 0) must be a [re, im] pair"),
    ])
    def test_bad_entry_named(self, entry, message):
        data = [[[0.0, 0.0], [1.0, 0.0]], [entry, [2.0, 0.0]]]
        with pytest.raises(SerializationError) as err:
            matrix_from_json({"n": 2, "data": data})
        assert str(err.value).startswith(message)

    def test_bad_row_named(self):
        with pytest.raises(SerializationError, match="row 1 must have 2 entries"):
            matrix_from_json({"n": 2, "data": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]]})
        with pytest.raises(SerializationError, match="row 0 must have 2 entries"):
            matrix_from_json({"n": 2, "data": [{"a": 1, "b": 2}, [[0.0, 0.0], [1.0, 0.0]]]})


    @pytest.mark.parametrize("entries", ["abc", [[1.0, "x"], [0.0, 1.0]], [[1.0], [0.0, 1.0]]],
                             ids=["text", "text-entry", "ragged"])
    def test_writing_non_numbers_raises_typed_error(self, entries):
        # numpy's bare ValueError, unconverted.
        with pytest.raises(BadParameterError):
            matrix_to_json(entries)

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
        obj = map_json(s, "choi")
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

    @pytest.mark.parametrize("repr_tag", ["superop", "choi"])
    def test_entry_above_the_ceiling(self, repr_tag):
        # A finite float the reader accepts, which the map checks then refuse.
        obj = json.loads(dumps(map_json(depolarizing(2, 0.5), repr_tag)))
        obj["data"]["data"][1][2] = [0.0, -1e61]
        with pytest.raises(NonFiniteError, match="exceeds"):
            superop_from_json(obj)
        obj["data"]["data"][1][2] = [0.0, -MAX_ENTRY]
        assert superop_from_json(obj).n == 2


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
        # proof, iterations and spread stay off the wire.
        assert set(hyp["positivity"]) == {"min_value", "restarts", "converged"}
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

    def test_largest_dimension_accepted(self):
        assert family_spec_from_json({"family": "wigner", "n": 64})[1] == 64

    @pytest.mark.parametrize("bad", [
        {"n": 3},
        {"family": "wigner"},
        {"family": "wigner", "n": -1},
        {"family": "wigner", "n": 3, "params": 5},
        {"family": "wigner", "n": 3, "seed": "x"},
        [],
        {"family": "wigner", "n": True},
        {"family": "wigner", "n": 3, "seed": False},
        {"family": "wigner", "n": 65},
        {"family": "wigner", "n": 10**6},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SerializationError):
            family_spec_from_json(bad)


class TestDumps:
    def test_deterministic_output(self):
        s = depolarizing(2, 0.25)
        assert dumps(superop_to_json(s)) == dumps(superop_to_json(depolarizing(2, 0.25)))
        assert dumps({"b": 1, "a": 2}).index('"a"') < dumps({"b": 1, "a": 2}).index('"b"')

    @pytest.mark.parametrize("repr_tag", ["superop", "choi"])
    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_map_files_match_reference(self, family, n, repr_tag):
        obj = map_json(build_map(family, n, FAMILY_PARAMS[family], seed=n), repr_tag)
        assert dumps(obj) == reference_dumps(obj)

    @pytest.mark.parametrize("s,verdict", [
        (wigner_map(haar_unitary(4, 8), "transpose"), "wigner"),
        (depolarizing(4, 0.5), "not_wigner"),
    ])
    def test_reports_match_reference(self, s, verdict):
        obj = report_to_json(classify(s, 2, ClassifyConfig(samples=10, seed=3)))
        assert obj["verdict"] == verdict
        assert dumps(obj) == reference_dumps(obj)

    def test_lemma_output_matches_reference(self, capsys):
        assert main(["lemma", "--n", "5", "--k", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert len(obj["projections"]) == 4
        assert out == reference_dumps(obj) == dumps(obj)

    @pytest.mark.parametrize("obj", [
        {"n": 2, "data": [[[1, 0.5], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"n": 1, "data": [[[True, 0.0]]]},
        {"n": 1, "data": [[[float("nan"), 0.0]]]},
        {"n": 1, "data": [[[0.0, float("inf")]]]},
        {"n": 1, "data": [[[float("-inf"), 1.0]]]},
        {"n": 2, "data": [[[-0.0, 0.0], [5e-324, -1e308]], [[1e-7, 1e16], [-0.0, 0.1]]]},
        {"n": 2, "data": [[[0.0, 0.0], [1.0, 0.0]]]},
        {"n": 2, "data": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]]},
        {"n": 1, "data": [[[0.0, 0.0, 0.0]]]},
        {"n": 1, "data": [[(0.0, 1.0)]]},
        {"n": 0, "data": []},
        {"n": True, "data": [[[0.5, 0.0]]]},
        {"data": [[[0.5, 0.0]]]},
        {"n": 1, "data": [[[np.float64(0.5), 0.0]]]},
        {"outer": [{"n": 1, "data": [[[0.25, -0.0]]]},
                   {"inner": {"n": 2, "data": [[[1.0, 2.0], [3.0, 4.0]],
                                               [[5.0, 6.0], [7.0, 8.0]]]}}],
         "z": {"n": 1, "data": [[[1.5, 2.5]]], "note": "x"},
         "a": {"n": 1, "data": [[[3.5, 4.5]]]}},
        [{"n": 1, "data": [[[0.5, 0.5]]]}, [{"n": 1, "data": [[[1.0, 1.0]]]}]],
        {"n": 1, "data": [[[0.5, 0.0]]], "name": "\x000", "\x001": 2},
        {"n": 1, "data": [[[0.5, 0.0]]], "name": "\\u00000"},
    ], ids=["ints", "bool", "nan", "inf", "-inf", "-0.0 and extremes", "too few rows",
            "ragged", "triple", "tuple pair", "empty", "bool n", "no n", "numpy float",
            "nested", "top-level list", "NUL strings", "escaped backslash"])
    def test_odd_values_match_reference(self, obj):
        assert dumps(obj) == reference_dumps(obj)

    def test_memory_stays_near_text_size(self):
        # Formatting a row at a time keeps the peak under 4x the text; the
        # json.dumps indenting encoder alone peaks at about 5.4x.
        s = wigner_map(haar_unitary(16, 1))
        tracemalloc.start()
        try:
            text = dumps(superop_to_json(s))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)

    @pytest.mark.parametrize("read_from", ["superop", "choi"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_documents_write_superop_to_json_text(self, family, n, read_from):
        # A map read from a file of either representation is written as its
        # superoperator, from its own array: the text of superop_to_json.
        s = build_map(family, n, FAMILY_PARAMS[family], seed=n)
        read = superop_from_json(json.loads(dumps(map_json(s, read_from))))
        doc = superop_document(read)
        assert doc["repr"] == "superop" and doc["data"]["data"] is read.mat
        assert dumps(doc) == dumps(superop_to_json(read)) == dumps(superop_to_json(s))

    @pytest.mark.parametrize("obj", [
        {"n": 1, "data": np.array([[complex("nan+1j")]])},
        {"n": 2, "data": np.array([[1 + 2j, np.inf], [0, -0.0]])},
        {"n": 1, "data": np.zeros((1, 2), complex)},
        {"n": 2, "data": np.zeros((2, 2, 1), complex)},
        {"n": 1, "data": np.zeros((0, 0), complex)},
        {"n": 1.0, "data": np.eye(2, dtype=complex)},
        {"x": np.array([0.5j, -0.0]), "y": [np.eye(1, dtype=complex)]},
        {"n": 1, "data": np.array([[0.5 - 0.25j]]), "name": "\x000"},
        {"n": 2, "data": np.eye(2, dtype=complex)[:, ::-1]},
    ], ids=["nan", "inf", "not square", "3-d", "empty", "float n", "elsewhere",
            "NUL string", "strided"])
    def test_odd_arrays_match_reference(self, obj):
        # Any complex ndarray is written as its nested [re, im] lists.
        plain = {k: pairs(v) for k, v in obj.items()}
        assert dumps(obj) == reference_dumps(plain)

    @pytest.mark.parametrize("array", [np.eye(2), np.eye(2, dtype=np.complex64)],
                             ids=["float64", "complex64"])
    def test_other_arrays_raise_as_json_does(self, array):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dumps({"n": 2, "data": array})

    def test_dump_writes_a_row_at_a_time(self):
        sizes = []

        class Recorder(io.StringIO):
            def write(self, piece):
                sizes.append(len(piece))
                return super().write(piece)

        s = wigner_map(haar_unitary(4, 2))
        fh = Recorder()
        dump(superop_document(s), fh)
        assert fh.getvalue() == dumps(superop_to_json(s))
        # The text before the block, one piece per row, the block's close and the rest.
        assert len(sizes) == 16 + 4
        assert max(sizes) < len(fh.getvalue()) / 10


def pairs(value):
    """value with every complex ndarray in it replaced by its nested [re, im] lists."""
    if isinstance(value, np.ndarray):
        return np.stack([value.real, value.imag], axis=-1).tolist()
    if isinstance(value, list):
        return [pairs(v) for v in value]
    return value


finite = st.floats(allow_nan=False, allow_infinity=False)
within_ceiling = st.floats(-MAX_ENTRY, MAX_ENTRY)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
huge_int = st.integers(309, 500).flatmap(
    lambda d: st.sampled_from([10**d, -(10**d)]))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5)
MISSING = object()


@st.composite
def finite_matrices(draw):
    n = draw(st.integers(1, 5))
    values = draw(st.lists(finite, min_size=2 * n * n, max_size=2 * n * n))
    return np.array(values).view(complex).reshape(n, n)


# Values whose text is easy to get wrong: signed zero, subnormals, the
# largest magnitude a SuperOp holds, and whole numbers.
wire_floats = (finite | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e59, -1e59])
               | st.integers(-(2**53), 2**53).map(float))


@st.composite
def complex_arrays(draw):
    n = draw(st.integers(1, 6))
    values = draw(st.lists(wire_floats, min_size=2 * n * n, max_size=2 * n * n))
    m = np.array(values).view(complex).reshape(n, n)
    return np.asfortranarray(m) if draw(st.booleans()) else m


def wrap(kind: str, block: dict) -> dict:
    if kind == "report":
        return {"verdict": "wigner", "reasons": [], "variant": "direct", "unitary": block,
                "residual": 1e-16, "hypotheses": {"unital": True, "positivity": None}}
    return {"n": 1, "convention": CONVENTION, "repr": kind, "data": block}


class TestProperties:
    @PROPERTY
    @given(finite_matrices())
    def test_round_trip_bit_exact(self, m):
        obj = matrix_to_json(m)
        text = dumps(obj)
        assert text == reference_dumps(obj)
        np.testing.assert_array_equal(bits(matrix_from_json(json.loads(text))), bits(m))

    @PROPERTY
    @given(complex_arrays(), st.sampled_from(["superop", "choi", "report"]))
    def test_array_blocks_write_the_nested_list_text(self, m, kind):
        expected = reference_dumps(wrap(kind, matrix_to_json(m)))
        obj = wrap(kind, {"n": m.shape[0], "data": m})
        fh = io.StringIO()
        dump(obj, fh)
        assert "".join(iterdumps(obj)) == fh.getvalue() == dumps(obj) == expected

    @PROPERTY
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.lists(finite | st.integers(-(2**80), 2**80), min_size=2, max_size=2),
                 min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_reader_matches_entry_loop(self, data):
        obj = {"n": len(data), "data": data}
        np.testing.assert_array_equal(bits(matrix_from_json(obj)), bits(ref_matrix_from_json(obj)))

    @PROPERTY
    @given(finite_matrices(), st.data())
    def test_malformed_entries_rejected(self, m, data):
        obj = json.loads(dumps(matrix_to_json(m)))
        n = obj["n"]
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        part = data.draw(st.integers(0, 1))
        row = obj["data"][i]
        fault = data.draw(st.sampled_from(
            ["bool", "string", "null", "non-finite", "huge int", "short row", "long row",
             "short pair", "long pair", "scalar entry", "object row"]))
        if fault == "bool":
            row[j][part] = data.draw(st.booleans())
        elif fault == "string":
            row[j][part] = data.draw(st.text(max_size=3))
        elif fault == "null":
            row[j][part] = None
        elif fault == "non-finite":
            row[j][part] = data.draw(non_finite)
        elif fault == "huge int":
            row[j][part] = data.draw(huge_int)
        elif fault == "short row":
            del row[j]
        elif fault == "long row":
            row.append([0.0, 0.0])
        elif fault == "short pair":
            del row[j][part]
        elif fault == "long pair":
            row[j].append(0.0)
        elif fault == "scalar entry":
            row[j] = row[j][part]
        else:
            obj["data"][i] = {str(t): e for t, e in enumerate(row)}
        with pytest.raises(SerializationError):
            matrix_from_json(obj)
        with pytest.raises(SerializationError):
            matrix_from_json(json.loads(dumps(obj)))

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(within_ceiling, min_size=2 * n**4, max_size=2 * n**4))),
        st.sampled_from(["superop", "choi"]))
    def test_superop_file_round_trip_bit_exact(self, drawn, repr_tag):
        # Any entry a SuperOp holds: finite and at most MAX_ENTRY in magnitude.
        n, values = drawn
        s = SuperOp(n, np.array(values).view(complex).reshape(n * n, n * n))
        again = superop_from_json(json.loads(dumps(map_json(s, repr_tag))))
        assert again.n == n
        np.testing.assert_array_equal(bits(again.mat), bits(s.mat))

    @PROPERTY
    @given(st.sampled_from(["superop", "choi"]), st.one_of(
        # Every int but 2 is zero, negative or a mismatch.
        st.tuples(st.just("n"), st.booleans() | finite | st.text(max_size=3)
                  | st.integers().filter(lambda v: v != 2)),
        st.tuples(st.just("convention"), json_values.filter(lambda v: v != CONVENTION)),
        st.tuples(st.just("repr"), json_values.filter(lambda v: v not in ("superop", "choi"))),
        st.tuples(st.sampled_from(["n", "convention", "repr", "data"]), st.just(MISSING))))
    def test_bad_superop_header_rejected(self, repr_tag, fault):
        key, value = fault
        obj = map_json(depolarizing(2, 0.5), repr_tag)
        if value is MISSING:
            del obj[key]
        else:
            obj[key] = value
        with pytest.raises(SerializationError):
            superop_from_json(obj)
