"""Tests of the benchmark's own checkers: real outputs pass, tampered ones fail.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
import wignerkit as wk  # noqa: E402
from wignerkit.serialize import (  # noqa: E402
    dumps,
    report_to_json,
    superop_from_json,
    superop_to_json,
)

FAST = wk.ClassifyConfig(samples=5, restarts=3, max_iters=50, seed=4)


def classified(item):
    assert workloads.build(item, layers.Untraced()) == []
    return checks.view_of_report(wk.classify(item.superop, item.k, item.cfg))


def wigner_item(variant="transpose"):
    return workloads.Item("wigner", 4, 2, {"variant": variant}, seed=7, cfg=FAST)


def test_accept_passes_and_rejects_tampering():
    item = wigner_item()
    view = classified(item)
    assert checks.check_classification(item, view) == []
    flipped = dataclasses.replace(view, variant="direct")
    assert checks.check_classification(item, flipped)
    perturbed = dataclasses.replace(view, u=view.u + 1e-6 * np.eye(4))
    assert checks.check_classification(item, perturbed)
    phased = dataclasses.replace(view, u=np.exp(0.7j) * view.u)
    assert checks.check_classification(item, phased) == []


def test_reject_reasons_follow_closed_forms():
    item = workloads.Item("pseudo_depolarizing", 4, 2, {"mu": 0.8}, cfg=FAST)
    view = classified(item)
    assert view.reasons == ["positivity_violation", "rank_k_violation"]
    assert checks.check_classification(item, view) == []
    assert checks.check_classification(
        item, dataclasses.replace(view, reasons=["rank_k_violation"]))
    assert checks.check_classification(
        item, dataclasses.replace(view, min_value=view.min_value + 1e-3))
    noisy = workloads.Item("perturbed_wigner", 4, 2, {"variant": "direct", "epsilon": 0.1},
                           seed=3, cfg=FAST)
    view = classified(noisy)
    assert checks.check_classification(noisy, view) == []
    assert checks.check_classification(noisy, dataclasses.replace(view, unital=True))


def test_positive_min_value_on_non_positive_map_is_rejected():
    item = workloads.Item("indefinite", 2, 1, {}, seed=5, cfg=FAST)
    view = classified(item)
    assert checks.check_classification(item, view) == []
    assert checks.check_classification(item, dataclasses.replace(view, min_value=0.25))
    # A report file carries no witness: the bounds alone must catch it.
    assert checks.check_classification(
        item, dataclasses.replace(view, min_value=0.25, witness=None))
    assert checks.check_classification(item, dataclasses.replace(view, witness=view.witness[::-1]))


def test_choi_map_least_value_is_zero():
    item = workloads.Item("choi", 3, 1, {}, cfg=FAST)
    view = classified(item)
    assert view.reasons == ["rank_k_violation"]
    assert checks.check_classification(item, view) == []
    assert checks.check_classification(item, dataclasses.replace(view, min_value=-1e-3))
    assert checks.check_classification(
        item, dataclasses.replace(view, reasons=["positivity_violation", "rank_k_violation"]))


def test_wrong_exit_codes_are_rejected():
    item = wigner_item()
    assert workloads.build(item, layers.Untraced()) == []
    text = dumps(report_to_json(wk.classify(item.superop, item.k, item.cfg)))
    assert checks.check_analyze(item, 0, text) == []
    assert checks.check_analyze(item, 1, text)
    data = dumps(superop_to_json(item.superop)).encode()
    assert checks.check_generate(0, data, item.superop.mat) == []
    assert checks.check_generate(2, data, item.superop.mat)
    assert checks.check_generate(0, data, item.superop.mat + 1e-15)


@pytest.mark.parametrize("family, params", [
    ("wigner", {"variant": "direct"}),
    ("wigner", {"variant": "transpose"}),
    ("depolarizing", {"lambda": 0.4}),
    ("pseudo_depolarizing", {"mu": 0.3}),
])
def test_references_match_the_program(family, params):
    n = 3
    u = wk.haar_unitary(n, 9)
    ref = checks.reference_superop(family, n, params, u)
    built = (wk.wigner_map(u, params["variant"]) if family == "wigner"
             else wk.build_map(family, n, params))
    assert np.allclose(built.mat, ref, atol=1e-13)
    assert np.array_equal(checks.choi_of(ref, n), wk.to_choi(wk.SuperOp(n, ref)).mat)
    assert np.array_equal(checks.superop_of_choi(checks.choi_of(ref, n), n), ref)
    loaded = superop_from_json(json.loads(json.dumps(
        checks.map_file_json(ref, n, "choi"))))
    assert np.array_equal(loaded.mat, ref)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.per_layer_spec()
    assert set(layers.Tracer().metrics()) == {m["name"] for m in spec["per_layer"]}
