"""Print reference per-layer figures for every map family, as a markdown table.

    python3 perfbench/reference.py

Each row is one map classified with the default ClassifyConfig through the
traced mode's stage replay (layers.traced_classify), three times; the
figures are medians over the three. Rows cover every generator family at
n in {2, 4, 8, 12, 16} with k = n // 2, Choi's map (n = 3, k = 1) and the
random indefinite maps. The header records the environment.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPS = 3
SIZES = (2, 4, 8, 12, 16)
COLUMNS = (("classify", "wigner.classify"), ("unital", "superop.is_unital"),
           ("hp", "superop.is_hermiticity_preserving"),
           ("positivity", "superop.positivity_certificate"),
           ("rank-k audit", "wigner.preserves_rank_k"), ("extract", "wigner.extract_unitary"),
           ("invert", "superop.invert"))


def cases():
    for n in SIZES:
        yield "wigner", n, {"variant": "direct"}
        yield "wigner", n, {"variant": "transpose"}
        yield "depolarizing", n, {"lambda": 0.5}
        yield "pseudo_depolarizing", n, {"mu": 0.5 / (n - 1)}
        yield "pseudo_depolarizing", n, {"mu": 2.0 / (n - 1)}
        yield "perturbed_wigner", n, {"variant": "direct", "epsilon": 0.1}
    yield "choi", 3, {}
    for n in SIZES:
        yield "indefinite", n, {}


def environment(np) -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE, check=True,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return [f"- git SHA: {sha}",
            f"- Python {platform.python_version()}, numpy {np.__version__}",
            f"- BLAS: {blas['name']} {blas['version']}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}",
            f"- CPUs: {os.cpu_count()} ({platform.machine()})"]


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import numpy as np

    import layers
    import workloads

    print("\n".join(environment(np)) + "\n")
    print("| map | n | k | " + " | ".join(c for c, _ in COLUMNS)
          + " | unaccounted | verdict |")
    print("|---" * (len(COLUMNS) + 5) + "|")
    for family, n, params in cases():
        k = max(1, n // 2) if family != "choi" else 1
        item = workloads.Item(family, n, k, params, seed=n)
        workloads.build(item, layers.Untraced())
        per_rep = []
        for _ in range(REPS):
            t = layers.Tracer()
            report, problems = layers.traced_classify(t, item.superop, k, item.cfg)
            if problems:
                raise SystemExit(f"{family} n={n}: {problems}")
            per_rep.append(t.metrics())
        cells = []
        for _, name in COLUMNS + (("", "wigner.classify.unaccounted"),):
            key = f"{name}_ms" if name.endswith("unaccounted") else f"{name}.ms"
            ms = statistics.median(m[key]["value"] for m in per_rep)
            calls = per_rep[0].get(f"{name}.calls", {"value": 1})["value"]
            cells.append(f"{ms:.1f}" if calls else "-")
        label = family + "".join(f" {v}" if isinstance(v, str) else f" {k_}={v:.3g}"
                                 for k_, v in params.items())
        print(f"| {label} | {n} | {k} | " + " | ".join(cells) + f" | {report.verdict} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
