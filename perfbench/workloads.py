"""The four workloads: seeded input lists, set-up, operations and checks.

A workload holds a fixed list of operations. The list's make-up (families,
sizes, ranks, verbs and their order) is the same for every seed; `--seed`
draws the unitaries, the family parameters and the classify seeds. Runs walk
the list a whole number of times, so two runs time the same operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import layers
import wignerkit as wk
from wignerkit import cli

# (n, k) of the classify workloads, weighted so that sorted by cost the
# n = 12 class holds the median (35-70 %) and n = 16 the 90th percentile
# (70-100 %); n = 4 and n = 8 fill the bottom 35 %.
SIZE_MIX = ((4, 1), (4, 2), (4, 3),
            (8, 1), (8, 2), (8, 4), (8, 6),
            (12, 1), (12, 2), (12, 3), (12, 5), (12, 6), (12, 8), (12, 11),
            (16, 1), (16, 2), (16, 4), (16, 8), (16, 12), (16, 15))
# Walk the sizes interleaved (7 is coprime to 20), not grouped.
ORDER = tuple(SIZE_MIX[i * 7 % len(SIZE_MIX)] for i in range(len(SIZE_MIX)))

# Choi's map has one fixed input; its classify seeds are the item indices,
# so its operations are the same in every run and hold the median. With the
# two random maps a pass takes about 25 s, so a run is one pass: the stop
# rule flips between one and two passes only near 2/3 of --seconds.
CHOI_ITEMS = 12

# A light config for warm-up calls: every code path, little work.
WARM = wk.ClassifyConfig(samples=2, restarts=2, max_iters=5)


@dataclass
class Item:
    """One map to classify, with what the checks need to know about it."""

    family: str
    n: int
    k: int
    params: dict
    seed: int = 0                   # generator seed, as in a generate spec
    cfg: wk.ClassifyConfig = field(default_factory=wk.ClassifyConfig)
    superop: wk.SuperOp | None = None
    ref: np.ndarray | None = None   # independent numpy superoperator
    u: np.ndarray | None = None     # generating unitary of Wigner maps
    choi: np.ndarray | None = None  # Choi matrix of the indefinite maps

    @property
    def samples(self) -> int:
        return self.cfg.samples

    @property
    def unital_tol(self) -> float:
        return self.cfg.unital_tol


def build(item: Item, t) -> list[str]:
    """Build the item's superoperator; return problems with the build."""
    n = item.n
    if item.family in wk.FAMILIES:
        s = t.call("genmaps.build_map", wk.build_map, item.family, n, item.params, item.seed)
        if item.family in ("wigner", "perturbed_wigner"):
            # The unitary build_map draws for this spec seed.
            item.u = wk.haar_unitary(n, (item.seed, 0))
        item.ref = (s.mat if item.family == "perturbed_wigner" else
                    checks.reference_superop(item.family, n, item.params, item.u))
        item.superop = s
        return checks.check_built(item, s.mat)
    if item.family == "choi":
        item.ref = checks.choi_map(n)
    else:
        item.choi = checks.indefinite_choi(n, np.random.default_rng(item.seed))
        item.ref = checks.superop_of_choi(item.choi, n)
    item.superop = wk.SuperOp(n, item.ref)
    return []


def _draws(seed: int, tag: int):
    rng = np.random.default_rng([seed, tag])
    return rng, lambda: int(rng.integers(2**31))


def accept_items(seed: int) -> list[Item]:
    _, draw = _draws(seed, 1)
    return [Item("wigner", n, k, {"variant": ("direct", "transpose")[i % 2]}, draw(),
                 wk.ClassifyConfig(seed=draw()))
            for i, (n, k) in enumerate(ORDER)]


def reject_items(seed: int) -> list[Item]:
    rng, draw = _draws(seed, 2)
    items = []
    for i, (n, k) in enumerate(ORDER):
        kind = i % 4
        if kind == 0:
            fam, params = "depolarizing", {"lambda": float(rng.uniform(0.2, 0.9))}
        elif kind == 3:
            fam, params = "perturbed_wigner", {"variant": ("direct", "transpose")[i % 2],
                                               "epsilon": 0.1}
        else:
            # mu on both sides of the positivity threshold 1/(n-1), never 1.
            lo, hi = (0.2, 0.8) if kind == 1 else (1.5, 2.5)
            fam, params = "pseudo_depolarizing", {"mu": float(rng.uniform(lo, hi)) / (n - 1)}
        items.append(Item(fam, n, k, params, draw(), wk.ClassifyConfig(seed=draw())))
    return items


def positivity_items(seed: int) -> list[Item]:
    _, draw = _draws(seed, 3)
    choi = [Item("choi", 3, 1 + j % 2, {}, cfg=wk.ClassifyConfig(seed=j))
            for j in range(CHOI_ITEMS)]
    indefinite = [Item("indefinite", n, n // 2, {}, draw(), wk.ClassifyConfig(seed=draw()))
                  for n in (2, 4)]
    return choi[:6] + indefinite[:1] + choi[6:] + indefinite[1:]


class ClassifyWorkload:
    """Operations are classify calls on a list of maps."""

    tail_percentile = 90

    def __init__(self, items: list[Item], tracer):
        self.items = items
        self.tracer = tracer

    def __len__(self):
        return len(self.items)

    def setup(self) -> list[str]:
        problems = []
        for item in self.items:
            problems += build(item, self.tracer)
        warmed = set()
        for item in self.items:
            if item.n not in warmed:
                warmed.add(item.n)
                wk.classify(item.superop, item.k, WARM)
        return problems

    def run(self, idx: int, pass_no: int):
        item = self.items[idx]
        return wk.classify(item.superop, item.k, item.cfg)

    def run_traced(self, idx: int, pass_no: int):
        item = self.items[idx]
        return layers.traced_classify(self.tracer, item.superop, item.k, item.cfg)

    def check(self, idx: int, pass_no: int, out) -> list[str]:
        report, problems = out if isinstance(out, tuple) else (out, [])
        item = self.items[idx]
        found = problems + checks.check_classification(item, checks.view_of_report(report))
        return [f"{item.family} n={item.n} k={item.k}: {p}" for p in found]


class PositivityWorkload(ClassifyWorkload):
    """Fourteen multi-second operations per run: too few for a tail."""

    tail_percentile = None


@dataclass
class FileOp:
    verb: str          # "generate" or "analyze"
    item: Item
    repr_tag: str = "superop"


class FilesWorkload:
    """In-process `wignerkit generate` and `wignerkit analyze` on map files.

    By cost the ops sort into generate at n = 8 (bottom 20 %), analyze at
    n = 8 (20-65 %, the median) and both verbs at n = 16 (65-100 %, the
    90th percentile). Generate and analyze alternate in the list.
    """

    tail_percentile = 90

    def __init__(self, seed: int, workdir: Path, tracer):
        self.dir = workdir
        self.tracer = tracer
        rng, draw = _draws(seed, 4)

        def wigner(n, variant, gen_seed=None):
            return Item("wigner", n, n // 2, {"variant": variant},
                        draw() if gen_seed is None else gen_seed,
                        wk.ClassifyConfig(seed=draw()))

        def depol(n, k):
            return Item("depolarizing", n, k, {"lambda": float(rng.uniform(0.2, 0.9))},
                        draw(), wk.ClassifyConfig(seed=draw()))

        twin = draw()  # two generate ops share this spec: their files must match
        gen, an = "generate", "analyze"
        self.ops = [
            FileOp(an, wigner(8, "direct"), "superop"),
            FileOp(gen, wigner(8, "direct", twin)),
            FileOp(gen, wigner(16, "transpose")),
            FileOp(an, wigner(8, "transpose"), "choi"),
            FileOp(an, wigner(16, "direct"), "superop"),
            FileOp(an, depol(8, 2), "superop"),
            FileOp(gen, wigner(8, "direct", twin)),
            FileOp(an, wigner(8, "transpose"), "superop"),
            FileOp(gen, depol(16, 8)),
            FileOp(an, depol(8, 3), "choi"),
            FileOp(an, depol(16, 4), "choi"),
            FileOp(gen, wigner(8, "transpose")),
            FileOp(an, wigner(8, "direct"), "choi"),
            FileOp(gen, wigner(16, "direct")),
            FileOp(an, depol(8, 4), "superop"),
            FileOp(an, wigner(16, "transpose"), "choi"),
            FileOp(gen, depol(8, 4)),
            FileOp(an, wigner(8, "transpose"), "superop"),
            FileOp(an, depol(16, 8), "superop"),
            FileOp(an, depol(8, 6), "choi"),
        ]

    def __len__(self):
        return len(self.ops)

    def _map_path(self, idx: int) -> Path:
        return self.dir / f"map-{idx}.json"

    def _report_path(self, idx: int, pass_no: int) -> Path:
        return self.dir / f"report-{pass_no}-{idx}.json"

    def _spec(self, item: Item) -> str:
        return json.dumps({"family": item.family, "n": item.n,
                           "params": item.params, "seed": item.seed})

    def _argv(self, idx: int, pass_no: int) -> list[str]:
        op, path = self.ops[idx], str(self._map_path(idx))
        if op.verb == "generate":
            return ["generate", "--spec", self._spec(op.item), "--out", path]
        return ["analyze", path, "--k", str(op.item.k), "--seed", str(op.item.cfg.seed),
                "--out", str(self._report_path(idx, pass_no))]

    def setup(self) -> list[str]:
        problems = []
        for idx, op in enumerate(self.ops):
            problems += build(op.item, self.tracer)
            if op.verb == "analyze":
                with open(self._map_path(idx), "w", encoding="utf-8") as fh:
                    json.dump(checks.map_file_json(op.item.superop.mat, op.item.n, op.repr_tag), fh)
        warm = self.dir / "warm.json"
        first = next(op for op in self.ops if op.verb == "analyze")
        codes = (cli.main(["generate", "--spec", self._spec(first.item), "--out", str(warm)]),
                 cli.main(["analyze", str(warm), "--k", str(first.item.k), "--samples", "1",
                           "--out", str(self.dir / "warm-report.json")]))
        if codes != (0, 0 if first.item.family == "wigner" else 1):
            problems.append(f"warm-up exit codes {codes}")
        return problems

    def run(self, idx: int, pass_no: int):
        return cli.main(self._argv(idx, pass_no))

    def run_traced(self, idx: int, pass_no: int):
        op, argv = self.ops[idx], self._argv(idx, pass_no)
        if op.verb == "generate":
            return layers.traced_generate(self.tracer, argv, argv[-1], op.item)
        return layers.traced_analyze(self.tracer, argv, str(self._map_path(idx)), argv[-1],
                                     op.item.k, op.item.cfg)

    def check(self, idx: int, pass_no: int, out) -> list[str]:
        code, problems = out if isinstance(out, tuple) else (out, [])
        op = self.ops[idx]
        if op.verb == "generate":
            # Every pass rewrites the same file: its content is checked once.
            data = self._map_path(idx).read_bytes() if pass_no == 0 else None
            problems = problems + checks.check_generate(code, data, op.item.superop.mat)
            twins = [j for j, other in enumerate(self.ops)
                     if other.verb == "generate" and j != idx
                     and self._spec(other.item) == self._spec(op.item)]
            if data is not None and any(self._map_path(j).read_bytes() != data for j in twins):
                problems.append("the same spec gave files that differ")
        else:
            text = self._report_path(idx, pass_no).read_text(encoding="utf-8")
            problems = problems + checks.check_analyze(op.item, code, text)
        return [f"{op.verb} {op.item.family} n={op.item.n} ({op.repr_tag}): {p}"
                for p in problems]


def make(name: str, seed: int, workdir: Path, tracer):
    if name == "accept":
        return ClassifyWorkload(accept_items(seed), tracer)
    if name == "reject":
        return ClassifyWorkload(reject_items(seed), tracer)
    if name == "positivity_hard":
        return PositivityWorkload(positivity_items(seed), tracer)
    if name == "files":
        return FilesWorkload(seed, workdir, tracer)
    raise ValueError(f"unknown workload {name!r}")

