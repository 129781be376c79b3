"""Corpus generators and the empirical norm-embedding explorer."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .martingale import from_terminal
from .norms import FIVE_NORMS, all_five_norms
from .space import FilteredSpace

MAX_OUTCOMES = 4096

GENERATORS = ("dyadic", "random-tree", "coin-walk")
BLOCK_POLICIES = ("single", "level-cells", "random-partition")


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic recipe for a corpus of (space, martingale) pairs."""

    generator: str = "dyadic"
    count: int = 1
    seed: int = 0
    depth: int = 2
    max_branching: int = 2
    block_policy: str = "single"
    block_param: int = 0

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}")
        if self.block_policy not in BLOCK_POLICIES:
            raise ValueError(f"block policy must be one of {BLOCK_POLICIES}")
        if self.count < 1 or self.depth < 0:
            raise ValueError("count must be >= 1 and depth >= 0")
        if self.block_param < 0:
            raise ValueError(f"block_param must be >= 0, got {self.block_param}")
        if self.max_branching < 1:
            raise ValueError(f"max_branching must be >= 1, got {self.max_branching}")
        if self.branching ** self.depth > MAX_OUTCOMES:
            raise ValueError(f"outcome bound {MAX_OUTCOMES} exceeded")

    @property
    def branching(self) -> int:
        """The most children a cell gets: max_branching on random trees, else 2."""
        return self.max_branching if self.generator == "random-tree" else 2


def _tree_space(rng, depth, branching, random_tree, block_policy, block_param):
    """Build a refining partition tree level by level; dyadic trees split evenly.

    Child j of cell c is named c + "j" for j <= 9 and c + "[j]" after, so the child
    suffixes are prefix-free; a level-n cell is the run of outcomes its children cover."""
    names, weights, counts = ["c"], np.array([1.0]), []
    for _ in range(depth):
        ks, new_names, new_weights = [], [], []
        for name, w in zip(names, weights):
            k = int(rng.integers(1, branching + 1)) if random_tree else branching
            if random_tree and k == 1 and rng.random() < 0.5:
                k = min(branching, 2)
            parts = rng.dirichlet(np.ones(k) * 4.0) if random_tree else np.full(k, 1.0 / k)
            ks.append(k)
            new_names += [name + (str(j) if j <= 9 else f"[{j}]") for j in range(k)]
            new_weights.append(w * parts)
        names, weights = new_names, np.concatenate(new_weights)
        counts.append(ks)
    outcomes, weights = names, weights / weights.sum()

    filtration = [[[o] for o in outcomes]]
    for ks in reversed(counts):
        runs = iter(filtration[-1])
        filtration.append([list(chain.from_iterable(islice(runs, k))) for k in ks])
    filtration.reverse()

    if block_policy == "single":
        blocks = [list(outcomes)]
    elif block_policy == "level-cells":
        blocks = filtration[min(block_param, depth)]
    else:
        j = max(1, min(block_param or 2, len(outcomes)))
        labels = rng.integers(0, j, size=len(outcomes))
        labels[rng.permutation(len(outcomes))[:j]] = np.arange(j)  # no empty block
        blocks = [[outcomes[i] for i in np.flatnonzero(labels == b)] for b in range(j)]
    return FilteredSpace(outcomes, weights, filtration, blocks)


def generate(spec: CorpusSpec):
    """Deterministic corpus of (space, martingale) pairs."""
    rng = np.random.default_rng(spec.seed)
    out = []
    for _ in range(spec.count):
        space = _tree_space(rng, spec.depth, spec.branching, spec.generator == "random-tree",
                            spec.block_policy, spec.block_param)
        if spec.generator != "coin-walk":
            x = rng.standard_normal(space.size)
        else:  # coin-walk: terminal = sum of +-1 steps along the dyadic path
            x = np.zeros(space.size)
            for n in range(1, space.depth + 1):
                signs = np.where(space.level_labels[n] % 2 == 0, 1.0, -1.0)
                x += signs
        x = x - float(space.prob @ x)
        out.append((space, from_terminal(space, x)))
    return out


@dataclass
class EmbeddingRow:
    numerator: str
    denominator: str
    max_ratio: float
    median_ratio: float
    samples: int


@dataclass
class EmbeddingTable:
    p: float
    q: float
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["numerator,denominator,max_ratio,median_ratio,samples"]
        for r in self.rows:
            lines.append(
                f"{r.numerator},{r.denominator},{r.max_ratio!r},"
                f"{r.median_ratio!r},{r.samples}"
            )
        return "\n".join(lines) + "\n"


def explore_embeddings(corpus, p, q) -> EmbeddingTable:
    """Ratio table for every ordered pair of the five norms."""
    if not corpus:
        raise ValueError("corpus is empty")
    norms = [all_five_norms(mart, p, q) for _, mart in corpus]
    table = EmbeddingTable(p, q)
    for a in FIVE_NORMS:
        for b in FIVE_NORMS:
            if a == b:
                continue
            ratios = []
            for rec in norms:
                na, nb = rec[a], rec[b]
                # a norm outside the normal floats (f = 0 among them) leaves no ratio
                if not (np.finfo(float).tiny <= min(na, nb) and max(na, nb) < np.inf):
                    continue
                ratios.append(na / nb)
            table.rows.append(
                EmbeddingRow(
                    a, b,
                    max(ratios) if ratios else float("nan"),
                    statistics.median(ratios) if ratios else float("nan"),
                    len(ratios),
                )
            )
    return table
