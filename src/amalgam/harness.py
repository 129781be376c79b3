"""Corpus generators and the empirical norm-embedding explorer."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from .martingale import from_terminal
from .norms import FIVE_NORMS, all_five_norms
from .space import TOL, FilteredSpace, SpaceError

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
        if self.max_branching ** self.depth > MAX_OUTCOMES:
            raise ValueError(f"outcome bound {MAX_OUTCOMES} exceeded")


def _tree_space(rng, depth, branching, random_tree, block_policy, block_param):
    """Build a refining partition tree; dyadic trees split evenly."""
    # paths[i] is the list of ancestor cell ids of outcome i per level
    cells = [["c"]]  # level 0: single cell id per outcome, one outcome so far
    weights = np.array([1.0])
    for n in range(depth):
        new_cells = []
        new_weights = []
        for ids, w in zip(cells, weights):
            k = int(rng.integers(1, branching + 1)) if random_tree else branching
            if random_tree and k == 1 and rng.random() < 0.5:
                k = min(branching, 2)
            if random_tree:
                parts = rng.dirichlet(np.ones(k) * 4.0)
            else:
                parts = np.full(k, 1.0 / k)
            for j in range(k):
                new_cells.append(ids + [f"{ids[-1]}{j}"])
                new_weights.append(w * parts[j])
        cells = new_cells
        weights = np.array(new_weights)
        if len(cells) > MAX_OUTCOMES:
            raise SpaceError(f"outcome bound {MAX_OUTCOMES} exceeded")
    outcomes = [ids[-1] if depth > 0 else "c" for ids in cells]
    weights = weights / weights.sum()

    filtration = []
    for n in range(depth + 1):
        groups = {}
        for i, ids in enumerate(cells):
            groups.setdefault(ids[n], []).append(outcomes[i])
        filtration.append(list(groups.values()))

    if block_policy == "single":
        blocks = [list(outcomes)]
    elif block_policy == "level-cells":
        blocks = filtration[min(block_param, depth)]
    else:
        j = max(1, min(block_param or 2, len(outcomes)))
        labels = rng.integers(0, j, size=len(outcomes))
        labels[rng.permutation(len(outcomes))[:j]] = np.arange(j)  # no empty block
        blocks = [[outcomes[i] for i in np.flatnonzero(labels == b)] for b in range(j)]
        blocks = [b for b in blocks if b]
    return FilteredSpace(outcomes, weights, filtration, blocks)


def generate(spec: CorpusSpec):
    """Deterministic corpus of (space, martingale) pairs."""
    rng = np.random.default_rng(spec.seed)
    out = []
    for _ in range(spec.count):
        if spec.generator == "dyadic":
            space = _tree_space(rng, spec.depth, 2, False,
                                spec.block_policy, spec.block_param)
            x = rng.standard_normal(space.size)
        elif spec.generator == "random-tree":
            space = _tree_space(rng, spec.depth, spec.max_branching, True,
                                spec.block_policy, spec.block_param)
            x = rng.standard_normal(space.size)
        else:  # coin-walk: terminal = sum of +-1 steps along the dyadic path
            space = _tree_space(rng, spec.depth, 2, False,
                                spec.block_policy, spec.block_param)
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
    degenerate: int  # pairs where the denominator norm vanished
    violation: bool  # numerator positive while denominator vanished


@dataclass
class EmbeddingTable:
    p: float
    q: float
    rows: list = field(default_factory=list)
    checked_items: list = field(default_factory=list)

    @property
    def violations(self):
        return [r for r in self.rows if r.violation]

    def to_csv(self) -> str:
        lines = ["numerator,denominator,max_ratio,median_ratio,samples,violation"]
        for r in self.rows:
            lines.append(
                f"{r.numerator},{r.denominator},{r.max_ratio!r},"
                f"{r.median_ratio!r},{r.samples},{int(r.violation)}"
            )
        return "\n".join(lines) + "\n"


# Directional embeddings that hold for classical martingale Hardy spaces on
# the p = q diagonal: (numerator, denominator, p-range) triples.
_DIAGONAL_ITEMS = [
    ("hardy_star", "hardy_s", (0.0, 2.0)),
    ("hardy_S", "hardy_s", (0.0, 2.0)),
    ("hardy_s", "hardy_star", (2.0, np.inf)),
    ("hardy_s", "hardy_S", (2.0, np.inf)),
    ("hardy_star", "p_space", (0.0, np.inf)),
    ("hardy_S", "q_space", (0.0, np.inf)),
    ("hardy_star", "q_space", (0.0, np.inf)),
    ("hardy_S", "p_space", (0.0, np.inf)),
    ("hardy_s", "p_space", (0.0, np.inf)),
    ("hardy_s", "q_space", (0.0, np.inf)),
]


def explore_embeddings(corpus, p, q) -> EmbeddingTable:
    """Ratio table for every ordered pair of the five norms.

    On the p = q diagonal the directional items above are flagged when a
    denominator norm vanishes while the numerator does not (the bounding
    constants themselves are not pinned, so only direction is checkable).
    Off-diagonal the table is purely exploratory.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    norms = [all_five_norms(mart, p, q) for _, mart in corpus]
    checked = []
    if abs(p - q) <= TOL:
        for num, den, (lo, hi) in _DIAGONAL_ITEMS:
            in_range = (p >= lo) if np.isinf(hi) else (p <= hi)
            if in_range:
                checked.append((num, den))

    table = EmbeddingTable(p, q, checked_items=[f"{a}<= C*{b}" for a, b in checked])
    for a in FIVE_NORMS:
        for b in FIVE_NORMS:
            if a == b:
                continue
            ratios = []
            degenerate = 0
            bad = False
            for rec in norms:
                na, nb = rec[a], rec[b]
                if nb <= TOL:
                    degenerate += 1
                    if na > TOL and (a, b) in checked:
                        bad = True
                    continue
                ratios.append(na / nb)
            table.rows.append(
                EmbeddingRow(
                    a, b,
                    max(ratios) if ratios else float("nan"),
                    statistics.median(ratios) if ratios else float("nan"),
                    len(ratios), degenerate, bad,
                )
            )
    return table
