"""Seeded document corpora for the benchmark workloads.

Every document is generated here, by the benchmark's own numpy code, and
written as an ``amalgam/1`` JSON file; the program under test only ever
reads those files.  A workload draws its corpus from a fixed *pool* of
entries: entry ``i`` of stratum ``s`` is always the same document (its
generator is seeded by the workload, stratum and index), and ``--seed``
only chooses which entries make up the corpus.  That keeps the per-entry
reference values in ``reference.json`` valid for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

SCHEMA = "amalgam/1"
#: enumeration cap that ``amalgam duality --mode exact`` applies by default
CAP = 10**6

VARIANTS = tuple((fl, df) for fl in ("s", "S", "star") for df in ("simple", "weighted"))
#: (p, q) pairs for the ladder pipeline; verification exponents r > max(p, 1)
PQ_LADDER = ((0.5, 1.0), (1.0, 2.0), (2.0, 0.75))
#: (p, q) pairs allowed by the duality chain, 0 < p <= q <= 1
PQ_DUAL = ((0.5, 1.0), (0.75, 0.75), (0.25, 0.5))


@dataclass(frozen=True)
class Stratum:
    """One class of pool entries and how many of them a corpus takes."""

    name: str
    shape: str          # "dyadic" or "random-tree"
    depth: int
    branching: int      # maximum branching of random trees
    outcomes: tuple     # accepted outcome count range, inclusive
    blocks: int         # random-partition block count
    pool: int           # pool entries in this stratum
    pick: int           # entries one corpus takes
    count: tuple | None = None  # accepted stopping-time count range, inclusive


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str       # "ladder", "dual-heuristic" or "exact"
    strata: tuple
    warmup: tuple       # strata that give a process its warm-up documents

    @property
    def classes(self) -> int:
        """Pool entries of one stratum are balanced over this many variants."""
        return {"ladder": len(VARIANTS), "dual-heuristic": len(PQ_DUAL),
                "exact": len(VARIANTS)}[self.pipeline]


def _exact_stratum(name, lo, hi, pick, depth, branching):
    # depth and branching are set where the count window is often hit
    return Stratum(name, "random-tree", depth, branching, (4, 18), 2, pick + max(2, pick // 3),
                   pick, (lo, hi))


#: the workloads of BENCHMARK.json, which records why each was chosen.  Each
#: corpus has 40 documents, and the strata are sized so that the median and
#: the 75th percentile fall inside one stratum rather than between two.  A
#: corpus takes about three quarters of each stratum's pool, so that corpora
#: of different seeds differ in cost little more than the host noise.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ladder-large", "ladder",
            (
                Stratum("dyadic-256", "dyadic", 8, 2, (256, 256), 8, 22, 16),
                Stratum("tree-512", "random-tree", 8, 3, (460, 560), 8, 16, 12),
                Stratum("dyadic-1k", "dyadic", 10, 2, (1024, 1024), 8, 16, 12),
            ),
            ("dyadic-256",),
        ),
        Workload(
            "duality-heuristic", "dual-heuristic",
            (
                Stratum("dyadic-256", "dyadic", 8, 2, (256, 256), 8, 22, 16),
                Stratum("tree-512", "random-tree", 8, 3, (460, 560), 8, 16, 12),
                Stratum("dyadic-1k", "dyadic", 10, 2, (1024, 1024), 8, 16, 12),
            ),
            ("dyadic-256",),
        ),
        Workload(
            "exact-small", "exact",
            (
                _exact_stratum("st-30", 25, 35, 4, 2, 3),
                _exact_stratum("st-100", 90, 110, 4, 3, 3),
                _exact_stratum("st-300", 270, 330, 5, 2, 4),
                _exact_stratum("st-1k", 900, 1100, 10, 3, 3),
                _exact_stratum("st-3k", 2800, 3200, 8, 3, 3),
                _exact_stratum("st-10k", 9500, 10500, 4, 4, 3),
                _exact_stratum("over-cap", CAP + 1, math.inf, 5, 4, 3),
            ),
            ("st-30", "over-cap"),
        ),
    )
}


# -- spaces ----------------------------------------------------------------


@dataclass
class Space:
    ids: list           # outcome identifiers in outcome order
    prob: np.ndarray
    labels: np.ndarray  # (depth + 1, M) cell label of each outcome per level
    blocks: np.ndarray  # block label per outcome
    stopping_times: int

    @property
    def depth(self) -> int:
        return self.labels.shape[0] - 1

    @property
    def size(self) -> int:
        return self.labels.shape[1]


def _shape(rnd, depth, branching, random_tree, limit):
    """Parent lists of a random partition tree, or None past ``limit`` leaves."""
    parents = []
    cells = 1
    for _ in range(depth):
        par = []
        for c in range(cells):
            k = branching
            if random_tree:
                k = rnd.randint(1, branching)
                if k == 1 and rnd.random() < 0.5:
                    k = min(branching, 2)
            par.extend([c] * k)
        if len(par) > limit:
            return None
        parents.append(par)
        cells = len(par)
    return parents


def _count(parents, size) -> int:
    """Distinct stopping times: a cell stops now or defers to its children."""
    g = [2] * size
    for par in reversed(parents):
        prod = [1] * (par[-1] + 1)
        for child, p in enumerate(par):
            prod[p] *= g[child]
        g = [1 + x for x in prod]
    return g[0]


def _outcome_ids(parents):
    """Path identifiers such as ``c0102``: the child index taken at each level."""
    ids = ["c"]
    for par in parents:
        digit = np.arange(len(par)) - np.searchsorted(par, par)
        ids = [ids[p] + str(d) for p, d in zip(par.tolist(), digit.tolist())]
    return ids


def _draw_space(rng, st: Stratum):
    """Draw trees until one fits the stratum's outcome and count windows.

    Shapes are drawn in plain Python, which keeps rejection cheap; random
    trees split each cell's mass by a Dirichlet(4) draw, dyadic trees evenly.
    """
    random_tree = st.shape == "random-tree"
    rnd = random.Random(int(rng.integers(2**63)))
    while True:
        shape = _shape(rnd, st.depth, st.branching, random_tree, st.outcomes[1])
        if shape is None:
            continue
        size = len(shape[-1]) if shape else 1
        if not st.outcomes[0] <= size <= st.outcomes[1]:
            continue
        count = _count(shape, size)
        if st.count is None or st.count[0] <= count <= st.count[1]:
            break
    parents = [np.array(p, dtype=np.int64) for p in shape]
    weights = np.ones(1)
    for par in parents:
        if random_tree:
            gam = rng.standard_gamma(4.0, size=len(par))
            weights = weights[par] * gam / np.bincount(par, weights=gam)[par]
        else:
            weights = weights[par] / st.branching
    labels = np.empty((len(parents) + 1, size), dtype=np.int64)
    labels[-1] = np.arange(size)
    for n in reversed(range(len(parents))):
        labels[n] = parents[n][labels[n + 1]]
    j = min(st.blocks, size)
    blocks = rng.integers(0, j, size=size)
    blocks[rng.permutation(size)[:j]] = np.arange(j)  # no empty block
    return Space(_outcome_ids(parents), weights / weights.sum(), labels, blocks, count)


def _centred(rng, space):
    x = rng.standard_normal(space.size)
    return x - float(space.prob @ x)


def _levels(space, x):
    """Martingale levels f_n = E[x | F_n] with f_0 = 0."""
    out = np.zeros((space.depth + 1, space.size))
    for n in range(1, space.depth + 1):
        lab = space.labels[n]
        cell = np.bincount(lab, weights=space.prob * x) / np.bincount(lab, weights=space.prob)
        out[n] = cell[lab]
    return out


def _cells(ids, labels):
    """Cells as lists of outcome identifiers, ordered by label."""
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    ordered = [ids[i] for i in order]
    return [ordered[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _space_doc(space):
    return {
        "schema": SCHEMA,
        "outcomes": space.ids,
        "prob": space.prob.tolist(),
        "filtration": [_cells(space.ids, lab) for lab in space.labels],
        "blocks": _cells(space.ids, space.blocks),
    }


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


# -- pool entries and corpora -----------------------------------------------


@dataclass
class Entry:
    """One pool entry: its documents, the CLI calls it runs and its facts."""

    key: str
    files: dict         # role -> document bytes ("f" always, "g" for duality)
    steps: list         # (step, argv, output) templates, see _steps
    props: dict         # deterministic input properties


def _rng(workload: str, stratum: int, index: int):
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([tag, stratum, index])


def _steps(pipeline, variant, pq):
    """(step, argv, output) triples with {f}, {g} and {out} placeholders."""
    p, q = (str(v) for v in pq)
    flavor, defn = variant
    ladder = [
        ("norms", ["norms", "--input", "{f}", "--p", p, "--q", q], "{out}.norms.json"),
        ("decompose", ["decompose", "--input", "{f}", "--p", p, "--q", q,
                       "--flavor", flavor, "--defn", defn], "{out}.dec.json"),
        ("verify", ["verify", "--input", "{f}", "--decomposition", "{out}.dec.json"],
         "{out}.verify.json"),
    ]

    def duality(mode):
        return ("duality", ["duality", "--input", "{f}", "--g", "{g}", "--p", p,
                            "--q", q, "--mode", mode], "{out}.dual.json")

    if pipeline == "ladder":
        return ladder
    if pipeline == "dual-heuristic":
        return [duality("heuristic")]
    return ladder + [duality("exact")]


def make_entry(workload: Workload, s: int, index: int) -> Entry:
    """Generate pool entry ``index`` of stratum ``s``; pure in its arguments."""
    st = workload.strata[s]
    rng = _rng(workload.name, s, index)
    space = _draw_space(rng, st)
    x = _centred(rng, space)
    space_doc = _space_doc(space)
    files = {"f": _dumps({"schema": SCHEMA, "space": space_doc,
                          "levels": _levels(space, x).tolist()})}
    if workload.pipeline == "dual-heuristic":
        variant, pq = VARIANTS[0], PQ_DUAL[index % len(PQ_DUAL)]
    else:
        variant = VARIANTS[index % len(VARIANTS)]
        pqs = PQ_LADDER if workload.pipeline == "ladder" else PQ_DUAL
        pq = pqs[(index // len(VARIANTS)) % len(pqs)]
    if workload.pipeline != "ladder":
        g = _centred(rng, space)
        files["g"] = _dumps({"schema": SCHEMA, "space": space_doc, "values": g.tolist()})
    count = space.stopping_times
    route = None
    if workload.pipeline == "dual-heuristic":
        route = "heuristic-family"
    elif workload.pipeline == "exact":
        route = "exact-enumeration" if count <= CAP else "heuristic-family"
    props = {
        "outcomes": space.size,
        "depth": space.depth,
        "blocks": int(space.blocks.max()) + 1,
        "stopping_times": count if count <= 10**18 else None,
        "expected_route": route,
        "flavor": variant[0] if workload.pipeline != "dual-heuristic" else None,
        "defn": variant[1] if workload.pipeline != "dual-heuristic" else None,
        "p": pq[0],
        "q": pq[1],
    }
    key = f"{workload.name}/{st.name}/{index}"
    return Entry(key, files, _steps(workload.pipeline, variant, pq), props)


def entry_digest(entry: Entry) -> str:
    h = hashlib.sha256()
    for role in sorted(entry.files):
        h.update(role.encode() + b"\0" + entry.files[role] + b"\0")
    return h.hexdigest()


def corpus_indices(workload: Workload, seed: int):
    """(stratum, index) pairs of one corpus, balanced over variant classes."""
    rng = np.random.default_rng([seed, len(workload.strata)])
    picks = []
    c = workload.classes
    for s, st in enumerate(workload.strata):
        chosen = []
        for cls in range(c):
            members = np.arange(cls, st.pool, c)
            share = st.pick // c + (1 if cls < st.pick % c else 0)
            chosen.extend(rng.choice(members, size=share, replace=False).tolist())
        picks.extend((s, i) for i in sorted(chosen))
    return picks


def materialise(entry: Entry, directory: str, n: int) -> dict:
    """Write an entry's documents as document ``n`` of ``directory``.

    Returns the entry key, its digest, its properties and the CLI calls
    with paths filled in.
    """
    paths = {"out": os.path.join(directory, "out", f"doc{n:03d}")}
    for role, data in entry.files.items():
        paths[role] = os.path.join(directory, f"doc{n:03d}.{role}.json")
        with open(paths[role], "wb") as fh:
            fh.write(data)
    steps = []
    for name, argv, out in entry.steps:
        out = out.format(**paths)
        steps.append({"step": name, "output": out,
                      "argv": [a.format(**paths) for a in argv] + ["--output", out]})
    return {"id": n, "key": entry.key, "digest": entry_digest(entry),
            "props": entry.props, "steps": steps}


def warmup_indices(workload: Workload, picks):
    """(stratum, index) of the first pool entry of each warm-up stratum that
    the corpus ``picks`` leave out, so that no measured document is ever run
    before in the same process."""
    out = []
    for s, st in enumerate(workload.strata):
        if st.name in workload.warmup:
            taken = {i for t, i in picks if t == s}
            out.append((s, min(set(range(st.pool)) - taken)))
    return out


def write_corpus(workload: Workload, seed: int, directory: str):
    """Generate one corpus and its warm-up documents into ``directory``.

    Returns the corpus's document list and the warm-up document list.
    """
    os.makedirs(os.path.join(directory, "out"), exist_ok=True)
    picks = corpus_indices(workload, seed)
    docs = [materialise(make_entry(workload, s, i), directory, n)
            for n, (s, i) in enumerate(picks)]
    warmup = [materialise(make_entry(workload, s, i), directory, len(docs) + n)
              for n, (s, i) in enumerate(warmup_indices(workload, picks))]
    return docs, warmup
