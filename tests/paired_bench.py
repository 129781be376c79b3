"""Paired benchmark runs of a base commit against the work tree.

Run from anywhere, with the standard library, git and tar only:

    python tests/paired_bench.py [--base REF] [--workload NAME] [--first-seed N]
                                 [--pairs N] [--seconds T] [--dir DIR]

It exports two copies with ``git archive``: REF (default HEAD), and the work
tree as ``git stash create`` records it, so uncommitted changes to tracked
files count (an untracked file does not: ``git add`` it first).  For each of
the N seeds from ``--first-seed`` on, it runs ``perfbench/run.py --trace 0``
once in each copy, the base first in odd pairs and the work tree first in
even ones.  Each side's records are copied into DIR/base-records and
DIR/new-records.  Then it prints ``perfbench/compare.py``'s table of the two
and, for every end-to-end metric of ``BENCHMARK.json``, the pairs the work
tree won and lost, ties counting for neither side, with the verdict on a
claimed gain, whether its median lies below, inside or above the base's quartiles,
and whether it is worse than the base median by more than the metric's bound.
Nothing in the checkout changes; DIR (default: a new temporary directory)
keeps the copies and records.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "new")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(ref, dest):
    """Write the tree of commit ``ref`` into the new directory ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def run(copy, workload, seed, seconds):
    """One benchmark run in ``copy``; its record lands in copy/.perfbench_results."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{copy.name}, seed {seed}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr}")
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    if not verdict["correct"] or verdict["failed"]:
        print(f"  {copy.name}, seed {seed}: {verdict['failed']} of {verdict['attempted']} "
              "calls failed", file=sys.stderr)


def records(directory):
    out = []
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def pairs_won(base, new, spec):
    """Lines of the pairs won and lost per workload and end-to-end metric, ties
    counting for neither side, with the verdict on a claimed gain, each side's
    median, the base's quartiles, where the new median lies against them, and
    whether it is worse than the base median by more than the metric's bound.

    The verdict is "unresolved" where the base's interquartile range is wider
    than the bound times its median, unless every new run beats every base run;
    else "gain holds" where the work tree won at least 9 of 10 pairs and its
    median beats the base median by more than that range; else "gain not shown".
    """
    lines = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1  # a gain is a positive change
            b = {r["seed"]: r["end_to_end"][name]["value"] for r in base if r["workload"] == w}
            n = {r["seed"]: r["end_to_end"][name]["value"] for r in new if r["workload"] == w}
            seeds = sorted(set(b) & set(n))
            won = sum(sign * (n[s] - b[s]) > 0 for s in seeds)
            lost = sum(sign * (n[s] - b[s]) < 0 for s in seeds)
            bv, nv = [b[s] for s in seeds], [n[s] for s in seeds]
            q1, _, q3 = statistics.quantiles(bv, n=4) if len(bv) > 1 else (bv[0],) * 3
            bm, nm = statistics.median(bv), statistics.median(nv)
            side = "below" if nm < q1 else "above" if nm > q3 else "inside"
            worse = sign * (nm - bm) < -bound * abs(bm)
            beats_all = min(nv) > max(bv) if sign > 0 else max(nv) < min(bv)
            holds = 10 * won >= 9 * len(seeds) and sign * (nm - bm) > q3 - q1
            verdict = ("unresolved" if q3 - q1 > bound * abs(bm) and not beats_all
                       else "gain holds" if holds else "gain not shown")
            lines.append(f"{w:<18} {name:<12} won {won} lost {lost} of {len(seeds)} ({verdict})"
                         f"  base {bm:.4g} [{q1:.4g}, {q3:.4g}] -> new {nm:.4g}  "
                         f"{side} the quartiles, "
                         f"{'worse than' if worse else 'within'} the bound {bound:g}")
    return lines


def main(args):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against")
    ap.add_argument("--workload", default="all", help="a workload name, or 'all'")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--dir", help="new directory for the copies and records")
    args = ap.parse_args(args)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    work = Path(args.dir) if args.dir else Path(tempfile.mkdtemp(prefix="paired_bench-"))
    refs = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
            "new": git("stash", "create") or git("rev-parse", "HEAD")}
    for side in SIDES:
        export(refs[side], work / side)
    print(f"base {refs['base']}, work tree {refs['new']}, in {work}", file=sys.stderr)
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            print(f"pair {i + 1}/{args.pairs}, seed {seed}: {side}", file=sys.stderr)
            run(work / side, args.workload, seed, seconds)
    for side in SIDES:
        dest = work / f"{side}-records"
        dest.mkdir()
        for path in (work / side / ".perfbench_results").glob("*.json"):
            shutil.copy(path, dest)
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "compare.py"),
                    str(work / "base-records"), str(work / "new-records")], check=True)
    for line in pairs_won(records(work / "base-records"), records(work / "new-records"), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
