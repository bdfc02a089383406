"""Benchmark of the tagtopics pipeline.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory.  For each workload the benchmark sets up its inputs three times
from the workload seed (each in a fresh process, reporting the median as
``setup_s`` and checking the three are byte-identical), then runs the timed
phase in a fresh process for ``--seconds``.  With ``--trace 1`` it runs the
timed phase twice, untraced and traced, half the time each, and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it list every metric that applies, with its unit.  The
exit code is 1 when any correctness check failed and 2 when the benchmark
could not run.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("itm-em", "rank-queries", "ingest-train-write")
SETUPS = 3
CHILD_TIMEOUT_S = 150
MODEL_KINDS = ("itm", "plsa", "mwa")

# End-to-end metrics every workload reports (BENCHMARK.json "end_to_end").
END_TO_END = {"setup_s": "s", "wall_scaled_s": "s", "peak_rss_mb": "MB"}

# Printed on every run and carried in the per-layer output: the unscaled
# round times, the host speed, and the metrics that only some workloads have.
WORKLOAD_METRICS = {
    "wall_s": ("s", WORKLOAD_NAMES),
    "wall_mean_s": ("s", WORKLOAD_NAMES),
    "reference_ms": ("ms", WORKLOAD_NAMES),
    "itm_iter_s": ("s", ("itm-em",)),
    "plsa_iter_s": ("s", ("ingest-train-write",)),
    "mwa_iter_s": ("s", ("ingest-train-write",)),
    "ingest_lines_per_s": ("lines/s", ("ingest-train-write",)),
    "rank_cli_s": ("s", ("rank-queries",)),
    "rank_p50_ms": ("ms", ("rank-queries",)),
    "rank_tail_ms": ("ms", ("rank-queries",)),
    "same_at_100": ("count", ("rank-queries",)),
    "itm_ll": ("nats/obs", ("itm-em",)),
    "plsa_ll": ("nats/obs", ("ingest-train-write",)),
    "mwa_ll": ("nats/obs", ("ingest-train-write",)),
    "error_rate": ("ratio", WORKLOAD_NAMES),
}

LAYER_METRICS = {
    "sampling.sample_s": "s", "sampling.samples_per_s": "1/s", "sampling.peak_rss_mb": "MB",
    "corpus.ingest_s": "s", "corpus.lines": "count", "corpus.merge_ratio": "ratio",
    "corpus.filter_s": "s", "corpus.save_s": "s", "corpus.read_s": "s",
    "corpus.tsv_bytes": "bytes",
    **{f"{kind}.{key}": unit for kind in MODEL_KINDS for key, unit in (
        ("ll_s", "s"), ("step_s", "s"), ("triples_per_s", "1/s"),
        ("table_bytes", "bytes"), ("gather_bytes_per_iter", "bytes"))},
    "training.iterations": "count", "training.mwa_w1_iter_s": "s", "training.w2_speedup": "ratio",
    "modelio.save_s": "s", "modelio.load_s": "s", "modelio.bytes": "bytes",
    "modelio.values_per_s": "1/s",
    "similarity.dists_s": "s", "similarity.rank_ms": "ms", "similarity.write_ms": "ms",
    "similarity.read_ms": "ms", "similarity.js_per_query": "count",
    "metrics.eval_ms": "ms", "cli.rank_overhead_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return cuts[round(pct * 10) - 1], pct, n
    return max(samples, default=0.0), 100.0, n


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tagtopics").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def child(*args, result: Path) -> dict:
    caps = {key: str(nproc()) for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(SRC), **caps)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args),
                               str(result)], env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} process timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def scaled_wall(measured: dict) -> float:
    """The mean round of a measured process at the reference host speed."""
    return statistics.fmean(reference.scaled([r["wall_s"] for r in measured["rounds"]],
                                             measured["readings"]))


def workload_metrics(name: str, untraced: dict) -> dict[str, float]:
    """The workload-level metrics, from the rounds of an untraced process."""
    rounds = untraced["rounds"]
    out = {"wall_s": median(r["wall_s"] for r in rounds),
           "wall_mean_s": statistics.fmean(r["wall_s"] for r in rounds),
           "reference_ms": 1000.0 * median(t for passes in untraced["readings"]
                                           for t in passes)}
    for kind in MODEL_KINDS:
        runs = [r[kind] for r in rounds if kind in r]
        if runs:
            out[f"{kind}_iter_s"] = median(s for run in runs for s in run["iter_s"])
            out[f"{kind}_ll"] = runs[-1]["ll_per_obs"]
    if name == "ingest-train-write":
        out["ingest_lines_per_s"] = rounds[0]["lines"] / median(r["ingest_s"] for r in rounds)
    if name == "rank-queries":
        warm_ms = [1000.0 * s for r in rounds for s in r["warm_s"]]
        out["rank_cli_s"] = median(s for r in rounds for s in r["rank_cli_s"])
        out["rank_p50_ms"] = median(warm_ms)
        out["rank_tail_ms"], out["rank_tail_pct"], out["rank_tail_n"] = tail(warm_ms)
        same = [v for r in rounds for v in r["same_at_100"]]
        out["same_at_100"] = sum(same) / max(len(same), 1)
    return out


def layer_metrics(name: str, setups: list[dict], untraced: dict, traced: dict,
                  inputs: Path) -> dict[str, float]:
    """The per-layer metrics.  Span times are per pass: one set-up, the
    measured process's loading, and the mean round of the traced process."""
    spans: dict[str, dict] = {}
    for summary in (setups[0]["spans"], traced["spans"]):
        for span_name, entry in summary["by_name"].items():
            merged = spans.setdefault(span_name, {"s": 0.0, "count": 0.0, "round_s": [],
                                                  "round_children_s": []})
            for key in merged:
                merged[key] += entry[key]

    def per_pass(*names: str, key: str = "s") -> float:
        return sum(spans[n][key] for n in names if n in spans)

    def round_ms(span_name: str) -> float:
        return 1000.0 * median(spans.get(span_name, {}).get("round_s", []))

    rounds, info = untraced["rounds"], setups[0]["info"]
    m: dict[str, float] = {}
    m["sampling.sample_s"] = per_pass("sampling.sample_corpus")
    m["sampling.samples_per_s"] = info["samples"] / max(m["sampling.sample_s"], 1e-9)
    m["sampling.peak_rss_mb"] = median(s["peak_rss_mb"] for s in setups)
    counts = round_counts(rounds[0], info)
    m["corpus.ingest_s"] = per_pass("corpus.ingest_triples")
    m["corpus.lines"] = counts["corpus.lines"]
    m["corpus.merge_ratio"] = (rounds[0].get("unique_triples", info.get("unique_triples"))
                               / counts["corpus.lines"])
    m["corpus.filter_s"] = per_pass("corpus.filter_tags")
    m["corpus.save_s"] = per_pass("corpus.save_corpus")
    m["corpus.read_s"] = per_pass("corpus.read_corpus")
    m["corpus.tsv_bytes"] = (inputs / "corpus.tsv").stat().st_size

    for kind in MODEL_KINDS:
        runs = [r[kind] for r in rounds if kind in r]
        first = runs[0] if runs else {}
        ll_s = median(run["ll_s"] for run in runs)
        iter_s = median(s for run in runs for s in run["iter_s"])
        train_s = median(run["train_s"] for run in runs)
        m[f"{kind}.ll_s"] = ll_s
        m[f"{kind}.step_s"] = iter_s - ll_s if runs else 0.0
        m[f"{kind}.triples_per_s"] = (first["rows"] * first["iterations"] / train_s
                                      if runs else 0.0)
        m[f"{kind}.table_bytes"] = first.get("table_bytes", 0)
        m[f"{kind}.gather_bytes_per_iter"] = first.get("gather_bytes_per_iter", 0)
    m["training.iterations"] = counts["training.iterations"]
    w1 = median(s for r in rounds if "mwa_w1" in r for s in r["mwa_w1"]["iter_s"])
    m["training.mwa_w1_iter_s"] = w1
    m["training.w2_speedup"] = 0.0
    if w1:
        m["training.w2_speedup"] = w1 / median(s for r in rounds for s in r["mwa"]["iter_s"])

    saves = [f"{kind}.{kind.capitalize()}Model.save" for kind in MODEL_KINDS]
    m["modelio.save_s"] = per_pass(*saves)
    m["modelio.load_s"] = per_pass("modelio.load_model")
    if name == "ingest-train-write":
        m["modelio.bytes"] = rounds[0]["model_bytes"]
    else:
        m["modelio.bytes"] = sum(p.stat().st_size for p in inputs.glob("model.*"))
    moved = per_pass(*saves, "modelio.load_model", key="count")
    busy = m["modelio.save_s"] + m["modelio.load_s"]
    m["modelio.values_per_s"] = moved / busy if busy else 0.0

    m["similarity.dists_s"] = per_pass(*(f"{kind}.{kind.capitalize()}Model.topic_distribution"
                                         for kind in MODEL_KINDS))
    m["similarity.rank_ms"] = round_ms("similarity.rank_by_seed")
    m["similarity.write_ms"] = round_ms("similarity.write_ranking")
    m["similarity.read_ms"] = round_ms("similarity.read_ranking")
    m["similarity.js_per_query"] = (rounds[0]["js_per_query"][0]
                                    if rounds[0].get("js_per_query") else 0)
    m["metrics.eval_ms"] = round_ms("cli.main eval")
    rank = spans.get("cli.main rank", {"round_s": [], "round_children_s": []})
    m["cli.rank_overhead_ms"] = 1000.0 * median(
        total - calls for total, calls in zip(rank["round_s"], rank["round_children_s"]))
    # Not reported as metrics: how the traced rank command splits.
    m["rank_traced_ms"] = 1000.0 * median(rank["round_s"])
    m["rank_calls_ms"] = 1000.0 * median(rank["round_children_s"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = setups[0]["spans"]["self_s"][layer] + traced["spans"]["self_s"][layer]
    # Both halves scaled to the reference host speed, so that a change of the
    # host's state between them does not read as tracing cost.
    m["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(untraced)
    return m


def round_counts(round_data: dict, info: dict) -> dict:
    """The counts of one round that are computed from array and file sizes."""
    counts = {"corpus.lines": round_data.get("lines", info["raw_lines"]),
              "training.iterations": sum(round_data[k]["iterations"] for k in
                                         ("itm", "plsa", "mwa", "mwa_w1") if k in round_data),
              "similarity.js_per_query": sorted(set(round_data.get("js_per_query", [])))}
    for kind in MODEL_KINDS:
        if kind in round_data:
            for key in ("table_bytes", "gather_bytes_per_iter"):
                counts[f"{kind}.{key}"] = round_data[kind][key]
    return counts


def check_counts(name: str, seed: int, config: dict, rounds: list[dict], info: dict,
                 checks) -> dict:
    """Counts must repeat exactly in every round, and in every run of this
    seed with the same source and configuration (earlier runs leave theirs
    under ``.perfbench``)."""
    counts = round_counts(rounds[0], info)
    for k, later in enumerate(rounds[1:], start=1):
        checks.expect(round_counts(later, info) == counts, f"round {k} counts differ from round 0")
    key = hashlib.sha256((source_hash() + json.dumps(config, sort_keys=True)).encode())
    path = OUT / "counts" / f"{name}-seed{seed}-{key.hexdigest()[:16]}.json"
    if path.exists():
        checks.expect(json.loads(path.read_text()) == counts,
                      f"counts {counts} differ from an earlier run of this seed: {path.read_text()}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
    return counts


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    work = OUT / "work" / f"{name}-seed{seed}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}"
    checks = workloads.Checks()
    try:
        setups, setup_walls = [], []
        for k in range(SETUPS):
            (work / f"setup{k}").mkdir(parents=True)
            start = time.perf_counter()
            setups.append(child("setup", name, seed, work / f"setup{k}", int(trace),
                                result=work / f"setup{k}.json"))
            setup_walls.append(time.perf_counter() - start)
            checks.expect(setups[k]["hashes"] == setups[0]["hashes"],
                          f"set-up {k} wrote different bytes than set-up 0")
        inputs = work / "setup0"
        untraced = child("measure", name, seed, inputs, seconds / 2 if trace else seconds, 0,
                         result=work / "untraced.json")
        traced = (child("measure", name, seed, inputs, seconds / 2, 1,
                        result=results / f"{tag}-traced.json") if trace else None)
        for measured in filter(None, (untraced, traced)):
            checks.attempted += measured["attempted"]
            checks.failed += measured["failed"]
            checks.failures += measured["failures"]
        rounds = untraced["rounds"]
        if not rounds:
            raise BenchError("the measured process completed no round: "
                             + "; ".join(checks.failures[:3]))
        config = {"workload": workloads.WORKLOADS[name], "setups": SETUPS,
                  "tol": workloads.TOL, "min_rounds": workloads.MIN_ROUNDS}
        counts = check_counts(name, seed, config, rounds, setups[0]["info"], checks)
        per_workload = workload_metrics(name, untraced)
        per_workload["error_rate"] = checks.failed / checks.attempted
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "failures": checks.failures[:20],
            "end_to_end": {"setup_s": median(setup_walls),
                           "wall_scaled_s": scaled_wall(untraced),
                           "peak_rss_mb": untraced["peak_rss_mb"]},
            "workload_metrics": per_workload,
            "per_layer": layer_metrics(name, setups, untraced, traced, inputs) if trace else None,
            "counts": counts, "setup_walls_s": setup_walls, "rounds": len(rounds),
            "round_walls_s": [r["wall_s"] for r in rounds],
            "readings": untraced["readings"],
            "config": config,
            "environment": {**untraced["environment"], "nproc": nproc(), "git_rev": git_rev(),
                            "source_sha256": source_hash()},
        }
        (results / f"{tag}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict) -> None:
    name = result["workload"]
    print(f"# workload {name} seed {result['seed']} rounds {result['rounds']} "
          f"nproc {result['environment']['nproc']}")
    for metric, unit in END_TO_END.items():
        print(f"{metric}\t{result['end_to_end'][metric]!r}\t{unit}")
    wm = result["workload_metrics"]
    for metric, (unit, applies) in WORKLOAD_METRICS.items():
        if name in applies:
            note = (f"\t# p{wm['rank_tail_pct']:g} of {wm['rank_tail_n']} warm queries"
                    if metric == "rank_tail_ms" else "")
            print(f"{metric}\t{wm[metric]!r}\t{unit}{note}")
    for metric, unit in LAYER_METRICS.items():
        if result["per_layer"] is not None:
            print(f"{metric}\t{result['per_layer'][metric]!r}\t{unit}")
    layers = result["per_layer"]
    if layers and name == "rank-queries":
        print(f"# traced cli rank {layers['rank_traced_ms']:.1f} ms = public calls "
              f"{layers['rank_calls_ms']:.1f} ms + cli.rank_overhead_ms "
              f"{layers['cli.rank_overhead_ms']:.1f} ms; untraced rank_cli_s "
              f"{1000.0 * wm['rank_cli_s']:.1f} ms")
    for failure in result["failures"]:
        print(f"# FAILED: {failure.splitlines()[0] if failure else failure}")


def contract_line(result: dict) -> dict:
    if result["trace"]:
        values = {**{m: result["workload_metrics"].get(m, 0.0) for m in WORKLOAD_METRICS},
                  **result["per_layer"]}
        units = {**{m: u for m, (u, _) in WORKLOAD_METRICS.items()}, **LAYER_METRICS}
    else:
        values, units = result["end_to_end"], END_TO_END
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tagtopics" / "__init__.py").is_file():
        print(f"perfbench: no tagtopics package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            report(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        line = contract_line(results[0])
    else:
        lines = {r["workload"]: contract_line(r) for r in results}
        line = {"correct": all(r["correct"] for r in lines.values()),
                "attempted": sum(r["attempted"] for r in lines.values()),
                "failed": sum(r["failed"] for r in lines.values()),
                "metrics": {f"{w}/{m}": v for w, r in lines.items()
                            for m, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
