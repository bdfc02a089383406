"""The three workloads: their set-up, inputs loading, timed round and checks.

Set-up writes every input the measured process needs into one directory;
the measured process only reads those files.  A round is one pass of a
workload's timed phase; the measured process repeats rounds (a closed loop,
one client) until its time is up.  Checks run after the timed part of each
round, in the ``check`` phase, and every failed check or failed operation
counts toward ``error_rate``.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import planted
import tagtopics
from tagtopics import cli

# Sizes are scaled so that three set-ups and a run of the timed phase fit in
# well under a minute on a 2-core machine; see README.md for the reasons.
WORKLOADS = {
    "itm-em": {
        "shape": {"R": 2000, "U": 800, "T": 1200, "K": 40, "I": 10},
        "samples": 20_000, "batch": 2_000,
        "topics": 40, "interests": 10, "iters": 3,
    },
    "rank-queries": {
        "shape": {"R": 2500, "U": 1000, "T": 1500, "K": 40, "I": 10},
        "samples": 40_000, "batch": 2_000,
        "topics": 40, "train_iters": 12, "cold_queries": 2, "warm_queries": 25,
        "top": 100, "same_floor": 20,
    },
    "ingest-train-write": {
        "shape": {"R": 2000, "U": 800, "T": 1200, "K": 40, "I": 10},
        "batches": 6, "batch": 4_000, "min_tag_freq": 20,
        "topics": 40, "iters": 5,
    },
}

# A measured phase always runs this many rounds, however short its time.
MIN_ROUNDS = 3
TOL = 1e-12  # far below any reachable relative change: iteration counts stay fixed
LN2 = math.log(2.0)
LL_ROUNDING = 1e-9  # relative slack for a log-likelihood step counted as non-decreasing


class Checks:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def ll_history(self, log, iterations: int, what: str) -> None:
        lls = log.log_likelihoods
        self.expect(all(math.isfinite(v) for v in lls), f"{what}: non-finite log-likelihood")
        self.expect(all(b >= a - LL_ROUNDING * abs(a) for a, b in zip(lls, lls[1:])),
                    f"{what}: log-likelihood decreased")
        self.expect(log.iterations == iterations,
                    f"{what}: ran {log.iterations} iterations, expected {iterations}")

    def valid(self, model, what: str) -> None:
        try:
            model.validate()
        except tagtopics.TagTopicsError as exc:
            self.expect(False, f"{what}: validate() failed: {exc}")
        else:
            self.expect(True, what)

    def round_trip(self, model, loaded, what: str) -> None:
        same = type(loaded) is type(model) and all(
            np.array_equal(value, getattr(loaded, key))
            for key, value in vars(model).items())
        self.expect(same, f"{what}: save/load_model round trip changed the model")


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``tagtopics`` in-process as a user would; (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue()


def stats_of(output: str) -> dict[str, int]:
    return {key: int(value) for key, value in
            (line.split("\t") for line in output.splitlines() if line and not line.startswith("#"))}


def train_config(cfg: dict, kind: str, iters: int, seed: int, workers: int = 1):
    return tagtopics.TrainConfig(model=kind, topics=cfg["topics"],
                                 interests=cfg.get("interests", 1), tol=TOL,
                                 max_iters=iters, seed=seed, workers=workers)


def gather_bytes_per_iter(kind: str, model, rows: int) -> int:
    """Computed bytes of parameter rows gathered per EM iteration.

    Each iteration reads, for every data row, the parameter entries of its
    ids once in the E-step and once more in the separate log-likelihood
    pass: 2K floats per (r, t) pair for plsa, 3K per triple for mwa and
    I*K + I + K per triple for itm.
    """
    if kind == "plsa":
        per_row = 2 * model.n_topics
    elif kind == "mwa":
        per_row = 3 * model.n_topics
    else:
        per_row = model.n_interests * model.n_topics + model.n_interests + model.n_topics
    return 2 * 8 * per_row * rows


def train(kind: str, corpus, cfg, tracer) -> dict:
    """Train one model with iteration timestamps; then time a separate
    log-likelihood pass on the final model."""
    stamps: list[float] = []

    def hook(model, iteration, ll):
        now = time.perf_counter()
        if tracer.enabled:
            tracer.iteration(kind, iteration, stamps[-1] if stamps else None, now)
        stamps.append(now)

    trainer = getattr(tagtopics, f"train_{kind}")
    start = time.perf_counter()
    model, log = trainer(corpus, cfg, iteration_hook=hook)
    trained = time.perf_counter()
    ll = model.log_likelihood(corpus)
    done = time.perf_counter()
    rows = len(corpus.rt_arrays()[2]) if kind == "plsa" else corpus.num_triples
    return {
        "model": model, "log": log, "ll": ll, "wall_s": done - start,
        "stats": {
            "iter_s": list(np.diff(stamps)), "train_s": trained - start, "ll_s": done - trained,
            "iterations": log.iterations, "rows": rows, "ll_per_obs": ll / corpus.total,
            "table_bytes": sum(v.nbytes for v in vars(model).values() if hasattr(v, "nbytes")),
            "gather_bytes_per_iter": gather_bytes_per_iter(kind, model, rows),
        },
    }


def check_training(checks: Checks, run: dict, iterations: int, what: str) -> None:
    checks.ll_history(run["log"], iterations, what)
    checks.valid(run["model"], what)
    checks.expect(run["ll"] == run["log"].final_log_likelihood,
                  f"{what}: separate log-likelihood differs from the last EM entry")


# --- set-up ----------------------------------------------------------------

def setup(name: str, seed: int, out: Path) -> dict:
    """Write the inputs of workload ``name`` for workload seed ``seed``."""
    cfg = WORKLOADS[name]
    model, dominant = planted.planted_model(cfg["shape"], seed)
    if name == "ingest-train-write":
        # Overlapping crawl windows: window k holds batches k and k+1, so
        # most triples arrive twice and their counts merge on ingest.
        batches = [planted.sample_lines(model, cfg["batch"], planted.derive_seed(seed, 1, b))
                   for b in range(cfg["batches"])]
        lines = [line for k in range(len(batches) - 1) for line in batches[k] + batches[k + 1]]
        samples = cfg["batch"] * cfg["batches"]
    else:
        lines = [line for b, lo in enumerate(range(0, cfg["samples"], cfg["batch"]))
                 for line in planted.sample_lines(model, min(cfg["batch"], cfg["samples"] - lo),
                                                  planted.derive_seed(seed, 1, b))]
        samples = cfg["samples"]
    raw = out / "raw.tsv"
    raw.write_text("".join(lines), encoding="utf-8")
    info = {"samples": samples, "raw_lines": len(lines)}
    if name == "ingest-train-write":
        return info

    code, output = cli_call(["ingest", raw, out / "corpus.tsv"])
    if code != 0:
        raise RuntimeError(f"set-up ingest exited with {code}")
    info["unique_triples"] = stats_of(output)["unique_triples"]
    if name == "itm-em":
        return info

    code, _ = cli_call(["train", out / "corpus.tsv", out / "model.plsa", "--model", "plsa",
                        "--topics", cfg["topics"], "--max-iters", cfg["train_iters"],
                        "--tol", TOL, "--seed", seed])
    if code != 0:
        raise RuntimeError(f"set-up train exited with {code}")
    names = sorted({line.split("\t", 1)[0] for line in lines})
    rng = np.random.default_rng(planted.derive_seed(seed, 2))
    warm = [str(n) for n in rng.choice(names, cfg["warm_queries"], replace=False)]
    cold = warm[:cfg["cold_queries"]]
    for k, seed_name in enumerate(cold):
        planted.write_labels(out / f"labels-{k}.tsv", seed_name, names, dominant)
    (out / "queries.json").write_text(json.dumps({"warm": warm, "cold": cold}))
    return info


# --- measured process --------------------------------------------------------

class ItmEm:
    """itm EM at workers=1 on a corpus file read before the timed phase."""

    def __init__(self, cfg: dict, seed: int, inputs: Path, tracer):
        self.cfg, self.tracer = cfg, tracer
        self.corpus = tagtopics.read_corpus(inputs / "corpus.tsv")
        self.train_cfg = train_config(cfg, "itm", cfg["iters"], seed)

    def round(self, checks: Checks) -> dict:
        run = train("itm", self.corpus, self.train_cfg, self.tracer)
        with self.tracer.phase_as("check"):
            check_training(checks, run, self.cfg["iters"], "itm")
        return {"wall_s": run["wall_s"], "itm": run["stats"]}


class RankQueries:
    """Cold CLI rank + eval per query, then warm in-process rank_by_seed."""

    def __init__(self, cfg: dict, seed: int, inputs: Path, tracer):
        self.cfg, self.tracer, self.inputs = cfg, tracer, inputs
        queries = json.loads((inputs / "queries.json").read_text())
        self.cold, self.warm = queries["cold"], queries["warm"]
        model = tagtopics.load_model(inputs / "model.plsa")
        self.corpus = tagtopics.read_corpus(inputs / "corpus.tsv")
        self.dists = {rid: model.topic_distribution(rid)
                      for rid in range(len(self.corpus.resources))}

    def round(self, checks: Checks) -> dict:
        top, inputs = self.cfg["top"], self.inputs
        cold_s, eval_s, same, warm_s, rankings = [], [], [], [], {}
        for k, name in enumerate(self.cold):
            start = time.perf_counter()
            code, _ = cli_call(["rank", inputs / "model.plsa", inputs / "corpus.tsv", name,
                                "--top", top, "--output", inputs / f"ranking-{k}.tsv"])
            ranked = time.perf_counter()
            checks.expect(code == 0, f"rank {name} exited with {code}")
            code, output = cli_call(["eval", inputs / f"ranking-{k}.tsv",
                                     inputs / f"labels-{k}.tsv", "--k", top])
            cold_s.append(ranked - start)
            eval_s.append(time.perf_counter() - ranked)
            if checks.expect(code == 0, f"eval {name} exited with {code}"):
                same.append(int(output.splitlines()[1].split("\t")[2]))
        for name in self.warm:
            start = time.perf_counter()
            try:
                rankings[name] = tagtopics.rank_by_seed(
                    self.dists, self.corpus.resources.id_of(name))
            except tagtopics.TagTopicsError as exc:
                checks.expect(False, f"warm query {name} raised {exc}")
            warm_s.append(time.perf_counter() - start)
        with self.tracer.phase_as("check"):
            self.check(checks, rankings, same)
        return {"wall_s": sum(cold_s) + sum(eval_s) + sum(warm_s), "rank_cli_s": cold_s,
                "warm_s": warm_s, "same_at_100": same,
                "js_per_query": [len(r) for r in rankings.values()]}

    def check(self, checks: Checks, rankings: dict, same: list[int]) -> None:
        n_res = len(self.corpus.resources)
        for name, ranked in rankings.items():
            divs = [d for _, d in ranked.entries]
            checks.expect(len(divs) == n_res - 1, f"ranking {name}: {len(divs)} entries")
            checks.expect(all(0.0 <= d <= LN2 for d in divs), f"ranking {name}: out of [0, ln 2]")
            checks.expect(all(a <= b for a, b in zip(divs, divs[1:])),
                          f"ranking {name}: not non-decreasing")
            seed_dist = self.dists[ranked.seed]
            for rid, div in (ranked.entries[0], ranked.entries[len(divs) // 2], ranked.entries[-1]):
                scalar = tagtopics.js_divergence(self.dists[rid], seed_dist)
                checks.expect(abs(scalar - div) <= 1e-12,
                              f"ranking {name}: divergence of {rid} is {div}, scalar {scalar}")
        for k, name in enumerate(self.cold):
            if name not in rankings:
                continue
            with open(self.inputs / f"ranking-{k}.tsv", encoding="utf-8") as stream:
                _, from_cli = tagtopics.similarity.read_ranking(stream)
            expected = [(self.corpus.resources.name_of(rid), div)
                        for rid, div in rankings[name].top(self.cfg["top"])]
            checks.expect(from_cli.entries == expected,
                          f"CLI top-{self.cfg['top']} of {name} differs from rank_by_seed")
        if same:
            mean = sum(same) / len(same)
            checks.expect(mean >= self.cfg["same_floor"],
                          f"same@{self.cfg['top']} = {mean} below floor {self.cfg['same_floor']}")


class IngestTrainWrite:
    """CLI ingest with merging and filtering, plsa and mwa training, model
    save and load."""

    def __init__(self, cfg: dict, seed: int, inputs: Path, tracer):
        self.cfg, self.seed, self.tracer, self.inputs = cfg, seed, tracer, inputs
        self.raw = inputs / "raw.tsv"
        with open(self.raw, encoding="utf-8") as stream:
            tags = Counter(line.rstrip("\n").split("\t")[2] for line in stream)
        self.lines = sum(tags.values())
        self.surviving = sum(n for n in tags.values() if n >= cfg["min_tag_freq"])

    def round(self, checks: Checks) -> dict:
        cfg, inputs, iters = self.cfg, self.inputs, self.cfg["iters"]
        start = time.perf_counter()
        code, output = cli_call(["ingest", self.raw, inputs / "corpus.tsv",
                                 "--min-tag-freq", cfg["min_tag_freq"]])
        ingest_s = time.perf_counter() - start
        corpus = tagtopics.read_corpus(inputs / "corpus.tsv")
        runs = {
            "plsa": train("plsa", corpus, train_config(cfg, "plsa", iters, self.seed), self.tracer),
            "mwa": train("mwa", corpus, train_config(cfg, "mwa", iters, self.seed, 2), self.tracer),
            "mwa_w1": train("mwa", corpus, train_config(cfg, "mwa", iters, self.seed), self.tracer),
        }
        paths = {kind: inputs / f"model.{kind}" for kind in ("plsa", "mwa")}
        for kind, path in paths.items():
            runs[kind]["model"].save(path)
        loaded = {kind: tagtopics.load_model(path) for kind, path in paths.items()}
        end = time.perf_counter()

        with self.tracer.phase_as("check"):
            checks.expect(code == 0, f"ingest exited with {code}")
            stats = stats_of(output) if code == 0 else {}
            checks.expect(stats.get("total_count") == self.surviving,
                          f"ingest total_count {stats.get('total_count')}, "
                          f"expected {self.surviving} surviving lines")
            for kind, run in runs.items():
                check_training(checks, run, iters, kind)
            for kind in paths:
                checks.round_trip(runs[kind]["model"], loaded[kind], kind)
            w1, w2 = runs["mwa_w1"]["ll"], runs["mwa"]["ll"]
            checks.expect(abs(w1 - w2) <= LL_ROUNDING * abs(w1),
                          f"mwa log-likelihood at workers=1 {w1} vs workers=2 {w2}")
        return {
            "wall_s": end - start, "ingest_s": ingest_s, "lines": self.lines,
            "unique_triples": stats.get("unique_triples", 0),
            "model_bytes": sum(path.stat().st_size for path in paths.values()),
            **{kind: run["stats"] for kind, run in runs.items()},
        }


MEASURED = {"itm-em": ItmEm, "rank-queries": RankQueries, "ingest-train-write": IngestTrainWrite}
