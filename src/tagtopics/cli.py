"""Command-line front-end: ingest -> train -> rank -> eval, plus sample.

Exit codes: 0 success, 1 usage/configuration error, 2 data or I/O error,
3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import sys
from dataclasses import fields

from ._textio import atomic_write, read_text
from .corpus import filter_tags, ingest_triples, read_corpus, read_vocabularies, save_corpus
from .errors import ConfigError, DataError, DegeneracyError
from .itm import train_itm
from .metrics import LabelSet, count_relevant_topk, effort_to_n
# perfbench/tracing.py patches load_model here.
from .modelio import load_model, load_ranked  # noqa: F401
from .mwa import train_mwa
from .plsa import train_plsa
from .sampling import load_spec, sample_corpus
# perfbench/tracing.py patches rank_by_seed here.
from .similarity import rank_by_seed, rank_rows, read_ranking, write_ranking  # noqa: F401
from .training import MODEL_KINDS, TrainConfig, check_corpus

_TRAINERS = {"plsa": train_plsa, "mwa": train_mwa, "itm": train_itm}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _print_stats(corpus) -> None:
    for key, value in corpus.stats().items():
        print(f"{key}\t{value}")


def cmd_ingest(args) -> None:
    with read_text(args.input) as stream:
        corpus = ingest_triples(stream)
    if args.min_tag_freq is not None or args.max_tag_freq is not None:
        corpus = filter_tags(corpus,
                             min_freq=1 if args.min_tag_freq is None else args.min_tag_freq,
                             max_freq=args.max_tag_freq)
    save_corpus(corpus, args.output)
    _print_stats(corpus)


def cmd_train(args) -> None:
    cfg = TrainConfig(**{field.name: getattr(args, field.name) for field in fields(TrainConfig)})
    cfg.validate()
    corpus = read_corpus(args.corpus)
    model, log = _TRAINERS[cfg.model](corpus, cfg)
    model.save(args.output)
    print(f"# train model={cfg.model} topics={cfg.topics} interests={cfg.interests} "
          f"seed={cfg.seed} tol={cfg.tol} max_iters={cfg.max_iters} workers={cfg.workers}")
    print("# iteration\tlog_likelihood")
    for iteration, ll in enumerate(log.log_likelihoods):
        print(f"{iteration}\t{ll!r}")
    print(f"# converged={log.converged} iterations={log.iterations}")


def cmd_rank(args) -> None:
    if args.top < 0:
        raise ConfigError("--top must be >= 0")
    cls, size, tables = load_ranked(args.model_file)
    vocabs = read_vocabularies(args.corpus)
    check_corpus(size, vocabs)
    resources = vocabs.resources
    try:
        seed_id = resources.id_of(args.seed_resource)
    except DataError:
        close = difflib.get_close_matches(args.seed_resource, resources.entries, n=5)
        hint = ", ".join(close) if close else "none"
        raise DataError(f"unknown seed resource {args.seed_resource!r}; "
                        f"close vocabulary matches: {hint}") from None
    ranked = rank_rows(cls.topic_distributions_of(tables), seed_id)
    meta = {"model": cls.kind, "K": size["n_topics"], "base": "e",
            "seed": resources.name_of(seed_id)}
    with (contextlib.nullcontext(sys.stdout) if args.output is None
          else atomic_write(args.output)) as stream:
        write_ranking(ranked, stream, limit=args.top, name_of=resources.name_of, meta=meta)


def cmd_eval(args) -> None:
    with read_text(args.ranking) as stream:
        meta, ranked = read_ranking(stream)
    with read_text(args.labels) as stream:
        labels = LabelSet.from_tsv(stream)
    n_same, n_link = count_relevant_topk(ranked, labels, args.k)
    effort = effort_to_n(ranked, labels, args.n)
    model = meta.get("model", "unknown")
    print(f"# ranking={args.ranking} labels={args.labels} k={args.k} n={args.n}")
    print(f"{model}\tsame@{args.k}\t{n_same}")
    print(f"{model}\tlink-to@{args.k}\t{n_link}")
    print(f"{model}\teffort@{args.n}\t{effort if effort is not None else 'not_reached'}")


def cmd_sample(args) -> None:
    corpus = sample_corpus(load_spec(args.spec))
    save_corpus(corpus, args.output)
    _print_stats(corpus)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tagtopics",
                     description="Latent-topic models over tagging triples with "
                                 "divergence-based resource ranking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a triple TSV into a merged corpus file")
    p.add_argument("input", help="triple TSV: resource<TAB>user<TAB>tag[<TAB>count]")
    p.add_argument("output", help="corpus file to write")
    p.add_argument("--min-tag-freq", type=int, default=None, metavar="N",
                   help="drop tags occurring fewer than N times (off by default)")
    p.add_argument("--max-tag-freq", type=int, default=None, metavar="N",
                   help="drop tags occurring more than N times (off by default)")
    p.set_defaults(run=cmd_ingest)

    p = sub.add_parser("train", help="fit a model on an ingested corpus")
    p.add_argument("corpus", help="corpus file from `ingest`")
    p.add_argument("output", help="model file to write")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    helps = {"interests": "itm only", "tol": "relative log-likelihood improvement threshold"}
    for field in fields(TrainConfig):  # --topics .. --max-table-bytes; --model is above
        if field.name != "model":
            p.add_argument(f"--{field.name.replace('_', '-')}", type=type(field.default),
                           default=field.default, help=helps.get(field.name))
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("rank", help="rank resources by divergence from a seed resource")
    p.add_argument("model_file", help="model file from `train`")
    p.add_argument("corpus", help="the corpus the model was trained on")
    p.add_argument("seed_resource", help="name of the seed resource")
    p.add_argument("--top", type=int, default=100, metavar="K")
    p.add_argument("--output", default=None, help="ranking TSV (default: stdout)")
    p.set_defaults(run=cmd_rank)

    p = sub.add_parser("eval", help="score a ranking against relevance labels")
    p.add_argument("ranking", help="ranking TSV from `rank`")
    p.add_argument("labels", help="labels TSV: resource<TAB>same|link-to|unrelated")
    p.add_argument("--k", type=int, default=100, help="top-k window for counts")
    p.add_argument("--n", type=int, default=10, help="positives for the effort metric")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("sample", help="draw a synthetic corpus from a sampling spec")
    p.add_argument("spec", help="sampling spec file")
    p.add_argument("output", help="corpus file to write")
    p.set_defaults(run=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.run(args)
    except DegeneracyError as exc:
        print(f"tagtopics: degenerate computation: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"tagtopics: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError included
        print(f"tagtopics: usage error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
