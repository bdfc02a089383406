"""One EM trainer for the three models.

:func:`train` fits any model class by the same protocol: seeded near-uniform
initialization, then EM until the relative log-likelihood improvement drops
below ``tol``.  One data pass at θₖ gives both L(θₖ) and the statistics for
θₖ₊₁; a log-likelihood-only pass runs only after the last update ``max_iters``
allows.  :func:`train` owns the config checks (the table budget included), the start,
the data rows, their plan and the worker pool, and :func:`em_fit` walks every pass
with them and runs the M-steps.  A model class subclasses :class:`Model`, which derives
its seeded start, one-row posterior and statistics from its tables, and
supplies only its own math: ``kind``/``DIMS``/``TABLES`` (its tables and file
schema); ``mixture(*ids, **transposed)``, the unnormalised joint per row as
[n, latent...], which gathers from the pass's row-major copies of its (latent, ids)
tables when ``transposed`` gives them (see :meth:`Model.transposed_tables`);
``m_step(stats)``, the update from the statistics, which allocates no table; and
``log_terms(mix, ids, **logs)``, log p(row) from the mixture summed per row.  It may
replace the defaults of :class:`Model`: ``DRAWS``, the start's draw order; ``band``, the
id column its data rows are sorted on; ``chunk_rows``, which fixes the summation order;
``chunk_plan(ids)``, built once per training, the ``logs`` (itm's log p(u) and log p(r))
and each chunk's ``plan`` (itm's tag runs); and the per-chunk step ``e_step(chunk, n,
stats, lo, **transposed, **plan)``, which returns the rows' mixture totals and, given
``stats``, adds the statistics of the n-weighted posteriors (itm's forms no posterior
and gets no copies).  No class overrides :meth:`Model.initial` or :meth:`Model.rows`,
which derives the rows from ``DIMS`` and ``band``.  Every scatter of statistic rows by
repeating ids goes through :func:`add_rows`.

Every pass, fused or L-only, is one call of :func:`mapreduce_slices`, which holds
its summation order (``_SLICES`` fixed slices summed from zero in
``chunk_rows`` chunks, then in slice order): any worker count, same bits, and
a fused pass's L has the bits of :func:`log_likelihood`.  A slice sums the
statistic keyed by ``band`` only over its band, the ids from the least to the
greatest its rows reach, at row id - lo; the rows are sorted by that id, so
the ``_SLICES`` bands together are about one table, not ``_SLICES``.  Outside
its band a slice's sum would be +0.0, which leaves a sum's bits as they are,
so the band changes no bit.
"""

from __future__ import annotations

import contextlib
import logging
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegeneracyError

logger = logging.getLogger(__name__)

MODEL_KINDS = ("plsa", "mwa", "itm")
_ROW_NAMES = {2: "pair", 3: "triple"}
# Each id column of the data rows: its name in messages, DIMS size and Corpus vocabulary.
_ID_COLUMNS = {"r": ("resource", "n_resources", "resources"), "u": ("user", "n_users", "users"),
               "t": ("tag", "n_tags", "tags")}
_COLUMN_OF = {dim: col for col, (_, dim, _) in _ID_COLUMNS.items()}
_LATENT = ("n_topics", "n_interests")  # the latent sizes in DIMS

# Relative amplitude of the seeded init noise; large enough to break topic
# symmetry, small enough that every table starts close to uniform.
_INIT_NOISE = 0.1

_SLICES = 8  # row slices per data pass; fixed, since they fix the summation order


@dataclass
class TrainConfig:
    """Knobs shared by every trainer.

    ``interests`` only matters for the interest-topic model; ``workers``
    changes the speed, never the result.  ``max_table_bytes`` bounds the
    size (8 bytes a value) of the parameter tables a trainer allocates.  A data
    pass also holds one row-major copy of each latent-first table (see
    ``Model.transposed_tables``): pLSA's p(t|z), and mwa's p(r|z), p(u|z) and
    p(t|z), so up to 2x the table bytes for mwa.
    """

    model: str = "plsa"
    topics: int = 100
    interests: int = 20
    tol: float = 1e-6
    max_iters: int = 200
    seed: int = 0
    workers: int = 1
    max_table_bytes: int = 2**31

    def validate(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODEL_KINDS}")
        for name in ("topics", "interests", "max_iters", "seed", "workers", "max_table_bytes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name, low in (("topics", 1), ("max_iters", 1), ("seed", 0), ("workers", 1),
                          ("max_table_bytes", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.model == "itm" and self.interests < 1:
            raise ConfigError("interests must be >= 1 for the itm model")
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float, np.integer, np.floating)):
            raise ConfigError(f"tol must be a real number, got {self.tol!r}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be finite and > 0, got {self.tol!r}")


@dataclass
class TrainLog:
    """Per-iteration log-likelihood history.

    ``log_likelihoods[0]`` is the likelihood of the initial parameters;
    every further entry is recorded after one full E/M update.
    """

    log_likelihoods: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.log_likelihoods) - 1

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihoods[-1]


def noisy_uniform_rows(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """A table of ``shape`` whose rows (over its last axis) are near the uniform
    distribution, with seeded positive noise."""
    rows = 1.0 + _INIT_NOISE * rng.random(shape)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


def normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Row-normalize expected counts in place and return them; all-zero rows fall back
    to uniform.  ``counts`` must be a writeable float64 array: no table is allocated."""
    if counts.dtype != np.float64 or not counts.flags.writeable:
        state = "writeable" if counts.flags.writeable else "read-only"
        raise ValueError(f"normalize_rows divides a writeable float64 array in place; "
                         f"got a {state} {counts.dtype} array")
    sums = counts.sum(axis=1, keepdims=True)
    dead = sums[:, 0] == 0.0
    if dead.any():
        counts[dead] = 1.0
        sums = counts.sum(axis=1, keepdims=True)
    counts /= sums
    return counts


def add_rows(table: np.ndarray, ids: np.ndarray, values: np.ndarray) -> None:
    """``table[ids[n]] += values[n]`` in row order: the bits of ``np.add.at``, faster,
    through the flat view of ``table``, which must be C-contiguous to take the sums.

    Float64 rows of even width whose flat views are both 16-byte aligned are added as
    complex128 values at half the width: a complex add adds the real parts and the
    imaginary parts apart, one float64 add each, so every cell gets the same adds in the
    same order from half the indices.  Odd widths and misaligned views (a band sliced at
    an odd row of an odd width) take the float64 path."""
    if not table.flags.c_contiguous:
        raise ValueError("add_rows needs a C-contiguous table")
    flat, flat_values, width = table.reshape(-1), values.reshape(-1), values.shape[1]
    if (width % 2 == 0 and flat.dtype == flat_values.dtype == np.float64
            and flat.ctypes.data % 16 == 0 and flat_values.ctypes.data % 16 == 0):
        flat, flat_values = flat.view(np.complex128), flat_values.view(np.complex128)
        width //= 2
    np.add.at(flat, (ids[:, None] * width + np.arange(width)).ravel(), flat_values)


def gather_rows(table: np.ndarray, ids) -> np.ndarray:
    """``table[ids]`` as a C-order array: taken from a C-contiguous table, which is
    faster, and indexed from any other, which ``take`` would first copy whole."""
    return table.take(ids, axis=0) if table.flags.c_contiguous else table[ids]


def chunk_edges(n_rows: int, chunk_rows: int) -> list:
    """The ``(a, b)`` edges of the ``chunk_rows`` chunks of each non-empty slice of rows."""
    edges = sorted({n_rows * i // _SLICES for i in range(_SLICES + 1)})  # no empty slice
    return [[(a, min(a + chunk_rows, end)) for a in range(first, end, chunk_rows)]
            for first, end in zip(edges, edges[1:])]


def mapreduce_slices(model, ids: dict, counts, fused: bool, executor=None, plan=None) -> tuple:
    """One walk of the data rows at the current parameters: ``(stats, L)``, with ``stats``
    empty unless ``fused``.  Each of the ``_SLICES`` fixed slices is summed from zero in its
    chunks a..b-1 (:func:`chunk_edges`) in row order, on ``executor``'s threads (in turn if
    it is ``None``), and the slice sums are added in slice order.  A chunk goes through
    ``model.e_step``, with the row-major copies ``model.transposed_tables()`` makes once per
    pass and its part of ``plan`` (``model.chunk_plan(ids)`` if ``None``), then its L
    through ``model.log_terms``.  A fused slice sums the statistic keyed by the ``band``
    column only over its band, the ids lo..hi-1, where lo and hi - 1 are the least and the
    greatest id of the slice's rows (so any row order will do), and each band is added in
    at row lo, then freed.  Outside its band a slice's sum would be +0.0, and adding +0.0 to
    a sum that starts at +0.0 leaves its bits, so every cell gets the additions, and the
    bits, of whole tables."""
    transposed = model.transposed_tables()  # once per pass, for every chunk
    logs, plans = model.chunk_plan(ids) if plan is None else plan

    def walk(chunks):
        keys = ids[model.band][chunks[0][0]:chunks[-1][1]]
        lo, hi = (int(keys.min()), int(keys.max()) + 1) if fused else (0, 0)
        stats, ll = model.zero_stats(lo, hi) if fused else None, np.zeros(())
        for a, b in chunks:
            chunk = {name: col[a:b] for name, col in ids.items()}
            totals = model.e_step(chunk, counts[a:b], stats, lo, **transposed, **plans.get(a, {}))
            with np.errstate(divide="ignore"):  # a zero total adds -inf
                ll += (counts[a:b] * model.log_terms(totals, chunk, **logs)).sum()
        return lo, stats or [], ll

    stats = model.zero_stats(0, getattr(model, _ID_COLUMNS[model.band][1])) if fused else []
    ll = np.zeros(())
    for lo, part, part_ll in (executor.map if executor else map)(
            walk, chunk_edges(len(counts), model.chunk_rows)):
        ll += part_ll
        for total, value, (col, _) in zip(stats, part, model.statistics()):
            total = total[lo:lo + len(value)] if col == model.band else total
            total += value
        part = value = None  # hold only the sum while the next partial is computed
    return stats, ll


def em_fit(model, ids: dict, counts, plan, cfg: TrainConfig, executor=None,
           hook=None) -> TrainLog:
    """Drive EM on ``model`` until the log-likelihood stops improving.

    Iteration k is one :func:`mapreduce_slices` walk of the rows ``ids`` and ``counts``
    at θₖ, with ``plan`` and on ``executor``: fused, giving L(θₖ) and the statistics for
    θₖ₊₁, while ``max_iters`` allows an update, and for L alone after the last.  L(θₖ)
    is recorded, ``hook(model, k, L(θₖ))`` sees θₖ (k >= 1), and ``model.m_step(stats)``
    runs only if the run goes on.  A non-finite L raises :class:`DegeneracyError`.
    """
    history: list[float] = []
    for iteration in range(cfg.max_iters + 1):
        fused = iteration < cfg.max_iters
        stats, ll = mapreduce_slices(model, ids, counts, fused, executor, plan)
        ll = float(ll)
        if not math.isfinite(ll):
            raise DegeneracyError(f"log-likelihood is {ll} after iteration {iteration}")
        history.append(ll)
        if hook is not None and iteration:
            hook(model, iteration, ll)
        if iteration and abs(ll - history[-2]) <= cfg.tol * abs(history[-2]):
            return TrainLog(history, True)
        if fused:
            model.m_step(stats)
        del stats  # hold no statistics while the next pass sums its own
    return TrainLog(history, False)


def check_support(totals, ids: dict) -> None:
    """Raise :class:`DegeneracyError` naming the first data row of ``ids``
    whose mixture total is not positive."""
    if (dead := totals <= 0.0).any():
        bad = int(np.argmax(dead))
        where = ", ".join(f"{name}={col[bad]}" for name, col in ids.items())
        raise DegeneracyError(f"degenerate posterior for {_ROW_NAMES[len(ids)]} ({where})")


class Model:
    """Base of the model classes: the tables named in ``TABLES``, each p(last axis | other
    axes) and always a C-contiguous float64 array, a seed, the sizes named in ``DIMS``, the
    start, one-row :meth:`posterior` and :meth:`statistics` those tables imply, and
    defaults a subclass may replace: the rest of the protocol of :func:`train`, and p(z|r)
    (``topic_distributions_of`` and ``RANKED``, the tables it reads).

    Each subclass keeps its own one-line ``validate``, ``check_corpus``,
    ``log_likelihood``, ``topic_distribution`` and ``save``, because
    ``perfbench/tracing.py`` patches them from each class ``__dict__``.
    """

    kind: str
    DIMS: tuple[str, ...]
    TABLES: tuple[tuple[str, str, tuple[str, ...]], ...]
    DRAWS: tuple[str, ...] = ()  # latent tables in ``initial``'s draw order; () for TABLES order
    RANKED = ("topic_given_resource",)  # the tables ``topic_distributions_of`` reads
    chunk_rows = 1 << 15
    band = "r"  # the id column ``rows`` sorts on

    def __init__(self, *, seed: int = 0, **tables):
        names = [attr for attr, _, _ in self.TABLES]
        if sorted(tables) != sorted(names):
            raise TypeError(f"{type(self).__name__} takes the tables {', '.join(names)} "
                            f"and seed; got {', '.join(tables) or 'none'}")
        for name, value in (*tables.items(), ("seed", seed)):
            setattr(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        if any(name == attr for attr, _, _ in self.TABLES):  # every table C-contiguous float64
            value = np.require(value, np.float64, "C")  # copies only if not; 0-d stays 0-d
        super().__setattr__(name, value)

    def __getattr__(self, name: str) -> int:
        for attr, _, dims in self.TABLES:
            if name in dims:
                return getattr(self, attr).shape[dims.index(name)]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def size(self) -> dict:
        return {dim: getattr(self, dim) for dim in self.DIMS}

    @classmethod
    def table_shapes(cls, corpus, cfg: TrainConfig) -> dict:
        """Each table's shape, in ``TABLES`` order, for ``corpus`` at ``cfg``'s latent sizes."""
        sizes = {"n_topics": cfg.topics, "n_interests": cfg.interests,
                 **{dim: len(getattr(corpus, vocab)) for _, dim, vocab in _ID_COLUMNS.values()}}
        return {attr: tuple(sizes[dim] for dim in dims) for attr, _, dims in cls.TABLES}

    @classmethod
    def initial(cls, corpus, cfg: TrainConfig, rng: np.random.Generator):
        """The seeded start: each table over one id axis (p(r), p(u)) its column's empirical
        share, each with a latent axis :func:`noisy_uniform_rows`, drawn in ``DRAWS`` order."""
        shapes = cls.table_shapes(corpus, cfg)
        latent = [attr for attr, _, dims in cls.TABLES if not set(dims).isdisjoint(_LATENT)]
        drawn = {attr: noisy_uniform_rows(rng, *shapes[attr]) for attr in cls.DRAWS or latent}
        shares = {attr: getattr(corpus, f"n_{_COLUMN_OF[dims[0]]}") / corpus.total
                  for attr, _, dims in cls.TABLES if attr not in latent}
        return cls(**drawn, **shares, seed=cfg.seed)

    @classmethod
    def rows(cls, corpus):
        """The data rows ``({column: ids}, counts)`` in (r, u, t) column order, stably sorted
        by ``band``: the corpus triples if ``DIMS`` holds ``n_users``, else the (r, t) pairs
        of ``corpus.rt_arrays()``.  Both come sorted by r, so a band "r" copies no row.  The
        sort key is cast to the least unsigned type that holds every id: the same stable
        order, which numpy finds by radix sort for up to 2**16 ids."""
        *cols, counts = ((corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts)
                         if "n_users" in cls.DIMS else corpus.rt_arrays())
        ids = dict(zip((col for col, (_, dim, _) in _ID_COLUMNS.items() if dim in cls.DIMS), cols))
        if cls.band == "r":
            return ids, counts
        key = np.min_scalar_type(len(getattr(corpus, _ID_COLUMNS[cls.band][2])) - 1)
        order = np.argsort(ids[cls.band].astype(key), kind="stable")
        return {name: col[order] for name, col in ids.items()}, counts[order]

    def statistics(self) -> list:
        """``(id column, latent sizes)`` of each statistic: one per table with a latent
        axis, in ``TABLES`` order, shaped [ids of the table's id column, latent...], or
        [latent...] for a table without one (p(z), whose column is ``None``)."""
        return [(next((_COLUMN_OF[dim] for dim in dims if dim in _COLUMN_OF), None), latent)
                for _, _, dims in self.TABLES
                if (latent := tuple(getattr(self, dim) for dim in dims if dim in _LATENT))]

    def zero_stats(self, lo: int, hi: int) -> list:
        """Zero statistics, the ``band`` one for its ids lo..hi-1 alone, and allocated first:
        after the others, itm's raised the itm-em benchmark's peak RSS by 2.5 MB."""
        stats = {j: np.zeros(latent if col is None else (
            hi - lo if col == self.band else getattr(self, _ID_COLUMNS[col][1]),) + latent)
            for j, (col, latent) in sorted(enumerate(self.statistics()),
                                           key=lambda stat: stat[1][0] != self.band)}
        return [stats[j] for j in sorted(stats)]

    def transposed_tables(self, copy: bool = True) -> dict:
        """Each two-axis table over (latent, ids), keyed by attribute, as [ids, latent] for
        ``mixture`` to gather by rows: p(t|z) of pLSA; p(r|z), p(u|z) and p(t|z) of mwa;
        none of itm's.  A data pass makes the row-major copies once and gives them to every
        chunk; ``copy=False`` gives transposed views, which copy nothing."""
        views = {attr: getattr(self, attr).T for attr, _, dims in self.TABLES
                 if len(dims) == 2 and dims[0] in _LATENT}
        return {attr: np.ascontiguousarray(view) for attr, view in views.items()} if copy else views

    def chunk_plan(self, ids: dict) -> tuple[dict, dict]:
        """The keywords of each ``log_terms`` call, and of each chunk's ``e_step`` by its
        first row, that every pass of the rows ``ids`` would compute alike: none here."""
        return {}, {}

    def e_step(self, chunk: dict, n, stats, lo: int, **transposed) -> np.ndarray:
        """The rows' totals of an [n, K] mixture; given ``stats``, the n-weighted posteriors
        are added to each statistic by row id (id - lo for the ``band`` one), or over all rows.
        ``transposed`` is the pass's :meth:`transposed_tables`, passed on to ``mixture``."""
        post = self.mixture(*chunk.values(), **transposed)
        totals = post.sum(axis=1)
        if stats is not None:
            check_support(totals, chunk)
            post *= (n / totals)[:, None]
            for stat, (col, _) in zip(stats, self.statistics()):
                if col is None:
                    stat += post.sum(axis=0)
                else:
                    add_rows(stat, chunk[col] - lo if col == self.band else chunk[col], post)
        return totals

    def posterior(self, *ids) -> np.ndarray:
        """E-step posterior of one observed row from its ids in (r, u, t) order, (r, t) for
        plsa, shaped as the model's latent axes: p(i, z | r, u, t) is [I, K]."""
        cols = [col for col, (_, dim, _) in _ID_COLUMNS.items() if dim in self.DIMS]
        if len(ids) != len(cols):
            raise TypeError(f"{type(self).__name__}.posterior takes the ids ({', '.join(cols)}), "
                            f"got {len(ids)} ids")
        check_ids(self, **dict(zip(cols, ids)))
        row = {col: [i] for col, i in zip(cols, ids)}
        mix = self.mixture(*row.values())
        totals = mix.sum(axis=tuple(range(1, mix.ndim)))
        check_support(totals, row)
        return mix[0] / totals[0]

    def topic_distributions(self) -> np.ndarray:
        return self.topic_distributions_of(vars(self))

    @staticmethod
    def topic_distributions_of(tables) -> np.ndarray:
        """p(z|r) as [R, K] from the ``RANKED`` tables that ``tables`` maps by attribute."""
        return tables["topic_given_resource"]  # the model's own table


def check_ids(model, **ids) -> None:
    """Raise :class:`DataError` for a non-integer id or one outside its vocabulary."""
    for name, i in ids.items():
        what, dim, _ = _ID_COLUMNS[name]
        n = getattr(model, dim)
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise DataError(f"{what} id must be an integer, got {i!r}")
        if not 0 <= i < n:
            raise DataError(f"unknown {what} id {i}; expected 0 to {n - 1}")


def check_corpus(size: dict, corpus) -> None:
    """Raise :class:`DataError` unless the vocabulary sizes among a model's
    ``size`` (its sizes by ``DIMS`` name) match the corpus."""
    vocabs = [(dim, vocab) for _, dim, vocab in _ID_COLUMNS.values() if dim in size]
    shape = tuple(size[dim] for dim, _ in vocabs)
    expected = tuple(len(getattr(corpus, vocab)) for _, vocab in vocabs)
    if shape != expected:
        raise DataError(f"model dimensions {shape} do not match corpus {expected} "
                        f"({', '.join(dim for dim, _ in vocabs)})")


def log_likelihood(model, corpus) -> float:
    """sum over data rows of n log p(row), in the E-step's slices and chunks;
    -inf (with a warning) if an observed row has zero probability."""
    model.check_corpus(corpus)
    ids, counts = model.rows(corpus)
    total = float(mapreduce_slices(model, ids, counts, fused=False)[1])
    if not math.isfinite(total):
        logger.warning(f"observed {_ROW_NAMES[len(ids)]} has zero probability; "
                       "log-likelihood is degenerate (-inf)")
    return total


def train(cls, corpus, cfg: TrainConfig, iteration_hook=None):
    """Fit model class ``cls`` to ``corpus`` by EM; returns ``(model, TrainLog)``.

    The result depends on ``cfg.seed`` only, not on ``cfg.workers``.  The optional
    ``iteration_hook(model, k, ll)`` gets L(θₖ) for k >= 1 while the model holds θₖ.
    Each M-step updates the tables in place, so a hook must copy any table it keeps; the
    rows and the fixed p(u) and p(r) are read once per training, into the one plan that
    every pass walks, the log-likelihood-only pass included, so it must not change them."""
    cfg.validate()
    if cfg.model != cls.kind:
        raise ConfigError(f"config is for model {cfg.model!r}, but this trainer fits {cls.kind!r}")
    if cfg.topics > len(corpus.tags):
        warnings.warn(f"topics={cfg.topics} exceeds the tag vocabulary size {len(corpus.tags)}")
    table_bytes = 8 * sum(map(math.prod, cls.table_shapes(corpus, cfg).values()))
    if table_bytes > cfg.max_table_bytes:
        raise ConfigError(f"{cls.kind} tables need {table_bytes} bytes, over the budget of "
                          f"{cfg.max_table_bytes}; lower topics/interests or raise max_table_bytes")
    model = cls.initial(corpus, cfg, np.random.default_rng(cfg.seed))
    ids, counts = model.rows(corpus)
    plan = model.chunk_plan(ids)  # once per training: every pass walks the same rows
    pool = ThreadPoolExecutor(cfg.workers) if cfg.workers > 1 else contextlib.nullcontext()
    with pool as executor:
        return model, em_fit(model, ids, counts, plan, cfg, executor, iteration_hook)
