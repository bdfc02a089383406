"""tagtopics: latent-topic models over social tagging triples.

Trains three generative models on (resource, user, tag) co-occurrence data
via EM -- pLSA over user-aggregated resource-tag counts, a three-way aspect
model over full triples, and an interest-topic model that separates user
interests from resource topics -- and ranks resources against a seed by the
Jensen-Shannon divergence of their topic distributions.
"""

from .corpus import (Corpus, Vocab, filter_tags, ingest_triples,
                     read_corpus, save_corpus, write_corpus_tsv)
from .errors import ConfigError, DataError, DegeneracyError, TagTopicsError
from .itm import ItmModel, train_itm
from .metrics import LabelSet, count_relevant_topk, effort_to_n
from .modelio import load_model, read_model
from .mwa import MwaModel, train_mwa
from .plsa import PlsaModel, train_plsa
from .sampling import (PlantedSpec, load_spec, planted_two_topic_spec,
                       read_spec, sample_corpus, save_spec, write_spec)
from .similarity import (RankedList, TopicDistribution, js_divergence,
                         rank_by_seed, read_ranking, write_ranking)
from .training import TrainConfig, TrainLog

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "Corpus", "DataError", "DegeneracyError", "ItmModel",
    "LabelSet", "MwaModel", "PlantedSpec", "PlsaModel", "RankedList",
    "TagTopicsError", "TopicDistribution", "TrainConfig", "TrainLog",
    "Vocab", "count_relevant_topk", "effort_to_n", "filter_tags",
    "ingest_triples", "js_divergence", "load_model", "load_spec",
    "planted_two_topic_spec", "rank_by_seed", "read_corpus", "read_model",
    "read_ranking", "read_spec", "sample_corpus", "save_corpus", "save_spec",
    "train_itm", "train_mwa", "train_plsa", "write_corpus_tsv", "write_ranking",
    "write_spec",
]
