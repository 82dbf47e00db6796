"""Training-data selection for multi-domain sentiment classification.

Score candidate examples, subsets, or whole domains against a target domain
under interchangeable representations (term distributions, weighted word
embeddings, autoencoder codes) and similarity metrics (Jensen-Shannon
divergence, cosine, proxy domain-discriminator distance), then evaluate the
resulting selections with a reproducible classifier-and-statistics harness.

Representations are matrices with one row per document, built for a whole
corpus by ``build_representation_space``; subsets and domains are pooled
from those rows by ``RepresentationSpace.aggregate``.
"""

from .autoencoder import AEModel, AETrainConfig, corrupt, encode, gradient_check
from .autoencoder import train as train_autoencoder
from .corpus import (
    Corpus,
    Document,
    PreprocessOptions,
    TfidfModel,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    load_stopwords,
    preprocess,
    save_corpus,
    tokenize_corpus,
)
from .embeddings import EmbeddingTable, load_embeddings
from .errors import ConfigError, DataError, DataSelectError, NumericalError, ParseError
from .evaluation import (
    ClassifierConfig,
    ExperimentResources,
    ExperimentResult,
    LinearModel,
    SignificanceResult,
    evaluate,
    prepare_context,
    run_experiment,
    run_selection,
    t_test,
    train_classifier,
)
from .representations import RepresentationSpace, TermDistribution, build_representation_space
from .selection import (
    SelectionConfig,
    SelectionResult,
    select_balanced,
    select_domain_level,
    select_instance_level,
    select_random,
    subset_select,
)
from .similarity import (
    DomainDiscriminator,
    SimilarityScore,
    cosine,
    js_divergence,
    proxy_a_distance,
    proxy_a_scores,
)
from .synthetic import DomainSpec, Scenario, benchmark_suite, generate

__version__ = "0.1.0"
