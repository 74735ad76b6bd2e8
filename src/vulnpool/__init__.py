"""Multilingual vulnerability detection with a language-specific parameter pool."""

from .corpus import (
    CodeSample,
    CorpusStats,
    DatasetSplit,
    Language,
    filter_by_length,
    generate_synthetic,
    load_records,
    save_records,
    split_dataset,
    stats,
    strip_comments,
)
from .encoder import Encoder, EncoderConfig
from .evaluate import MetricsReport, breakdown, compute_metrics, f1_score
from .model import ModelConfig, Prediction, VulnPoolModel
from .pool import LanguageAssignment, Selection, adapt, select
from .tokenizer import Vocabulary, build_vocab, decode, encode, load_vocab, save_vocab
from .trainer import TrainConfig, adam_step, load_checkpoint, save_checkpoint, sweep, train

__version__ = "0.1.0"
