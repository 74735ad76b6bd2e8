"""Merged run configuration: file values, command-line overrides, defaults.

Every run setting is one RunConfig field, which holds the setting's only
default: ModelConfig, EncoderConfig and TrainConfig have none and are built
from a RunConfig. A field's type hint drives how file values and flags are
parsed. Plain-text key = value files; a flag beats the
file, the file beats the default. Relative data paths resolve against the
VULNPOOL_DATA environment variable when it is set.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass

from .corpus import LANGUAGES, check_synthetic_settings
from .encoder import EncoderConfig
from .model import ModelConfig, VulnPoolModel
from .tokenizer import Vocabulary, check_vocab_size
from .trainer import TrainConfig

DATA_ROOT_ENV = "VULNPOOL_DATA"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # data
    data: str | None = None
    out: str | None = None
    vocab: str | None = None
    seed: int = 0
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    # tokenizer
    vocab_size: int = 4096
    max_tokens: int = 512
    # encoder
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 32
    d_ffn: int = 64
    max_positions: int | None = None  # None: max_tokens + top_k * prompt_len
    dropout: float = 0.0
    # pool / model
    mode: str = "pool_masked"
    lam: float = 0.1
    prompt_len: int = 5
    pool_size: int | None = None  # None: languages * matrices_per_language
    top_k: int = 1
    matrices_per_language: int = 1
    query_from: str = "embed_mean"
    # training
    epochs: int = 5
    batch_size: int = 32
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float | None = None
    # synthesis
    n_per_language: int = 100
    vuln_rate: float = 0.5

    # ------------------------------------------------------------------

    def effective_pool_size(self) -> int:
        if self.pool_size is not None:
            return self.pool_size
        return len(LANGUAGES) * self.matrices_per_language

    def effective_max_positions(self) -> int:
        if self.max_positions is not None:
            return self.max_positions
        return self.max_tokens + self.top_k * self.prompt_len

    def validate(self):
        """Check every setting; raise ConfigError naming the first bad one.

        Each check lives once: the component configs, the synthesizer and the
        vocabulary builder own the checks on their own settings, and this pass
        adds only what none of them owns."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            parts = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in parts):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name, value in (("prompt_len", self.prompt_len),
                            ("pool_size", self.effective_pool_size())):
            if value > 64:
                raise ConfigError(f"{name} must be <= 64, got {value}")
        try:
            self.model_config(), self.encoder_config(), self.train_config()
            check_synthetic_settings(self.n_per_language, self.vuln_rate)
            check_vocab_size(self.vocab_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if len(self.ratios) != 3 or abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ConfigError(f"ratios must be three values summing to 1, got {self.ratios}")
        needed = self.max_tokens + self.top_k * self.prompt_len
        if self.effective_max_positions() < needed:
            raise ConfigError(
                f"max_positions {self.effective_max_positions()} < max_tokens + "
                f"top_k * prompt_len = {needed}"
            )
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        return self

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            mode=self.mode,
            lam=self.lam,
            top_k=self.top_k,
            prompt_len=self.prompt_len,
            pool_size=self.effective_pool_size(),
            matrices_per_language=self.matrices_per_language,
            query_from=self.query_from,
            max_tokens=self.max_tokens,
        )

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_model=self.d_model,
            d_ffn=self.d_ffn,
            max_positions=self.effective_max_positions(),
            dropout_rate=self.dropout,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            seed=self.seed,
            grad_clip=self.grad_clip,
        )

    def resolve_path(self, path):
        if path is None:
            return None
        root = os.environ.get(DATA_ROOT_ENV)
        if root and not os.path.isabs(path):
            return os.path.join(root, path)
        return path

    def snapshot(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _parse_value(key: str, raw):
    """Convert a config-file or flag string to the type RunConfig declares for key."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    options = typing.get_args(kind)
    if type(None) in options:
        if raw.lower() in ("none", ""):
            return None
        (kind,) = (t for t in options if t is not type(None))
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(item(p) for p in raw.replace(",", " ").split())
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from None


def load_config_file(path) -> dict:
    """Parse a key = value config file ('#' starts a comment)."""
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = _parse_value(key, raw)
    return values


def build_run_config(file_path, overrides: dict) -> RunConfig:
    values = {}
    if file_path is not None:
        values.update(load_config_file(file_path))
    for key, raw in overrides.items():
        if raw is None:
            continue
        values[key] = _parse_value(key, raw) if isinstance(raw, str) else raw
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return config.validate()


# ---------------------------------------------------------------------------
# builders

def build_model(run_cfg: RunConfig, vocab: Vocabulary) -> VulnPoolModel:
    run_cfg.validate()
    return VulnPoolModel(run_cfg.model_config(), run_cfg.encoder_config(), vocab,
                         seed=run_cfg.seed)


def build_train_config(run_cfg: RunConfig) -> TrainConfig:
    return run_cfg.train_config()
