"""Pretrained-victim zoo: train LeNet-5 once, cache, reuse everywhere.

Experiments, benches and examples all need the same artifact: a LeNet-5
trained on the synthetic digit task to the paper's ~96% operating point,
plus its Q3.4 quantization.  Training takes on the order of a minute, so
the result (weights + dataset) is cached on disk keyed by the training
recipe; any recipe change invalidates the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .data import SyntheticMNIST
from .errors import ConfigError, ReproError
from .nn import (
    QuantizedModel,
    Sequential,
    Trainer,
    build_lenet5,
    evaluate_accuracy,
    quantize_model,
)
from .nn.model import build_cnn7

__all__ = ["MODEL_BUILDERS", "PretrainedVictim", "get_pretrained",
           "default_cache_dir", "zoo_name"]

#: Victim architectures the zoo can train (all share the training recipe).
MODEL_BUILDERS = {
    "lenet5": build_lenet5,
    "cnn7": build_cnn7,
}

#: Training recipe (part of the cache key).
RECIPE = {
    "n_train": 6000,
    "n_test": 1500,
    "data_seed": 42,
    "init_seed": 7,
    "train_seed": 0,
    "lr": 0.05,
    "momentum": 0.9,
    "batch_size": 64,
    "epochs": 12,
    "target_accuracy": 0.97,
}


@dataclass
class PretrainedVictim:
    """Everything the attack experiments need about the victim model.

    The two clean accuracies score the whole test split, so they are
    computed on first read: a campaign that never prints them never
    pays for them.
    """

    model: Sequential
    quantized: QuantizedModel
    dataset: SyntheticMNIST
    name: str = "lenet5"

    @cached_property
    def float_accuracy(self) -> float:
        return evaluate_accuracy(self.model, self.dataset.test_images,
                                 self.dataset.test_labels)

    @cached_property
    def quantized_accuracy(self) -> float:
        return self.quantized.accuracy(self.dataset.test_images,
                                       self.dataset.test_labels)

    def summary(self) -> str:
        return (
            f"{self.name} victim: float acc {self.float_accuracy:.4f}, "
            f"Q3.4 acc {self.quantized_accuracy:.4f} "
            f"(paper's LeNet-5 reports 96.17% on-FPGA)"
        )


def default_cache_dir() -> Path:
    """Cache location (override with REPRO_CACHE_DIR)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / ".cache"


def _recipe_key(model_name: str) -> str:
    blob = json.dumps({**RECIPE, "model": model_name},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _train(dataset: SyntheticMNIST, model_name: str) -> Sequential:
    builder = MODEL_BUILDERS[model_name]
    model = builder(rng=np.random.default_rng(RECIPE["init_seed"]))
    trainer = Trainer(
        model,
        lr=RECIPE["lr"],
        momentum=RECIPE["momentum"],
        batch_size=RECIPE["batch_size"],
        seed=RECIPE["train_seed"],
    )
    result = trainer.fit(
        dataset.train_images,
        dataset.train_labels,
        dataset.test_images,
        dataset.test_labels,
        epochs=RECIPE["epochs"],
        target_accuracy=RECIPE["target_accuracy"],
    )
    if result.test_accuracy < 0.90:
        raise ReproError(
            f"victim training underperformed: {result.test_accuracy:.3f} "
            "test accuracy; the attack experiments need the ~96% regime"
        )
    return model


def _load_cached(path: Path, model_name: str
                 ) -> Optional[Tuple[Sequential, SyntheticMNIST]]:
    """Load a cached victim, or None if the archive is corrupt.

    A half-written or truncated cache file (interrupted save, disk
    trouble) is a cache *miss*, not a crash — the caller deletes it and
    retrains.  The model is built fresh here so a failure mid-load never
    leaks a partially initialised state dict to the caller.
    """
    model = MODEL_BUILDERS[model_name](
        rng=np.random.default_rng(RECIPE["init_seed"])
    )
    try:
        with np.load(path) as archive:
            state = {k[len("param/"):]: archive[k] for k in archive.files
                     if k.startswith("param/")}
            model.load_state_dict(state)
            dataset = SyntheticMNIST(
                train_images=archive["data/train_images"],
                train_labels=archive["data/train_labels"],
                test_images=archive["data/test_images"],
                test_labels=archive["data/test_labels"],
            )
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, ReproError):
        return None
    return model, dataset


def _atomic_savez(path: Path, payload: dict) -> None:
    """``np.savez_compressed`` through the fsync-atomic artifact writer,
    so neither an interrupt nor a host crash can leave a truncated
    archive (which a later run would fail to load) at ``path``."""
    from .core.campaign import _atomic_write

    _atomic_write(path, lambda handle: np.savez_compressed(handle,
                                                           **payload))


def get_pretrained(cache_dir: Optional[Path] = None,
                   force_retrain: bool = False,
                   model_name: str = "lenet5") -> PretrainedVictim:
    """Load (or train and cache) a victim model and its dataset.

    The one victim loader, campaign workers that rebuild their attack
    included; it scores nothing (see :class:`PretrainedVictim`)."""
    if model_name not in MODEL_BUILDERS:
        raise ReproError(
            f"unknown victim '{model_name}'; have {sorted(MODEL_BUILDERS)}"
        )
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{model_name}_victim_{_recipe_key(model_name)}.npz"

    loaded = None
    if path.exists() and not force_retrain:
        loaded = _load_cached(path, model_name)
        if loaded is None:
            path.unlink(missing_ok=True)  # corrupt cache: treat as a miss

    if loaded is not None:
        model, dataset = loaded
    else:
        dataset = SyntheticMNIST.generate(
            n_train=RECIPE["n_train"],
            n_test=RECIPE["n_test"],
            seed=RECIPE["data_seed"],
        )
        model = _train(dataset, model_name)
        payload = {f"param/{k}": v for k, v in model.state_dict().items()}
        payload.update(
            {
                "data/train_images": dataset.train_images,
                "data/train_labels": dataset.train_labels,
                "data/test_images": dataset.test_images,
                "data/test_labels": dataset.test_labels,
            }
        )
        _atomic_savez(path, payload)

    return PretrainedVictim(model=model, quantized=quantize_model(model),
                            dataset=dataset, name=model_name)


def zoo_name(quantized: QuantizedModel) -> str:
    """The name :func:`get_pretrained` rebuilds ``quantized`` by
    (``lenet5`` for ``lenet5_q``); :class:`~repro.errors.ConfigError`
    for a model the zoo does not build."""
    name = quantized.name.removesuffix("_q")
    if name not in MODEL_BUILDERS:
        raise ConfigError(f"victim '{quantized.name}' is no zoo model "
                          f"{sorted(MODEL_BUILDERS)}, so no worker can "
                          "rebuild it; run it serially or with forked "
                          "--workers")
    return name
