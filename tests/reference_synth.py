"""The per-tuple synthetic generator, one tuple at a time, for tests:
``data.generate_synthetic`` must return its columns bit for bit."""

import numpy as np

from xmodal.data import LATENT_JITTER


def generate_per_tuple(config):
    """(ids, features, label_offsets, label_ids) of the config, each tuple's
    labels, latent and features formed in turn from its own draws."""
    rng = np.random.default_rng(config.seed)
    prototypes = rng.normal(size=(config.num_classes, config.latent_dim))
    maps = [rng.normal(size=(config.input_dim, config.latent_dim)) / np.sqrt(config.latent_dim)
            for _ in range(config.num_modalities)]
    lo, hi = config.labels_per_tuple
    features = [np.empty((config.num_tuples, config.input_dim))
                for _ in range(config.num_modalities)]
    labels = []
    for tid in range(config.num_tuples):
        k = int(rng.integers(lo, hi + 1)) if config.multi_label else 1
        labels.append(np.sort(rng.choice(config.num_classes, size=k, replace=False)))
        latent = prototypes[labels[-1]].sum(axis=0)
        latent = latent + LATENT_JITTER * rng.normal(size=config.latent_dim)
        for m in range(config.num_modalities):
            features[m][tid] = np.tanh(maps[m] @ latent)
            if config.noise_sigma > 0:
                features[m][tid] += config.noise_sigma * rng.normal(size=config.input_dim)
    offsets = np.concatenate([[0], np.cumsum([len(l) for l in labels])])
    return np.arange(config.num_tuples), features, offsets, np.concatenate(labels)
