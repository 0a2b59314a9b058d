"""Deterministic randomness plumbing.

Every stochastic component in the repository (simulator, protocol nodes,
Monte-Carlo engine, workload generators) receives its randomness from a
:class:`numpy.random.Generator` created here.  Child streams are derived with :func:`derive_seed`, which hashes a parent
seed together with a string label; this gives independent, reproducible
streams per component without manual seed bookkeeping, and adding a new
component never perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK_63 = (1 << 63) - 1


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a string ``label``.

    The derivation is a SHA-256 hash of the parent seed and label, so it
    is stable across Python versions and platforms (unlike ``hash()``).

    >>> derive_seed(42, "network") == derive_seed(42, "network")
    True
    >>> derive_seed(42, "network") != derive_seed(42, "nodes")
    True
    """
    payload = f"{parent_seed}:{label}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & _MASK_63


def make_generator(seed: int, label: str = "") -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for ``(seed, label)``."""
    return np.random.default_rng(derive_seed(seed, label) if label else seed)


class SeedSequenceFactory:
    """Hands out labelled, reproducible child seeds and generators.

    A factory wraps a single root seed; components ask it for their own
    stream by name::

        seeds = SeedSequenceFactory(root_seed=7)
        net_rng = seeds.generator("network")
        node_rng = seeds.generator("node", 12)   # per-node stream

    Repeated calls with the same label return generators with identical
    streams, which makes it easy to re-create a component mid-experiment.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)

    def seed(self, label: str, *indices: int) -> int:
        """Return the child seed for ``label`` (plus optional indices)."""
        full_label = label if not indices else label + "/" + "/".join(map(str, indices))
        return derive_seed(self.root_seed, full_label)

    def generator(self, label: str, *indices: int) -> np.random.Generator:
        """Return a numpy generator for ``label`` (plus optional indices)."""
        return np.random.default_rng(self.seed(label, *indices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequenceFactory(root_seed={self.root_seed})"
