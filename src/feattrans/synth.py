"""Deterministic synthetic paired-feature generator.

Draws cluster-structured latent vectors once, then produces one feature set
per requested member. Members of family ``orthogonal_linear`` and
``nonlinear_mlp`` are deterministic maps of the shared latents (and are thus
"homologous" to each other); ``independent`` members draw their own latents
(same cluster assignment, so the ground truth stays shared) and are
"heterogenous" to everything else. Gaussian observation noise is added and
every output is L2-normalized.

All randomness flows from one seed through numpy's PCG64 via SeedSequence
spawning: stream 0 drives the shared latents, stream i+1 drives member i,
so member outputs do not depend on which other members are requested.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidConfig
from .feature_io import FeatureSet, GroundTruth, check_name, l2_normalize

FAMILIES = ("orthogonal_linear", "nonlinear_mlp", "independent")

# intra-cluster spread around unit-norm centers; keeps inter/intra distance
# ratio comfortably above 5 for moderate latent dims
_INTRA_SCALE = 0.15


@dataclass(frozen=True)
class SynthSpec:
    n_vectors: int
    latent_dim: int
    output_dim: int
    members: tuple[tuple[str, str], ...]  # (member name, family)
    noise_sigma: float = 0.0
    n_clusters: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "members", tuple((n, f) for n, f in self.members))
        if self.n_vectors < 1 or self.latent_dim < 1 or self.output_dim < 1:
            raise InvalidConfig("n_vectors, latent_dim, output_dim must be >= 1")
        if self.output_dim < self.latent_dim:
            raise InvalidConfig("output_dim must be >= latent_dim for orthogonal maps")
        if self.n_clusters < 1 or self.n_vectors % self.n_clusters != 0:
            raise InvalidConfig("n_clusters must divide n_vectors")
        if not 0 <= self.noise_sigma < np.inf:
            raise InvalidConfig("noise_sigma must be finite and >= 0")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")
        names = [n for n, _ in self.members]
        if len(set(names)) != len(names):
            raise InvalidConfig("member names must be unique")
        try:
            for n in names:
                check_name(n)  # each names its .vec and .ids files
        except DataError as exc:
            raise InvalidConfig(str(exc)) from None
        for _, fam in self.members:
            if fam not in FAMILIES:
                raise InvalidConfig(f"unknown family {fam!r}")


@dataclass(frozen=True)
class SynthResult:
    feature_sets: dict[str, FeatureSet]
    ground_truth: GroundTruth


def _cluster_latents(rng: np.random.Generator, n: int, dim: int, k: int) -> np.ndarray:
    centers = rng.normal(size=(k, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assign = np.arange(n) % k
    spread = _INTRA_SCALE / np.sqrt(dim)
    return centers[assign] + spread * rng.normal(size=(n, dim))


def _orthogonal_map(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(out_dim, in_dim)))
    # fix signs so the map is a deterministic function of the stream
    return q * np.sign(np.diag(r))


def generate(spec: SynthSpec) -> SynthResult:
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(
        1 + len(spec.members)
    )]
    latents = _cluster_latents(streams[0], spec.n_vectors, spec.latent_dim, spec.n_clusters)
    ids = tuple(f"img{i:05d}" for i in range(spec.n_vectors))

    feature_sets: dict[str, FeatureSet] = {}
    for k, (name, family) in enumerate(spec.members):
        rng = streams[k + 1]
        if family == "orthogonal_linear":
            raw = latents @ _orthogonal_map(rng, spec.output_dim, spec.latent_dim).T
        elif family == "nonlinear_mlp":
            h = 2 * spec.latent_dim
            w1 = rng.normal(size=(h, spec.latent_dim)) / np.sqrt(spec.latent_dim)
            w2 = rng.normal(size=(spec.output_dim, h)) / np.sqrt(h)
            raw = np.tanh(latents @ w1.T) @ w2.T
        else:  # independent: own latents, same cluster assignment
            own = _cluster_latents(rng, spec.n_vectors, spec.latent_dim, spec.n_clusters)
            raw = own @ _orthogonal_map(rng, spec.output_dim, spec.latent_dim).T
        if spec.noise_sigma > 0:
            raw = raw + spec.noise_sigma * rng.normal(size=raw.shape)
        feature_sets[name] = l2_normalize(FeatureSet(name=name, ids=ids, vectors=raw))

    # id i lies in cluster i % n_clusters, as _cluster_latents assigns it
    clusters = [frozenset(ids[c::spec.n_clusters]) for c in range(spec.n_clusters)]
    cluster_id = {q: i % spec.n_clusters for i, q in enumerate(ids)}
    relevant = {q: clusters[c] - {q} for q, c in cluster_id.items() if len(clusters[c]) > 1}
    return SynthResult(
        feature_sets=feature_sets,
        ground_truth=GroundTruth(relevant=relevant),
    )
