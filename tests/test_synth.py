import numpy as np
import pytest
from scipy.spatial.distance import pdist

from feattrans import retrieval, synth
from feattrans.errors import InvalidConfig


def spec(**kw):
    defaults = dict(
        n_vectors=100,
        latent_dim=8,
        output_dim=16,
        members=(("a", "orthogonal_linear"), ("b", "orthogonal_linear")),
        noise_sigma=0.0,
        n_clusters=5,
        seed=0,
    )
    defaults.update(kw)
    return synth.SynthSpec(**defaults)


class TestSpecValidation:
    def test_clusters_must_divide(self):
        with pytest.raises(ValueError):
            spec(n_vectors=100, n_clusters=7)

    @pytest.mark.parametrize(
        "setting",
        [{"noise_sigma": -0.1}, {"noise_sigma": float("nan")}, {"noise_sigma": float("inf")},
         {"seed": -1}],
        ids=["noise-negative", "noise-nan", "noise-inf", "seed-negative"],
    )
    def test_out_of_range_setting_rejected(self, setting):
        with pytest.raises(InvalidConfig, match=next(iter(setting))):
            spec(**setting)

    @pytest.mark.parametrize("sizes, ok", [
        # (n_vectors, latent_dim, output_dim): (n, 2 latent), (n, output) and
        # (output, 2 latent) float64s, each at most np.intp's largest value in bytes
        ((2**59 - 1, 1, 1), True), ((2**59, 1, 1), False),
        ((2**59 - 1, 1, 2), True), ((2**59, 1, 2), False),
        ((1, 4, 2**57 - 1), True), ((1, 4, 2**57), False),
    ], ids=["n-2-latent-last", "n-2-latent-past", "n-output-last", "n-output-past",
            "output-2-latent-last", "output-2-latent-past"])
    def test_sizes_numpy_cannot_index_rejected(self, sizes, ok):
        """Sizes one of whose arrays numpy would refuse with a ValueError are
        InvalidConfig, at numpy's own byte limit; the spec allocates nothing."""
        n, latent, output = sizes
        kw = dict(n_vectors=n, latent_dim=latent, output_dim=output, n_clusters=1)
        if ok:
            spec(**kw)
        else:
            with pytest.raises(InvalidConfig, match="larger than numpy can index"):
                spec(**kw)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            spec(members=(("a", "bogus"),))

    def test_duplicate_member_names(self):
        with pytest.raises(ValueError):
            spec(members=(("a", "independent"), ("a", "independent")))


class TestGenerate:
    def test_orthogonal_members_are_isometric_views(self):
        # noise-free orthogonal members share all pairwise distances: both
        # are unit-norm images of the same latents under orthogonal maps
        res = synth.generate(spec())
        da = pdist(res.feature_sets["a"].vectors)
        db = pdist(res.feature_sets["b"].vectors)
        assert np.max(np.abs(da - db)) < 1e-9

    def test_same_seed_bitwise_identical(self):
        r1 = synth.generate(spec(noise_sigma=0.01))
        r2 = synth.generate(spec(noise_sigma=0.01))
        for name in ("a", "b"):
            assert np.array_equal(
                r1.feature_sets[name].vectors, r2.feature_sets[name].vectors
            )
        assert r1.ground_truth.relevant == r2.ground_truth.relevant

    def test_different_seed_differs(self):
        r1 = synth.generate(spec())
        r2 = synth.generate(spec(seed=1))
        assert not np.array_equal(r1.feature_sets["a"].vectors, r2.feature_sets["a"].vectors)

    def test_clean_clusters_retrieve_above_95(self):
        res = synth.generate(spec(n_vectors=200, noise_sigma=0.01, seed=3))
        fs = res.feature_sets["a"]
        result = retrieval.evaluate(fs, fs, res.ground_truth)
        assert result.map > 95.0

    def test_outputs_are_unit_norm(self):
        res = synth.generate(spec(noise_sigma=0.05))
        for fs in res.feature_sets.values():
            assert fs.normalized
            norms = np.linalg.norm(fs.vectors, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_ground_truth_marks_cluster_mates(self):
        res = synth.generate(spec(n_vectors=10, n_clusters=5))
        # generate puts id i in cluster i % n_clusters
        cluster_of = {q: i % 5 for i, q in enumerate(res.feature_sets["a"].ids)}
        for qid, rel in res.ground_truth.relevant.items():
            assert all(cluster_of[r] == cluster_of[qid] for r in rel)
            assert qid not in rel

    def test_members_do_not_depend_on_each_other(self):
        # adding a member must not perturb existing members' draws
        r_two = synth.generate(spec())
        r_three = synth.generate(
            spec(members=(("a", "orthogonal_linear"), ("b", "orthogonal_linear"),
                          ("c", "independent")))
        )
        assert np.array_equal(
            r_two.feature_sets["a"].vectors, r_three.feature_sets["a"].vectors
        )

    def test_nonlinear_family_generates(self):
        res = synth.generate(spec(members=(("n", "nonlinear_mlp"),)))
        assert res.feature_sets["n"].vectors.shape == (100, 16)
