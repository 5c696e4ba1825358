"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fl.datasets import (
    DATASET_NAMES,
    IMAGE_PRESETS,
    ImageSpec,
    SyntheticImageGenerator,
    SyntheticTextGenerator,
    TextSpec,
    make_generator,
)


class TestFactory:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_all_names_construct(self, name):
        gen = make_generator(name, seed=0)
        assert gen.n_classes == 10
        assert gen.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_generator("imagenet")

    def test_image_size_override(self):
        gen = make_generator("mnist_o", image_size=28)
        assert gen.input_shape == (28, 28, 1)

    def test_cifar_has_three_channels(self):
        assert make_generator("cifar10").input_shape[-1] == 3


class TestImageGenerator:
    def test_sample_shape_and_determinism(self):
        gen = make_generator("mnist_o", seed=3)
        rng = np.random.default_rng(0)
        x = gen.sample(2, 5, rng)
        assert x.shape == (5, *gen.input_shape)
        x2 = gen.sample(2, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(x, x2)

    def test_same_seed_same_prototypes(self):
        a = make_generator("mnist_o", seed=5)
        b = make_generator("mnist_o", seed=5)
        np.testing.assert_array_equal(a._prototypes, b._prototypes)

    def test_different_seed_different_prototypes(self):
        a = make_generator("mnist_o", seed=5)
        b = make_generator("mnist_o", seed=6)
        assert not np.allclose(a._prototypes, b._prototypes)

    def test_classes_are_statistically_distinct(self):
        gen = make_generator("mnist_o", seed=1)
        rng = np.random.default_rng(2)
        a = gen.sample(0, 60, rng).mean(axis=0)
        b = gen.sample(1, 60, rng).mean(axis=0)
        # Mean images converge to the prototypes, which differ.
        assert np.abs(a - b).mean() > 0.1

    def test_harder_presets_have_more_noise(self):
        assert (
            IMAGE_PRESETS["mnist_o"].noise_std
            < IMAGE_PRESETS["mnist_f"].noise_std
        )
        assert IMAGE_PRESETS["mnist_f"].prototype_blend < IMAGE_PRESETS["cifar10"].prototype_blend

    def test_sample_mixed_counts_and_shuffle(self):
        gen = make_generator("mnist_f", seed=0)
        rng = np.random.default_rng(1)
        x, y = gen.sample_mixed({0: 10, 3: 5}, rng)
        assert x.shape[0] == 15
        assert np.sum(y == 0) == 10 and np.sum(y == 3) == 5
        # Shuffled: labels are not sorted runs.
        assert not (np.all(y[:10] == 0) and np.all(y[10:] == 3))

    def test_sample_mixed_empty(self):
        gen = make_generator("mnist_o", seed=0)
        x, y = gen.sample_mixed({}, np.random.default_rng(0))
        assert x.shape[0] == 0 and y.shape[0] == 0

    def test_rejects_bad_class(self):
        gen = make_generator("mnist_o", seed=0)
        with pytest.raises(ValueError):
            gen.sample(10, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen.sample(-1, 1, np.random.default_rng(0))

    def test_test_set_balanced(self):
        gen = make_generator("mnist_o", seed=0)
        x, y = gen.test_set(7, np.random.default_rng(0))
        counts = np.bincount(y, minlength=10)
        np.testing.assert_array_equal(counts, np.full(10, 7))


class TestTextGenerator:
    def test_tokens_in_vocabulary(self):
        gen = make_generator("hpnews", seed=0)
        rng = np.random.default_rng(0)
        x = gen.sample(3, 50, rng)
        assert x.dtype == np.int64
        assert x.min() >= 0
        assert x.max() < gen.spec.vocab_size

    def test_sequence_shape(self):
        gen = make_generator("hpnews", seed=0)
        x = gen.sample(0, 4, np.random.default_rng(1))
        assert x.shape == (4, gen.spec.seq_len)

    def test_class_topics_are_distinct(self):
        gen = make_generator("hpnews", seed=0)
        rng = np.random.default_rng(2)
        a = np.bincount(gen.sample(0, 300, rng).ravel(), minlength=gen.spec.vocab_size)
        b = np.bincount(gen.sample(1, 300, rng).ravel(), minlength=gen.spec.vocab_size)
        # Total-variation distance between class unigram counts is large.
        a = a / a.sum()
        b = b / b.sum()
        assert 0.5 * np.abs(a - b).sum() > 0.3

    def test_rejects_vocab_too_small(self):
        with pytest.raises(ValueError):
            SyntheticTextGenerator(
                TextSpec(name="x", vocab_size=100, topic_words=40, n_classes=10)
            )

    def test_distributions_normalised(self):
        gen = make_generator("hpnews", seed=0)
        np.testing.assert_allclose(gen._distributions.sum(axis=1), np.ones(10))


class TestDifficultyKnobs:
    def test_blend_increases_class_overlap(self):
        rng = np.random.default_rng(0)
        base = dict(name="x", noise_std=0.0, max_shift=0)
        sep = SyntheticImageGenerator(ImageSpec(**base, prototype_blend=0.0), seed=1)
        blended = SyntheticImageGenerator(ImageSpec(**base, prototype_blend=0.9), seed=1)

        def class_gap(gen):
            a = gen.sample(0, 1, rng)[0]
            b = gen.sample(1, 1, rng)[0]
            return np.abs(a - b).mean()

        assert class_gap(blended) < class_gap(sep)

    def test_modes_create_intra_class_variation(self):
        rng = np.random.default_rng(0)
        spec = ImageSpec(name="x", noise_std=0.0, max_shift=0, modes=2)
        gen = SyntheticImageGenerator(spec, seed=1)
        samples = gen.sample(0, 40, rng)
        # With two noiseless modes there are exactly two distinct images.
        unique = np.unique(samples.round(9).reshape(40, -1), axis=0)
        assert unique.shape[0] == 2


# ---------------------------------------------------------------------------
# Synthesis goldens
# ---------------------------------------------------------------------------
# SHA-256 of the output bytes and the generator's post-call PCG64 state,
# recorded from the per-sample np.roll implementation.  Every manifest,
# scenario_hash and checkpoint downstream depends on these bytes and on how
# far each call advances the caller's generator, so both stay pinned.

_GOLDEN_CONFIGS = {
    "mnist_o-14": ("mnist_o", 14),
    "mnist_o-28": ("mnist_o", 28),
    "cifar10-14": ("cifar10", None),  # 2 modes, colour jitter, shift 2
}
_GOLDEN_SIZES = (0, 1, 7, 257)

_SAMPLE_GOLDENS = {
    ("mnist_o-14", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0x7898498834207dbd9856459edde92ce9,
    ),
    ("mnist_o-14", 1): (
        "9ecb7b36935982fd24b015cf064cfb4156c4791f2f7370deaab0f0b92f28c403",
        0x57875138e042c19b82ec9b15d1977db7,
    ),
    ("mnist_o-14", 7): (
        "5e3b4f8829b1751a4cdb908f681f12d53eb78f48328c1a30a79a54688eb8e289",
        0x27ece52217c3ef7924972e89ec9535bb,
    ),
    ("mnist_o-14", 257): (
        "f8d748396a49c2149bffa8fa965d5427c209d3482c894604afa2fe15b125bc94",
        0x8e5cc22e2ce88b27237b093b97eafc58,
    ),
    ("mnist_o-28", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0x7898498834207dbd9856459edde92ce9,
    ),
    ("mnist_o-28", 1): (
        "b7083b8d2612dd6766d62490c908086d329e0454cbeaecdca934be66f66d6ec9",
        0xc0776dc6641f32674f9dd7678325d49a,
    ),
    ("mnist_o-28", 7): (
        "5957a89b09a08023b4a7d5eb3a2755ce8380f722198d512febc378442d922fcd",
        0xfdd6a5e52a0e98e62fb3abaedfd6600c,
    ),
    ("mnist_o-28", 257): (
        "adb212d8d73950d36029113e48fc6c7d389b58a5a6c591d62ea0d6918b461580",
        0x759bf2249c0e0a3d5987e0673b308a65,
    ),
    ("cifar10-14", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0x7898498834207dbd9856459edde92ce9,
    ),
    ("cifar10-14", 1): (
        "bbf006fe342604a4b6d29e87767f2c27e8634b7dd246d9c19eb2cd9dee229add",
        0x8fe917a27a0191a2963bc1eb104b5ac8,
    ),
    ("cifar10-14", 7): (
        "7c729ebd5dc353809f22605b1cfe648f7298da63b4b0a123688ea37a22a83e8d",
        0xf0f6a412f05d9c291e8045180e32b551,
    ),
    ("cifar10-14", 257): (
        "e1c69fdaa9264995f2b310f3e2bcc5661b02f7c88546d329934e3268a23ff863",
        0x80677af5cc798f123249b6c9ae27dc3a,
    ),
}

_MIXED_GOLDENS = {
    ("mnist_o-14", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0x1abeb76eda752a0203c3154eef70b261,
    ),
    ("mnist_o-14", 1): (
        "08cbade1422889e5e9a2f0fac89c676e72154c67cf0c852983644923d4d4dbd5",
        0xaa4d43392ae89f4cf68396ac0ced7571,
    ),
    ("mnist_o-14", 7): (
        "b604e2046303694e979065732024279886f8628ea7c04424178ea4ebb0081bed",
        0xfd62290053af5734c92c232740408b7b,
    ),
    ("mnist_o-14", 257): (
        "bffb6c1cb90511bda8185dfbf67f14fd65d51c227d3b557afb188c48905b45d7",
        0xab1e7e2d6e0a843aeadf4f7b34e75f16,
    ),
    ("mnist_o-28", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0x1abeb76eda752a0203c3154eef70b261,
    ),
    ("mnist_o-28", 1): (
        "ee7f6d1b7d563a4783301cb0ea03665b32c0230550c62cae566d3b3b845e74ec",
        0xfc2938090346109d11d56dcdf94e0955,
    ),
    ("mnist_o-28", 7): (
        "576b8ea485c34d7481a602371db776156314d68a9f792f43359c88651f316824",
        0xd52c21ecdf8fa10fd67c30f341f918d9,
    ),
    ("mnist_o-28", 257): (
        "67a5b134ae8fd751bb32487346424c905987e75bbfc99debe2b1673b77b8c85c",
        0x6b513403d68caae07b81d0c7853d2a84,
    ),
    ("cifar10-14", 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0x1abeb76eda752a0203c3154eef70b261,
    ),
    ("cifar10-14", 1): (
        "c7afbeb1abdee75a8f5d3d558ebdf3465e6f7fc192f7e97cee5b501dfef27c62",
        0x8f242ba4c93b22ad60950512e195c984,
    ),
    ("cifar10-14", 7): (
        "b10221e25c2b3cabbe75e93090ab32cd1007a0b885b1daae65191bfe07874b40",
        0x35bdadbe8024a8adabd2770598f96fc,
    ),
    ("cifar10-14", 257): (
        "6dd48c141a39a678bf7008a580b81b542ab7efa030b736f3f3b5139e3ab4b6bf",
        0xb957585b45426515a620f9940614ec6c,
    ),
}


def _golden_generator(key):
    name, size = _GOLDEN_CONFIGS[key]
    return make_generator(name, seed=7, image_size=size)


def _mixed_counts(n):
    """``n`` samples spread over classes by a fixed stride."""
    counts = {}
    for i in range(n):
        cls = (3 * i + 1) % 10
        counts[cls] = counts.get(cls, 0) + 1
    return counts


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _pcg_state(rng):
    return rng.bit_generator.state["state"]["state"]


class TestSynthesisGoldens:
    @pytest.mark.parametrize("n", _GOLDEN_SIZES)
    @pytest.mark.parametrize("key", sorted(_GOLDEN_CONFIGS))
    def test_sample_bytes_and_rng_state(self, key, n):
        gen = _golden_generator(key)
        rng = np.random.default_rng(1000 + n)
        x = gen.sample(3, n, rng)
        assert x.shape == (n, *gen.input_shape) and x.dtype == np.float64
        assert (_sha256(x), _pcg_state(rng)) == _SAMPLE_GOLDENS[key, n]

    @pytest.mark.parametrize("n", _GOLDEN_SIZES)
    @pytest.mark.parametrize("key", sorted(_GOLDEN_CONFIGS))
    def test_sample_mixed_bytes_and_rng_state(self, key, n):
        gen = _golden_generator(key)
        rng = np.random.default_rng(2000 + n)
        x, y = gen.sample_mixed(_mixed_counts(n), rng)
        assert x.shape == (n, *gen.input_shape) and y.dtype == np.int64
        assert (_sha256(x, y), _pcg_state(rng)) == _MIXED_GOLDENS[key, n]


def _roll_oracle(gen, class_id, n, rng):
    """The per-sample np.roll synthesis the vectorised sampler replaced."""
    spec = gen.spec
    out = np.empty((n, *gen.input_shape))
    modes = rng.integers(spec.modes, size=n)
    shifts = rng.integers(-spec.max_shift, spec.max_shift + 1, size=(n, 2))
    for i in range(n):
        img = gen._prototypes[class_id, modes[i]]
        img = np.roll(img, shift=tuple(shifts[i]), axis=(0, 1))
        if spec.color_jitter > 0.0 and spec.channels > 1:
            jitter = 1.0 + spec.color_jitter * rng.standard_normal(spec.channels)
            img = img * jitter
        out[i] = img
    out += spec.noise_std * rng.standard_normal(out.shape)
    return out


@given(
    size=st.integers(1, 9),
    channels=st.integers(1, 3),
    modes=st.integers(1, 3),
    max_shift=st.integers(0, 12),
    color_jitter=st.sampled_from([0.0, 0.35]),
    n=st.integers(0, 40),
    class_id=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sample_matches_roll_oracle(
    size, channels, modes, max_shift, color_jitter, n, class_id, seed
):
    """Bytes and generator state equal the per-sample roll, shifts past the edge included."""
    spec = ImageSpec(
        name="x",
        size=size,
        channels=channels,
        n_classes=3,
        max_shift=max_shift,
        modes=modes,
        color_jitter=color_jitter,
    )
    gen = SyntheticImageGenerator(spec, seed=seed % 97)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = gen.sample(class_id, n, ours)
    want = _roll_oracle(gen, class_id, n, theirs)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state
