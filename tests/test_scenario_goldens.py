"""Golden SHA-256 hashes of ``Scenario.to_json()`` for every named preset
and every scenario a bench script or the ``compare`` command builds.

The hashes pin the full spec (run plan included), so a change to a preset
table, a field default or a caller's overrides shows up here before it can
move a manifest, a ``scenario_hash`` or a figure.  They were generated from
the legacy ``ExperimentConfig``/``ClusterConfig`` bridges these presets
replaced, which makes this module the proof that the presets are the same
specs.  Nothing here reads BLAS output, so the hashes hold on every machine.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Scenario

DATASETS = ("mnist_o", "mnist_f", "cifar10", "hpnews")

# The Figs 12-13 testbed run at bench scale.
_FIG12_13 = dict(
    n_clients=31,
    k_winners=8,
    n_rounds=15,
    size_range=(150, 900),
    test_per_class=30,
    model_width=0.18,
)


def scenarios() -> dict[str, Scenario]:
    """Every pinned scenario, built exactly as its caller builds it."""
    out: dict[str, Scenario] = {}
    for scale in ("smoke", "bench", "paper"):
        for dataset in DATASETS:
            out[f"{scale}-{dataset}"] = Scenario.from_preset(scale, dataset)
    out["cluster_cifar10"] = Scenario.from_preset("cluster_cifar10")
    # benchmarks/bench_fig08_score_dist.py
    out["fig08"] = Scenario.from_preset("bench", "cifar10", n_rounds=8)
    # benchmarks/bench_fig09_param_n.py
    for n_clients in (15, 30):
        out[f"fig09-N{n_clients}"] = Scenario.from_preset(
            "bench", "mnist_o", n_clients=n_clients, k_winners=6
        )
    # benchmarks/bench_fig10_param_k.py
    for k in (2, 10):
        out[f"fig10-K{k}"] = Scenario.from_preset("bench", "mnist_o", k_winners=k)
    # benchmarks/bench_fig11_param_psi.py
    base = Scenario.from_preset("bench", "mnist_o", n_rounds=14)
    for psi in (0.3, 0.9):
        out[f"fig11a-psi{psi}"] = base.with_(psi=psi, grid_size=129)
    out["fig11b"] = Scenario.from_preset(
        "bench", "mnist_o", n_clients=100, k_winners=20, grid_size=129
    )
    # benchmarks/bench_fig12_cluster_accuracy.py, bench_fig13_cluster_time.py
    out["fig12"] = Scenario.from_preset("cluster_cifar10", seeds=(1,), **_FIG12_13)
    out["fig13"] = Scenario.from_preset("cluster_cifar10", seeds=(2,), **_FIG12_13)
    # benchmarks/bench_headline.py
    for dataset in DATASETS:
        out[f"headline-{dataset}"] = Scenario.from_preset(
            "bench", dataset, schemes=("FMore", "RandFL"), seeds=(1,)
        )
    out["headline-cluster"] = Scenario.from_preset(
        "cluster_cifar10",
        seeds=(1,),
        **{**_FIG12_13, "n_rounds": 12, "test_per_class": 25},
    )
    # benchmarks/figcurves.py (default REPRO_BENCH_SEEDS)
    for dataset in DATASETS:
        out[f"figcurves-{dataset}"] = Scenario.from_preset(
            "bench", dataset, schemes=("FMore", "RandFL", "FixFL"), seeds=(1, 2)
        )
    # python -m repro compare mnist_o --schemes RandFL,FixFL --rounds 1
    out["cli-compare"] = Scenario.from_preset(
        "bench", "mnist_o", schemes=("RandFL", "FixFL"), seeds=(1,), n_rounds=1
    )
    return out


GOLDEN_SHA256 = {
    "smoke-mnist_o": "1f4ab6d85002ec9f0758cf08a1094d072f91f3da3b2adc2edcffe3bfb9e43aae",
    "smoke-mnist_f": "cbf84bc5079d7093a27d6f78d69027c600f06372e1643b5cae800e74068f4fe0",
    "smoke-cifar10": "27f530a5abd049f9f4f2f0575147d84b31b05fc85f41725e1eabd08731a3a720",
    "smoke-hpnews": "838713dadacb45f5f2b0b5f2cb31c1f8f2f14874131a54bf05cbce2ce95643d4",
    "bench-mnist_o": "e894e221c7f6492384abfe71befac38b66e8368c1afe58cb9ccf751a22e5131f",
    "bench-mnist_f": "0e0418b80d0d1e15246f8af733beca80481a47f15552012c3f3dd6fc315d2617",
    "bench-cifar10": "4e61c858c08e6a51e115fb2b386dc63ac9982822cca197dc6cbc5aad1b84fdf7",
    "bench-hpnews": "63862b907c0d9a178f18a27072bfb4433ddc5aef748426bd4251ce208f2b7c29",
    "paper-mnist_o": "4d7c5306b6c06dc904d92ad33e814263862bcd64e62088495fc22b6dc56d4be0",
    "paper-mnist_f": "889437e86b5a4d775b39e2c6e0184096bc4e6f82c12d89fbd6a8dec6edc63b08",
    "paper-cifar10": "a1390545b164955d44d96ad14ca2b85887a199a69215d77df12ebeb4a4cd5736",
    "paper-hpnews": "6be22052990b43d02d58a97f2821cf0055be3e7463765a2e60145fb8ea221a16",
    "cluster_cifar10": "a3955eaca292032b5025b6deca22bbc7a1546420c282e5d62308301f389361ec",
    "fig08": "b48c139040827cb445a40a77355bbd37785d0a6be30f109a63e72a74598845e2",
    "fig09-N15": "7e7476a01d7dae9df3e68bf05fb4f31897cca03d8303654dfc5a3567f6b0a088",
    "fig09-N30": "e894e221c7f6492384abfe71befac38b66e8368c1afe58cb9ccf751a22e5131f",
    "fig10-K2": "68fcc2a6361ed529803bf8a0471dddf3a854195ef2fe8786df0e6224f244a765",
    "fig10-K10": "d350abc3b182d38470eef6fefe7cdb72dc3e1c1305b8a7e41e2c06917c455bc2",
    "fig11a-psi0.3": "5f48e3cd978e935fab62d40b47c082a272abf7f6315f4db4a0af59bb0f99b157",
    "fig11a-psi0.9": "4c42c8fabf5b81b4a3a9ad6c556729f1143b14873a942b15d3def9a0407a31ce",
    "fig11b": "96a04cd4a7312ef842df9c6eee6d4162ae12c1634b07b84c4e51c9d4a86c9f0d",
    "fig12": "17976b31e9ecc322e6e568c79e4fed924e32db7b4d5e21d44b44a68791efe249",
    "fig13": "545c76a13c2e2a0093fe10e4a4b4385cd3f2d4331a1d2440bafce5afc7e0fbe4",
    "headline-mnist_o": "3dd80d656a5b5ec74b06cd3a0148ccdb49f5759ecf75e3fc3c6395d647935425",
    "headline-mnist_f": "4b4bfab8a205afb5ab8f2b715a671f425d2bb28e76b808a64c0020468ab9ff29",
    "headline-cifar10": "053fc0e12250f706661e065b7feff639b826b7f01434bb80dafe0eaffba89aba",
    "headline-hpnews": "4298ed6e616d2ac3cdb707d47af9b3c3e689f78a7a8b41a4c9587e83e127cd7a",
    "headline-cluster": "2f6f0bc1597c91786b545a240889a4dafd60a5270ada5c6b52990639893710cc",
    "figcurves-mnist_o": "ed9a4e866e6d152d13a642a5c0806b4f7d6a5e30025390c155b56ef168d0d50b",
    "figcurves-mnist_f": "2882c43dda80cf2d3d363800b079c1550cac3904c8d01d6f91adac078b3758af",
    "figcurves-cifar10": "8cf3890a5ad5eda6f6683bd8e9b91ae2715d72ba207e3ac885fc07943c20870a",
    "figcurves-hpnews": "706f563b56388024bb1110d6428d6a8f037ad770523e1230c7252ccace756715",
    "cli-compare": "0c8aabf08b077aab87b341cca135f4bdd31429b3b5518db80b4867c241549cb2",
}


def _sha256(scenario: Scenario) -> str:
    return hashlib.sha256(scenario.to_json().encode()).hexdigest()


def test_golden_table_covers_every_scenario():
    assert list(scenarios()) == list(GOLDEN_SHA256)


@pytest.mark.parametrize("key", list(GOLDEN_SHA256))
def test_scenario_json_matches_golden(key):
    assert _sha256(scenarios()[key]) == GOLDEN_SHA256[key]
