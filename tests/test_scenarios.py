import numpy as np
import pytest

from bbadapt.errors import ContractError
from bbadapt.scenarios import (
    PRESET_NAMES,
    DomainData,
    ScenarioSpec,
    Shift,
    bank_accuracy,
    evaluate,
    generate,
    holdout,
    preset,
)


def test_shift_rotation_matrix():
    shift = Shift(rotation_deg=90.0)
    rotated = shift.apply(np.array([[1.0, 0.0]]))
    assert np.allclose(rotated, [[0.0, 1.0]], atol=1e-12)


def test_shift_translation_and_identity():
    shift = Shift(translation=(2.0, -1.0))
    moved = shift.apply(np.array([[0.5, 0.5]]))
    assert np.allclose(moved, [[2.5, -0.5]])
    assert np.allclose(Shift().apply(np.eye(2)), np.eye(2))


def test_shift_dict_round_trip():
    shift = Shift(rotation_deg=15.0, translation=(0.1, 0.2), noise_scale=1.5)
    assert Shift.from_dict(shift.to_dict()) == shift


def test_scenario_validation():
    with pytest.raises(ContractError):
        ScenarioSpec(family="rings", num_classes=2)
    with pytest.raises(ContractError):
        ScenarioSpec(family="moons", num_classes=3)
    with pytest.raises(ContractError):
        ScenarioSpec(family="gaussians", num_classes=1)
    with pytest.raises(ContractError):
        ScenarioSpec(family="gaussians", num_classes=4, regime="open")
    with pytest.raises(ContractError):
        ScenarioSpec(family="gaussians", num_classes=4, regime="partial", k_target=4)
    with pytest.raises(ContractError):
        ScenarioSpec(family="gaussians", num_classes=4, regime="partial", k_target=0)
    with pytest.raises(ContractError):
        ScenarioSpec(family="gaussians", num_classes=4, k_target=2)
    with pytest.raises(ContractError):
        ScenarioSpec(family="gaussians", num_classes=4, source_shifts=())
    with pytest.raises(ContractError):
        ScenarioSpec(family="gaussians", num_classes=4, n_source=0)


def test_scenario_target_classes():
    closed = ScenarioSpec(family="gaussians", num_classes=4)
    assert closed.target_classes == (0, 1, 2, 3)
    partial = ScenarioSpec(family="gaussians", num_classes=8, regime="partial", k_target=3)
    assert partial.target_classes == (0, 1, 2)


def test_scenario_dict_round_trip():
    spec = ScenarioSpec(
        family="gaussians",
        num_classes=6,
        n_source=300,
        n_target=200,
        source_shifts=(Shift(rotation_deg=-10.0), Shift()),
        target_shift=Shift(rotation_deg=25.0, translation=(0.2, 0.0)),
        regime="partial",
        k_target=3,
        seed=7,
        noise=0.3,
        radius=1.8,
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_generate_deterministic():
    spec = preset("moons-rot30")
    sources_a, target_a = generate(spec)
    sources_b, target_b = generate(spec)
    assert np.array_equal(sources_a[0].features, sources_b[0].features)
    assert np.array_equal(target_a.features, target_b.features)
    assert np.array_equal(target_a.labels, target_b.labels)


def test_negative_zero_noise_draws_as_zero_noise():
    # -0.0 passes `0.0 <= noise`, and numpy's normal refuses a scale with the sign bit set
    for spec in (ScenarioSpec(family="moons", num_classes=2, n_source=20, n_target=20, noise=-0.0),
                 ScenarioSpec(family="gaussians", num_classes=3, n_source=20, n_target=20,
                              target_shift=Shift(noise_scale=-0.0))):
        sources, target = generate(spec)
        assert np.isfinite(target.features).all() and len(sources[0].features) == 20


def test_generate_shapes_and_balance():
    spec = ScenarioSpec(family="gaussians", num_classes=4, n_source=202, n_target=101)
    sources, target = generate(spec)
    assert len(sources) == 1
    assert sources[0].features.shape == (202, 2)
    assert target.features.shape == (101, 2)
    counts = np.bincount(sources[0].labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_generate_streams_are_independent():
    # adding a second source must not perturb the first or the target
    single = ScenarioSpec(family="gaussians", num_classes=4, seed=11)
    double = ScenarioSpec(
        family="gaussians", num_classes=4, seed=11,
        source_shifts=(Shift(), Shift(rotation_deg=20.0)),
    )
    sources_one, target_one = generate(single)
    sources_two, target_two = generate(double)
    assert np.array_equal(sources_one[0].features, sources_two[0].features)
    assert np.array_equal(target_one.features, target_two.features)


def test_partial_target_label_subset():
    spec = ScenarioSpec(family="gaussians", num_classes=8, regime="partial", k_target=4)
    _, target = generate(spec)
    assert set(np.unique(target.labels)) == {0, 1, 2, 3}


def test_target_rotation_applied():
    base = ScenarioSpec(family="gaussians", num_classes=4, seed=3)
    rotated = ScenarioSpec(family="gaussians", num_classes=4, seed=3, target_shift=Shift(rotation_deg=30.0))
    _, t0 = generate(base)
    _, t1 = generate(rotated)
    assert np.allclose(t1.features, t0.features @ Shift(rotation_deg=30.0).matrix().T, atol=1e-12)


def test_holdout_fresh_draw():
    spec = preset("moons-rot30")
    sources, _ = generate(spec)
    ho = holdout(spec, 0, 400)
    assert ho.features.shape == (400, 2)
    assert not np.array_equal(ho.features[: len(sources[0])], sources[0].features)
    again = holdout(spec, 0, 400)
    assert np.array_equal(ho.features, again.features)


def test_moons_geometry():
    spec = ScenarioSpec(family="moons", num_classes=2, noise=0.05, seed=1)
    sources, _ = generate(spec)
    x, y = sources[0].features, sources[0].labels
    assert x[y == 0, 1].mean() > 0.3
    assert x[y == 1, 1].mean() < -0.3
    assert abs(x[:, 0].mean()) < 0.2


def test_gaussian_centers_on_circle():
    spec = ScenarioSpec(family="gaussians", num_classes=4, noise=0.05, radius=2.0, seed=1)
    sources, _ = generate(spec)
    x, y = sources[0].features, sources[0].labels
    for cls, angle in enumerate(np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)):
        center = 2.0 * np.array([np.cos(angle), np.sin(angle)])
        assert np.linalg.norm(x[y == cls].mean(axis=0) - center) < 0.05


class _FixedNet:
    def __init__(self, probs):
        self.probs = probs

    def predict_proba(self, features):
        return self.probs


def test_evaluate_accuracy_and_per_class():
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
    labels = np.array([0, 0, 1, 1])
    out = evaluate(_FixedNet(probs), DomainData(np.zeros((4, 2)), labels))
    assert out == {"accuracy": 75.0, "per_class_accuracy": 75.0}  # classes 0 and 1 at 100 and 50


def test_bank_accuracy():
    rows = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    assert bank_accuracy(rows, np.array([0, 1, 1])) == pytest.approx(100.0 * 2 / 3)


def test_presets_registry():
    assert set(PRESET_NAMES) == {"moons-rot30", "gauss4-rot30", "multi3-gauss4", "partial-gauss8"}
    spec = preset("moons-rot30", seed=77)
    assert spec.seed == 77
    assert spec.family == "moons"
    multi = preset("multi3-gauss4")
    assert multi.num_sources == 3
    part = preset("partial-gauss8")
    assert part.regime == "partial" and part.k_target == 4
    with pytest.raises(ContractError):
        preset("nope")
