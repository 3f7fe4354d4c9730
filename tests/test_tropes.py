from __future__ import annotations

import numpy as np
import pytest

from verseshift import trainer, tropes

from _oracles import _cosine, _slot_vectors, trajectory_values_unblocked
from conftest import make_model, stack_model, working_bytes

BLOCK = trainer.ROW_BLOCK


def angle_model(target_angle_by_slot, candidate_angles, counts=None):
    """2-d model where cosine(target, candidate) is exactly cos of the angle gap.

    ``candidate_angles`` maps word -> per-slot angle list; the target sits at
    angle 0 (or per-slot angles) so trajectories are fully controlled.
    """
    words = ["ziel"] + sorted(candidate_angles)
    n_slots = len(target_angle_by_slot)
    base = np.zeros((len(words), 2), dtype=np.float32)
    deltas = np.zeros((n_slots, len(words), 2), dtype=np.float32)
    for t, ang in enumerate(target_angle_by_slot):
        deltas[t, 0] = [np.cos(ang), np.sin(ang)]
    for w, angles in candidate_angles.items():
        row = words.index(w)
        for t, ang in enumerate(angles):
            deltas[t, row] = [np.cos(ang), np.sin(ang)]
    starts = [1600 + 50 * t for t in range(n_slots)]
    return make_model(words, starts, base, deltas, slot_counts=counts, global_counts=[100] * len(words))


class TestBuildTrajectories:
    def test_identical_candidate_has_unit_trajectory(self):
        model = angle_model([0.0] * 4, {"gleich": [0.0] * 4, "anders": [1.0] * 4})
        trajectories = tropes.build_trajectories(model, "ziel", min_global=1, min_per_slot=1)
        assert trajectories.candidates == ["anders", "gleich"]
        assert np.allclose(trajectories.values[1], 1.0, atol=1e-6)

    def test_missing_slot_imputed_as_neighbor_mean(self):
        angles = [0.0, 0.2, 0.9, 0.4, 0.5, 0.6]
        counts = np.full((6, 2), 5)
        counts[2, 1] = 0  # candidate missing from slot 2
        model = angle_model([0.0] * 6, {"kandidat": angles}, counts=counts)
        trajectories = tropes.build_trajectories(model, "ziel", min_global=1, min_per_slot=2)
        values, imputed = trajectories.values[0], trajectories.imputed[0]
        assert imputed.tolist() == [False, False, True, False, False, False]
        expected = (np.cos(0.2) + np.cos(0.4)) / 2
        assert values[2] == pytest.approx(expected, abs=1e-6)
        # measured slots keep their computed values bit for bit
        assert values[1] == pytest.approx(np.cos(0.2), abs=1e-6)

    def test_boundary_missing_copies_nearest(self):
        counts = np.full((4, 2), 5)
        counts[0, 1] = 0
        model = angle_model([0.0] * 4, {"rand": [0.3, 0.5, 0.6, 0.7]}, counts=counts)
        values = tropes.build_trajectories(model, "ziel", min_global=1, min_per_slot=2).values[0]
        assert values[0] == pytest.approx(np.cos(0.5), abs=1e-6)

    def test_below_threshold_counts_as_missing(self):
        counts = np.full((4, 2), 5)
        counts[1, 1] = 1  # below min_per_slot=2 but not zero
        model = angle_model([0.0] * 4, {"knapp": [0.1, 0.2, 0.3, 0.4]}, counts=counts)
        imputed = tropes.build_trajectories(model, "ziel", min_global=1, min_per_slot=2).imputed[0]
        assert imputed.tolist() == [False, True, False, False]

    def test_two_missing_slots_rejected(self):
        counts = np.full((5, 3), 5)
        counts[1, 2] = 0  # "wegfall" sorts after "bleibt" in the vocabulary
        counts[3, 2] = 0
        model = angle_model(
            [0.0] * 5, {"wegfall": [0.1] * 5, "bleibt": [0.2] * 5}, counts=counts
        )
        assert model.vocab.index["wegfall"] == 2
        trajectories = tropes.build_trajectories(model, "ziel", min_global=1, min_per_slot=2)
        assert trajectories.candidates == ["bleibt"]

    def test_min_global_filters(self):
        model = angle_model([0.0] * 3, {"selten": [0.1] * 3, "oft": [0.2] * 3})
        model.vocab.global_counts[model.vocab.index["selten"]] = 3
        trajectories = tropes.build_trajectories(model, "ziel", min_global=10, min_per_slot=1)
        assert trajectories.candidates == ["oft"]

    def test_raising_min_global_never_adds(self):
        model = angle_model([0.0] * 3, {f"k{i}": [0.1 * i] * 3 for i in range(5)})
        for i, w in enumerate(model.vocab.words):
            model.vocab.global_counts[i] = 10 * (model.vocab.index[w] + 1)
        lo = set(tropes.build_trajectories(model, "ziel", min_global=10, min_per_slot=1).candidates)
        hi = set(tropes.build_trajectories(model, "ziel", min_global=30, min_per_slot=1).candidates)
        assert hi <= lo

    def test_target_absent_from_slot_errors(self):
        counts = np.full((3, 2), 5)
        counts[1, 0] = 0  # target gone in slot 1
        model = angle_model([0.0] * 3, {"k": [0.1] * 3}, counts=counts)
        with pytest.raises(ValueError, match="absent"):
            tropes.build_trajectories(model, "ziel", min_global=1, min_per_slot=1)

    def test_no_candidates_errors(self):
        model = angle_model([0.0] * 3, {"k": [0.1] * 3})
        with pytest.raises(ValueError):
            tropes.build_trajectories(model, "ziel", min_global=10**6, min_per_slot=1)

    def test_values_exactly_match_per_slot_reference(self):
        rng = np.random.default_rng(3)
        words = ["ziel", "voll", "luecke", "selten", "rand"]
        n_slots = 5
        counts = np.full((n_slots, len(words)), 5)
        counts[2, 2] = 0  # "luecke" imputed at an interior slot
        counts[0, 4] = 1  # "rand" imputed at the edge
        counts[1:3, 3] = 0  # "selten" misses two slots and is no candidate
        model = make_model(
            words, [1600 + 50 * t for t in range(n_slots)],
            base=rng.normal(size=(len(words), 7)), deltas=rng.normal(size=(n_slots, len(words), 7)),
            slot_counts=counts, global_counts=[100] * len(words),
        )
        trajectories = tropes.build_trajectories(model, "ziel", min_global=1, min_per_slot=2)
        cand = np.array([1, 2, 4])
        assert trajectories.target == "ziel"
        assert trajectories.candidates == [words[c] for c in cand]

        expected = np.column_stack([
            _cosine(_slot_vectors(model, t, cand), _slot_vectors(model, t, np.array([0]))[0]) for t in range(n_slots)
        ])
        imputed = counts[:, cand].T < 2
        slots = np.arange(n_slots, dtype=np.float64)
        for row, mask in enumerate(imputed):
            if mask.any():
                expected[row, mask] = np.interp(slots[mask], slots[~mask], expected[row, ~mask])
        assert imputed.any(axis=1).tolist() == [False, True, True]
        assert trajectories.values.dtype == np.float64 and trajectories.imputed.dtype == bool
        assert np.array_equal(trajectories.values, expected)
        assert np.array_equal(trajectories.imputed, imputed)


class TestTrajectoryBlocks:
    """The row-blocked trajectory values equal the all-at-once ones bit for bit, in bounded memory."""

    @pytest.mark.parametrize("n_candidates", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_values_bit_equal_to_unblocked(self, n_candidates):
        rng = np.random.default_rng(n_candidates)
        n_words, n_slots = n_candidates + 4, 6
        counts = np.full((n_slots, n_words), 5)
        rare = rng.choice(np.arange(1, n_words), size=3, replace=False)
        counts[1:3, rare] = 0  # missing from two slots: no candidates
        gaps = rng.choice(np.arange(1, n_words), size=n_words // 3, replace=False)
        counts[rng.integers(0, n_slots, gaps.size), gaps] = 1  # one short slot each: imputed
        model = make_model(
            [f"w{i}" for i in range(n_words)], [1600 + 50 * t for t in range(n_slots)],
            rng.normal(size=(n_words, 8)), rng.normal(size=(n_slots, n_words, 8)),
            slot_counts=counts, global_counts=[100] * n_words,
        )
        trajectories = tropes.build_trajectories(model, "w0", min_global=1, min_per_slot=2)
        cand = np.array([model.vocab.index[w] for w in trajectories.candidates])
        assert cand.size == n_candidates
        want = trajectory_values_unblocked(model, 0, cand, trajectories.imputed)
        assert np.array_equal(trajectories.values, want)

    def test_working_memory_is_one_block(self):
        model = stack_model()
        stack = model.deltas.size * 8  # every word's float64 vector in every slot
        trajectories, extra = working_bytes(lambda: tropes.build_trajectories(model, "w0"))
        assert len(trajectories) == len(model.vocab) - 1
        # one block of S * ROW_BLOCK vectors and a (slots, words) mask: about 0.04 of the stack
        assert extra < 0.08 * stack


def make_trajectories(names, rows):
    """Trajectories of ``names`` against "ziel" with the given value rows and nothing imputed."""
    values = np.array(rows, dtype=np.float64)
    return tropes.Trajectories("ziel", list(names), values, np.zeros(values.shape, dtype=bool))


def first(trajectories, n):
    """The first ``n`` rows of ``trajectories``."""
    t = trajectories
    return tropes.Trajectories(t.target, t.candidates[:n], t.values[:n], t.imputed[:n])


def class_fixture(per_class=30, n_slots=6, noise=0.02, seed=99, extra=()):
    """Planted high/low/rising/falling trajectories, then the ``(name, values)`` rows of ``extra``, plus labels."""
    rng = np.random.default_rng(seed)
    ramp = np.linspace(0.2, 0.8, n_slots)
    shapes = {
        "high": np.full(n_slots, 0.8),
        "low": np.full(n_slots, 0.2),
        "rising": ramp,
        "falling": ramp[::-1],
    }
    names, rows = [], []
    labels = {}
    for label, shape in shapes.items():
        for i in range(per_class):
            name = f"{label}{i:03d}"
            names.append(name)
            rows.append(shape + rng.normal(scale=noise, size=n_slots))
            labels[name] = label
    for name, values in extra:
        names.append(name)
        rows.append(values)
    return make_trajectories(names, rows), labels


class TestTrajectoryPca:
    def test_class_fixture_separates(self):
        trajectories, labels = class_fixture()
        report = tropes.orient_components(
            tropes.trajectory_pca(trajectories, n_components=4, top_k=30)
        )
        assert not report.undetermined
        high = set(report.component_members(0, "pos"))
        low = set(report.component_members(0, "neg"))
        rising = set(report.component_members(1, "pos"))
        falling = set(report.component_members(1, "neg"))
        assert {labels[w] for w in high} == {"high"}
        assert {labels[w] for w in low} == {"low"}
        assert {labels[w] for w in rising} == {"rising"}
        assert {labels[w] for w in falling} == {"falling"}
        # level and slope dominate the variance on this fixture
        assert report.pca.explained_variance_ratio[:2].sum() > 0.9

    def test_classification_labels(self):
        trajectories, _ = class_fixture(extra=[("mittig", np.full(6, 0.5))])
        report = tropes.orient_components(
            tropes.trajectory_pca(trajectories, n_components=4, top_k=30)
        )
        assert tropes.classify_trajectory(report, "rising000") == ["rising"]
        assert tropes.classify_trajectory(report, "high000") == ["high"]
        assert tropes.classify_trajectory(report, "falling000") == ["falling"]
        assert tropes.classify_trajectory(report, "low000") == ["low"]
        assert tropes.classify_trajectory(report, "mittig") == ["mixed"]

    def test_classify_requires_oriented_report(self):
        trajectories, _ = class_fixture()
        report = tropes.trajectory_pca(trajectories, n_components=2, top_k=10)
        with pytest.raises(ValueError):
            tropes.classify_trajectory(report, "high000")

    def test_classify_unknown_candidate_errors(self):
        trajectories, _ = class_fixture()
        report = tropes.orient_components(tropes.trajectory_pca(trajectories, 2, 10))
        with pytest.raises(ValueError):
            tropes.classify_trajectory(report, "gibtsnicht")

    def test_orientation_invariant_under_sign_flips(self):
        from dataclasses import replace

        trajectories, _ = class_fixture(seed=7)
        report = tropes.trajectory_pca(trajectories, n_components=3, top_k=20)
        flipped_pca = replace(
            report.pca, projections=-report.pca.projections, components=-report.pca.components
        )
        flipped = tropes.TropeReport(
            pca=flipped_pca,
            trajectories=report.trajectories,
            extremes=tropes._extreme_lists(flipped_pca.projections, 20),
        )
        a = tropes.orient_components(report)
        b = tropes.orient_components(flipped)
        for comp in range(2):
            for end in ("pos", "neg"):
                assert a.component_members(comp, end) == b.component_members(comp, end)

    def test_extreme_lists_disjoint_within_component(self):
        trajectories, _ = class_fixture(per_class=10)
        report = tropes.trajectory_pca(trajectories, n_components=3, top_k=10)
        for c in range(3):
            assert not (set(report.component_members(c, "pos")) & set(report.component_members(c, "neg")))

    def test_reordering_candidates_keeps_ratios_and_members(self):
        trajectories, _ = class_fixture(per_class=12, seed=31)
        report_a = tropes.orient_components(tropes.trajectory_pca(trajectories, 2, 12))
        t = trajectories
        shuffled = tropes.Trajectories(t.target, t.candidates[::-1], t.values[::-1], t.imputed[::-1])
        report_b = tropes.orient_components(tropes.trajectory_pca(shuffled, 2, 12))
        assert np.allclose(
            report_a.pca.explained_variance_ratio, report_b.pca.explained_variance_ratio, atol=1e-10
        )
        for comp in range(2):
            for end in ("pos", "neg"):
                assert set(report_a.component_members(comp, end)) == set(
                    report_b.component_members(comp, end)
                )

    def test_degenerate_zero_slope_flagged(self):
        trajectories = make_trajectories(
            [f"flach{i}" for i in range(9)], [np.full(4, 0.5 + 0.1 * (i % 3)) for i in range(9)]
        )
        report = tropes.orient_components(tropes.trajectory_pca(trajectories, 2, 3))
        assert 1 in report.undetermined

    def test_identical_trajectories_degenerate(self):
        trajectories = make_trajectories([f"k{i}" for i in range(6)], [np.full(5, 0.6)] * 6)
        report = tropes.trajectory_pca(trajectories, n_components=2, top_k=3)
        assert report.pca.degenerate
        assert np.all(report.pca.explained_variance_ratio == 0.0)

    def test_top_k_at_most_half_the_trajectories(self):
        trajectories, _ = class_fixture(per_class=3)
        report = tropes.trajectory_pca(trajectories, n_components=2, top_k=6)  # 2 * top_k == 12 trajectories
        for c in range(2):
            pos, neg = report.component_members(c, "pos"), report.component_members(c, "neg")
            assert len(pos) == len(neg) == 6
            assert not (set(pos) & set(neg))
        with pytest.raises(ValueError, match="top_k=6"):
            tropes.trajectory_pca(first(trajectories, 11), n_components=2, top_k=6)

    def test_too_few_trajectories(self):
        trajectories, _ = class_fixture(per_class=1)
        with pytest.raises(ValueError):
            tropes.trajectory_pca(first(trajectories, 3), n_components=4)


class TestImputationIsolation:
    def test_present_values_bit_identical(self):
        angles = [0.0, 0.2, 0.9, 0.4]
        counts = np.full((4, 2), 5)
        model = angle_model([0.0] * 4, {"voll": angles}, counts=counts)
        full = tropes.build_trajectories(model, "ziel", min_global=1, min_per_slot=2)
        counts2 = counts.copy()
        counts2[2, 1] = 0
        model2 = angle_model([0.0] * 4, {"voll": angles}, counts=counts2)
        gappy = tropes.build_trajectories(model2, "ziel", min_global=1, min_per_slot=2)
        present = ~gappy.imputed[0]
        assert present.tolist() == [True, True, False, True]
        assert np.array_equal(full.values[0][present], gappy.values[0][present])
