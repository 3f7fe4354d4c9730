from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verseshift import analysis, svgplot, trainer, tropes
from verseshift.analysis import DistributionSummary, SelfSimSeries

from _oracles import selfsim_unblocked, total_word_means_unblocked
from conftest import make_model, make_table, random_model, stack_model, working_bytes

BLOCK = trainer.ROW_BLOCK


def summary_list(medians):
    return [
        DistributionSummary(median=m, q1=m, q3=m, whisker_lo=m, whisker_hi=m, mean=m, n=1, p5=m, p95=m,
                            outliers_lo=0, outliers_hi=0)
        for m in medians
    ]


def series_from_medians(medians, start=1600, width=50):
    starts = [start + i * width for i in range(len(medians) + 1)]
    table = make_table(starts, width)
    pairs = [(table[i], table[i + 1]) for i in range(len(medians))]
    n = len(medians)
    return SelfSimSeries(
        pairs=pairs, summaries=summary_list(medians), rows=[np.empty(0, np.int64)] * n, cosines=[np.empty(0)] * n
    )


def measured(model, series):
    """Per slot pair, each measured word and its cosine."""
    assert all(c.dtype == np.float64 and c.shape == r.shape for r, c in zip(series.rows, series.cosines))
    return [
        {model.vocab.words[w]: c for w, c in zip(rows.tolist(), cosines.tolist())}
        for rows, cosines in zip(series.rows, series.cosines)
    ]


def random_unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestDistributionSummary:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=60))
    def test_ordering_invariant(self, values):
        s = DistributionSummary.from_values(np.array(values))
        assert s.whisker_lo <= s.q1 <= s.median <= s.q3 <= s.whisker_hi
        assert s.n == len(values)

    def test_whiskers_stop_at_the_last_datum_within_one_and_a_half_iqr(self):
        s = DistributionSummary.from_values(np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 100]))
        assert (s.q1, s.q3) == (3.25, 7.75)
        assert (s.whisker_lo, s.whisker_hi) == (1.0, 9.0)
        assert (s.outliers_lo, s.outliers_hi) == (0, 1)
        assert s.p5 == pytest.approx(1.45) and s.p95 == pytest.approx(59.05)

    def test_whisker_with_no_datum_inside_its_fence_stays_at_the_quartile(self):
        s = DistributionSummary.from_values(np.array([-5, 0, 10, 10, 10, 10, 10, 12]))
        assert s.q1 == 7.5  # the lower fence, 3.75, has no datum between it and q1
        assert (s.whisker_lo, s.whisker_hi) == (7.5, 12.0)
        assert (s.outliers_lo, s.outliers_hi) == (2, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=60))
    def test_whiskers_and_outliers_match_matplotlib_rule(self, values):
        x = np.array(values)
        s = DistributionSummary.from_values(x)
        q1, q3 = np.percentile(x, [25, 75])
        inside_lo, inside_hi = x[x >= q1 - 1.5 * (q3 - q1)], x[x <= q3 + 1.5 * (q3 - q1)]
        # boxplot_stats: the whisker is the extreme datum inside the fence, or the quartile if that is past it
        assert s.whisker_lo == (q1 if inside_lo.size == 0 or inside_lo.min() > q1 else inside_lo.min())
        assert s.whisker_hi == (q3 if inside_hi.size == 0 or inside_hi.max() < q3 else inside_hi.max())
        assert s.outliers_lo == np.count_nonzero(x < s.whisker_lo)
        assert s.outliers_hi == np.count_nonzero(x > s.whisker_hi)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            DistributionSummary.from_values(np.array([]))


class TestBoxPlot:
    def test_whiskers_drawn_and_outliers_counted_past_them(self):
        skewed = DistributionSummary.from_values(np.array([-5, 0, *[10] * 8, 40]))
        plain = DistributionSummary.from_values(np.arange(10.0))
        far = DistributionSummary.from_values(np.array([*range(1, 10), 1000]))  # its mean, 104.5, is past its whisker
        counts = [(s.outliers_lo, s.outliers_hi) for s in (skewed, plain, far)]
        assert counts == [(2, 1), (0, 0), (0, 1)] and far.whisker_hi == 9
        svg = svgplot.render_box_plot("t", ["a", "b", "c"], [skewed, plain, far], "x", "y")
        ET.fromstring(svg)  # well-formed
        labels = re.findall(r'<text x="([\d.]+)" y="([\d.]+)"[^>]*>(\d+) out</text>', svg)
        assert [count for _, _, count in labels] == ["1", "2", "1"]  # above the upper whisker, then below the lower
        assert labels[0][0] == labels[1][0] != labels[2][0] and float(labels[0][1]) < float(labels[1][1])
        circles = [float(y) for y in re.findall(r'<circle cx="[\d.]+" cy="([\d.]+)"', svg)]
        assert all(svgplot.TOP <= y <= svgplot.BOTTOM for y in circles)


class TestFigureBytes:
    """The exact bytes of one figure of each kind, so a layout refactor cannot move a pixel unnoticed."""

    @staticmethod
    def digest(svg: str) -> str:
        return hashlib.sha256(svg.encode("utf-8")).hexdigest()

    def test_box_plot_bytes(self):
        skewed = DistributionSummary.from_values(np.array([-5, 0, *[10] * 8, 40]))  # outliers past both whiskers
        plain = DistributionSummary.from_values(np.arange(10.0))
        far = DistributionSummary.from_values(np.array([*range(1, 10), 1000]))
        svg = svgplot.render_box_plot(
            "Self-similarity <by> distance & \x01", ["<1", "a&b", '"c"'], [skewed, plain, far], "distance", "cosine"
        )
        assert self.digest(svg) == "9fbb60d7ac6477faa13ece52b097bc0cec9478edff971cf1166a2a49ae3b57a3"

    def test_line_plot_bytes(self):
        xs = [1700.0, 1725.0, 1750.0, 1775.0, 1800.0]
        series = [  # more series than colors, so the palette wraps
            (f"w{i}", [((7 * i + 3 * k) % 11) / 10 - 0.4 for k in range(len(xs))])
            for i in range(len(svgplot.LINE_COLORS) + 3)
        ]
        svg = svgplot.render_line_plot("ziel: <rising> & falling", xs, series, "slot start year", "cosine similarity")
        assert self.digest(svg) == "dc7281bb55d029a658401a8b21a63a9f450b358c668bd5d5f9935f68ef66a8e2"


class TestPairwiseSelfSim:
    def test_zero_deltas_give_unit_similarity(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(6, 8))
        model = make_model([f"w{i}" for i in range(6)], [1600, 1650, 1700], base, np.zeros((3, 6, 8)))
        series = analysis.pairwise_self_similarity(model, top_n=6)
        for cosines in measured(model, series):
            for value in cosines.values():
                assert value == pytest.approx(1.0, abs=1e-6)

    def test_word_missing_from_one_slot_skipped(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(3, 4))
        counts = np.array([[5, 5, 5], [5, 0, 5]])  # w1 absent from slot 1
        model = make_model(["w0", "w1", "w2"], [1600, 1650], base, np.zeros((2, 3, 4)), slot_counts=counts)
        series = analysis.pairwise_self_similarity(model, top_n=3)
        assert set(measured(model, series)[0]) == {"w0", "w2"}
        assert series.summaries[0].n == 2

    def test_subvocabulary_restriction_matches_filtering(self):
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(8)]
        base = random_unit_rows(rng, 8, 6)
        deltas = rng.normal(scale=0.2, size=(3, 8, 6))
        model = make_model(words, [1600, 1650, 1700], base, deltas)
        full = analysis.pairwise_self_similarity(model, top_n=8)
        sub = analysis.pairwise_self_similarity(model, words=["w2", "w5"])
        for pair_full, pair_sub in zip(measured(model, full), measured(model, sub)):
            assert pair_sub == {w: pair_full[w] for w in ("w2", "w5")}

    def test_top_n_selects_most_frequent(self):
        rng = np.random.default_rng(9)
        base = random_unit_rows(rng, 4, 4)
        counts = np.array([[10, 1, 7, 2], [10, 1, 7, 2]])
        model = make_model(["a", "b", "c", "d"], [1600, 1650], base, np.zeros((2, 4, 4)), slot_counts=counts)
        series = analysis.pairwise_self_similarity(model, top_n=2)
        assert set(measured(model, series)[0]) == {"a", "c"}

    def test_pair_scope_ranks_per_slot_pair(self):
        rng = np.random.default_rng(10)
        base = random_unit_rows(rng, 3, 4)
        # "a" dominates the first pair, "b" the second; "c" is always rare
        counts = np.array([[90, 5, 1], [90, 90, 1], [5, 90, 1]])
        model = make_model(["a", "b", "c"], [1600, 1650, 1700], base, np.zeros((3, 3, 4)), slot_counts=counts)
        series = analysis.pairwise_self_similarity(model, top_n=1, frequency_scope="pair")
        assert set(measured(model, series)[0]) == {"a"}
        assert set(measured(model, series)[1]) == {"b"}

    def test_top_n_out_of_range(self):
        model = make_model(["a"], [1600, 1650], np.ones((1, 2)), np.zeros((2, 1, 2)))
        with pytest.raises(ValueError):
            analysis.pairwise_self_similarity(model, top_n=5)

    def test_unknown_scope_rejected(self):
        model = make_model(["a"], [1600, 1650], np.ones((1, 2)), np.zeros((2, 1, 2)))
        with pytest.raises(ValueError):
            analysis.pairwise_self_similarity(model, top_n=1, frequency_scope="slotwise")

    def test_pair_with_no_shared_word_warns_and_is_left_out(self, caplog):
        counts = np.array([[5, 5], [5, 0], [0, 5], [5, 5]])  # slots 1 and 2 share no word
        model = make_model(["a", "b"], [1600, 1650, 1700, 1750], np.eye(2), np.zeros((4, 2, 2)), slot_counts=counts)
        with caplog.at_level("WARNING", logger="verseshift.analysis"):
            series = analysis.pairwise_self_similarity(model, top_n=2)
        assert [(a.start, b.start) for a, b in series.pairs] == [(1600, 1650), (1700, 1750)]
        assert [r.tolist() for r in series.rows] == [[0], [1]]
        assert caplog.messages == ["no words shared by slots 1650-1700 and 1700-1750; dropping the pair"]

    @pytest.mark.parametrize("scope", ["global", "pair"])
    def test_no_measurable_pair_names_the_cause(self, scope):
        counts = np.array([[5, 0], [0, 5], [5, 0]])
        model = make_model(["a", "b"], [1600, 1650, 1700], np.eye(2), np.zeros((3, 2, 2)), slot_counts=counts)
        with pytest.raises(ValueError, match="no adjacent slot pair shares a measured word"):
            analysis.pairwise_self_similarity(model, top_n=2, frequency_scope=scope)


class TestPairwiseSelfSimBlocks:
    """The row-blocked pair cosines equal the all-at-once ones bit for bit, in bounded memory."""

    @pytest.mark.parametrize("scope", ["global", "pair"])
    @pytest.mark.parametrize("n_measured", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_rows_and_cosines_bit_equal_to_unblocked(self, n_measured, scope):
        rng = np.random.default_rng(n_measured)
        n_words, n_slots = n_measured + 5, 5
        counts = rng.integers(1, 100, size=(n_slots, n_words))  # a shuffled frequency order
        unmeasured = rng.choice(n_words, size=5, replace=False)
        counts[1::2, unmeasured] = 0  # absent from every other slot, so from one slot of every pair
        model = make_model(
            [f"w{i}" for i in range(n_words)], [1600 + 50 * t for t in range(n_slots)],
            rng.normal(size=(n_words, 8)), rng.normal(scale=0.3, size=(n_slots, n_words, 8)), slot_counts=counts,
        )
        series = analysis.pairwise_self_similarity(model, top_n=n_words, frequency_scope=scope)
        want = selfsim_unblocked(model, n_words, scope)
        assert len(series.pairs) == len(want) == n_slots - 1
        for rows, cosines, (want_rows, want_cosines) in zip(series.rows, series.cosines, want):
            assert rows.size == n_measured
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(cosines, want_cosines)

    @pytest.mark.parametrize("scope", ["global", "pair"])
    def test_working_memory_is_one_block(self, scope):
        model = stack_model()
        stack = model.deltas.size * 8  # every word's float64 vector in every slot
        series, extra = working_bytes(
            lambda: analysis.pairwise_self_similarity(model, top_n=len(model.vocab), frequency_scope=scope)
        )
        assert all(rows.size == len(model.vocab) for rows in series.rows)
        # two slots' vectors of one block and a pair's cosines: about 0.016 of the stack
        assert extra < 0.05 * stack


class TestChangePoints:
    def test_single_dip(self):
        series = series_from_medians([0.9, 0.8, 0.9])
        points = analysis.detect_change_points(series, 3)
        # dip at the middle pair; year labels the later slot of that pair
        assert points == [(1700, pytest.approx(0.1))]

    def test_monotone_has_no_change_points(self):
        series = series_from_medians([0.5, 0.6, 0.7, 0.8])
        assert analysis.detect_change_points(series, 3) == []

    def test_boundary_minima_excluded(self):
        series = series_from_medians([0.1, 0.9, 0.8, 0.9, 0.1])
        points = analysis.detect_change_points(series, 5)
        assert [year for year, _ in points] == [1750]

    def test_two_dips_ranked_by_depth(self):
        series = series_from_medians([0.9, 0.6, 0.9, 0.75, 0.9])
        points = analysis.detect_change_points(series, 5)
        assert [year for year, _ in points] == [1700, 1800]
        assert points[0][1] == pytest.approx(0.3)
        assert points[1][1] == pytest.approx(0.15)

    def test_k_truncates(self):
        series = series_from_medians([0.9, 0.6, 0.9, 0.75, 0.9])
        assert len(analysis.detect_change_points(series, 1)) == 1

    def test_depth_ties_break_by_earlier_year(self):
        series = series_from_medians([0.9, 0.7, 0.9, 0.7, 0.9])
        points = analysis.detect_change_points(series, 5)
        assert [year for year, _ in points] == [1700, 1800]

    def test_needs_three_pairs(self):
        series = series_from_medians([0.9, 0.8])
        with pytest.raises(ValueError):
            analysis.detect_change_points(series, 1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-500, 500), min_size=3, max_size=10),
        st.integers(-2000, 2000),
    )
    # equal dips at 1800 and 1900 whose float depths differ in the last bits, in opposite directions
    @example([4, 2, 2, -1, 2, -2, 0, -1, -5], -1821)
    def test_invariant_under_constant_shift(self, grid, shift_grid):
        # a millicosine grid keeps median differences far above float absorption
        medians = [g / 1000 for g in grid]
        shift = shift_grid / 1000
        base_points = analysis.detect_change_points(series_from_medians(medians), 10)
        moved_points = analysis.detect_change_points(
            series_from_medians([m + shift for m in medians]), 10
        )
        assert [y for y, _ in base_points] == [y for y, _ in moved_points]
        for (_, d1), (_, d2) in zip(base_points, moved_points):
            assert d1 == pytest.approx(d2, abs=1e-9)


def total_model(rng, n_words=6, n_slots=4, delta_scale=0.15, counts=None):
    words = [f"w{i}" for i in range(n_words)]
    base = random_unit_rows(rng, n_words, 8)
    deltas = rng.normal(scale=delta_scale, size=(n_slots, n_words, 8))
    starts = [1600 + 50 * i for i in range(n_slots)]
    return make_model(words, starts, base, deltas, slot_counts=counts)


class TestTotalSelfSim:
    def test_two_slots_single_distance(self):
        model = total_model(np.random.default_rng(1), n_slots=2)
        total = analysis.total_self_similarity(model, min_per_slot=1)
        assert total.distances == [50]

    def test_identical_vectors_mean_one(self):
        rng = np.random.default_rng(2)
        model = total_model(rng, delta_scale=0.0)
        total = analysis.total_self_similarity(model, min_per_slot=1)
        assert np.allclose(total.word_means, 1.0, atol=1e-6)

    def test_no_eligible_words_errors(self):
        model = total_model(np.random.default_rng(3))
        with pytest.raises(ValueError):
            analysis.total_self_similarity(model, min_per_slot=100)

    def test_stopwords_removed(self):
        model = total_model(np.random.default_rng(4))
        total = analysis.total_self_similarity(model, min_per_slot=1, stopwords=frozenset({"w0"}))
        assert "w0" not in total.words

    def test_threshold_applies_to_every_slot(self):
        counts = np.full((4, 6), 60)
        counts[2, 1] = 10  # w1 fails in one slot
        model = total_model(np.random.default_rng(5), counts=counts)
        total = analysis.total_self_similarity(model, min_per_slot=50)
        assert "w1" not in total.words
        assert len(total.words) == 5

    def test_sliding_distances_are_step_multiples(self):
        rng = np.random.default_rng(6)
        words = ["a", "b", "c"]
        base = random_unit_rows(rng, 3, 6)
        starts = [1575 + 25 * i for i in range(5)]
        model = make_model(words, starts, base, rng.normal(scale=0.1, size=(5, 3, 6)))
        total = analysis.total_self_similarity(model, min_per_slot=1)
        assert total.distances == [25, 50, 75, 100]

    def test_unordered_pairs_counted_once(self):
        # 4 slots at 50-year spacing: distances 50 (3 pairs), 100 (2), 150 (1)
        model = total_model(np.random.default_rng(7))
        total = analysis.total_self_similarity(model, min_per_slot=1)
        assert total.distances == [50, 100, 150]
        assert total.word_means.shape == (6, 3)


class TestTotalSelfSimBlocks:
    """The row-blocked word means equal the all-at-once ones bit for bit, in bounded memory."""

    @pytest.mark.parametrize("n_eligible", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_word_means_bit_equal_to_unblocked(self, n_eligible):
        rng = np.random.default_rng(n_eligible)
        n_words, n_slots = n_eligible + 5, 6
        counts = np.full((n_slots, n_words), 60)
        ineligible = rng.choice(n_words, size=5, replace=False)
        counts[rng.integers(0, n_slots, 5), ineligible] = 49  # each misses the threshold in one slot
        starts = [1575 + 25 * t for t in range(n_slots)]  # sliding: several pairs share a distance
        model = make_model(
            [f"w{i}" for i in range(n_words)], starts,
            rng.normal(size=(n_words, 8)), rng.normal(scale=0.3, size=(n_slots, n_words, 8)), slot_counts=counts,
        )
        total = analysis.total_self_similarity(model, min_per_slot=50)
        assert total.word_indices.tolist() == sorted(set(range(n_words)) - set(ineligible.tolist()))
        assert np.array_equal(total.word_means, total_word_means_unblocked(model, total.word_indices))

    def test_working_memory_is_one_block(self):
        model = stack_model()
        stack = model.deltas.size * 8  # every word's float64 vector in every slot
        total, extra = working_bytes(lambda: analysis.total_self_similarity(model, min_per_slot=50))
        assert len(total.words) == len(model.vocab)
        # one block of S * ROW_BLOCK vectors and the (words, distances) sums: about 0.09 of the stack
        assert extra < 0.2 * stack


class TestFrequencyBands:
    def _total(self, counts, words=None):
        n = len(counts)
        words = words or [f"w{i}" for i in range(n)]
        return analysis.TotalSelfSim(
            distances=[50, 100],
            words=words,
            word_indices=np.arange(n),
            global_counts=np.array(counts),
            word_means=np.tile(np.linspace(0.9, 0.8, 2), (n, 1)),
            summaries=summary_list([0.85, 0.84]),
        )

    def test_even_split(self):
        bands = analysis.frequency_bands(self._total([10, 20, 30, 40]))
        assert bands.band_of == {"w0": "low", "w1": "low", "w2": "high", "w3": "high"}

    def test_odd_median_goes_low(self):
        bands = analysis.frequency_bands(self._total([10, 20, 30, 40, 50]))
        assert [w for w, b in bands.band_of.items() if b == "low"] == ["w0", "w1", "w2"]

    def test_all_equal_counts_split_by_index(self):
        bands = analysis.frequency_bands(self._total([7, 7, 7, 7]))
        assert bands.band_of == {"w0": "low", "w1": "low", "w2": "high", "w3": "high"}

    def test_needs_two_words(self):
        with pytest.raises(ValueError):
            analysis.frequency_bands(self._total([5]))

    def test_band_summaries_cover_distances(self):
        bands = analysis.frequency_bands(self._total([1, 2, 3, 4]))
        assert len(bands.summaries["low"]) == 2
        assert len(bands.summaries["high"]) == 2


class TestLinearityFit:
    def _total(self, distances, means):
        return analysis.TotalSelfSim(
            distances=list(distances),
            words=["w"],
            word_indices=np.array([0]),
            global_counts=np.array([1]),
            word_means=np.array([means]),
            summaries=summary_list(means),
        )

    def test_exact_line(self):
        distances = [50, 100, 150, 200]
        means = [0.9 - 0.001 * d for d in distances]
        fit = analysis.linearity_fit(self._total(distances, means))
        assert fit.slope == pytest.approx(-0.001, abs=1e-12)
        assert fit.intercept == pytest.approx(0.9, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_means(self):
        fit = analysis.linearity_fit(self._total([50, 100, 150], [0.8, 0.8, 0.8]))
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0

    def test_matches_polyfit_oracle(self):
        from _oracles import ols_fit

        rng = np.random.default_rng(12)
        distances = [25, 50, 75, 100, 125]
        means = list(0.95 - 0.0008 * np.array(distances) + rng.normal(scale=0.01, size=5))
        fit = analysis.linearity_fit(self._total(distances, means))
        slope, intercept, r2 = ols_fit(distances, means)
        assert fit.slope == pytest.approx(slope, rel=1e-9)
        assert fit.intercept == pytest.approx(intercept, rel=1e-9)
        assert fit.r_squared == pytest.approx(r2, rel=1e-9)

    def test_needs_three_distances(self):
        with pytest.raises(ValueError):
            analysis.linearity_fit(self._total([50, 100], [0.9, 0.8]))


def analysis_steps(model, target):
    """Every caller of ``slot_blocks``, one callable each: selfsim and changepoints over every word in both
    frequency scopes, totalsim, tropes and the nearest neighbors of ``target``."""
    n_words = len(model.vocab)
    return [
        lambda: analysis.detect_change_points(analysis.pairwise_self_similarity(model, top_n=n_words), 3),
        lambda: analysis.pairwise_self_similarity(model, top_n=n_words, frequency_scope="pair"),
        lambda: analysis.total_self_similarity(model, min_per_slot=1),
        lambda: tropes.build_trajectories(model, target),
        lambda: model.nearest_neighbors(target, 0, 5),
    ]


def resident_kb() -> int | None:
    """Resident pages of this process in kB: file pages (RssFile, plus RssShmem for a tmpfs) and anonymous
    pages (RssAnon), so a read into a buffer counts as a mapped page does; None without RssFile."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
    except OSError:
        return None
    if "RssFile" not in fields or "RssAnon" not in fields:
        return None
    return sum(int(fields[key].split()[0]) for key in ("RssFile", "RssShmem", "RssAnon") if key in fields)


LOAD_GROWTH = """
import sys
from test_analysis import resident_kb
from verseshift import trainer
before = resident_kb()
model = trainer.load_model(sys.argv[1])
print(resident_kb() - before)
"""


class TestModelResidency:
    def test_loaded_model_keeps_a_quarter_of_its_matrices_resident_at_most(self, tmp_path):
        if resident_kb() is None:
            pytest.skip("/proc/self/status has no RssFile or RssAnon")
        n_words, n_slots = 25_000, 8
        model = random_model(n_words, n_slots, 50, 15, slot_counts=np.full((n_slots, n_words), 60),
                             global_counts=np.full(n_words, 800))
        matrix_bytes = model.base.nbytes + model.deltas.nbytes + model.context.nbytes
        assert matrix_bytes >= 40_000_000
        trainer.save_model(model, tmp_path / "model.bin")
        del model
        before = resident_kb()
        loaded = trainer.load_model(tmp_path / "model.bin")
        growth = [resident_kb() - before]
        for step in analysis_steps(loaded, "w0"):  # each reads every row of every slot it compares
            step()
            growth.append(resident_kb() - before)
        assert max(growth) * 1024 < matrix_bytes / 4, f"kB resident after the load and each analysis: {growth}"

    def test_load_keeps_the_count_block_once_and_no_header_page(self, tmp_path):
        if resident_kb() is None:
            pytest.skip("/proc/self/status has no RssFile or RssAnon")
        n_words, n_slots = 5000, 60
        model = random_model(n_words, n_slots, 4, 3, slot_counts=np.full((n_slots, n_words), 60),
                             global_counts=np.full(n_words, 800))
        count_bytes = n_words * (n_slots + 1) * 8
        assert count_bytes >= 2_000_000
        trainer.save_model(model, tmp_path / "model.bin")
        # a fresh process, so heap memory that earlier tests freed cannot hide a copy
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (tests.parent / "src", tests)))}
        proc = subprocess.run([sys.executable, "-c", LOAD_GROWTH, str(tmp_path / "model.bin")],
                              env=env, capture_output=True, text=True, check=True)
        growth = int(proc.stdout)
        # the words and their index take about 1 MB more; a second copy of the counts, or their pages left
        # mapped, would add count_bytes
        assert growth * 1024 < count_bytes + 2_000_000, f"kB resident after the load: {growth}"
        vocab = trainer.load_model(tmp_path / "model.bin").vocab
        assert vocab.global_counts.dtype == np.int64 and vocab.slot_counts.dtype == np.int64
        assert (vocab.slot_counts == 60).all() and (vocab.global_counts == 800).all()

    def test_model_in_memory_is_unchanged_by_the_analyses(self):
        model = stack_model()
        before = [mat.copy() for mat in (model.base, model.deltas, model.context)]
        for step in analysis_steps(model, "w0"):
            step()
        for got, want in zip((model.base, model.deltas, model.context), before):
            assert np.array_equal(got, want)
