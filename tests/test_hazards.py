"""Kernel primitives: hazard families, holding law, transition kernel, marks."""

import decimal
import math

import numpy as np
import pytest

from semitick import (
    NO_EVENT,
    BigJump,
    ConstantIntensity,
    MarkLayout,
    SaturatingIntensity,
    SLOT_MOVES,
    STATES,
    SUCCESSOR_INDEX,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
    direction_index,
    equivalent,
    successors,
)
from semitick.harness import load_config


def reference_integral(spec, y):
    """Integrated intensity on [0, y] in the closed form each family once
    carried as its own member, with its scalar path."""
    if isinstance(spec, ConstantIntensity):
        if isinstance(y, (float, int)):
            return spec.level * y
        out = spec.level * np.asarray(y, dtype=float)
    else:
        b, g, r = spec.base, spec.gain, spec.rate
        if isinstance(y, (float, int)):
            return (b + g) * y + (g / r) * math.expm1(-r * y)
        y = np.asarray(y, dtype=float)
        out = (b + g) * y + (g / r) * np.expm1(-r * y)
    return float(out) if out.ndim == 0 else out


def exact_integral(kernel, y: float) -> float:
    """Total integrated intensity on [0, y] of saturating families, in
    decimal arithmetic, rounded once; ``exp(-rate * y)`` sits within about
    y of 1, so the precision grows by two digits per decade of y below 1."""
    y = decimal.Decimal(y)
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + max(0, -2 * y.adjusted())
        total = decimal.Decimal(0)
        for spec in (kernel.continuation, kernel.reversal):
            b, g, r = (decimal.Decimal(v) for v in (spec.base, spec.gain, spec.rate))
            total += b * y + g * (y - (1 - (-r * y).exp()) / r)
        return float(total)


def reference_boundaries(layout, s):
    """Interval ends as first written: ``np.cumsum`` of the interval lengths."""
    lengths = [layout.kernel.continuation.value(s), layout.kernel.reversal.value(s)]
    lengths.extend(layout.ask_flow.value(s) * q for q in layout.ask_sizes)
    lengths.extend(layout.bid_flow.value(s) * q for q in layout.bid_sizes)
    return np.cumsum(lengths)


def reference_classify(layout, i, s, z):
    """Classification as first written: ``searchsorted`` on the cumsum ends."""
    if z < 0:
        return NO_EVENT
    bounds = reference_boundaries(layout, s)
    if z >= bounds[-1]:
        return NO_EVENT
    idx = int(np.searchsorted(bounds, z, side="right"))
    if idx == 0:
        return BigJump(next(j for j in successors(i) if alpha(j) == alpha(i)))
    if idx == 1:
        return BigJump(next(j for j in successors(i) if alpha(j) != alpha(i)))
    idx -= 2
    n_sizes = len(layout.ask_sizes)
    return SmallOrder(+1, idx) if idx < n_sizes else SmallOrder(-1, idx - n_sizes)


# (previous state, next state) -> hazard side (+1 continuation, -1 reversal),
# executed LOB side, incoming order type; every admissible transition once
TRANSITION_TABLE = [
    (1, 3, +1, -1, "sell"),
    (1, 4, -1, +1, "buy"),
    (2, 3, -1, -1, "sell"),
    (2, 4, +1, +1, "buy"),
    (3, 1, +1, -1, "sell"),
    (3, 2, -1, +1, "buy"),
    (4, 1, -1, -1, "sell"),
    (4, 2, +1, +1, "buy"),
]


class TestStateSpace:
    def test_successors_are_the_other_class(self):
        assert successors(1) == successors(2) == (3, 4)
        assert successors(3) == successors(4) == (1, 2)
        for i in (1, 2, 3, 4):
            assert len(successors(i)) == 2
            for j in successors(i):
                assert not equivalent(i, j)

    def test_alpha_signs(self):
        assert [alpha(i) for i in (1, 2, 3, 4)] == [-1, 1, -1, 1]

    def test_alpha_on_arrays_is_the_scalar_map(self):
        states = np.array([[1, 2, 3, 4], [4, 3, 2, 1]])
        got = alpha(states)
        assert got.shape == states.shape
        assert got.tolist() == [[alpha(int(i)) for i in row] for row in states]
        assert all(type(alpha(i)) is int for i in STATES)

    def test_slot_moves(self):
        # successors(i)[b] is entered on the move SLOT_MOVES[b], for every i
        assert SLOT_MOVES == (-1, +1)
        for i in STATES:
            for b, j in enumerate(successors(i)):
                assert alpha(j) == SLOT_MOVES[b]

    def test_direction_index(self):
        # a state's direction index is the slot of the move entering it, and
        # the successor entered on slot b has direction b
        for i in STATES:
            assert SLOT_MOVES[direction_index(i)] == alpha(i)
            assert [direction_index(j) for j in successors(i)] == [0, 1]
        assert direction_index(np.array(STATES)).tolist() == [0, 1, 0, 1]

    def test_successor_index(self):
        # the one successor table: successors(STATES[k])[b] is STATES[SUCCESSOR_INDEX[k, b]]
        assert SUCCESSOR_INDEX.shape == (len(STATES), len(SLOT_MOVES))
        for k, i in enumerate(STATES):
            assert tuple(STATES[j] for j in SUCCESSOR_INDEX[k]) == successors(i)
        with pytest.raises(ValueError):
            SUCCESSOR_INDEX[0, 0] = 0

    def test_direction_table(self):
        kernel = SemiMarkovKernel(ConstantIntensity(0.6), ConstantIntensity(0.4), 0.01)
        for i, j, hazard_side, lob_side, order_type in TRANSITION_TABLE:
            expected = 0.6 if hazard_side > 0 else 0.4
            assert kernel.directed_intensity(i, j, 1.7) == expected
            # continuation means the move direction repeats
            assert (alpha(i) == alpha(j)) == (hazard_side > 0)
            # the executed side and order type follow the arrival direction
            assert alpha(j) == lob_side
            assert order_type == ("buy" if alpha(j) > 0 else "sell")


class TestIntensityFamilies:
    def test_constant_eval(self):
        assert ConstantIntensity(1.0).value(5.0) == 1.0

    def test_saturating_at_zero(self):
        assert SaturatingIntensity(0.0, 2.0, 1.0).value(0.0) == 0.0

    def test_saturating_eval(self):
        got = SaturatingIntensity(0.5, 2.0, 1.0).value(1.0)
        assert got == pytest.approx(0.5 + 2.0 * (1.0 - math.exp(-1.0)), abs=1e-12)
        assert got == pytest.approx(1.76424, abs=5e-6)

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            ConstantIntensity(1.0).value(-0.1)
        with pytest.raises(ValueError):
            SaturatingIntensity(0.5, 2.0, 1.0).value(np.array([0.2, -0.3]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConstantIntensity(-1.0)
        with pytest.raises(ValueError):
            SaturatingIntensity(0.1, -0.5, 1.0)
        with pytest.raises(ValueError):
            SaturatingIntensity(0.1, 0.5, 0.0)

    def test_bounds(self):
        assert ConstantIntensity(2.0).upper_bound == 2.0
        assert SaturatingIntensity(0.5, 2.0, 3.0).upper_bound == 2.5


class TestKernelConstruction:
    def test_vanishing_total_intensity_rejected(self):
        with pytest.raises(ValueError, match="vanishes"):
            SemiMarkovKernel(ConstantIntensity(0.0), ConstantIntensity(0.0), 0.01)
        with pytest.raises(ValueError, match="vanishes"):
            SemiMarkovKernel(
                SaturatingIntensity(0.0, 1.0, 1.0),
                SaturatingIntensity(0.0, 0.5, 1.0),
                0.01,
            )

    def test_one_sided_kernel_allowed(self):
        # a single active side keeps the total law proper
        k = SemiMarkovKernel(SaturatingIntensity(0.5, 2.0, 1.0), ConstantIntensity(0.0), 0.01)
        assert k.total_intensity(1.0) == pytest.approx(1.76424, abs=5e-6)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            SemiMarkovKernel(ConstantIntensity(1.0), ConstantIntensity(1.0), 1.0)
        with pytest.raises(ValueError):
            SemiMarkovKernel(ConstantIntensity(1.0), ConstantIntensity(1.0), -0.1)
        # zero tick is allowed at kernel level for degenerate-path checks
        SemiMarkovKernel(ConstantIntensity(1.0), ConstantIntensity(1.0), 0.0)


class TestHoldingLaw:
    def test_unit_hazard_cdf(self, symmetric_kernel):
        assert symmetric_kernel.holding_cdf(1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-15
        )

    def test_cdf_at_zero(self, saturating_kernel):
        assert saturating_kernel.holding_cdf(0.0) == 0.0

    def test_asymmetric_cdf_closed_form(self):
        k = SemiMarkovKernel(ConstantIntensity(0.6), ConstantIntensity(0.4), 0.01)
        assert k.holding_cdf(2.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)

    def test_density_values(self, symmetric_kernel):
        assert symmetric_kernel.holding_pdf(0.0) == 1.0
        assert symmetric_kernel.holding_pdf(1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )

    def test_density_composes_hazard_and_survival(self):
        k = SemiMarkovKernel(SaturatingIntensity(0.5, 2.0, 1.0), ConstantIntensity(0.0), 0.01)
        expect = k.total_intensity(1.0) * (1.0 - k.holding_cdf(1.0))
        assert k.holding_pdf(1.0) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize(
        "kernel_name", ["symmetric_kernel", "asymmetric_kernel", "saturating_kernel"]
    )
    def test_cdf_shape(self, kernel_name, request):
        kernel = request.getfixturevalue(kernel_name)
        grid = np.linspace(0.0, 10.0, 500)
        cdf = kernel.holding_cdf(grid)
        assert cdf[0] == 0.0
        assert np.all(np.diff(cdf) > 0)
        assert np.all(cdf < 1.0)

    def test_density_is_cdf_derivative(self, saturating_kernel):
        grid = np.linspace(0.05, 4.0, 80)
        h = 1e-6
        numeric = (
            saturating_kernel.holding_cdf(grid + h) - saturating_kernel.holding_cdf(grid - h)
        ) / (2 * h)
        np.testing.assert_allclose(numeric, saturating_kernel.holding_pdf(grid), rtol=1e-7)


class TestIncrement:
    @pytest.mark.parametrize("kernel_name", ["symmetric_kernel", "asymmetric_kernel",
                                             "saturating_kernel"])
    def test_integrated_intensity_is_the_closed_form(self, kernel_name, request):
        # flat kernels: the increment from age zero keeps the bits of the
        # deleted closed form.  A saturating family sums phi(rate * y), which
        # is exact to a few ulps where the closed form cancels (small y), and
        # matches the closed form where it does not
        kernel = request.getfixturevalue(kernel_name)
        ys = np.concatenate([np.linspace(0.0, 50.0, 1001), [1e-300, 1e-9, 1e3, 1e6]])

        def reference(y):
            return reference_integral(kernel.continuation, y) + reference_integral(
                kernel.reversal, y
            )

        if not kernel.is_memoryless:
            exact = np.array([exact_integral(kernel, y) for y in ys.tolist()])
            got = np.asarray(kernel.integrated_intensity(ys))
            scalar = np.array([kernel.integrated_intensity(y) for y in ys.tolist()])
            for values in (got, scalar):
                assert np.all(np.abs(values - exact) <= 4.0 * np.finfo(float).eps * exact)
            big = ys >= 1.0
            np.testing.assert_allclose(got[big], reference(ys[big]), rtol=1e-15, atol=0.0)
            assert isinstance(kernel.integrated_intensity(3), float)
            return
        assert np.asarray(kernel.integrated_intensity(ys)).tobytes() == reference(ys).tobytes()
        assert np.asarray(kernel.integrated_intensity(ys[None, :])).tobytes() == (
            reference(ys[None, :]).tobytes()
        )
        for y in ys.tolist() + [0, 3]:
            got, want = kernel.integrated_intensity(y), reference(y)
            assert type(got) is type(want) and got == want, y

    @pytest.mark.parametrize("kernel_name", ["symmetric_kernel", "saturating_kernel"])
    def test_age_zero_survival_is_unchanged(self, kernel_name, request):
        # every age-zero table keeps its bits: exp(-increment(0, w)) is the
        # exp(0.0 - integral(w)) it replaced, element for element
        kernel = request.getfixturevalue(kernel_name)
        w = (1.0 / 120) * np.arange(121)
        new = np.exp(-np.asarray(kernel.integrated_increment(0.0, w)))
        old = np.exp(kernel.integrated_intensity(0.0) - np.asarray(kernel.integrated_intensity(w)))
        assert new.tobytes() == old.tobytes()
        half = 0.5 / 120
        assert math.exp(-kernel.integrated_increment(0.0, half)) == math.exp(
            kernel.integrated_intensity(0.0) - kernel.integrated_intensity(half)
        )

    @pytest.mark.parametrize("kernel_name", ["symmetric_kernel", "saturating_kernel"])
    def test_broadcasts_like_the_scalar_path(self, kernel_name, request):
        kernel = request.getfixturevalue(kernel_name)
        s0 = np.array([0.0, 0.4, 30.0, 1e15])
        w = np.array([0.0, 1e-9, 0.25, 2.0, 7.0])
        grid = kernel.integrated_increment(s0[:, None], w)
        assert grid.shape == (4, 5)
        for a, s in enumerate(s0.tolist()):
            for b, width in enumerate(w.tolist()):
                scalar = kernel.integrated_increment(s, width)
                assert isinstance(scalar, float)
                assert grid[a, b] == pytest.approx(scalar, rel=1e-15, abs=0.0)


class TestTransitionKernel:
    def test_symmetric_is_half(self, symmetric_kernel):
        for i, j, *_ in TRANSITION_TABLE:
            assert symmetric_kernel.transition_prob(i, j, 2.3) == 0.5

    def test_asymmetric_continuation(self):
        k = SemiMarkovKernel(ConstantIntensity(0.6), ConstantIntensity(0.4), 0.01)
        assert k.transition_prob(2, 4, 0.9) == pytest.approx(0.6, abs=1e-15)
        assert k.transition_prob(1, 4, 0.9) == pytest.approx(0.4, abs=1e-15)

    def test_equivalent_transition_rejected(self, symmetric_kernel):
        with pytest.raises(ValueError, match="equivalent"):
            symmetric_kernel.transition_prob(1, 2, 1.0)
        with pytest.raises(ValueError, match="equivalent"):
            symmetric_kernel.directed_intensity(3, 3, 1.0)

    @pytest.mark.parametrize(
        "kernel_name", ["symmetric_kernel", "asymmetric_kernel", "saturating_kernel"]
    )
    def test_probabilities_sum_to_one(self, kernel_name, request):
        kernel = request.getfixturevalue(kernel_name)
        grid = np.linspace(0.0, 8.0, 200)
        for i in (1, 2, 3, 4):
            total = sum(kernel.transition_prob(i, j, grid) for j in successors(i))
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "kernel_name", ["symmetric_kernel", "asymmetric_kernel", "saturating_kernel"]
    )
    def test_density_kernel_identity(self, kernel_name, request):
        # f(y) p_ij(y) / (1 - F(y)) recovers the directed intensity
        kernel = request.getfixturevalue(kernel_name)
        grid = np.linspace(0.0, 8.0, 200)
        surv = 1.0 - kernel.holding_cdf(grid)
        for i, j, *_ in TRANSITION_TABLE:
            lhs = kernel.holding_pdf(grid) * kernel.transition_prob(i, j, grid) / surv
            rhs = kernel.directed_intensity(i, j, grid)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMarkLayout:
    def test_size_distribution_must_normalise(self, symmetric_kernel):
        with pytest.raises(ValueError, match="sum to 1"):
            MarkLayout(
                symmetric_kernel,
                ConstantIntensity(1.0),
                ConstantIntensity(1.0),
                (0.4, 0.5),
                (0.5, 0.5),
            )

    def test_negative_probability_rejected(self, symmetric_kernel):
        with pytest.raises(ValueError, match="negative"):
            MarkLayout(
                symmetric_kernel,
                ConstantIntensity(1.0),
                ConstantIntensity(1.0),
                (1.2, -0.2),
                (0.5, 0.5),
            )

    def test_classify_examples(self, symmetric_layout):
        # continuation interval first: from state 2 it leads to state 4
        assert symmetric_layout.classify(2, 0.0, 0.25) == BigJump(4)
        assert symmetric_layout.classify(2, 0.0, 0.75) == BigJump(3)
        assert symmetric_layout.classify(2, 0.0, 1e9) is NO_EVENT
        assert symmetric_layout.classify(2, 0.0, -0.5) is NO_EVENT

    def test_classify_small_orders(self, symmetric_layout):
        # beyond the two big intervals (total 1.0): ask sizes 0..3 then bid
        assert symmetric_layout.classify(1, 0.0, 1.05) == SmallOrder(+1, 0)
        assert symmetric_layout.classify(1, 0.0, 1.35) == SmallOrder(+1, 1)
        assert symmetric_layout.classify(1, 0.0, 2.05) == SmallOrder(-1, 0)
        # zero-size execution is a legitimate no-op event
        assert symmetric_layout.classify(1, 0.0, 1.0).units == 0

    def test_mass_bound(self, saturating_layout):
        ages = np.linspace(0.0, 6.0, 50)
        for s in ages:
            assert saturating_layout.total_mass(s) <= saturating_layout.mark_domain + 1e-12

    @pytest.mark.parametrize(
        "layout_name", ["symmetric_layout", "asymmetric_layout", "saturating_layout"]
    )
    def test_partition_lengths(self, layout_name, request):
        # sweep the mark axis, bisect each classification change to 1e-12,
        # and compare segment lengths with the analytic interval lengths
        layout = request.getfixturevalue(layout_name)
        kernel = layout.kernel
        for s in (0.0, 0.7, 2.4):
            total = layout.total_mass(s)
            tags, bounds = [], []
            z_lo, tag_lo = 0.0, layout.classify(2, s, 0.0)
            sweep = np.linspace(0.0, total + 0.5, 20001)[1:]
            for z in sweep:
                tag = layout.classify(2, s, z)
                if tag != tag_lo:
                    lo, hi = z_lo, z
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        if layout.classify(2, s, mid) == tag_lo:
                            lo = mid
                        else:
                            hi = mid
                    tags.append(tag_lo)
                    bounds.append(0.5 * (lo + hi))
                    tag_lo = tag
                z_lo = z
            lengths = np.diff(np.concatenate([[0.0], bounds]))
            expected = [
                (BigJump(4), kernel.continuation.value(s)),
                (BigJump(3), kernel.reversal.value(s)),
            ]
            lam_a = layout.ask_flow.value(s)
            for k, q in enumerate(layout.ask_sizes):
                expected.append((SmallOrder(+1, k), lam_a * q))
            lam_b = layout.bid_flow.value(s)
            for k, q in enumerate(layout.bid_sizes):
                expected.append((SmallOrder(-1, k), lam_b * q))
            expected = [(tag, ln) for tag, ln in expected if ln > 0]
            assert tags == [tag for tag, _ in expected]
            np.testing.assert_allclose(lengths, [ln for _, ln in expected], atol=1e-9)

    @pytest.mark.parametrize("preset", ["asymmetric-constant", "saturating-hazard"])
    def test_classify_matches_cumsum_search(self, preset):
        layout = load_config(preset).layout
        rng = np.random.default_rng(8)
        ages = rng.random(3000) * 4.0
        zs = rng.uniform(-0.5, layout.mark_domain + 0.5, 3000)
        states = rng.integers(1, 5, 3000)
        for k, (i, s) in enumerate(zip(states.tolist(), ages.tolist())):
            ends = reference_boundaries(layout, s)
            # exactly on an interval end, at and past the total mass, below zero
            zs[k] = (ends[k % len(ends)], layout.total_mass(s), ends[-1], -1e-300, zs[k])[k % 5]
        for i, s, z in zip(states.tolist(), ages.tolist(), zs.tolist()):
            assert layout.classify(i, s, z) == reference_classify(layout, i, s, z), (i, s, z)
            np.testing.assert_array_equal(layout.boundaries(s), reference_boundaries(layout, s))

    def test_immutability(self, symmetric_kernel, symmetric_layout):
        with pytest.raises(Exception):
            symmetric_kernel.delta = 0.5
        with pytest.raises(Exception):
            symmetric_layout.ask_sizes = (1.0,)
