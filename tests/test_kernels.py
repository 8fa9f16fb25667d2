"""Kernel-backend suite: registry semantics and strict bitwise parity.

The backend contract is bit-identity, not approximate equality: every
registered backend must produce IEEE-754-identical outputs to the
``reference`` backend on every hot kernel, and every registered GAR's
batched path must produce identical aggregates under every backend.
``numpy.testing`` helpers are deliberately avoided — the assertions
compare raw bytes via ``==`` on full arrays.
"""

import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import available_rules, get_rule
from repro.campaign.spec import ScenarioSpec
from repro.kernels import (
    DEFAULT_BACKEND,
    ENV_VAR,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.kernels import base as kernel_base
from repro.kernels.registry import _FACTORIES, _INSTANCES
from repro.nn.models import MLP, SoftmaxRegression


def _identical(left, right) -> bool:
    left = np.asarray(left)
    right = np.asarray(right)
    return left.shape == right.shape and bool(np.all(left == right))


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_reference_and_numpy_opt_are_registered(self):
        assert "reference" in available_backends()
        assert "numpy-opt" in available_backends()
        assert DEFAULT_BACKEND == "reference"

    def test_unknown_backend_raises_with_available_list(self):
        with pytest.raises(ValueError, match="numpy-opt"):
            get_backend("not-a-backend")

    def test_backends_are_singletons(self):
        assert get_backend("reference") is get_backend("reference")
        assert get_backend("numpy-opt") is get_backend("numpy-opt")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy-opt")
        assert get_backend().name == "numpy-opt"
        monkeypatch.delenv(ENV_VAR)
        assert get_backend().name == DEFAULT_BACKEND

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        set_backend("numpy-opt")
        try:
            assert get_backend().name == "numpy-opt"
        finally:
            set_backend(None)
        assert get_backend().name == "reference"

    def test_use_backend_restores_on_exit(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert get_backend().name == DEFAULT_BACKEND
        with use_backend("numpy-opt") as backend:
            assert backend.name == "numpy-opt"
            assert get_backend().name == "numpy-opt"
        assert get_backend().name == DEFAULT_BACKEND

    def test_use_backend_none_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with use_backend(None) as backend:
            assert backend.name == DEFAULT_BACKEND

    def test_use_backend_none_resolves_the_env_var_once(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy-opt")
        with use_backend(None) as backend:
            assert backend.name == "numpy-opt"
            monkeypatch.setenv(ENV_VAR, "reference")
            assert get_backend().name == "numpy-opt"  # pinned for the scope
        assert get_backend().name == "reference"

    def test_use_backend_rejects_unknown_before_switching(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(ValueError):
            with use_backend("bogus"):
                pass  # pragma: no cover - must not be reached
        assert get_backend().name == DEFAULT_BACKEND

    def test_register_backend_round_trip(self):
        class _Probe(KernelBackend):
            name = "probe"

        register_backend("probe", _Probe)
        try:
            assert "probe" in available_backends()
            assert isinstance(get_backend("probe"), _Probe)
        finally:
            _FACTORIES.pop("probe", None)
            _INSTANCES.pop("probe", None)


# --------------------------------------------------------------------------- #
# The shared sort-based median against np.median
# --------------------------------------------------------------------------- #
def _median_inputs(rng, q, dimension=48):
    """``(q, D)`` draws covering what reaches the kernel: plain doubles,
    ties, signed zeros, infinities of both signs (alone and opposed) and
    columns containing NaN — ``global_parameters()`` of a diverged run
    hands its θ stack over unvalidated."""
    plain = rng.normal(size=(q, dimension))
    ties = rng.integers(-2, 3, size=(q, dimension)).astype(np.float64)
    zeros = np.where(rng.random((q, dimension)) < 0.5, 0.0, -0.0)
    infinite = plain.copy()
    infinite[rng.random((q, dimension)) < 0.3] = np.inf
    infinite[rng.random((q, dimension)) < 0.3] = -np.inf
    missing = plain.copy()
    missing[rng.integers(0, q, size=dimension // 2),
            rng.integers(0, dimension, size=dimension // 2)] = np.nan
    mixed = infinite.copy()
    mixed[rng.random((q, dimension)) < 0.1] = np.nan
    return {"plain": plain, "ties": ties, "signed_zeros": zeros,
            "infinite": infinite, "nan_columns": missing, "mixed": mixed}


class TestMedianKernel:
    """One sort-based kernel for both backends; ``np.median`` is the oracle."""

    @pytest.mark.parametrize("q", [1, 2, 3, 6, 7, 24, 25])
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_equals_np_median_on_both_layouts(self, backend_name, q):
        backend = get_backend(backend_name)
        rng = np.random.default_rng(100 + q)
        # inf - inf in an even-length middle is NaN under both; only the
        # floating-point flag is noise.
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for label, stacked in _median_inputs(rng, q).items():
                # axis 0 on (q, D): the sequential call sites
                got = backend.median(stacked, axis=0)
                assert np.array_equal(got, np.median(stacked, axis=0),
                                      equal_nan=True), (label, "axis 0")
                # axis 1 on (R, q, D): the batched call sites
                replicas = np.stack([stacked, stacked[::-1],
                                     rng.permutation(stacked)])
                got = backend.median(replicas, axis=1)
                assert got.shape == (3, stacked.shape[1])
                assert np.array_equal(got, np.median(replicas, axis=1),
                                      equal_nan=True), (label, "axis 1")
                assert np.array_equal(backend.median(replicas, axis=-2), got,
                                      equal_nan=True), (label, "axis -2")

    def test_nan_propagates_like_np_median(self):
        stacked = np.array([[1.0, np.nan, 3.0], [2.0, 5.0, np.nan],
                            [9.0, 4.0, 1.0]])
        got = get_backend().median(stacked, axis=0)
        assert got[0] == 2.0 and np.isnan(got[1]) and np.isnan(got[2])

    def test_opposed_infinities_make_nan_on_even_length(self):
        stacked = np.array([[-np.inf], [np.inf]])
        with np.errstate(invalid="ignore"):
            assert np.isnan(get_backend().median(stacked, axis=0)[0])

    def test_input_is_not_modified(self):
        stacked = np.random.default_rng(3).normal(size=(7, 11))
        before = stacked.copy()
        get_backend().median(stacked, axis=0)
        assert np.array_equal(stacked, before)

    def test_backends_share_the_reductions(self):
        # ... and the single-stack Gram kernel, which is the batched one
        # at R = 1.
        for name in ("reference", "numpy-opt"):
            backend_type = type(get_backend(name))
            for method in ("mean", "trimmed_mean", "median",
                           "pairwise_squared_distances"):
                assert getattr(backend_type, method) \
                    is getattr(KernelBackend, method), (name, method)


# --------------------------------------------------------------------------- #
# The width-gated comparator network behind median and trimmed_mean
# --------------------------------------------------------------------------- #
def _sorted_trimmed_mean(stacked, trim, axis):
    """Sort the whole axis, mean the middle slice: the reference."""
    if trim == 0:
        return stacked.mean(axis=axis)
    window = [slice(None)] * stacked.ndim
    window[axis] = slice(trim, -trim)
    return np.sort(stacked, axis=axis)[tuple(window)].mean(axis=axis)


@st.composite
def order_statistic_draws(draw):
    """A ``(q, W)`` stack for ``axis=0`` or an ``(S, q, W)`` one for
    ``axis=1``, from one ``_median_inputs`` family, with the row width
    (``S * W``) at D = 36 or on either side of one of the network's two
    gates."""
    q = draw(st.integers(1, 25))
    axis = draw(st.sampled_from([0, 1]))
    gate = draw(st.sampled_from([kernel_base.MEDIAN_MIN_WIDTH,
                                 kernel_base.TRIMMED_MEAN_MIN_WIDTH]))
    slices = draw(st.sampled_from([1, 2, 3, gate + 3])) if axis == 1 else 1
    if slices > gate:  # W = 1: the mean reduces along the innermost axis
        columns = 1
    else:
        columns = draw(st.sampled_from(
            [36, -(-gate // slices) - 1, -(-gate // slices), gate + 37]))
    family = draw(st.sampled_from(
        ["plain", "ties", "signed_zeros", "infinite", "nan_columns", "mixed"]))
    trim = draw(st.integers(0, (q - 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    flat = _median_inputs(rng, q, slices * columns)[family]
    if axis == 0:
        return flat, axis, trim
    stacked = flat.reshape(q, slices, columns).transpose(1, 0, 2)
    return np.ascontiguousarray(stacked), axis, trim


class TestOrderStatisticNetwork:
    """The pruned Batcher network selects exactly what the sort does."""

    @pytest.mark.parametrize("q", list(kernel_base.NETWORK_LENGTHS))
    def test_every_plan_selects_its_ranks_on_all_zero_one_inputs(self, q):
        # The 0-1 principle: a comparator network that puts the right value
        # at a rank for every 0/1 input does so for every input.
        columns = np.arange(2 ** q)
        zero_one = ((columns[None, :] >> np.arange(q)[:, None]) & 1) * 1.0
        ordered = np.sort(zero_one, axis=0)
        half = q // 2
        wanted = [tuple(range(q)), (half,) if q % 2 else (half - 1, half)]
        wanted += [tuple(range(trim, q - trim))
                   for trim in range(1, (q + 1) // 2)]
        for ranks in wanted:
            for lower in (np.minimum, np.fmin):
                got = kernel_base.network_ranks(zero_one, 0, ranks, lower)
                for rank, values in zip(ranks, got):
                    assert np.array_equal(values, ordered[rank]), (ranks, rank)

    def test_plans_are_pruned_to_their_ranks(self):
        full = kernel_base.selection_plan(7, tuple(range(7)))
        median = kernel_base.selection_plan(7, (3,))
        assert len(full) == 16  # Batcher's odd-even merge sort on 7 wires
        assert len(median) < len(full)
        assert sum(keep_min + keep_max for _, _, keep_min, keep_max
                   in median) < 2 * len(median)

    # No max_examples here: the weekly workflow runs this test under the
    # "weekly" profile of tests/conftest.py, ten times the default budget.
    @settings(deadline=None)
    @given(order_statistic_draws())
    def test_equals_the_sort_path_on_both_sides_of_the_gate(self, drawn):
        stacked, axis, trim = drawn
        backend = get_backend()
        q = stacked.shape[axis]
        width = stacked.size // q
        before = stacked.copy()
        spy = mock.patch.object(kernel_base, "network_ranks",
                                wraps=kernel_base.network_ranks)
        with spy as network, np.errstate(invalid="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            first = backend.median(stacked, axis=axis)
            second = backend.median(stacked, axis=axis)
            median_calls = network.call_count
            trimmed = backend.trimmed_mean(stacked, trim, axis=axis)
            trimmed_again = backend.trimmed_mean(stacked, trim, axis=axis)
            want_median = np.median(stacked, axis=axis)
            want_trimmed = _sorted_trimmed_mean(stacked, trim, axis)

        assert np.array_equal(first, want_median, equal_nan=True)
        assert np.array_equal(trimmed, want_trimmed, equal_nan=True)
        assert np.array_equal(stacked, before, equal_nan=True)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(trimmed, trimmed_again)
        assert not np.shares_memory(first, stacked)

        lengths = kernel_base.NETWORK_LENGTHS
        median_network = (q in lengths
                          and width >= kernel_base.MEDIAN_MIN_WIDTH)
        trimmed_network = (q in lengths and trim > 0
                           and width >= kernel_base.TRIMMED_MEAN_MIN_WIDTH)
        assert median_calls == (2 if median_network else 0)
        assert network.call_count == median_calls + (
            2 if trimmed_network else 0)
        # not a view that keeps the scratch block alive
        if median_network:
            assert first.base is None
        if trimmed_network:
            assert trimmed.base is None
        if stacked.shape[-1] == 36:
            assert network.call_count == 0

    def test_gates_route_the_seed_group_folds(self):
        # seed_sweep folds 16 seeds x 9 nodes (and 16 x 6) onto q = 5 or 7
        # at D = 36: wide enough for the median's gate, not the trimmed
        # mean's.  One 16-seed node, 576 elements a row, stays on the sort.
        rng = np.random.default_rng(10)
        backend = get_backend()
        spy = mock.patch.object(kernel_base, "network_ranks",
                                wraps=kernel_base.network_ranks)
        for shape, median_calls in (((144, 5, 36), 1), ((96, 7, 36), 1),
                                    ((16, 5, 36), 0)):
            stacked = rng.normal(size=shape)
            with spy as network:
                median = backend.median(stacked, axis=1)
                trimmed = backend.trimmed_mean(stacked, 1, axis=1)
            assert network.call_count == median_calls, shape
            assert np.array_equal(median, np.median(stacked, axis=1))
            assert np.array_equal(trimmed,
                                  _sorted_trimmed_mean(stacked, 1, 1))

    def test_trimmed_mean_reduces_in_the_sort_paths_order(self):
        # With one column the mean's reduction runs along the innermost
        # axis, where NumPy sums pairwise: the middle ranks must be laid
        # out as the sorted slice is, or the last bits differ.
        rng = np.random.default_rng(8)
        stacked = rng.normal(
            size=(kernel_base.TRIMMED_MEAN_MIN_WIDTH + 3, 16, 1))
        stacked *= 10.0 ** rng.integers(-6, 6, size=stacked.shape)
        got = get_backend().trimmed_mean(stacked, 1, axis=1)
        want = _sorted_trimmed_mean(stacked, 1, 1)
        assert got.tobytes() == want.tobytes()

    def test_nan_poisons_the_median_and_sorts_last_in_the_trimmed_mean(self):
        width = kernel_base.TRIMMED_MEAN_MIN_WIDTH
        stacked = np.random.default_rng(9).normal(size=(7, width))
        stacked[2, 0] = np.nan  # one NaN in column 0: inside the trim
        stacked[[1, 4], 1] = np.nan  # two in column 1: one past it
        backend = get_backend()
        median = backend.median(stacked, axis=0)
        assert np.isnan(median[:2]).all() and not np.isnan(median[2:]).any()
        trimmed = backend.trimmed_mean(stacked, 1, axis=0)
        assert np.isfinite(trimmed[0]) and np.isnan(trimmed[1])
        assert np.array_equal(trimmed, _sorted_trimmed_mean(stacked, 1, 0),
                              equal_nan=True)


# --------------------------------------------------------------------------- #
# numpy-opt's scratch buffers belong to the calling thread
# --------------------------------------------------------------------------- #
class TestScratchPerThread:
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_another_threads_call_leaves_held_results_alone(self, replicas):
        # The threaded runtime's servers share the backend singleton: a
        # same-shape call on another thread between a Gram kernel and the
        # Krum sums that read it must not overwrite it.  A live server's
        # call is the R = 1 one.
        optimised = get_backend("numpy-opt").pairwise_squared_distances_batched
        reference = get_backend("reference").pairwise_squared_distances_batched
        rng = np.random.default_rng(6)
        mine, theirs = rng.normal(size=(2, replicas, 7, 40))
        held = optimised(mine)
        other = threading.Thread(target=optimised, args=(theirs,))
        other.start()
        other.join(timeout=30)
        assert not other.is_alive()
        assert _identical(held, reference(mine))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_never_writes_its_parents_block(self):
        # Campaign and lane pools fork the caller: a child that writes the
        # scratch it inherited must write its own copy of the pages.
        held = kernel_base.scratch("test.fork", (64,))
        held.fill(1.0)
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            status = 0
            try:
                held.fill(2.0)
                fresh = kernel_base.scratch("test.fork", (64,))
                fresh.fill(3.0)
                status = int(np.shares_memory(fresh, held))
            except BaseException:
                status = 2
            os._exit(status)
        _, status = os.waitpid(child, 0)
        assert os.WEXITSTATUS(status) == 0  # the child got a fresh block
        assert np.all(held == 1.0)
        assert np.shares_memory(held, kernel_base.scratch("test.fork", (64,)))


# --------------------------------------------------------------------------- #
# Aggregation parity: every registered GAR, every backend, bitwise
# --------------------------------------------------------------------------- #
def _gradient_stacks(rng, num_inputs, dimension=9, replicas=4):
    single = rng.standard_normal((num_inputs, dimension))
    batched = rng.standard_normal((replicas, num_inputs, dimension))
    return single, batched


class TestAggregationParity:
    @pytest.mark.parametrize("rule_name", sorted(available_rules()))
    @pytest.mark.parametrize("backend_name",
                             [name for name in available_backends()
                              if name != "reference"])
    def test_batched_path_matches_reference_bitwise(self, rule_name,
                                                    backend_name):
        rng = np.random.default_rng(7)
        for num_byzantine in (0, 1, 2):
            rule = get_rule(rule_name, num_byzantine=num_byzantine)
            num_inputs = max(rule.minimum_inputs(), 2 * num_byzantine + 3)
            for trial in range(5):
                single, batched = _gradient_stacks(rng, num_inputs)
                with use_backend("reference"):
                    want_single = rule.aggregate(
                        [row.copy() for row in single]).copy()
                    want_batched = rule.aggregate_batched(
                        batched.copy()).copy()
                with use_backend(backend_name):
                    got_single = rule.aggregate(
                        [row.copy() for row in single]).copy()
                    got_batched = rule.aggregate_batched(
                        batched.copy()).copy()
                assert _identical(want_single, got_single), \
                    f"{rule_name}/f={num_byzantine}: sequential aggregate " \
                    f"differs under backend '{backend_name}'"
                assert _identical(want_batched, got_batched), \
                    f"{rule_name}/f={num_byzantine}: batched aggregate " \
                    f"differs under backend '{backend_name}'"


# --------------------------------------------------------------------------- #
# Dense-kernel parity: batched forward/backward, bitwise
# --------------------------------------------------------------------------- #
class TestDenseParity:
    @pytest.mark.parametrize("backend_name",
                             [name for name in available_backends()
                              if name != "reference"])
    @pytest.mark.parametrize("template", ["softmax", "mlp"])
    def test_forward_backward_matches_reference_bitwise(self, backend_name,
                                                        template):
        from repro.nn.plan import BatchedDenseStack

        if template == "softmax":
            module = SoftmaxRegression(in_features=6, num_classes=4, seed=0)
        else:
            module = MLP(in_features=6, hidden=[8], num_classes=4, seed=0)
        stack = BatchedDenseStack(module)
        rng = np.random.default_rng(11)
        replicas, batch = 3, 5
        flat = rng.standard_normal((replicas, stack.num_parameters))
        features = rng.standard_normal((replicas, batch, 6))
        labels = rng.integers(0, 4, size=(replicas, batch))

        with use_backend("reference"):
            want_logits = stack.forward_logits(flat.copy(),
                                               features.copy()).copy()
            want_losses, want_grads = stack.forward_backward(
                flat.copy(), features.copy(), labels.copy())
            want_losses, want_grads = want_losses.copy(), want_grads.copy()
        with use_backend(backend_name):
            got_logits = stack.forward_logits(flat.copy(),
                                              features.copy()).copy()
            got_losses, got_grads = stack.forward_backward(
                flat.copy(), features.copy(), labels.copy())
            got_losses, got_grads = got_losses.copy(), got_grads.copy()

        assert _identical(want_logits, got_logits)
        assert _identical(want_losses, got_losses)
        assert _identical(want_grads, got_grads)


# --------------------------------------------------------------------------- #
# End-to-end: full scenario histories identical under every backend
# --------------------------------------------------------------------------- #
class TestScenarioParity:
    @pytest.mark.parametrize("backend_name",
                             [name for name in available_backends()
                              if name != "reference"])
    def test_full_history_identical_across_backends(self, backend_name):
        from repro.runtime import run

        spec = ScenarioSpec(name="parity", num_steps=6, eval_every=3,
                            worker_attack={"name": "sign_flip"})
        with use_backend("reference"):
            want = run(spec.replace()).history.to_dict()
        with use_backend(backend_name):
            got = run(spec.replace()).history.to_dict()
        assert want == got



# --------------------------------------------------------------------------- #
# Spec integration: the kernels field hashes absent ≡ legacy
# --------------------------------------------------------------------------- #
class TestSpecKernelsField:
    # Literal pins: the content addresses of kernels-less specs must never
    # change — stores filled before the kernel engine existed stay valid.
    PINNED_DEFAULT = \
        "f4f9a6fcf4cd36fd58a1805cc69feaab65fc495faa2537e8ed7daaca0ca9aa09"
    PINNED_DEFAULT_GROUP = \
        "830df4188ce84283658fe8d4713e7796d7d9a79076f95a1ef94250eaa529c9bc"
    PINNED_SIGN_FLIP = \
        "1ff6371daf74334121a95fe81f20ca536cbf2f29b24850eda7c187d6d4014ff5"

    def test_absent_kernels_keeps_pinned_hashes(self):
        assert ScenarioSpec().spec_hash() == self.PINNED_DEFAULT
        assert ScenarioSpec().batch_group_hash() == self.PINNED_DEFAULT_GROUP
        attacked = ScenarioSpec(worker_attack={"name": "sign_flip"})
        assert attacked.spec_hash() == self.PINNED_SIGN_FLIP

    def test_kernels_field_changes_the_hash_when_present(self):
        base = ScenarioSpec()
        pinned = base.replace(kernels="numpy-opt")
        assert pinned.spec_hash() != base.spec_hash()
        assert pinned.batch_group_hash() != base.batch_group_hash()

    def test_kernels_round_trips_through_json(self):
        spec = ScenarioSpec(kernels="numpy-opt")
        assert ScenarioSpec.from_json(spec.to_json()).kernels == "numpy-opt"

    def test_unknown_kernels_rejected(self):
        with pytest.raises(ValueError, match="kernel backend"):
            ScenarioSpec(kernels="bogus").validate()

    def test_kernels_with_cluster_runtime_rejected(self):
        spec = ScenarioSpec(trainer="guanyu_threaded", runtime="cluster",
                            kernels="numpy-opt")
        with pytest.raises(ValueError, match=ENV_VAR):
            spec.validate()
