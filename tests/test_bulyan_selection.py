"""Bulyan's one-matrix selection against the per-round Krum it replaced.

``Bulyan._select`` scores every round of its iterated Krum from one
distance matrix of the whole stack, and runs Krum on the round's pool only
when :func:`repro.aggregation.bulyan.certified_krum_choice` cannot prove
the winner from the sub-block.  The oracle is the loop it replaced: one
Gram product per round, on a copy of the pool.  Its choices are the
contract, so outputs, store addresses and ledger digests stay the same.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.aggregation import Bulyan, Krum
from repro.aggregation.bulyan import certified_krum_choice
from repro.aggregation.krum import pairwise_squared_distances_batched
from repro.campaign import ScenarioSpec
from repro.kernels import available_backends, use_backend


def per_round_selection(stacked, num_byzantine):
    """The selection before the one matrix: Krum on each round's pool."""
    f = num_byzantine
    remaining = list(range(stacked.shape[0]))
    selected = []
    krum = Krum(num_byzantine=f)
    while len(selected) < stacked.shape[0] - 2 * f:
        subset = stacked[remaining]
        if subset.shape[0] - f - 2 >= 1:
            choice_local = krum.select(subset)
        else:
            choice_local = int(np.argmin(np.linalg.norm(subset, axis=1)))
        selected.append(remaining.pop(choice_local))
    return selected


def shaped_stacks(seed, replicas, n, dim, f):
    """Replica stacks: a cloud, outliers, identical attackers ("a little
    is enough"), attackers duplicating an honest row, and a cloud whose
    spread is 1e-6 of its norm (the Gram identity's worst cancellation)."""
    rng = np.random.default_rng(seed)
    honest = rng.normal(size=(replicas, n, dim))
    outliers = honest.copy()
    outliers[:, -f:] = rng.normal(0.0, 100.0, size=(replicas, f, dim))
    little = honest.copy()
    little[:, -f:] = (honest[:, :-f].mean(axis=1, keepdims=True)
                      - 1.5 * honest[:, :-f].std(axis=1, keepdims=True))
    duplicated = honest.copy()
    duplicated[:, -f:] = honest[:, :1]
    common = rng.normal(size=(replicas, 1, dim)) * 1e3 + honest * 1e-3
    return {"honest": honest, "outliers": outliers, "little": little,
            "duplicated": duplicated, "common": common}


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestPinnedOutputs:
    """Literals recorded while every Krum round computed its own Gram
    product on a copy of its pool."""

    #: (n, dim, f) → stack label → sha256 prefix of the three replicas'
    #: ``aggregate`` rows; both backends gave the same bytes
    AGGREGATES = {
        (7, 36, 1): {
            "honest": "1248db797b016b502b025d0eb225a64e",
            "outliers": "1127fde4c0edb05e91491ea5c90d15cc",
            "little": "1127fde4c0edb05e91491ea5c90d15cc",
            "duplicated": "bfe561f2cc16a4343ba3397f118b67b8",
            "common": "512173f3027c4379681a109c338613e6",
        },
        (11, 266, 2): {
            "honest": "e16cf33d3211f7181cdc5aa822b033d2",
            "outliers": "b02f8ba57e7f8f84b2cdef782bf8aafc",
            "little": "34de1142603d01e14f05d7f501fc47ff",
            "duplicated": "7c1084f7a088c162d657a613bc741c25",
            "common": "b5d348e3727085eaa3bcab414ccdd1da",
        },
        (25, 266, 5): {
            "honest": "2867528520fe45e72a088679ffb7c8c7",
            "outliers": "813675918875b695c05b19720c952143",
            "little": "667c4391a4fd3ef032995fe08140b0af",
            "duplicated": "577d6f74a46c0d97bdef2ad5d478aa44",
            "common": "b4c27f070fc55c09e84cef9e118d44f5",
        },
    }

    #: first replica's selection order at (25, 266, 5)
    SELECTIONS = {
        "honest": [11, 9, 16, 14, 1, 0, 10, 19, 18, 20, 23, 12, 8, 3, 4],
        "little": [11, 9, 0, 16, 14, 1, 10, 20, 8, 19, 21, 18, 12, 22, 7],
        "duplicated": [0, 20, 21, 22, 23, 11, 16, 24, 9, 14, 10, 8, 19, 1,
                       18],
    }

    #: worker attack → sha256 of the canonical history JSON of ``WIDE``
    HISTORIES = {
        None: "e584414524f6fdd616b3b2d9f2a062c2"
              "844f1cd056ec845d59e218a2abc749bb",
        "sign_flip": "12345d565da60f3351b06ce98cfd1687"
                     "a52928cbef38245f01ac3b439cb595e5",
    }

    #: wide_gar's Bulyan cell at 8x8 images: q̄ = 25 gradients, f̄ = 5
    WIDE = ScenarioSpec(
        name="bulyan-pin", dataset="images", image_size=8, model="softmax",
        num_workers=30, num_servers=9, declared_byzantine_workers=5,
        declared_byzantine_servers=2, gradient_quorum=25,
        gradient_rule="bulyan", batch_size=8, num_steps=3, eval_every=3,
        seed=3)

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("shape", sorted(AGGREGATES))
    def test_aggregates(self, backend, shape):
        n, dim, f = shape
        rule = Bulyan(num_byzantine=f)
        with use_backend(backend):
            for label, stack in shaped_stacks(n * 1000 + dim, 3, n, dim,
                                              f).items():
                rows = np.stack([rule.aggregate(replica) for replica in stack])
                assert _digest(rows)[:32] == self.AGGREGATES[shape][label], \
                    label
                assert np.array_equal(rule.aggregate_batched(stack), rows)

    def test_selections(self):
        stacks = shaped_stacks(25266, 3, 25, 266, 5)
        for label, want in self.SELECTIONS.items():
            assert Bulyan(num_byzantine=5)._select(stacks[label][0]) == want

    @pytest.mark.parametrize("attack", sorted(HISTORIES, key=str))
    def test_histories(self, attack):
        spec = self.WIDE
        if attack is not None:
            spec = spec.replace(worker_attack={"name": attack},
                                num_attacking_workers=5)
        history = run(spec).history.to_dict()
        text = json.dumps(history, sort_keys=True, default=str)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.HISTORIES[attack]


@st.composite
def selection_stacks(draw):
    """Stacks where the per-round choices are close or exactly tied.

    Exact ties come from repeated rows and integer lattices; near ties
    from a common offset that dwarfs the spread; the tails from scales
    whose squares overflow or underflow.
    """
    f = draw(st.integers(1, 4))
    n = draw(st.integers(4 * f + 3, 4 * f + 9))
    dim = draw(st.sampled_from([1, 3, 36, 266]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(
        ["cloud", "repeated", "lattice", "offset", "huge", "edge", "tiny"]))
    stack = rng.normal(size=(n, dim))
    if kind == "repeated":
        rows = rng.integers(0, n, size=n)
        stack = stack[np.minimum(rows, np.arange(n))]
    elif kind == "lattice":
        stack = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    elif kind == "offset":
        stack = rng.normal(size=(1, dim)) * 1e6 + stack
    elif kind == "huge":
        stack *= 1e160
    elif kind == "edge":
        stack *= 1e153
    elif kind == "tiny":
        stack *= 1e-160
    return stack, f


class TestOneMatrixSelection:
    # No max_examples here: the weekly workflow runs this test under the
    # "weekly" profile of tests/conftest.py, ten times the default budget.
    @settings(deadline=None)
    @given(selection_stacks())
    def test_equals_the_per_round_selection(self, drawn):
        stack, f = drawn
        for backend in available_backends():
            with use_backend(backend), np.errstate(all="ignore"):
                assert Bulyan(num_byzantine=f)._select(stack) == \
                    per_round_selection(stack, f)

    def test_a_clear_winner_needs_no_pool_kernel(self, monkeypatch):
        stack = np.random.default_rng(0).normal(size=(25, 266))
        want = per_round_selection(stack, 5)

        def refuse(self, subset):
            raise AssertionError("ran Krum on the pool")
        monkeypatch.setattr(Krum, "select", refuse)
        assert Bulyan(num_byzantine=5)._select(stack) == want

    def test_a_tie_runs_krum_on_the_pool(self, monkeypatch):
        # Rows 3 and 4 are one vector at the centre of the cloud: Krum's
        # two best scores are equal in exact arithmetic, so only the pool's
        # own Gram product can say which of them it picks.
        stack = np.random.default_rng(1).normal(size=(7, 36))
        stack[3] = stack[4] = stack.mean(axis=0)
        distances = np.array(pairwise_squared_distances_batched(stack[None])[0])
        np.fill_diagonal(distances, np.inf)
        norms = np.einsum("ij,ij->i", stack, stack)
        assert certified_krum_choice(distances, norms, np.arange(7), 4,
                                     36) is None

        pools = []
        select = Krum.select

        def record(self, subset):
            pools.append(subset.shape[0])
            return select(self, subset)
        monkeypatch.setattr(Krum, "select", record)
        assert Bulyan(num_byzantine=1)._select(stack) == \
            per_round_selection(stack, 1)
        assert pools and pools[0] == 7

    # 1e160: every square overflows.  4e153: the squared norms are finite,
    # near 5e307, but the sum of two of them is not.
    @pytest.mark.parametrize("scale", [1e160, 4e153])
    def test_overflow_is_never_certified(self, scale):
        stack = np.random.default_rng(2).normal(size=(7, 36)) * scale
        with np.errstate(all="ignore"):
            distances = np.array(pairwise_squared_distances_batched(stack[None])[0])
            np.fill_diagonal(distances, np.inf)
            norms = np.einsum("ij,ij->i", stack, stack)
            assert certified_krum_choice(distances, norms, np.arange(7), 4,
                                         36) is None
