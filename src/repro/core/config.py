"""Cluster configuration and the quorum arithmetic of the paper (Section 3.2).

Notation mapping (paper → code):

=============  =============================
``n``          ``num_servers``
``f``          ``num_byzantine_servers``
``n̄``          ``num_workers``
``f̄``          ``num_byzantine_workers``
``q``          ``model_quorum``   (used by the coordinate-wise median ``M``)
``q̄``          ``gradient_quorum`` (used by Multi-Krum ``F``)
=============  =============================

Constraints enforced:

* ``n ≥ 3f + 3`` and ``n̄ ≥ 3f̄ + 3`` (total nodes vs. Byzantine nodes);
* ``2f + 3 ≤ q ≤ n − f`` and ``2f̄ + 3 ≤ q̄ ≤ n̄ − f̄`` (quorum ranges);
* both quorums default to their minimum (``2f+3`` / ``2f̄+3``), which is the
  choice of the paper's implementation ("parameter servers wait for a quorum
  of 2f̄+3 replies from workers").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class ClusterConfig:
    """Validated configuration of a GuanYu deployment."""

    num_servers: int
    num_workers: int
    num_byzantine_servers: int = 0
    num_byzantine_workers: int = 0
    model_quorum: Optional[int] = None
    gradient_quorum: Optional[int] = None

    def __post_init__(self) -> None:
        self._validate_counts()
        if self.model_quorum is None:
            self.model_quorum = self.min_model_quorum
        if self.gradient_quorum is None:
            self.gradient_quorum = self.min_gradient_quorum
        self._validate_quorums()

    # ------------------------------------------------------------------ #
    # Derived bounds
    # ------------------------------------------------------------------ #
    @property
    def min_model_quorum(self) -> int:
        """Smallest admissible ``q``: ``2f + 3``."""
        return 2 * self.num_byzantine_servers + 3

    @property
    def max_model_quorum(self) -> int:
        """Largest admissible ``q``: ``n − f``."""
        return self.num_servers - self.num_byzantine_servers

    @property
    def min_gradient_quorum(self) -> int:
        """Smallest admissible ``q̄``: ``2f̄ + 3``."""
        return 2 * self.num_byzantine_workers + 3

    @property
    def max_gradient_quorum(self) -> int:
        """Largest admissible ``q̄``: ``n̄ − f̄``."""
        return self.num_workers - self.num_byzantine_workers

    # ------------------------------------------------------------------ #
    # Node identifiers
    # ------------------------------------------------------------------ #
    def server_ids(self) -> List[str]:
        """Identifiers of all parameter servers (correct ones first)."""
        return [f"ps/{index}" for index in range(self.num_servers)]

    def worker_ids(self) -> List[str]:
        """Identifiers of all workers (correct ones first)."""
        return [f"worker/{index}" for index in range(self.num_workers)]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate_counts(self) -> None:
        if self.num_servers <= 0 or self.num_workers <= 0:
            raise ValueError("num_servers and num_workers must be positive")
        if self.num_byzantine_servers < 0 or self.num_byzantine_workers < 0:
            raise ValueError("Byzantine counts must be non-negative")
        if self.num_servers < 3 * self.num_byzantine_servers + 3:
            raise ValueError(
                f"GuanYu requires n >= 3f + 3 parameter servers "
                f"(got n={self.num_servers}, f={self.num_byzantine_servers})"
            )
        if self.num_workers < 3 * self.num_byzantine_workers + 3:
            raise ValueError(
                f"GuanYu requires n_workers >= 3f_workers + 3 "
                f"(got n={self.num_workers}, f={self.num_byzantine_workers})"
            )

    def _validate_quorums(self) -> None:
        if not self.min_model_quorum <= self.model_quorum <= self.max_model_quorum:
            raise ValueError(
                f"model_quorum must lie in [{self.min_model_quorum}, "
                f"{self.max_model_quorum}], got {self.model_quorum}"
            )
        if not self.min_gradient_quorum <= self.gradient_quorum <= self.max_gradient_quorum:
            raise ValueError(
                f"gradient_quorum must lie in [{self.min_gradient_quorum}, "
                f"{self.max_gradient_quorum}], got {self.gradient_quorum}"
            )

    # ------------------------------------------------------------------ #
    @staticmethod
    def max_admissible_byzantine(num_nodes: int) -> int:
        """Largest ``f`` a pool of ``num_nodes`` admits (``n ≥ 3f + 3``).

        A pool of fewer than three nodes admits none, and gets 0 rather than
        a negative count, so validation names the real ``n ≥ 3f + 3`` rule.
        """
        return max((num_nodes - 3) // 3, 0)

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used by experiment records."""
        return {
            "num_servers": self.num_servers,
            "num_workers": self.num_workers,
            "num_byzantine_servers": self.num_byzantine_servers,
            "num_byzantine_workers": self.num_byzantine_workers,
            "model_quorum": self.model_quorum,
            "gradient_quorum": self.gradient_quorum,
        }


class TrustedServerConfig(ClusterConfig):
    """The cluster of a protocol without the servers' exchange: one trusted
    server, which waits for every worker that sends.

    None of the ``3f + 3`` / quorum arithmetic applies:
    ``num_byzantine_workers`` only sizes the gradient rule (the declared
    f̄), and any worker may attack.
    """

    def __post_init__(self) -> None:
        self.model_quorum, self.gradient_quorum = 1, self.num_workers
