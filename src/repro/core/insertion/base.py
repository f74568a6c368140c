"""Shared interface of the insertion operators (Definition 6 of the paper).

Given a worker's current route ``S_w`` and a new request ``r``, an insertion
operator finds the feasible positions ``(i, j)`` for the pickup and drop-off of
``r`` that minimise the increased travel cost, keeping the relative order of
the existing stops unchanged.

Three operators are provided, matching Section 4 of the paper:

====================  =========================  ==========================
Operator              Time complexity            Module
====================  =========================  ==========================
``BasicInsertion``    O(n^3)                      :mod:`repro.core.insertion.basic`
``NaiveDPInsertion``  O(n^2)                      :mod:`repro.core.insertion.naive_dp`
``LinearDPInsertion`` O(n)                        :mod:`repro.core.insertion.linear_dp`
====================  =========================  ==========================

All three return the same minimal increased cost (property-tested); they differ
only in running time and in the number of shortest-distance queries issued.

Two entry points
----------------

:meth:`InsertionOperator.best_insertion` answers one route. The planners that
evaluate *every* candidate of a request (``batch``, ``tshare``, ``GreedyDP`` —
through :meth:`repro.dispatch.base.Dispatcher.plan_over_all`) call the block
entry point :meth:`InsertionOperator.best_insertions` instead: all candidate
routes at once, one :class:`BlockInsertions` back. Its default loops
``best_insertion`` over the routes, which is what ``BasicInsertion`` and
``NaiveDPInsertion`` (ablation operators) use; ``LinearDPInsertion`` overrides
it with one array kernel over the candidates' rows of the fleet route table.
Planners that stop early by design — pruneGreedyDP's Lemma 8 scan, ``nearest``'s
first-feasible walk and the re-optimiser — keep calling the scalar entry point:
a block past their cut would issue exactly the distance queries the cut exists
to save. Like the default loop, they lend ``L`` to each route only while it is
evaluated and seed it on the winner's new route alone.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.route import Route, RouteBlock
from repro.core.types import Request
from repro.network.oracle import DistanceOracle

INFINITY = math.inf


@dataclass(frozen=True, slots=True)
class InsertionResult:
    """Outcome of a best-insertion search.

    Attributes:
        feasible: whether any feasible insertion exists.
        delta: minimal increased travel cost ``Δ*`` (``inf`` when infeasible).
        pickup_index: best pickup position ``i`` (``-1`` when infeasible).
        dropoff_index: best drop-off position ``j`` (``-1`` when infeasible).
        distance_queries: exact shortest-distance queries the operator issued.
    """

    feasible: bool
    delta: float
    pickup_index: int
    dropoff_index: int
    distance_queries: int = 0

    @staticmethod
    def infeasible(distance_queries: int = 0) -> "InsertionResult":
        """The canonical "no feasible insertion" result."""
        return InsertionResult(
            feasible=False,
            delta=INFINITY,
            pickup_index=-1,
            dropoff_index=-1,
            distance_queries=distance_queries,
        )


class BlockInsertions(NamedTuple):
    """Best insertion of one request into each of many routes (arrays aligned
    with the routes): ``delta`` is ``inf`` and both indices ``-1`` where no
    feasible insertion exists."""

    delta: np.ndarray
    pickup_index: np.ndarray
    dropoff_index: np.ndarray

    @classmethod
    def infeasible(cls, count: int) -> "BlockInsertions":
        """``count`` routes without a feasible insertion, for the caller to fill in."""
        return cls(
            np.full(count, INFINITY, dtype=np.float64),
            np.full(count, -1, dtype=np.int64),
            np.full(count, -1, dtype=np.int64),
        )


class InsertionOperator(abc.ABC):
    """Abstract best-insertion search over a single worker's route."""

    #: Human-readable operator name used in benchmark reports.
    name: str = "insertion"

    @abc.abstractmethod
    def best_insertion(
        self, route: Route, request: Request, oracle: DistanceOracle
    ) -> InsertionResult:
        """Find the feasible insertion of ``request`` with minimal increased cost.

        The route's auxiliary arrays must be up to date (call
        :meth:`repro.core.route.Route.refresh` after any modification); the
        operator itself never mutates ``route``.
        """

    def best_insertions(
        self,
        routes: Sequence[Route],
        request: Request,
        oracle: DistanceOracle,
        direct: float,
        block: RouteBlock | None = None,
    ) -> BlockInsertions:
        """:meth:`best_insertion` of ``request`` into every route of ``routes``.

        Args:
            routes: the candidate routes, auxiliary arrays up to date.
            direct: ``L = dis(o_r, d_r)``, queried once by the caller.
            block: the same routes as rows of a
                :class:`~repro.core.route.RouteBlock`, when the caller has
                them (the fleet route table does); array kernels read it
                instead of the route objects.

        The default is the scalar loop. ``L`` is lent to each route for the
        duration of its evaluation only — the memo of a route that is merely
        *evaluated* must not grow, every successor route inherits it.
        """
        del block
        found = BlockInsertions.infeasible(len(routes))
        for index, route in enumerate(routes):
            route.remember_direct_distance(request, direct)
            result = self.best_insertion(route, request, oracle)
            route.forget_direct_distance(request)
            if result.feasible:
                found.delta[index] = result.delta
                found.pickup_index[index] = result.pickup_index
                found.dropoff_index[index] = result.dropoff_index
        return found

    def insert(
        self, route: Route, request: Request, oracle: DistanceOracle
    ) -> tuple[Route | None, InsertionResult]:
        """Search for the best insertion and, if feasible, apply it.

        Returns:
            ``(new_route, result)`` where ``new_route`` is ``None`` when no
            feasible insertion exists.
        """
        result = self.best_insertion(route, request, oracle)
        if not result.feasible:
            return None, result
        new_route = route.with_insertion(
            request, result.pickup_index, result.dropoff_index, oracle
        )
        return new_route, result


class _PairwiseDistances:
    """Per-call memo of the distances between route stops and o_r / d_r.

    Caching these keeps the DP operators at the 2n+1 exact queries of Lemma 9
    instead of re-querying the oracle for every (i, j) pair.
    """

    def __init__(self, route: Route, request: Request, oracle: DistanceOracle) -> None:
        self._route = route
        self._request = request
        self._oracle = oracle
        self._to_origin: dict[int, float] = {}
        self._to_destination: dict[int, float] = {}
        self.queries = 0
        # L = dis(o_r, d_r): exactly one query, shared with ddl computations.
        self.direct = route.direct_distance(request, oracle)
        self.queries += 1

    def to_origin(self, index: int) -> float:
        """dis(l_index, o_r)."""
        value = self._to_origin.get(index)
        if value is None:
            value = self._oracle.distance(self._route.vertex_at(index), self._request.origin)
            self._to_origin[index] = value
            self.queries += 1
        return value

    def to_destination(self, index: int) -> float:
        """dis(l_index, d_r)."""
        value = self._to_destination.get(index)
        if value is None:
            value = self._oracle.distance(
                self._route.vertex_at(index), self._request.destination
            )
            self._to_destination[index] = value
            self.queries += 1
        return value

    def leg(self, index: int) -> float:
        """dis(l_index, l_{index+1}) recovered from the ``arr`` array (no query)."""
        return self._route.arr[index + 1] - self._route.arr[index]
