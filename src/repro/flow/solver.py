"""Generic monotone fixpoint solver (the flow engine's core loop).

Every analysis in :mod:`repro.flow` — clock-domain inference, reaching
definitions, dataflow slicing — is an instance of the same schema: a
finite set of nodes, a dependency relation, a join-semilattice of facts,
and a monotone transfer function. :func:`solve` runs the classic
worklist algorithm over that schema. Three common instances have
direct forms: :func:`reachable` and :func:`between` (boolean
reachability) and :func:`min_latencies` (minimum cycles back to a
target, shared by the Dependency Monitor and the L0402 skew check).

Determinism matters here as much as convergence: the fuzz campaign's
``flow`` oracle requires byte-identical verdicts across runs, so the
worklist is processed in sorted node order and every container the
solver touches is ordered.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class FixpointResult:
    """Outcome of one fixpoint computation.

    ``converged`` is False only when the iteration cap was hit — for a
    monotone transfer over a finite lattice that indicates a bug in the
    transfer function, and the ``flow`` fuzz oracle fails on it.
    """

    values: dict
    iterations: int
    converged: bool


def solve(nodes, dependencies, transfer, bottom=frozenset(), join=None,
          max_iterations=None):
    """Run a monotone worklist fixpoint over *nodes*.

    Parameters
    ----------
    nodes:
        Iterable of hashable node names.
    dependencies:
        ``{node: iterable of predecessor nodes}`` — the nodes whose facts
        *node*'s transfer reads. Successors are derived by inversion, so
        a change to ``p`` re-queues every node depending on ``p``.
    transfer:
        ``transfer(node, values) -> fact`` — must be monotone in the
        facts it reads.
    bottom:
        Initial fact for every node (default: empty frozenset).
    join:
        Optional ``join(old, new) -> fact``; default keeps ``transfer``'s
        output as-is (transfer computes the full join itself).
    max_iterations:
        Safety cap on node evaluations; defaults to
        ``max(64, 4 * len(nodes) ** 2)`` which a monotone transfer over
        the lattices used here cannot exceed.
    """
    ordered = sorted(set(nodes))
    dependents = {node: set() for node in ordered}
    for node in ordered:
        for dep in dependencies.get(node, ()):
            if dep in dependents:
                dependents[dep].add(node)
    values = {node: bottom for node in ordered}
    if max_iterations is None:
        max_iterations = max(64, 4 * len(ordered) * max(len(ordered), 2))
    worklist = deque(ordered)
    queued = set(ordered)
    iterations = 0
    while worklist:
        if iterations >= max_iterations:
            return FixpointResult(
                values=values, iterations=iterations, converged=False
            )
        node = worklist.popleft()
        queued.discard(node)
        iterations += 1
        fact = transfer(node, values)
        if join is not None:
            fact = join(values[node], fact)
        if fact != values[node]:
            values[node] = fact
            for successor in sorted(dependents[node]):
                if successor not in queued:
                    worklist.append(successor)
                    queued.add(successor)
    return FixpointResult(values=values, iterations=iterations, converged=True)


def reachable(edges, start):
    """Forward closure of *start* over ``{src: iterable(dst)}`` edges.

    A convenience for boolean reachability (the bool lattice is such a
    common :func:`solve` instance that a direct closure is clearer).
    Deterministic: returns a sorted list.
    """
    seen = set(start if isinstance(start, (set, frozenset, list, tuple))
               else [start])
    frontier = sorted(seen)
    while frontier:
        node = frontier.pop()
        for dst in sorted(edges.get(node, ())):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return sorted(seen)


def between(edges, source, sink):
    """Nodes on some *source*→*sink* path over ``{src: iterable(dst)}``.

    Forward closure of *source* intersected with the backward closure of
    *sink*; both endpoints are included whenever a path exists. Returns
    a set (empty when no path exists).
    """
    inverse = {}
    for src, dsts in edges.items():
        for dst in dsts:
            inverse.setdefault(dst, set()).add(src)
    return set(reachable(edges, source)) & set(reachable(inverse, sink))


def min_latencies(incoming, target, bound=None):
    """``{ancestor: minimum total cost to reach *target*}``, target at 0.

    A backward relaxation over ``{dst: [(src, cost)]}`` edges with
    non-negative integer costs (the cycles a value takes to cross each
    edge). A node is re-expanded only when its distance strictly drops,
    so zero-cost cycles and self-edges terminate without an iteration
    guard. With *bound*, paths costing more than it are cut off (the
    Dependency Monitor's k).
    """
    distances = {target: 0}
    frontier = [target]
    while frontier:
        next_frontier = []
        for node in frontier:
            base = distances[node]
            for src, cost in incoming.get(node, ()):
                total = base + cost
                if bound is not None and total > bound:
                    continue
                if src not in distances or total < distances[src]:
                    distances[src] = total
                    next_frontier.append(src)
        frontier = next_frontier
    return distances
