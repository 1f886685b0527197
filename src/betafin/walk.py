"""Closures and reach-zero walks on integer-vector graphs.

closure collects every node reachable from a start under a successor
function: the SRS closure Q (tau and its dual) and the delta-box slice of
V (subtracting orbit vectors) are both built by it.

walk answers "does the orbit of x under step reach zero?" for every
reach-zero question the package asks: on integer vectors under the shift
radix map tau, along Q's tau-edges (Q's flags, the orbit of the initial
vector) or stepping tau itself (F membership, and the certificate's box
vectors over a copy of Q's flags), and on the integer numerators of the
fractional parts frac(N) under the greedy step, which decide finiteness
of the expansions of natural numbers.  Walks that share one verdict map
step each node once, however many starts lead into it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

from .errors import ClosureBudgetExceeded, OrbitBudgetExceeded

Node = TypeVar("Node", bound=Hashable)


def closure(start: Node, successors: Callable[[Node], Iterable[Node]], cap: int) -> set[Node]:
    """Every node reachable from start, start included.

    Nodes are visited breadth first, each one's successors in the order
    given, so the set is built in the same order on every run.  Holding
    more than cap nodes raises ClosureBudgetExceeded.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in successors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if len(seen) > cap:
                        raise ClosureBudgetExceeded(f"closure exceeded {cap} nodes")
        frontier = nxt
    return seen


def walk(
    step: Callable[[Node], Node],
    start: Node,
    verdict: dict[Node, bool],
    cycles: set[Node],
    cap: int,
) -> list[Node]:
    """Follow step from start until a node with a verdict (the caller seeds
    zero as reaching zero) or a node already on this path.

    Every node of the path gets its reach-zero verdict, a cycle the walk
    closes is added to cycles, and the path is returned.  A path longer
    than cap raises OrbitBudgetExceeded and records no verdict, so cap bounds
    the new nodes one walk steps: nodes settled by earlier walks on the
    same verdict map are not counted again.
    """
    on_path: dict[Node, int] = {}
    path: list[Node] = []
    cur = start
    while cur not in verdict and cur not in on_path:
        on_path[cur] = len(path)
        path.append(cur)
        if len(path) > cap:
            raise OrbitBudgetExceeded(f"walk exceeded {cap} new states")
        cur = step(cur)
    if cur in on_path:
        cycles.update(path[on_path[cur]:])
    reach = verdict.get(cur, False)
    for node in path:
        verdict[node] = reach
    return path
