"""Left-right planarity test and embedding on dense vertex ids.

This is a port of the iterative ``LRPlanarity`` of networkx
(``networkx/algorithms/planarity.py``: ``dfs_orientation``, ``dfs_testing``,
``add_constraints``, ``remove_back_edges``, ``sign`` and ``dfs_embedding``),
which implements

    Ulrik Brandes, "The Left-Right Planarity Test", 2009.

It runs on plain lists: vertices are 0..n-1, ``adj[v]`` lists the neighbours
of v in ascending order, and oriented edges are numbered in the order the
orientation DFS meets them. -1 stands where networkx has ``None``. The list
``ref`` has one spare slot at the end, which index -1 reaches: networkx
writes references of a missing edge into a defaultdict and never reads them,
and here they land in that slot. A conflict pair is one list
``[left low, left high, right low, right high]``.

Every choice networkx makes depends on the order in which it visits vertices
and edges, and the port visits them in the same order as networkx does on a
graph with nodes 0..n-1 and ascending adjacency: DFS roots in vertex order,
neighbours in ``adj`` order, stable sorts of each vertex's out-edges by
nesting depth, and signs resolved per vertex over its out-edges in
orientation order. So it yields the same rotation system as
``networkx.check_planarity`` and the same forbidden-subgraph witness as
``networkx.algorithms.planarity.get_counterexample``. Each DFS keeps an index
cursor per vertex and an explicit stack, so deep graphs need no recursion.

The networkx code carries this notice::

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations


def lr_rotations(n: int, adj) -> list[tuple[int, ...]] | None:
    """The clockwise neighbour order of every vertex, each starting at its
    smallest neighbour, or None if the graph is not planar."""
    return _lr(n, adj, embed=True)


def lr_witness(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The edges of a forbidden subgraph of a non-planar graph.

    Greedy deletion over the edges in the order given (sorted, normalised
    pairs): an edge stays deleted while the rest is still non-planar. For
    sorted input this is the subgraph networkx's ``get_counterexample``
    returns, because it meets its undecided edges in the same order.

    The deletions are tried in bisected chunks of consecutive edges. When
    the rest is still non-planar without a whole chunk, the greedy deletes
    each of its edges too, since every graph it tests on the way holds that
    rest; so the chunk goes at once. Otherwise its halves are tried in turn.
    A witness of w edges out of m takes O(w log m) planarity tests.
    """
    alive = [True] * len(edges)
    chunks = [(0, len(edges))]
    while chunks:
        lo, hi = chunks.pop()
        alive[lo:hi] = [False] * (hi - lo)
        adj = [[] for _ in range(n)]
        for (u, v), a in zip(edges, alive):
            if a:
                adj[u].append(v)
                adj[v].append(u)
        if _lr(n, adj, embed=False) is not None:
            alive[lo:hi] = [True] * (hi - lo)
            if hi - lo > 1:
                mid = (lo + hi) // 2
                chunks += [(mid, hi), (lo, mid)]
    return tuple(e for e, a in zip(edges, alive) if a)


def _lr(n: int, adj, embed: bool):
    """None if not planar; otherwise the rotations (embed) or True."""
    m = sum(map(len, adj)) // 2
    if n > 2 and m > 3 * n - 6:
        return None

    # --- orientation: DFS heights, lowpoints and nesting depths
    height = [-1] * n
    parent_edge = [-1] * n
    src = [0] * m
    dst = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out = [[] for _ in range(n)]  # oriented out-edges, in orientation order
    roots = []
    ind = [0] * n
    resume = [False] * n  # the edge at ind[v] is a tree edge just finished
    k = 0
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            pv = src[e] if e >= 0 else -1
            nbrs = adj[v]
            i = ind[v]
            while i < len(nbrs):
                w = nbrs[i]
                if resume[v]:
                    resume[v] = False
                    vw = parent_edge[w]
                else:
                    hw = height[w]
                    if hw > hv or w == pv:  # oriented from w already
                        i += 1
                        continue
                    vw = k
                    k += 1
                    src[vw] = v
                    dst[vw] = w
                    out[v].append(vw)
                    lowpt[vw] = lowpt2[vw] = hv
                    if hw < 0:  # tree edge
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        resume[v] = True
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[vw] = hw  # back edge
                low = lowpt[vw]
                nesting[vw] = 2 * low + (lowpt2[vw] < hv)  # +1 if chordal
                if e >= 0:
                    le = lowpt[e]
                    if low < le:
                        lowpt2[e] = min(le, lowpt2[vw])
                        lowpt[e] = low
                    elif low > le:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                i += 1
            ind[v] = i

    # --- testing: the conflict-pair stack S
    by_nesting = nesting.__getitem__
    ordered = [sorted(o, key=by_nesting) for o in out]
    ref = [-1] * (m + 1)
    side = [1] * m
    lowpt_edge = [-1] * m
    stack_bottom = [None] * m
    S = []

    def lowest(P):
        if P[0] == -1 and P[1] == -1:
            return lowpt[P[2]]
        if P[2] == -1 and P[3] == -1:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def add_constraints(ei, e):
        P = [-1, -1, -1, -1]
        le = lowpt[e]
        bottom = stack_bottom[ei]
        # merge the return edges of ei into P.right
        while True:
            Q = S.pop()
            if Q[0] != -1 or Q[1] != -1:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] != -1 or Q[1] != -1:
                return False
            if lowpt[Q[2]] > le:  # merge intervals
                if P[2] == -1 and P[3] == -1:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge the conflicting return edges of earlier siblings into P.left
        lb = lowpt[ei]
        while True:
            T = S[-1]
            if not (
                ((T[0] != -1 or T[1] != -1) and lowpt[T[1]] > lb)
                or ((T[2] != -1 or T[3] != -1) and lowpt[T[3]] > lb)
            ):
                break
            Q = S.pop()
            if (Q[2] != -1 or Q[3] != -1) and lowpt[Q[3]] > lb:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if (Q[2] != -1 or Q[3] != -1) and lowpt[Q[3]] > lb:
                return False
            ref[P[2]] = Q[3]
            if Q[2] != -1:
                P[2] = Q[2]
            if P[0] == -1 and P[1] == -1:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] != -1 or P[1] != -1 or P[2] != -1 or P[3] != -1:
            S.append(P)
        return True

    def remove_back_edges(e):
        u = src[e]
        hu = height[u]
        # drop whole conflict pairs of back edges ending at u
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] != -1:
                side[P[0]] = -1
        if S:  # trim the intervals of one more pair
            P = S.pop()
            while P[1] != -1 and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] == -1 and P[0] != -1:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            while P[3] != -1 and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] == -1 and P[2] != -1:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1
            S.append(P)
        # the side of e is the side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]) else hr

    ind = [0] * n
    resume = [False] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            oa = ordered[v]
            i = ind[v]
            descended = False
            while i < len(oa):
                ei = oa[i]
                if resume[v]:
                    resume[v] = False
                else:
                    stack_bottom[ei] = S[-1] if S else None
                    w = dst[ei]
                    if ei == parent_edge[w]:  # tree edge
                        resume[v] = True
                        stack.append(v)
                        stack.append(w)
                        descended = True
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append([-1, -1, ei, ei])
                if lowpt[ei] < hv:  # ei has a return edge
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
            ind[v] = i
            if not descended and e >= 0:
                remove_back_edges(e)
    if not embed:
        return True

    # --- sign: resolve each relative side along its chain of references
    for v in range(n):
        for e in out[v]:
            chain = [e]
            r = ref[e]
            while r != -1:
                ref[chain[-1]] = -1
                chain.append(r)
                r = ref[r]
            for j in range(len(chain) - 2, -1, -1):
                side[chain[j]] *= side[chain[j + 1]]
            nesting[e] *= side[e]

    # --- embedding: the neighbours of v form a circular list with links
    # cw[v] and ccw[v], first the sorted out-edges, each clockwise after the last
    cw = [{} for _ in range(n)]
    ccw = [{} for _ in range(n)]
    for v in range(n):
        ordered[v] = oa = sorted(out[v], key=by_nesting)
        ws = [dst[e] for e in oa]
        cv, ccv = cw[v], ccw[v]
        for j, w in enumerate(ws):
            cv[ws[j - 1]] = w
            ccv[w] = ws[j - 1]

    def add_ccw_of(x, w, y):  # add_half_edge(x, w, cw=y)
        cx, ccx = cw[x], ccw[x]
        z = ccx[y]
        cx[w], ccx[w] = y, z
        cx[z] = ccx[y] = w

    def add_cw_of(x, w, y):  # add_half_edge(x, w, ccw=y)
        cx, ccx = cw[x], ccw[x]
        z = cx[y]
        cx[w], ccx[w] = z, y
        ccx[z] = cx[y] = w

    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            oa = ordered[v]
            i = ind[v]
            while i < len(oa):
                ei = oa[i]
                i += 1
                w = dst[ei]
                if ei == parent_edge[w]:  # tree edge: add_half_edge_first(w, v)
                    # nothing is inserted at w before this, so networkx's
                    # leftmost neighbour of w is still its first out-edge
                    if ordered[w]:
                        add_ccw_of(w, v, dst[ordered[w][0]])
                    else:
                        cw[w][v] = ccw[w][v] = v
                    left_ref[v] = right_ref[v] = w
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:
                    add_cw_of(w, v, right_ref[w])
                else:
                    add_ccw_of(w, v, left_ref[w])
                    left_ref[w] = v
            ind[v] = i

    rotations = []
    for v in range(n):
        a = adj[v]
        if not a:
            rotations.append(())
            continue
        cv = cw[v]
        start = x = a[0]
        rot = []
        while True:
            rot.append(x)
            x = cv[x]
            if x == start:
                break
        rotations.append(tuple(rot))
    return rotations
