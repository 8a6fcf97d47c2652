"""Labelled rooted-tree oracle for the expansion orders.

Trees are enumerated with ordered children (the planar reading), which is
exactly the family the order recursions sum over, so per-order
coefficients are reproduced term by term with no symmetry factors.  The
oracle is deliberately independent of the ladder: values are products of
node factors and line propagators, never convolutions.

Every node carries a mode from the system's grid.  The internal nodes
split into chain nodes (p = 1, nonzero mode) and branching nodes
(p >= 2); every line leaving an internal node must carry nonzero
momentum.  A separable system is the case whose grid has no chain modes
and whose branching nodes all sit at the zero mode, so one enumeration
serves both of the paper's theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import GuardExceededError
from .fourier import integer_mode, mode_norm
from .ladder import Propagator

MAX_TREE_ORDER = 5


class TreeNode:
    """One node of a labelled rooted tree, with its ordered children.

    ``total`` is the momentum carried by the node's exit line (the sum of
    mode labels at and below the node).  ``size`` counts the nodes of the
    subtree.
    """

    __slots__ = ("kind", "mode", "children", "total", "size")

    def __init__(self, kind, mode, children=()):
        self.kind = kind  # "end" | "internal"
        self.mode = tuple(mode)
        self.children = tuple(children)
        total = self.mode
        size = 1
        for child in self.children:
            total = tuple(a + b for a, b in zip(total, child.total))
            size += child.size
        self.total = total
        self.size = size

    @property
    def p(self) -> int:
        return len(self.children)

    def nodes(self):
        yield self
        for child in self.children:
            yield from child.nodes()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mode": list(self.mode),
            "p": self.p,
            "children": [c.to_json_dict() for c in self.children],
        }

    def canonical(self) -> str:
        inner = ";".join(c.canonical() for c in self.children)
        return f"{self.kind[0]}[{','.join(map(str, self.mode))}]({inner})"

    def __repr__(self):
        return f"TreeNode({self.canonical()})"


@dataclass(frozen=True)
class TreeSupport:
    """Mode alphabets available to each node class.

    ``end_modes`` are the nonzero end-node labels (the zero label is always
    allowed and contributes the free zero-mode parameter); ``v1_modes`` the
    chain-node labels, the nonzero modes of the p = 1 layer; ``v2_layers``
    maps each power p >= 2 to its branching-node labels, the support of
    that layer (the zero mode alone for a separable system).
    """

    dimension: int
    end_modes: tuple
    v1_modes: tuple = ()
    v2_layers: tuple = ()  # tuple of (p, modes-tuple) pairs, sorted by p

    @classmethod
    def from_system(cls, sys) -> "TreeSupport":
        """The alphabets of the system's grid."""
        return cls(
            dimension=sys.dimension,
            end_modes=tuple(sys.range_forcing.support()),
            v1_modes=tuple(sys.alpha1_series.support()),
            v2_layers=tuple((p, tuple(sys.alpha_series(p).support()))
                            for p in sys.nonlinear_powers()),
        )

    @cached_property
    def enumerator(self) -> "_Enumerator":
        """The one enumeration of these alphabets: every order's subtrees
        are built once, whichever call asks for them first."""
        return _Enumerator(self)


def _compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class _Enumerator:
    def __init__(self, support: TreeSupport):
        self.support = support
        self.zero = (0,) * support.dimension
        self._memo: dict[int, list[TreeNode]] = {}

    def subtrees(self, k: int) -> list[TreeNode]:
        """All valid subtrees of order k (any root-line momentum)."""
        if k in self._memo:
            return self._memo[k]
        out: list[TreeNode] = []
        if k == 1:
            out.append(TreeNode("end", self.zero))
            for mode in self.support.end_modes:
                out.append(TreeNode("end", mode))
        else:
            for mode in self.support.v1_modes:
                for child in self.subtrees(k - 1):
                    node = TreeNode("internal", mode, (child,))
                    if any(node.total):
                        out.append(node)
            for p, modes in self.support.v2_layers:
                if p < 2 or p > k - 1:
                    continue
                for mode in modes:
                    for comp in _compositions(k - 1, p):
                        for kids in self._tuples(comp):
                            node = TreeNode("internal", mode, kids)
                            if any(node.total):
                                out.append(node)
        self._memo[k] = out
        return out

    def _tuples(self, comp):
        if not comp:
            yield ()
            return
        for head in self.subtrees(comp[0]):
            for rest in self._tuples(comp[1:]):
                yield (head,) + rest


def enumerate_trees(k: int, nu, support: TreeSupport) -> list[TreeNode]:
    """All inequivalent ordered trees of order k with root-line momentum nu.

    Refuses k beyond ``MAX_TREE_ORDER`` (enumeration cost explodes).
    """
    if k > MAX_TREE_ORDER:
        raise GuardExceededError(
            f"tree order {k} exceeds the enumeration guard {MAX_TREE_ORDER}"
        )
    if k < 1:
        raise ValueError("tree order must be >= 1")
    nu = integer_mode(nu)
    return [t for t in support.enumerator.subtrees(k) if t.total == nu]


def enumerate_all(k: int, support: TreeSupport) -> list[TreeNode]:
    """All valid trees of order k regardless of momentum (for bulk checks)."""
    if k > MAX_TREE_ORDER:
        raise GuardExceededError(
            f"tree order {k} exceeds the enumeration guard {MAX_TREE_ORDER}"
        )
    return list(support.enumerator.subtrees(k))


@dataclass
class TreeValueContext:
    """Everything a tree value needs: the certified system, the dissipation
    parameter and the free zero-mode parameter.  ``support`` holds the
    system's alphabets, and so the one enumeration that every
    ``sum_trees`` call on this context filters."""

    system: object
    eps: float
    zeta: float

    def __post_init__(self):
        self.system.require_certified()
        self._prop = Propagator(self.eps, self.system.a)
        self.support = TreeSupport.from_system(self.system)

    def propagator(self, nu) -> complex:
        if not any(nu):
            return 1.0 + 0j
        s = 0.0
        for x, w in zip(nu, self.system.omega):
            s += x * w
        return self._prop(s)

    def end_factor(self, mode) -> complex:
        if not any(mode):
            return complex(self.zeta)
        return self.eps * self.system.range_forcing.coeff(mode)

    def internal_factor(self, mode, p: int) -> complex:
        """-eps a[mode, p]."""
        return -self.eps * self.system.grid.get((mode, p), 0j)


def tree_value(tree: TreeNode, ctx: TreeValueContext) -> complex:
    """Product of node factors and exit-line propagators over the subtree."""
    if tree.kind == "end":
        return ctx.end_factor(tree.mode) * ctx.propagator(tree.mode)
    value = ctx.internal_factor(tree.mode, tree.p) * ctx.propagator(tree.total)
    for child in tree.children:
        value *= tree_value(child, ctx)
    return value


def sum_trees(k: int, nu, ctx: TreeValueContext) -> complex:
    """Sum of tree values over all order-k trees of momentum nu; equals the
    recursion's order-k coefficient at that mode."""
    total = 0j
    for tree in enumerate_trees(k, nu, ctx.support):
        total += tree_value(tree, ctx)
    return total


@dataclass
class Chain:
    """A maximal run of single-child internal nodes, root side first."""

    nodes: tuple

    @property
    def length(self) -> int:
        return len(self.nodes)

    def value(self, ctx: TreeValueContext) -> complex:
        out = 1.0 + 0j
        for node in self.nodes:
            out *= ctx.internal_factor(node.mode, 1) * ctx.propagator(node.total)
        return out


def find_chains(tree: TreeNode) -> list[Chain]:
    """Maximal chains of p = 1 nodes, ordered top (root side) to bottom."""
    chains = []

    def walk(node, in_chain):
        if node.kind == "internal" and node.p == 1:
            if in_chain is None:
                in_chain = [node]
                chains.append(in_chain)
            else:
                in_chain.append(node)
            walk(node.children[0], in_chain)
        else:
            for child in node.children:
                walk(child, None)

    walk(tree, None)
    return [Chain(tuple(c)) for c in chains]


def verify_counting(tree: TreeNode) -> dict:
    """Evaluate the structural counting relations on one tree.

    Every tree: #end >= #branching + 1, #chains <= #end + #branching,
    #chains <= #chain-nodes, and order = #end + #chain-nodes + #branching.
    A tree without chain nodes (every tree of a separable system) also
    gets #end >= (order + 1)/2 and #end >= #internal + 1.
    """
    ends = v1 = v2 = 0
    for node in tree.nodes():
        if node.kind == "end":
            ends += 1
        elif node.p == 1:
            v1 += 1
        else:
            v2 += 1
    n_chains = len(find_chains(tree))
    k = tree.size
    report = {
        "end_ge_v2_plus_1": ends >= v2 + 1,
        "chains_le_end_plus_v2": n_chains <= ends + v2,
        "chains_le_v1": n_chains <= v1,
        "order_identity": k == ends + v1 + v2,
    }
    if v1 == 0:
        report["end_ge_half_order_plus_1"] = ends >= 0.5 * (k + 1)
        report["end_ge_internal_plus_1"] = ends >= (v1 + v2) + 1
    return report


def chain_value_bound_check(chain: Chain, ctx: TreeValueContext,
                            C0: float, beta: float, xi: float) -> dict:
    """Compare |Val(chain)| against C0^p beta^((p-1)/2) prod e^{-3 xi |nu_v|/4}."""
    p = chain.length
    lhs = abs(chain.value(ctx))
    rhs = C0**p * beta ** ((p - 1) / 2.0)
    for node in chain.nodes:
        rhs *= math.exp(-0.75 * xi * mode_norm(node.mode))
    return {"length": p, "value": lhs, "bound": rhs, "passed": lhs <= rhs}
