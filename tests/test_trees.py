import ast
import inspect
import math

import pytest

from qpresponse.errors import GuardExceededError
from qpresponse.fourier import cosine
from qpresponse.ladder import build_ladder
from qpresponse.systems import GeneralSystem, SeparableSystem, recentre
from qpresponse.trees import (
    Chain,
    TreeNode,
    TreeSupport,
    TreeValueContext,
    chain_value_bound_check,
    enumerate_all,
    enumerate_trees,
    find_chains,
    sum_trees,
    tree_value,
    verify_counting,
)

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = (1.0, PHI)


def golden_forcing():
    return cosine(2, 0).add(cosine(2, 1))


def cubic_system(extra_quadratic=0.0):
    taylor = {1: 1.0, 3: 1.0}
    if extra_quadratic:
        taylor[2] = extra_quadratic
    return recentre(SeparableSystem(GOLDEN, golden_forcing(), taylor), 0.0)


def grid_system():
    grid = {
        ((0, 0), 1): 1.0,
        ((1, 0), 1): 0.5,
        ((-1, 0), 1): 0.5,
        ((0, 0), 2): 1.0,
        ((0, 1), 0): -0.15j,
        ((0, -1), 0): 0.15j,
    }
    return recentre(GeneralSystem(GOLDEN, grid), 0.0)


class TestEnumeration:
    def test_order_one_single_tree(self):
        sys = cubic_system()
        support = TreeSupport.from_system(sys)
        trees = enumerate_trees(1, (1, 0), support)
        assert len(trees) == 1
        assert trees[0].kind == "end"
        assert trees[0].mode == (1, 0)

    def test_order_two_separable_is_empty(self):
        sys = cubic_system(extra_quadratic=1.0)
        support = TreeSupport.from_system(sys)
        for nu in ((1, 0), (2, 0), (1, 1)):
            assert enumerate_trees(2, nu, support) == []

    def test_order_two_general_has_chains(self):
        sys = grid_system()
        support = TreeSupport.from_system(sys)
        trees = enumerate_trees(2, (1, 1), support)
        assert trees
        for tree in trees:
            assert tree.p == 1
            assert tree.mode in ((1, 0), (-1, 0))

    def test_duplicate_free(self):
        for sys in (cubic_system(extra_quadratic=0.5), grid_system()):
            support = TreeSupport.from_system(sys)
            for k in range(1, 5):
                forms = [t.canonical() for t in enumerate_all(k, support)]
                assert len(forms) == len(set(forms))

    def test_guard(self):
        support = TreeSupport.from_system(cubic_system())
        with pytest.raises(GuardExceededError):
            enumerate_trees(6, (1, 0), support)

    def test_a_momentum_that_is_not_an_integer_is_refused(self):
        sys = cubic_system()
        support = TreeSupport.from_system(sys)
        with pytest.raises(ValueError, match="non-integer entries"):
            enumerate_trees(1, (1.5, 0), support)
        with pytest.raises(ValueError, match="non-integer entries"):
            sum_trees(1, (1.5, 0), TreeValueContext(sys, 0.05, 0.0))
        # a momentum of the wrong length has no trees
        assert enumerate_trees(1, (1,), support) == []


class TestTreeValue:
    def test_single_end_node_matches_first_order(self):
        sys = cubic_system()
        eps = 0.07
        ctx = TreeValueContext(sys, eps, 0.3)
        tree = TreeNode("end", (1, 0))
        s = 1.0  # omega . (1, 0)
        expected = eps * 0.5 / complex(eps * (1 - s * s), s)
        assert tree_value(tree, ctx) == pytest.approx(expected, abs=1e-17)

    def test_zero_mode_end_node_gives_zeta(self):
        ctx = TreeValueContext(cubic_system(), 0.07, 0.3)
        tree = TreeNode("end", (0, 0))
        assert tree_value(tree, ctx) == pytest.approx(0.3)

    def test_hand_built_order_three_product(self):
        sys = cubic_system(extra_quadratic=1.0)
        eps = 0.05
        ctx = TreeValueContext(sys, eps, 0.0)
        leaf_a = TreeNode("end", (1, 0))
        leaf_b = TreeNode("end", (0, 1))
        tree = TreeNode("internal", (0, 0), (leaf_a, leaf_b))
        s_a, s_b = 1.0, PHI
        s_root = 1.0 + PHI

        def D(s):
            return complex(eps * (1 - s * s), s)

        expected = (
            (-eps * 1.0)
            * (eps * 0.5 / D(s_a))
            * (eps * 0.5 / D(s_b))
            / D(s_root)
        )
        assert tree_value(tree, ctx) == pytest.approx(expected, rel=1e-14)


class TestOracleEquivalence:
    def check(self, sys, eps, zeta, k_max=4, N=12):
        ladder = build_ladder(sys, eps, zeta, k_max, N)
        ctx = TreeValueContext(sys, eps, zeta)
        for k in range(1, k_max + 1):
            order = ladder.order(k)
            modes = set(order.support())
            modes.discard((0, 0))
            # include a few unreachable modes to confirm they sum to zero
            modes |= {(5, 5), (1, 2)}
            scale = max(abs(c) for c in
                        (order.coeff(nu) for nu in order.support())) \
                if len(order) else 1.0
            for nu in sorted(modes):
                expected = order.coeff(nu) if any(nu) else 0j
                got = sum_trees(k, nu, ctx)
                assert abs(got - expected) <= 1e-12 * max(scale, 1e-16)

    def test_separable_cubic_with_quadratic(self):
        self.check(cubic_system(extra_quadratic=0.8), 0.05, 0.02)

    def test_separable_k2_zero(self):
        ctx = TreeValueContext(cubic_system(extra_quadratic=1.0), 0.05, 0.1)
        assert sum_trees(2, (1, 0), ctx) == 0j

    def test_general_grid(self):
        self.check(grid_system(), 0.03, 0.02)

    def test_first_order_match(self):
        sys = cubic_system()
        ladder = build_ladder(sys, 0.06, 0.25, 1, 8)
        ctx = TreeValueContext(sys, 0.06, 0.25)
        for nu in ((1, 0), (0, -1)):
            assert sum_trees(1, nu, ctx) == pytest.approx(
                ladder.order(1).coeff(nu), abs=1e-17
            )


class TestChains:
    def test_no_chain_in_separable_trees(self):
        sys = cubic_system(extra_quadratic=1.0)
        support = TreeSupport.from_system(sys)
        for k in range(1, 5):
            for tree in enumerate_all(k, support):
                assert find_chains(tree) == []

    def test_single_chain_node(self):
        leaf = TreeNode("end", (0, 1))
        link = TreeNode("internal", (1, 0), (leaf,))
        chains = find_chains(link)
        assert len(chains) == 1
        assert chains[0].length == 1

    def test_stacked_nodes_form_one_chain(self):
        leaf = TreeNode("end", (0, 1))
        inner = TreeNode("internal", (1, 0), (leaf,))
        outer = TreeNode("internal", (-1, 0), (inner,))
        chains = find_chains(outer)
        assert len(chains) == 1
        assert chains[0].length == 2
        assert chains[0].nodes[0] is outer  # root side first

    def test_chain_interrupted_by_branching(self):
        leaves = (TreeNode("end", (0, 1)), TreeNode("end", (0, -1)))
        fork = TreeNode("internal", (0, 0), leaves)
        link = TreeNode("internal", (1, 0), (fork,))
        chains = find_chains(link)
        assert len(chains) == 1
        assert chains[0].length == 1


class TestCounting:
    def test_single_end_node_boundary(self):
        report = verify_counting(TreeNode("end", (1, 0)))
        assert all(report.values())

    def test_order_three_boundary(self):
        sys = cubic_system(extra_quadratic=1.0)
        support = TreeSupport.from_system(sys)
        trees = enumerate_all(3, support)
        assert trees
        for tree in trees:
            report = verify_counting(tree)
            assert all(report.values())
            ends = sum(1 for n in tree.nodes() if n.kind == "end")
            assert ends >= 0.5 * (3 + 1)

    def test_all_trees_up_to_five(self):
        for sys in (cubic_system(extra_quadratic=0.7), grid_system()):
            support = TreeSupport.from_system(sys)
            for k in range(1, 6):
                for tree in enumerate_all(k, support):
                    assert all(verify_counting(tree).values())

    def test_separable_relations_exactly_on_chain_free_trees(self):
        separable = {"end_ge_half_order_plus_1", "end_ge_internal_plus_1"}
        support = TreeSupport.from_system(grid_system())
        seen = {True: 0, False: 0}
        for k in range(1, 6):
            for tree in enumerate_all(k, support):
                chain_free = not any(n.kind == "internal" and n.p == 1
                                     for n in tree.nodes())
                report = verify_counting(tree)
                assert (separable <= report.keys()) is chain_free
                assert all(report.values())
                seen[chain_free] += 1
        # the theorem-2 grid has trees of both shapes
        assert seen[True] and seen[False]


class TestChainBound:
    def setup_ctx(self, far_mode=False):
        grid = {
            ((0, 0), 1): 1.0,
            ((1, 0), 1): 0.5,
            ((-1, 0), 1): 0.5,
            ((0, 0), 2): 1.0,
            ((0, 1), 0): -0.15j,
            ((0, -1), 0): 0.15j,
        }
        if far_mode:
            grid[((5, 0), 1)] = 0.01
            grid[((-5, 0), 1)] = 0.01
        sys = recentre(GeneralSystem(GOLDEN, grid), 0.0)
        return sys

    def bound_inputs(self, sys, xi, rho, eps, n0):
        from qpresponse.diophantine import alpha_n
        from qpresponse.systems import certify_envelope

        env = certify_envelope(sys, xi=xi, rho=rho)
        C0 = max(env.Gamma / abs(sys.a), 1.0) / rho
        alpha, _ = alpha_n(sys.omega, n0)
        delta = math.exp(-xi * 2**n0 / 4.0)
        beta = max(delta, 2 * abs(eps * sys.a) / alpha)
        return C0, beta

    def test_length_one_chain(self):
        sys = self.setup_ctx()
        xi, rho, eps, n0 = 0.4, 0.5, 0.03, 2
        C0, beta = self.bound_inputs(sys, xi, rho, eps, n0)
        ctx = TreeValueContext(sys, eps, 0.0)
        chain = Chain((TreeNode("internal", (1, 0), (TreeNode("end", (0, 1)),)),))
        report = chain_value_bound_check(chain, ctx, C0, beta, xi)
        assert report["passed"]

    def test_length_two_chain_golden(self):
        sys = self.setup_ctx()
        xi, rho, eps, n0 = 0.4, 0.5, 0.03, 2
        C0, beta = self.bound_inputs(sys, xi, rho, eps, n0)
        ctx = TreeValueContext(sys, eps, 0.0)
        leaf = TreeNode("end", (0, 1))
        inner = TreeNode("internal", (1, 0), (leaf,))
        outer = TreeNode("internal", (-1, 0), (inner,))
        report = chain_value_bound_check(find_chains(outer)[0], ctx, C0, beta, xi)
        assert report["passed"]
        assert report["length"] == 2

    def test_far_mode_delta_branch(self):
        # |nu_v1| = 5 > 2^{n0} = 4: the bound holds through the decay factor
        sys = self.setup_ctx(far_mode=True)
        xi, rho, eps, n0 = 0.4, 0.5, 0.03, 2
        C0, beta = self.bound_inputs(sys, xi, rho, eps, n0)
        ctx = TreeValueContext(sys, eps, 0.0)
        leaf = TreeNode("end", (0, 1))
        inner = TreeNode("internal", (1, 0), (leaf,))
        outer = TreeNode("internal", (5, 0), (inner,))
        report = chain_value_bound_check(find_chains(outer)[0], ctx, C0, beta, xi)
        assert report["passed"]

    def test_all_enumerated_chains_bounded(self):
        sys = self.setup_ctx(far_mode=True)
        xi, rho, eps, n0 = 0.4, 0.5, 0.03, 2
        C0, beta = self.bound_inputs(sys, xi, rho, eps, n0)
        ctx = TreeValueContext(sys, eps, 0.0)
        support = TreeSupport.from_system(sys)
        checked = 0
        for k in range(2, 5):
            for tree in enumerate_all(k, support):
                for chain in find_chains(tree):
                    report = chain_value_bound_check(chain, ctx, C0, beta, xi)
                    assert report["passed"], report
                    checked += 1
        assert checked > 0


def test_serialization_round_trip_shape():
    leaf = TreeNode("end", (0, 1))
    inner = TreeNode("internal", (1, 0), (leaf,))
    blob = inner.to_json_dict()
    assert blob["kind"] == "internal"
    assert blob["children"][0]["mode"] == [0, 1]


def test_one_tree_family():
    # no switch on the system's theorem and no unlabelled node: a separable
    # tree is a general tree whose branching nodes sit at the zero mode
    module = ast.parse(inspect.getsource(inspect.getmodule(TreeNode)))
    for node in ast.walk(module):
        assert not (isinstance(node, ast.Attribute) and node.attr == "theorem")
        assert not (isinstance(node, ast.Name) and node.id == "theorem")
        assert not (isinstance(node, ast.arg) and node.arg == "theorem")
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "TreeNode":
            assert not any(isinstance(arg, ast.Constant) and arg.value is None
                           for arg in node.args)
    support = TreeSupport.from_system(cubic_system(extra_quadratic=1.0))
    assert support.v1_modes == ()
    assert support.v2_layers == ((2, ((0, 0),)), (3, ((0, 0),)))
    with pytest.raises(TypeError):
        TreeNode("internal", None, (TreeNode("end", (1, 0)),))
