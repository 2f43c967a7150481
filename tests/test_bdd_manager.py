"""Unit tests for the ROBDD manager: construction, connectives, queries."""

import pytest

from repro.bdd import BDDManager, BDDOrderError


@pytest.fixture()
def manager():
    return BDDManager(["a", "b", "c", "d"])


class TestVariableOrder:
    def test_declared_order_is_preserved(self, manager):
        assert manager.variables == ("a", "b", "c", "d")

    def test_level_lookup(self, manager):
        assert manager.level("a") == 0
        assert manager.level("d") == 3

    def test_redeclaration_is_idempotent(self, manager):
        manager.declare("b")
        assert manager.variables == ("a", "b", "c", "d")

    def test_var_use_auto_declares(self):
        m = BDDManager()
        m.var("x")
        assert "x" in m.variables

    def test_level_of_unknown_variable_raises(self, manager):
        with pytest.raises(BDDOrderError):
            manager.level("nope")

    def test_name_at_level(self, manager):
        assert manager.name_at_level(2) == "c"

    def test_num_vars(self, manager):
        assert manager.num_vars() == 4


class TestConstruction:
    def test_terminals_are_distinct(self, manager):
        assert manager.zero is not manager.one
        assert manager.zero.is_terminal and manager.one.is_terminal

    def test_constant(self, manager):
        assert manager.constant(True) is manager.one
        assert manager.constant(False) is manager.zero

    def test_var_is_hash_consed(self, manager):
        assert manager.var("a") is manager.var("a")

    def test_nvar_is_negation_of_var(self, manager):
        a = manager.var("a")
        assert manager.nvar("a") is manager.apply_not(a)

    def test_redundant_node_is_reduced(self, manager):
        # ite(a, b, b) must collapse to b.
        b = manager.var("b")
        assert manager.ite(manager.var("a"), b, b) is b


class TestConnectives:
    def test_and_truth_table(self, manager):
        f = manager.apply_and(manager.var("a"), manager.var("b"))
        assert manager.evaluate(f, {"a": True, "b": True}) is True
        assert manager.evaluate(f, {"a": True, "b": False}) is False
        assert manager.evaluate(f, {"a": False, "b": True}) is False

    def test_or_truth_table(self, manager):
        f = manager.apply_or(manager.var("a"), manager.var("b"))
        assert manager.evaluate(f, {"a": False, "b": False}) is False
        assert manager.evaluate(f, {"a": False, "b": True}) is True

    def test_xor_and_xnor_are_complements(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert manager.apply_not(manager.apply_xor(a, b)) is manager.apply_xnor(a, b)

    def test_nand_nor(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert manager.apply_nand(a, b) is manager.apply_not(manager.apply_and(a, b))
        assert manager.apply_nor(a, b) is manager.apply_not(manager.apply_or(a, b))

    def test_implies(self, manager):
        a, b = manager.var("a"), manager.var("b")
        f = manager.apply_implies(a, b)
        assert manager.evaluate(f, {"a": True, "b": False}) is False
        assert manager.evaluate(f, {"a": False, "b": False}) is True

    def test_double_negation(self, manager):
        a = manager.var("a")
        assert manager.apply_not(manager.apply_not(a)) is a

    def test_conjoin_disjoin(self, manager):
        literals = [manager.var(n) for n in ("a", "b", "c")]
        conj = manager.conjoin(literals)
        disj = manager.disjoin(literals)
        assert manager.evaluate(conj, {"a": True, "b": True, "c": True}) is True
        assert manager.evaluate(conj, {"a": True, "b": False, "c": True}) is False
        assert manager.evaluate(disj, {"a": False, "b": False, "c": False}) is False
        assert manager.evaluate(disj, {"a": False, "b": True, "c": False}) is True

    def test_conjoin_empty_is_one(self, manager):
        assert manager.conjoin([]) is manager.one
        assert manager.disjoin([]) is manager.zero

    def test_paper_example_function(self, manager):
        # Figure 3 of the paper: f = x1*x3 + x1'*x2*x3 which simplifies to x3*(x1 + x2).
        m = BDDManager(["x1", "x2", "x3"])
        x1, x2, x3 = m.var("x1"), m.var("x2"), m.var("x3")
        f = m.apply_or(m.apply_and(x1, x3), m.conjoin([m.apply_not(x1), x2, x3]))
        simplified = m.apply_and(x3, m.apply_or(x1, x2))
        assert f is simplified


class TestCanonicity:
    def test_equivalent_constructions_share_node(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        # Distributivity: a(b+c) == ab + ac
        left = manager.apply_and(a, manager.apply_or(b, c))
        right = manager.apply_or(manager.apply_and(a, b), manager.apply_and(a, c))
        assert left is right

    def test_de_morgan(self, manager):
        a, b = manager.var("a"), manager.var("b")
        left = manager.apply_not(manager.apply_and(a, b))
        right = manager.apply_or(manager.apply_not(a), manager.apply_not(b))
        assert left is right

    def test_tautology_collapses_to_one(self, manager):
        a = manager.var("a")
        assert manager.apply_or(a, manager.apply_not(a)) is manager.one

    def test_contradiction_collapses_to_zero(self, manager):
        a = manager.var("a")
        assert manager.apply_and(a, manager.apply_not(a)) is manager.zero


class TestRestrictAndQuantify:
    def test_restrict_single_literal(self, manager):
        a, b = manager.var("a"), manager.var("b")
        f = manager.apply_and(a, b)
        assert manager.cofactor(f, "a", True) is b
        assert manager.cofactor(f, "a", False) is manager.zero

    def test_restrict_multiple(self, manager):
        f = manager.conjoin([manager.var("a"), manager.var("b"), manager.var("c")])
        g = manager.restrict(f, {"a": True, "b": True})
        assert g is manager.var("c")

    def test_restrict_empty_assignment(self, manager):
        a = manager.var("a")
        assert manager.restrict(a, {}) is a

    def test_exists_removes_variable_from_support(self, manager):
        f = manager.apply_and(manager.var("a"), manager.var("b"))
        g = manager.exists(["a"], f)
        assert "a" not in manager.support(g)
        assert g is manager.var("b")

    def test_exists_is_disjunction_of_cofactors(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = manager.apply_or(manager.apply_and(a, b), manager.apply_and(manager.apply_not(a), c))
        expected = manager.apply_or(manager.cofactor(f, "a", False), manager.cofactor(f, "a", True))
        assert manager.exists(["a"], f) is expected

    def test_forall_is_conjunction_of_cofactors(self, manager):
        a, b = manager.var("a"), manager.var("b")
        f = manager.apply_or(a, b)
        expected = manager.apply_and(manager.cofactor(f, "a", False), manager.cofactor(f, "a", True))
        assert manager.forall(["a"], f) is expected

    def test_and_exists_equals_exists_of_and(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = manager.apply_or(a, b)
        g = manager.apply_and(b, c)
        direct = manager.and_exists(["b"], f, g)
        indirect = manager.exists(["b"], manager.apply_and(f, g))
        assert direct is indirect

    def test_and_exists_empty_variable_set(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert manager.and_exists([], a, b) is manager.apply_and(a, b)


class TestComposeRename:
    def test_compose_substitutes_function(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = manager.apply_and(a, b)
        g = manager.compose(f, {"a": manager.apply_or(b, c)})
        expected = manager.apply_and(manager.apply_or(b, c), b)
        assert g is expected

    def test_compose_empty_substitution(self, manager):
        a = manager.var("a")
        assert manager.compose(a, {}) is a

    def test_compose_simultaneous(self, manager):
        # Simultaneous substitution a<->b must swap, not chain.
        a, b = manager.var("a"), manager.var("b")
        f = manager.apply_and(a, manager.apply_not(b))
        g = manager.compose(f, {"a": b, "b": a})
        expected = manager.apply_and(b, manager.apply_not(a))
        assert g is expected

    def test_rename(self, manager):
        f = manager.apply_and(manager.var("a"), manager.var("b"))
        g = manager.rename(f, {"a": "c"})
        assert g is manager.apply_and(manager.var("c"), manager.var("b"))


class TestQueries:
    def test_tautology_and_contradiction(self, manager):
        assert manager.is_tautology(manager.one)
        assert manager.is_contradiction(manager.zero)
        assert not manager.is_tautology(manager.var("a"))

    def test_satisfiable(self, manager):
        assert manager.is_satisfiable(manager.var("a"))
        assert not manager.is_satisfiable(manager.zero)

    def test_support(self, manager):
        f = manager.apply_and(manager.var("a"), manager.var("c"))
        assert manager.support(f) == ("a", "c")

    def test_support_of_constant_is_empty(self, manager):
        assert manager.support(manager.one) == ()

    def test_count_nodes(self, manager):
        a = manager.var("a")
        # A single-variable function: 1 decision node + 2 terminals.
        assert manager.count_nodes(a) == 3

    def test_sat_count_over_support(self, manager):
        f = manager.apply_or(manager.var("a"), manager.var("b"))
        assert manager.sat_count(f) == 3

    def test_sat_count_over_larger_universe(self, manager):
        f = manager.var("a")
        assert manager.sat_count(f, ["a", "b", "c"]) == 4

    def test_sat_count_missing_support_raises(self, manager):
        f = manager.apply_and(manager.var("a"), manager.var("b"))
        with pytest.raises(ValueError):
            manager.sat_count(f, ["a"])

    def test_sat_count_constants(self, manager):
        assert manager.sat_count(manager.one, ["a", "b"]) == 4
        assert manager.sat_count(manager.zero, ["a", "b"]) == 0

    def test_pick_assignment_satisfies(self, manager):
        f = manager.apply_and(manager.var("a"), manager.apply_not(manager.var("c")))
        assignment = manager.pick_assignment(f)
        assert assignment is not None
        assert manager.restrict(f, assignment) is manager.one

    def test_pick_assignment_of_zero_is_none(self, manager):
        assert manager.pick_assignment(manager.zero) is None

    def test_iter_assignments(self, manager):
        f = manager.apply_xor(manager.var("a"), manager.var("b"))
        models = list(manager.iter_assignments(f, ["a", "b"]))
        assert len(models) == 2
        for model in models:
            assert manager.evaluate(f, model) is True

    def test_cube(self, manager):
        cube = manager.cube({"a": True, "b": False})
        assert manager.evaluate(cube, {"a": True, "b": False}) is True
        assert manager.evaluate(cube, {"a": True, "b": True}) is False

    def test_evaluate_missing_variable_raises(self, manager):
        f = manager.var("a")
        with pytest.raises(KeyError):
            manager.evaluate(f, {})

    def test_statistics_and_clear_caches(self, manager):
        manager.apply_and(manager.var("a"), manager.var("b"))
        assert manager.num_vars() == 4
        # ``live`` counts the two terminals next to the unique-table nodes.
        assert manager.arena_statistics()["live"] - 2 >= 1
        manager.clear_caches()
        assert manager.cache_statistics()["ite_entries"] == 0

    def test_size_counts_unique_nodes(self, manager):
        before = manager.size()
        manager.apply_and(manager.var("a"), manager.var("b"))
        assert manager.size() > before


class TestDeepQuantification:
    """_quantify must survive BDDs deeper than the recursion limit."""

    DEPTH = 3000

    def deep_cube(self, manager, names):
        """AND of thousands of literals, built bottom-up (no recursion)."""
        node = manager.one
        for level in range(len(names) - 1, -1, -1):
            node = manager._mk(level, manager.zero, node)
        return node

    def test_exists_on_deep_cube(self):
        names = [f"x{i}" for i in range(self.DEPTH)]
        manager = BDDManager(names)
        cube = self.deep_cube(manager, names)
        # Quantify every other variable out of a 3000-deep conjunction;
        # the recursive implementation would exhaust CPython's stack.
        quantified = manager.exists(names[1::2], cube)
        expected = manager.one
        for level in range(self.DEPTH - 2, -1, -2):
            expected = manager._mk(level, manager.zero, expected)
        assert quantified is expected

    def test_forall_on_deep_cube(self):
        names = [f"x{i}" for i in range(self.DEPTH)]
        manager = BDDManager(names)
        cube = self.deep_cube(manager, names)
        # For a cube, forall over any variable collapses to zero.
        assert manager.forall([names[17]], cube) is manager.zero

    def test_deep_quantify_respects_cache_limit(self):
        names = [f"x{i}" for i in range(self.DEPTH)]
        manager = BDDManager(names, cache_limit=64)
        cube = self.deep_cube(manager, names)
        quantified = manager.exists(names[1::2], cube)
        assert quantified is not manager.zero
        stats = manager.cache_statistics()
        assert stats["clears"] > 0  # evictions happened mid-computation
