"""Property-based tests of ROBDD canonicity and algebraic laws.

Random Boolean expressions are generated over a small variable set,
built both as BDDs and as plain Python evaluation functions, and
checked against each other on every point of the Boolean cube.  The
canonical-form property (equal functions <=> identical nodes) is the
basis of all equivalence checks in the verification methodology, so it
gets particular attention here.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager, distinguisher, vector_equal

VARIABLES = ("a", "b", "c", "d")


def expressions(max_depth=4):
    """Strategy producing (python evaluator, bdd builder) expression trees."""
    leaves = st.sampled_from(
        [(lambda env, n=name: env[n], lambda m, n=name: m.var(n)) for name in VARIABLES]
        + [
            (lambda env: True, lambda m: m.one),
            (lambda env: False, lambda m: m.zero),
        ]
    )

    def extend(children):
        unary = st.tuples(children).map(
            lambda t: (lambda env: not t[0][0](env), lambda m: m.apply_not(t[0][1](m)))
        )
        binary = st.tuples(st.sampled_from(["and", "or", "xor"]), children, children).map(
            _make_binary
        )
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=max_depth * 2)


def _make_binary(parts):
    op, (eval_l, build_l), (eval_r, build_r) = parts
    if op == "and":
        return (
            lambda env: eval_l(env) and eval_r(env),
            lambda m: m.apply_and(build_l(m), build_r(m)),
        )
    if op == "or":
        return (
            lambda env: eval_l(env) or eval_r(env),
            lambda m: m.apply_or(build_l(m), build_r(m)),
        )
    return (
        lambda env: eval_l(env) != eval_r(env),
        lambda m: m.apply_xor(build_l(m), build_r(m)),
    )


def all_assignments():
    for values in itertools.product([False, True], repeat=len(VARIABLES)):
        yield dict(zip(VARIABLES, values))


@settings(max_examples=120, deadline=None)
@given(expressions())
def test_bdd_matches_python_semantics(expression):
    evaluate, build = expression
    manager = BDDManager(VARIABLES)
    node = build(manager)
    for assignment in all_assignments():
        assert manager.evaluate(node, assignment) == bool(evaluate(assignment))


@settings(max_examples=80, deadline=None)
@given(expressions(), expressions())
def test_canonicity_equal_functions_share_node(left, right):
    eval_l, build_l = left
    eval_r, build_r = right
    manager = BDDManager(VARIABLES)
    node_l = build_l(manager)
    node_r = build_r(manager)
    semantically_equal = all(
        bool(eval_l(assignment)) == bool(eval_r(assignment)) for assignment in all_assignments()
    )
    assert (node_l is node_r) == semantically_equal


@settings(max_examples=80, deadline=None)
@given(expressions(), st.sampled_from(VARIABLES))
def test_shannon_expansion(expression, variable):
    _, build = expression
    manager = BDDManager(VARIABLES)
    f = build(manager)
    v = manager.var(variable)
    expansion = manager.apply_or(
        manager.apply_and(v, manager.cofactor(f, variable, True)),
        manager.apply_and(manager.apply_not(v), manager.cofactor(f, variable, False)),
    )
    assert expansion is f


@settings(max_examples=80, deadline=None)
@given(expressions(), st.sampled_from(VARIABLES))
def test_quantification_bounds(expression, variable):
    """forall x . f  implies  f  implies  exists x . f."""
    _, build = expression
    manager = BDDManager(VARIABLES)
    f = build(manager)
    exists = manager.exists([variable], f)
    forall = manager.forall([variable], f)
    assert manager.is_tautology(manager.apply_implies(forall, f))
    assert manager.is_tautology(manager.apply_implies(f, exists))


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_sat_count_matches_truth_table(expression):
    evaluate, build = expression
    manager = BDDManager(VARIABLES)
    node = build(manager)
    expected = sum(1 for assignment in all_assignments() if evaluate(assignment))
    assert manager.sat_count(node, VARIABLES) == expected


@settings(max_examples=60, deadline=None)
@given(expressions(), expressions(), expressions())
def test_ite_respects_semantics(cond, then, else_):
    eval_c, build_c = cond
    eval_t, build_t = then
    eval_e, build_e = else_
    manager = BDDManager(VARIABLES)
    node = manager.ite(build_c(manager), build_t(manager), build_e(manager))
    for assignment in all_assignments():
        expected = eval_t(assignment) if eval_c(assignment) else eval_e(assignment)
        assert manager.evaluate(node, assignment) == bool(expected)


@settings(max_examples=60, deadline=None)
@given(expressions(), st.sampled_from(VARIABLES), expressions())
def test_compose_is_substitution(expression, variable, replacement):
    eval_f, build_f = expression
    eval_g, build_g = replacement
    manager = BDDManager(VARIABLES)
    composed = manager.compose(build_f(manager), {variable: build_g(manager)})
    for assignment in all_assignments():
        substituted = dict(assignment)
        substituted[variable] = bool(eval_g(assignment))
        assert manager.evaluate(composed, assignment) == bool(eval_f(substituted))


# ----------------------------------------------------------------------
# pick_assignment_in_order: the witness walk of another variable order
# ----------------------------------------------------------------------
WIDE_VARIABLES = tuple(f"x{index}" for index in range(8))


def _random_function(manager, seed):
    """A seeded random function over ``WIDE_VARIABLES``, independent of the order."""
    rng = random.Random(seed)
    pool = [manager.var(name) for name in WIDE_VARIABLES]
    operations = (manager.apply_and, manager.apply_or, manager.apply_xor)
    for _ in range(10):
        left, right = rng.sample(pool, 2)
        node = rng.choice(operations)(left, right)
        pool.append(manager.apply_not(node) if rng.random() < 0.3 else node)
    return pool[-1]


def _shuffled(seed):
    names = list(WIDE_VARIABLES)
    random.Random(f"order:{seed}").shuffle(names)
    return tuple(names)


def _walk(assignment):
    """The witness with its decision order (dict equality ignores order)."""
    return None if assignment is None else list(assignment.items())


@pytest.mark.parametrize("seed", range(40))
def test_pick_assignment_in_order_matches_own_order(seed):
    manager = BDDManager(_shuffled(seed))
    f = _random_function(manager, seed)
    assert _walk(manager.pick_assignment_in_order(f, manager.variables)) == _walk(
        manager.pick_assignment(f)
    )


@pytest.mark.parametrize("seed", range(40))
def test_pick_assignment_in_order_ignores_the_manager_order(seed):
    names = _shuffled(seed)
    reference = BDDManager(names)
    other = BDDManager(_shuffled(seed + 1000))
    expected = reference.pick_assignment(_random_function(reference, seed))
    f = _random_function(other, seed)
    assert _walk(other.pick_assignment_in_order(f, names)) == _walk(expected)


def test_pick_assignment_in_order_on_constants():
    manager = BDDManager(VARIABLES)
    assert manager.pick_assignment_in_order(manager.zero, VARIABLES) is None
    assert manager.pick_assignment_in_order(manager.one, VARIABLES) == {}


def test_pick_assignment_in_order_rejects_an_order_missing_support():
    manager = BDDManager(VARIABLES)
    # The walk decides a=0 and stops; d is off the path but in the support.
    f = manager.apply_or(manager.nvar("a"), manager.var("d"))
    with pytest.raises(ValueError, match="'d'"):
        manager.pick_assignment_in_order(f, ("a", "b", "c"))


# ----------------------------------------------------------------------
# compose_all: one substitution walk over many roots
# ----------------------------------------------------------------------
def _random_pool(manager, rng, steps=30):
    """Random functions over ``WIDE_VARIABLES``; later ones share cones."""
    pool = [manager.zero, manager.one]
    pool += [manager.var(name) for name in WIDE_VARIABLES]
    operations = (manager.apply_and, manager.apply_or, manager.apply_xor)
    for _ in range(steps):
        left, right = rng.sample(pool, 2)
        pool.append(rng.choice(operations)(left, right))
    return pool


def _mixed_substitution(manager, rng, pool):
    """Each variable unbound, or bound to a constant, a function or itself."""
    constants, functions = {}, {}
    for name in WIDE_VARIABLES:
        kind = rng.choice(("free", "constant", "function", "identity"))
        if kind == "constant":
            constants[name] = rng.random() < 0.5
        elif kind == "function":
            functions[name] = rng.choice(pool)
        elif kind == "identity":
            functions[name] = manager.var(name)
    return constants, functions


def _ids(functions):
    return [f.node_id for f in functions]


@pytest.mark.parametrize("seed", range(40))
def test_compose_all_matches_per_function_compose(seed):
    manager = BDDManager(_shuffled(seed))
    rng = random.Random(f"compose_all:{seed}")
    pool = _random_pool(manager, rng)
    constants, functions = _mixed_substitution(manager, rng, pool)
    substitution = dict(functions)
    substitution.update((name, manager.constant(value)) for name, value in constants.items())
    # The roots share cones and repeat, so the memo is hit across roots.
    roots = rng.sample(pool, len(pool)) + pool[-5:]
    result = manager.compose_all(roots, substitution)
    assert _ids(result) == _ids(manager.compose(f, substitution) for f in roots)
    assert _ids(result) == _ids(
        manager.compose(manager.restrict(f, constants), functions) for f in roots
    )


@pytest.mark.parametrize("seed", range(10))
def test_compose_all_memo_is_shared_across_calls(seed):
    manager = BDDManager(_shuffled(seed))
    rng = random.Random(f"compose_all_memo:{seed}")
    pool = _random_pool(manager, rng)
    constants, functions = _mixed_substitution(manager, rng, pool)
    substitution = dict(functions)
    substitution.update((name, manager.constant(value)) for name, value in constants.items())
    memo = {}
    first = manager.compose_all(pool[:20], substitution, memo)
    second = manager.compose_all(pool[10:], substitution, memo)
    assert _ids(first + second) == _ids(
        manager.compose(f, substitution) for f in pool[:20] + pool[10:]
    )


def test_compose_all_with_empty_substitution_is_identity():
    manager = BDDManager(_shuffled(0))
    pool = _random_pool(manager, random.Random("compose_all:empty"))
    assert _ids(manager.compose_all(pool, {})) == _ids(pool)
    assert manager.compose_all([], {"x0": manager.one}) == []


# ----------------------------------------------------------------------
# distinguisher: one shared refuting walk per comparison
# ----------------------------------------------------------------------
def _random_vector(manager, rng, width=3):
    pool = [manager.var(name) for name in WIDE_VARIABLES]
    operations = (manager.apply_and, manager.apply_or, manager.apply_xor, manager.apply_xnor)
    for _ in range(8):
        left, right = rng.sample(pool, 2)
        pool.append(rng.choice(operations)(left, right))
    return [rng.choice(pool[len(WIDE_VARIABLES) :]) for _ in range(width)]


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("ordered", [True, False])
def test_shared_refuting_walks_equal_independent_walks(seed, ordered):
    # A series of pairs over shared logic, some identical (no witness):
    # each walk of the shared walker equals a fresh walk of the negated
    # equality, in a shuffled order or in the manager's own.
    rng = random.Random(f"distinguish:{seed}")
    manager = BDDManager(_shuffled(seed))
    order = _shuffled(seed + 500) if ordered else None
    find = distinguisher(manager, order)
    for _ in range(6):
        left = _random_vector(manager, rng)
        right = list(left) if rng.random() < 0.25 else _random_vector(manager, rng)
        difference = manager.apply_not(vector_equal(manager, left, right))
        expected = (
            manager.pick_assignment_in_order(difference, order)
            if ordered
            else manager.pick_assignment(difference)
        )
        if right == left:
            assert expected is None
        assert _walk(find(left, right)) == _walk(expected)
