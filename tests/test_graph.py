import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsteer import Dag, PredictionModel, augment_graph, effects_on_prediction, graph
from causalsteer.graph import _static_order as static_order, solve, solve_transposed
from causalsteer.errors import CycleDetected, IndexOutOfRange, NonFiniteWeight, NonzeroDiagonal

from .oracles import root_mask, solve_by_rows


def random_dag(rng: np.random.Generator, n: int, p: float = 0.4) -> Dag:
    """Random DAG: edges low -> high index, then vertex labels shuffled."""
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            if rng.random() < p:
                w[i, j] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    perm = rng.permutation(n)
    return Dag(w[np.ix_(perm, perm)])


def order(dag: Dag) -> list[int]:
    """The 1-based variables in the order of the Dag's stored schedule."""
    return [v + 1 for v, _, _ in dag.schedule]


class TestValidate:
    """A Dag is validated once, by its constructor."""

    def test_chain_is_valid(self, chain3):
        schedule = [(v, pa.tolist(), wv.tolist()) for v, pa, wv in chain3.schedule]
        assert schedule == [(0, [], []), (1, [0], [2.0]), (2, [1], [0.5])]

    def test_two_cycle(self):
        with pytest.raises(CycleDetected) as exc:
            Dag(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert exc.value.cycle == [1, 2]

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal) as exc:
            Dag(np.array([[0.3]]))
        assert exc.value.index == 1

    def test_non_finite_weight(self):
        w = np.zeros((2, 2))
        w[1, 0] = np.inf
        with pytest.raises(NonFiniteWeight) as exc:
            Dag(w)
        assert (exc.value.i, exc.value.j) == (2, 1)

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ([[0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0]], CycleDetected([1, 2, 3])),
            ([[0, 0, 0], [np.inf, 0, 0], [0, 1.0, 0]], NonFiniteWeight(2, 1)),
            ([[0, 0, 0], [1.0, 0, 0], [0, np.nan, 0]], NonFiniteWeight(3, 2)),
        ],
        ids=["cycle", "inf", "nan"],
    )
    def test_invalid_weights_rejected_at_construction(self, weights, expected):
        with pytest.raises(type(expected)) as exc:
            Dag(np.array(weights))
        assert vars(exc.value) == vars(expected)
        assert str(exc.value) == str(expected)

    def test_schedule_is_computed_once(self, monkeypatch, seven_vertex_dag):
        calls = []

        def counting_order(*args):
            calls.append(1)
            return static_order(*args)

        monkeypatch.setattr(graph, "_static_order", counting_order)
        dag = Dag(seven_vertex_dag.weights)
        assert len(calls) == 1
        for fixed in (None, 1, 4):
            solve(dag, np.ones((7, 2)), fixed=fixed)
        assert order(dag) == order(seven_vertex_dag)
        assert len(calls) == 1

    def test_non_square_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Dag(np.zeros((2, 3)))

    def test_cycle_witness_is_a_real_cycle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            dag = random_dag(rng, n)
            adj = dag.weights != 0
            # close a cycle: add an edge v -> u where u already reaches v
            reach = np.linalg.matrix_power(adj + np.eye(n, dtype=bool), n)
            candidates = np.argwhere(reach & ~np.eye(n, dtype=bool))
            if candidates.size == 0:
                continue
            v, u = candidates[rng.integers(len(candidates))]  # reach[v, u]: u -> ... -> v
            w = dag.weights.copy()
            w[u, v] = 1.0
            with pytest.raises(CycleDetected) as exc:
                Dag(w)
            cycle = exc.value.cycle
            assert len(cycle) >= 2
            assert cycle[0] == min(cycle)
            assert len(set(cycle)) == len(cycle), f"vertex repeated in witness {cycle}"
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert w[b - 1, a - 1] != 0, f"missing edge {a}->{b} in witness {cycle}"


    @given(st.integers(0, 10_000), st.integers(2, 12), st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_cyclic_graph_witness(self, seed, n, p):
        # Random edges in both directions, plus a cycle through a random subset of vertices.
        rng = np.random.default_rng(seed)
        w = (rng.random((n, n)) < p) * rng.uniform(0.5, 2.0, (n, n))
        ring = rng.permutation(n)[: int(rng.integers(2, n + 1))]
        w[np.roll(ring, -1), ring] = 1.0
        np.fill_diagonal(w, 0.0)
        with pytest.raises(CycleDetected) as exc:
            Dag(w)
        cycle = exc.value.cycle
        assert cycle[0] == min(cycle)
        assert len(set(cycle)) == len(cycle) >= 2, f"vertex repeated in witness {cycle}"
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert w[b - 1, a - 1] != 0, f"missing edge {a}->{b} in witness {cycle}"

class TestTopologicalOrder:
    def test_chain(self, chain3):
        assert order(chain3) == [1, 2, 3]

    def test_edgeless_ties_break_by_index(self):
        assert order(Dag(np.zeros((3, 3)))) == [1, 2, 3]

    def test_seven_vertex_graph(self, seven_vertex_dag):
        pos = {v: k for k, v in enumerate(order(seven_vertex_dag))}
        assert sorted(pos) == list(range(1, 8))
        assert pos[1] < pos[2] and pos[1] < pos[3]
        assert pos[2] < pos[4] and pos[3] < pos[4]
        assert pos[4] < pos[5] and pos[4] < pos[6]
        assert pos[6] < pos[7]

    def test_cyclic_raises(self):
        with pytest.raises(CycleDetected):
            Dag(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.4, 1.0]))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_parents_precede_children(self, seed, n, p):
        dag = random_dag(np.random.default_rng(seed), n, p)
        pos = {v: k for k, (v, _, _) in enumerate(dag.schedule)}
        assert sorted(pos) == list(range(dag.n))
        for v, pa, _ in dag.schedule:
            parents = np.flatnonzero(dag.weights[v])
            assert (pa.tolist(), pa.dtype) == (parents.tolist(), parents.dtype)
            for u in pa:
                assert pos[u] < pos[v]

    def test_roots_first_in_index_order_then_first_in_first_out(self):
        # 4 -> 1 -> 3 and 2 -> 3: the roots 2 and 4, then 1 (freed by 4), then 3.
        assert order(Dag.from_edges(4, [(4, 1, 1.0), (1, 3, 1.0), (2, 3, 1.0)])) == [2, 4, 1, 3]


class TestSolve:
    def test_chain_by_hand(self, chain3):
        # x1 = 1, x2 = 2*1 + 1, x3 = 0.5*3 + 1
        assert solve(chain3, [1.0, 1.0, 1.0]).tolist() == [1.0, 3.0, 2.5]

    def test_fixed_variable_takes_its_rhs(self, chain3):
        assert solve(chain3, [1.0, 7.0, 0.0], fixed=2).tolist() == [1.0, 7.0, 3.5]

    def test_columns_are_independent_systems(self, chain3):
        rhs = np.arange(12.0).reshape(3, 4)
        out = solve(chain3, rhs)
        for k in range(4):
            assert out[:, k].tolist() == solve(chain3, rhs[:, k]).tolist()

    def test_three_axes_and_a_wrong_first_axis_refused(self, chain3):
        with pytest.raises(ValueError):
            solve(chain3, np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            solve(chain3, np.zeros((2, 3)))

    @given(st.integers(0, 10_000), st.integers(1, 12), st.sampled_from([(), (3,)]), st.booleans())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_any_topological_order_gives_the_same_bits(self, seed, n, columns, with_fixed):
        # The schedule in a random topological order of the test's own: each step
        # takes a random vertex whose parents are all placed.
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, n)
        entries, placed, reordered = {e[0]: e for e in dag.schedule}, set(), []
        while entries:
            ready = sorted(v for v, pa, _ in entries.values() if placed.issuperset(pa.tolist()))
            v = ready[rng.integers(len(ready))]
            reordered.append(entries.pop(v))
            placed.add(v)
        shuffled = Dag(dag.weights)
        object.__setattr__(shuffled, "schedule", tuple(reordered))
        rhs = rng.normal(size=(n, *columns))
        fixed = int(rng.integers(1, n + 1)) if with_fixed else None
        assert solve(shuffled, rhs, fixed).tobytes() == solve(dag, rhs, fixed).tobytes()

    @given(st.integers(0, 10_000), st.integers(1, 12), st.sampled_from([(), (3,)]), st.booleans())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_equals_row_loop_bit_for_bit(self, seed, n, rows, with_fixed):
        # solve_by_rows takes one sample per row, so its rhs is the transpose of solve's.
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, n)
        rhs = rng.normal(size=(*rows, n))
        fixed = int(rng.integers(1, n + 1)) if with_fixed else None
        assert solve(dag, rhs.T, fixed).T.tobytes() == solve_by_rows(dag, rhs, fixed).tobytes()

    def test_rhs_not_modified(self, chain3):
        rhs = np.ones(3)
        solve(chain3, rhs)
        assert rhs.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_gives_total_effect_matrix(self, seed):
        dag = random_dag(np.random.default_rng(seed), 9)
        total = solve(dag, np.eye(9))
        np.testing.assert_allclose(total, np.linalg.inv(np.eye(9) - dag.weights), rtol=1e-12, atol=1e-12)
        reach = np.linalg.matrix_power((dag.weights != 0) | np.eye(9, dtype=bool), 9)
        assert (total[~reach] == 0.0).all()

    def test_shape_and_index_checked(self, chain3):
        with pytest.raises(ValueError):
            solve(chain3, np.zeros(2))
        with pytest.raises(IndexOutOfRange):
            solve(chain3, np.zeros(3), fixed=4)


def cut_weights(dag: Dag, fixed: int | None) -> np.ndarray:
    """W~: the weights with row ``fixed`` zeroed, the equation do(X_fixed = c) removes."""
    w = dag.weights.copy()
    if fixed is not None:
        w[fixed - 1] = 0.0
    return w


def path_sums(w: np.ndarray) -> np.ndarray:
    """Entry [j, k]: the sum over directed paths k -> ... -> j (and k == j) of their absolute weight products.

    Bounds entry [j, k] of (I - W)^-1 in magnitude, and is positive exactly
    where such a path exists: no rounding noise where that entry is zero.
    """
    a = np.abs(w)
    total = term = np.eye(len(w))
    for _ in range(len(w)):
        term = a @ term
        total = total + term
    return total


def assert_close(actual, expected, scale) -> None:
    """Equal to 1e-12 relative to ``scale``, the same sum taken over absolute values."""
    assert (np.abs(actual - expected) <= 1e-12 * scale).all()


class TestSolveTransposed:
    """y = rhs (I - W~)^-1 in one reverse pass: the adjoint of solve."""

    def test_chain_by_hand(self, chain3):
        # y3 = 1, y2 = 1 + 0.5 * 1, y1 = 1 + 2 * 1.5
        assert solve_transposed(chain3, [1.0, 1.0, 1.0]).tolist() == [4.0, 1.5, 1.0]

    def test_fixed_vertex_passes_nothing_to_its_parents(self, chain3):
        assert solve_transposed(chain3, [1.0, 1.0, 1.0], fixed=2).tolist() == [1.0, 1.5, 1.0]

    def test_shape_and_index_checked(self, chain3):
        with pytest.raises(ValueError):
            solve_transposed(chain3, np.zeros(2))
        with pytest.raises(ValueError):
            solve_transposed(chain3, np.zeros((2, 3)))
        with pytest.raises(IndexOutOfRange):
            solve_transposed(chain3, np.zeros(3), fixed=0)

    @given(st.integers(0, 10_000), st.integers(1, 12), st.booleans())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_is_the_adjoint_of_solve(self, seed, n, with_fixed):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, n)
        fixed = int(rng.integers(1, n + 1)) if with_fixed else None
        u, v = rng.normal(size=n), rng.normal(size=n)
        scale = np.abs(u) @ path_sums(cut_weights(dag, fixed)) @ np.abs(v)
        assert_close(solve_transposed(dag, u, fixed) @ v, u @ solve(dag, v, fixed), scale)

    @given(st.integers(0, 10_000), st.integers(2, 12), st.sampled_from([0.1, 0.4, 0.8]), st.booleans())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_effects_match_the_dense_oracle_and_vanish_off_the_predictors_ancestors(self, seed, n, p, with_fixed):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, n, p)
        target = int(rng.integers(1, n + 1))
        others = [i for i in range(1, n + 1) if i != target]
        preds = tuple(sorted(int(i) for i in rng.choice(others, size=int(rng.integers(1, n)), replace=False)))
        coeffs = rng.uniform(0.5, 2.0, len(preds)) * rng.choice([-1.0, 1.0], len(preds))
        model = PredictionModel("linear", 0.0, coeffs, preds, target)
        fixed = int(rng.integers(1, n + 1)) if with_fixed else None
        cut = cut_weights(dag, fixed)
        augmented = augment_graph(dag, model)
        w = augmented.coeffs
        effects = effects_on_prediction(augmented, fixed)
        scale = np.abs(w) @ path_sums(cut)
        # Positive scale: a path in the cut graph from the variable into a predictor.
        feeds = scale > 0
        dense = w @ np.linalg.inv(np.eye(n) - cut)
        assert_close(effects[feeds], dense[feeds], scale[feeds])
        assert ((effects == 0.0) == ~feeds).all()


class TestNeighborhoods:
    """The schedule lists each vertex's parents (0-based); root_mask marks the parentless."""

    def test_seven_vertex_parents(self, seven_vertex_dag):
        assert {v: pa for v, pa, _ in seven_vertex_dag.schedule}[3].tolist() == [1, 2]

    def test_edgeless_roots(self):
        assert root_mask(Dag(np.zeros((4, 4)))).tolist() == [True] * 4

    def test_chain_children(self, chain3):
        assert [v for v, pa, _ in chain3.schedule if 1 in pa] == [2]

    def test_index_out_of_range(self, chain3):
        with pytest.raises(IndexOutOfRange):
            chain3.name_of(4)
        with pytest.raises(IndexOutOfRange):
            chain3.name_of(0)


class TestDagType:
    def test_weights_are_immutable(self, chain3):
        with pytest.raises(ValueError):
            chain3.weights[0, 0] = 1.0

    def test_schedule_parents_are_immutable(self, chain3):
        _, parents, _ = chain3.schedule[1]
        with pytest.raises(ValueError):
            parents[0] = 2

    def test_schedule_weights_are_the_parents_weights(self, seven_vertex_dag):
        w = seven_vertex_dag.weights
        for v, pa, wv in seven_vertex_dag.schedule:
            assert wv.tolist() == w[v, pa].tolist()
            with pytest.raises(ValueError):
                wv[...] = 0.0

    def test_from_edges_duplicate_named_before_a_later_bad_endpoint(self):
        with pytest.raises(ValueError, match="duplicate edge 1 -> 2"):
            Dag.from_edges(2, [(1, 2, 1.0), (1, 2, 0.5), (1, 3, 1.0)])

    def test_from_edges_bad_endpoint_named_before_a_later_duplicate(self):
        with pytest.raises(IndexOutOfRange, match="edge endpoint 0"):
            Dag.from_edges(2, [(1, 2, 1.0), (0, 2, 1.0), (1, 2, 0.5)])

    def test_from_edges_refuses_a_negative_n(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            Dag.from_edges(-1, [])
        assert Dag.from_edges(0, []).n == 0

    def test_from_edges_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dag.from_edges(2, [(1, 2, 1.0), (1, 2, 0.5)])

    def test_from_edges_bad_endpoint(self):
        with pytest.raises(IndexOutOfRange):
            Dag.from_edges(2, [(1, 3, 1.0)])

    def test_names(self):
        dag = Dag(np.zeros((2, 2)), names=("a", "b"))
        assert dag.name_of(2) == "b"
        assert Dag(np.zeros((2, 2))).name_of(2) == "x2"
