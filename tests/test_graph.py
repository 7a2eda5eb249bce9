import graphlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsteer import Dag, graph
from causalsteer.graph import _static_order as static_order, root_mask, solve
from causalsteer.errors import CycleDetected, IndexOutOfRange, NonFiniteWeight, NonzeroDiagonal

from .oracles import solve_by_rows


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
    return [v + 1 for v, _ in dag.schedule]


class TestValidate:
    """A Dag is validated once, by its constructor."""

    def test_chain_is_valid(self, chain3):
        schedule = [(v, pa.tolist()) for v, pa in chain3.schedule]
        assert schedule == [(0, []), (1, [0]), (2, [1])]

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
            solve(dag, np.ones((2, 7)), fixed=fixed)
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
    @settings(max_examples=100, deadline=None)
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

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_parents_precede_children(self, seed):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, int(rng.integers(1, 10)))
        pos = {v: k for k, (v, _) in enumerate(dag.schedule)}
        assert sorted(pos) == list(range(dag.n))
        for v, pa in dag.schedule:
            assert pa.tolist() == np.flatnonzero(dag.weights[v]).tolist()
            for p in pa:
                assert pos[p] < pos[v]

    @given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.4, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_schedule_is_graphlib_order_of_per_row_parents(self, seed, n, p):
        # The schedule of one TopologicalSorter fed each row's nonzero columns, element for element.
        dag = random_dag(np.random.default_rng(seed), n, p)
        parents = {v: np.flatnonzero(dag.weights[v]) for v in range(n)}
        expected = graphlib.TopologicalSorter({v: pa.tolist() for v, pa in parents.items()}).static_order()
        assert [(v, pa.tolist(), pa.dtype) for v, pa in dag.schedule] == [
            (v, parents[v].tolist(), parents[v].dtype) for v in expected
        ]


class TestSolve:
    def test_chain_by_hand(self, chain3):
        # x1 = 1, x2 = 2*1 + 1, x3 = 0.5*3 + 1
        assert solve(chain3, [1.0, 1.0, 1.0]).tolist() == [1.0, 3.0, 2.5]

    def test_fixed_variable_takes_its_rhs(self, chain3):
        assert solve(chain3, [1.0, 7.0, 0.0], fixed=2).tolist() == [1.0, 7.0, 3.5]

    def test_leading_axes_are_independent_systems(self, chain3):
        rhs = np.arange(12.0).reshape(2, 2, 3)
        out = solve(chain3, rhs)
        for idx in np.ndindex(2, 2):
            assert out[idx].tolist() == solve(chain3, rhs[idx]).tolist()

    @given(st.integers(0, 10_000), st.integers(1, 12), st.sampled_from([(), (3,), (2, 3)]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_equals_row_loop_bit_for_bit(self, seed, n, lead, with_fixed):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, n)
        rhs = rng.normal(size=(*lead, n))
        fixed = int(rng.integers(1, n + 1)) if with_fixed else None
        assert solve(dag, rhs, fixed).tobytes() == solve_by_rows(dag, rhs, fixed).tobytes()

    def test_rhs_not_modified(self, chain3):
        rhs = np.ones(3)
        solve(chain3, rhs)
        assert rhs.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_gives_total_effect_matrix(self, seed):
        dag = random_dag(np.random.default_rng(seed), 9)
        total = solve(dag, np.eye(9)).T
        np.testing.assert_allclose(total, np.linalg.inv(np.eye(9) - dag.weights), rtol=1e-12, atol=1e-12)
        reach = np.linalg.matrix_power((dag.weights != 0) | np.eye(9, dtype=bool), 9)
        assert (total[~reach] == 0.0).all()

    def test_shape_and_index_checked(self, chain3):
        with pytest.raises(ValueError):
            solve(chain3, np.zeros(2))
        with pytest.raises(IndexOutOfRange):
            solve(chain3, np.zeros(3), fixed=4)


class TestNeighborhoods:
    """The schedule lists each vertex's parents (0-based); root_mask marks the parentless."""

    def test_seven_vertex_parents(self, seven_vertex_dag):
        assert dict(seven_vertex_dag.schedule)[3].tolist() == [1, 2]

    def test_edgeless_roots(self):
        assert root_mask(Dag(np.zeros((4, 4)))).tolist() == [True] * 4

    def test_chain_children(self, chain3):
        assert [v for v, pa in chain3.schedule if 1 in pa] == [2]

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
        _, parents = chain3.schedule[1]
        with pytest.raises(ValueError):
            parents[0] = 2

    def test_parent_weights_follow_the_schedule(self, seven_vertex_dag):
        w = seven_vertex_dag.weights
        assert len(seven_vertex_dag.parent_weights) == len(seven_vertex_dag.schedule)
        for (v, pa), wv in zip(seven_vertex_dag.schedule, seven_vertex_dag.parent_weights):
            assert wv.tolist() == w[v, pa].tolist()
            with pytest.raises(ValueError):
                wv[...] = 0.0

    def test_from_edges_duplicate_named_before_a_later_bad_endpoint(self):
        with pytest.raises(ValueError, match="duplicate edge 1 -> 2"):
            Dag.from_edges(2, [(1, 2, 1.0), (1, 2, 0.5), (1, 3, 1.0)])

    def test_from_edges_bad_endpoint_named_before_a_later_duplicate(self):
        with pytest.raises(IndexOutOfRange, match="edge endpoint 0"):
            Dag.from_edges(2, [(1, 2, 1.0), (0, 2, 1.0), (1, 2, 0.5)])

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
