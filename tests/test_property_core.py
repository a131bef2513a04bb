"""Property-based tests for path construction and mining invariants.

Random walks over the hospital schema graph must always produce valid
restricted simple paths; bridged reconstructions must agree with direct
construction; and the mining optimizations must never change the output.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    MiningConfig,
    OneWayMiner,
    Path,
    SupportConfig,
    SupportEvaluator,
)
from repro.db import ColumnType, Database, TableSchema


def random_forward_walk(graph, choices, max_length):
    """Build a path by following ``choices`` (a list of indices) through
    the graph's edge lists; returns the longest valid path reached."""
    seeds = sorted(graph.start_edges())
    if not seeds:
        return None
    path = Path.forward_seed(graph, seeds[choices[0] % len(seeds)])
    if path is None:
        return None
    for pick in choices[1:max_length]:
        if path.anchored_end:
            break
        edges = sorted(graph.edges_from_table(path.last_table()))
        if not edges:
            break
        nxt = path.extend_forward(edges[pick % len(edges)])
        if nxt is not None:
            path = nxt
    return path


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choices=st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
def test_forward_walks_always_valid(hospital_graph, choices):
    path = random_forward_walk(hospital_graph, choices, max_length=6)
    if path is not None:
        assert path.validate() == []


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choices=st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
def test_walk_length_equals_conditions(hospital_graph, choices):
    path = random_forward_walk(hospital_graph, choices, max_length=6)
    if path is not None:
        query = path.to_query()
        assert len(query.conditions) == path.length
        assert len(query.tuple_vars) <= path.length + 1


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choices=st.lists(st.integers(0, 10**6), min_size=2, max_size=6))
def test_support_monotone_along_walk(hospital_db, hospital_graph, choices):
    """Every extension step can only lose support (Section 3.2)."""
    evaluator = SupportEvaluator(hospital_db)
    seeds = sorted(hospital_graph.start_edges())
    path = Path.forward_seed(hospital_graph, seeds[choices[0] % len(seeds)])
    if path is None:
        return
    prev_support = evaluator.support(path)
    for pick in choices[1:]:
        if path.anchored_end:
            break
        edges = sorted(hospital_graph.edges_from_table(path.last_table()))
        if not edges:
            break
        nxt = path.extend_forward(edges[pick % len(edges)])
        if nxt is None:
            continue
        path = nxt
        support = evaluator.support(path)
        assert support <= prev_support
        prev_support = support


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choices=st.lists(st.integers(0, 10**6), min_size=2, max_size=6))
def test_bridge_reconstruction_matches_direct(hospital_graph, choices):
    """Splitting a complete explanation at any step and re-bridging the
    halves must reproduce the identical condition set (Section 3.3.1)."""
    path = random_forward_walk(hospital_graph, choices, max_length=6)
    if path is None or not path.is_explanation or path.length < 3:
        return
    edges = [step.edge for step in path.steps]
    for split in range(1, path.length - 1):
        # rebuild the halves through the construction APIs: forward covers
        # edges [0..split], backward covers edges [split..end] (the shared
        # edge at `split` is the bridge edge)
        forward = Path.forward_seed(hospital_graph, edges[0])
        for edge in edges[1 : split + 1]:
            assert forward is not None
            forward = forward.extend_forward(edge)
        backward = Path.backward_seed(hospital_graph, edges[-1])
        for edge in reversed(edges[split:-1]):
            assert backward is not None
            backward = backward.extend_backward(edge)
        assert forward is not None and backward is not None
        merged = Path.bridge(forward, backward)
        assert merged is not None, f"bridge failed at split {split}"
        assert merged.signature() == path.signature()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choices=st.lists(st.integers(0, 10**6), min_size=2, max_size=6))
def test_sql_roundtrip_preserves_template(hospital_graph, choices):
    """Render any mined-shape explanation to SQL, parse it back, and the
    reconstructed template must have the identical condition set."""
    from repro.core import ExplanationTemplate
    from repro.db import template_from_sql

    path = random_forward_walk(hospital_graph, choices, max_length=6)
    if path is None or not path.is_explanation:
        return
    template = ExplanationTemplate(path=path)
    parsed = template_from_sql(template.to_sql())
    assert parsed.signature() == template.signature()
    assert parsed.length == template.length


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    s=st.sampled_from([0.1, 0.2, 0.4]),
    use_cache=st.booleans(),
    use_skip=st.booleans(),
    reduction=st.booleans(),
)
def test_mining_output_invariant_under_optimizations(
    fig3_db, fig3_graph, s, use_cache, use_skip, reduction
):
    """Random optimization combos never change the mined template set."""
    baseline = OneWayMiner(
        fig3_db,
        fig3_graph,
        MiningConfig(support_fraction=s, max_length=4, max_tables=3),
    ).mine()
    variant = OneWayMiner(
        fig3_db,
        fig3_graph,
        MiningConfig(
            support_fraction=s,
            max_length=4,
            max_tables=3,
            support=SupportConfig(
                use_cache=use_cache,
                use_skip=use_skip,
                distinct_reduction=reduction,
            ),
        ),
    ).mine()
    assert variant.signatures() == baseline.signatures()
    assert {m.template.signature(): m.support for m in variant.templates} == {
        m.template.signature(): m.support for m in baseline.templates
    }


# ----------------------------------------------------------------------
# support by composition on generated, NULL-bearing databases
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(["a", "b", "c", None])


@st.composite
def null_bearing_databases(draw):
    """A Figure-3-shaped database whose every column — lids included —
    may repeat values and hold NULLs."""
    db = Database("generated")
    log = db.create_table(
        TableSchema.build(
            "Log",
            [("Lid", ColumnType.INT), ("Date", ColumnType.INT), "User", "Patient"],
            primary_key=["Lid"],
        )
    )
    appts = db.create_table(TableSchema.build("Appointments", ["Patient", "Doctor"]))
    info = db.create_table(TableSchema.build("Doctor_Info", ["Doctor", "Department"]))
    lids = st.sampled_from([1, 2, 3, 4, None])
    log.insert_many(
        (lid, 1, user, patient)
        for lid, user, patient in draw(
            st.lists(st.tuples(lids, _NAMES, _NAMES), min_size=1, max_size=6)
        )
    )
    appts.insert_many(draw(st.lists(st.tuples(_NAMES, _NAMES), max_size=5)))
    info.insert_many(draw(st.lists(st.tuples(_NAMES, _NAMES), max_size=5)))
    return db


@settings(max_examples=60, deadline=None)
@given(db=null_bearing_databases(), use_skip=st.booleans())
def test_composed_support_matches_executor_and_brute_force(db, use_skip):
    """Every candidate of every miner: relation composition ==
    ``Executor.count_distinct`` == nested-loop enumeration, with duplicate
    and NULL lids, NULL endpoints and NULL join keys in play."""
    from test_differential_support import check_world, trap_graph

    # the trap graph also routes through an (absent here) Visits table
    db.create_table(TableSchema.build("Visits", ["Patient", "Doctor"]))
    config = MiningConfig(
        support_fraction=0.01,
        max_length=4,
        max_tables=3,
        support=SupportConfig(use_skip=use_skip, skip_constant=0.5),
    )
    check_world(db, trap_graph(db), config, brute_force=True, all_kinds=False)
