"""Tests for Path: seeds, extension, closing, bridging, validation.

These encode the paper's restricted-simple-path rules (Section 3.2) on the
Figure 3 schema and the hospital fixture with Groups/Log self-joins.
"""


from repro.core import EdgeKind, Path, SchemaAttr, SchemaEdge
from repro.db import AttrRef


def edge(t1, a1, t2, a2, kind=EdgeKind.ADMIN):
    return SchemaEdge(SchemaAttr(t1, a1), SchemaAttr(t2, a2), kind)


E_LP_AP = edge("Log", "Patient", "Appointments", "Patient")
E_AD_LU = edge("Appointments", "Doctor", "Log", "User")
E_AD_GU = edge("Appointments", "Doctor", "Groups", "User")
E_GU_LU = edge("Groups", "User", "Log", "User")
E_GG = edge("Groups", "Group_id", "Groups", "Group_id", EdgeKind.SELF_JOIN)
E_LP_LP = edge("Log", "Patient", "Log", "Patient", EdgeKind.SELF_JOIN)
E_LU_LU = edge("Log", "User", "Log", "User", EdgeKind.SELF_JOIN)


class TestSeeds:
    def test_forward_seed(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP)
        assert p is not None
        assert p.anchored_start and not p.anchored_end
        assert p.length == 1
        assert p.last_table() == "Appointments"

    def test_forward_seed_wrong_edge(self, hospital_graph):
        assert Path.forward_seed(hospital_graph, E_AD_LU) is None

    def test_backward_seed(self, hospital_graph):
        p = Path.backward_seed(hospital_graph, E_AD_LU)
        assert p is not None
        assert p.anchored_end and not p.anchored_start
        assert p.first_table() == "Appointments"

    def test_backward_seed_wrong_edge(self, hospital_graph):
        assert Path.backward_seed(hospital_graph, E_LP_AP) is None

    def test_self_join_seed_creates_second_log_var(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_LP)
        assert p is not None
        assert p.var_tables == ("Log", "Log")


class TestForwardExtension:
    def test_close_at_end(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_LU)
        assert p is not None and p.is_explanation
        assert p.length == 2

    def test_closed_paths_cannot_extend(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_LU)
        assert p.extend_forward(E_AD_GU) is None

    def test_disconnected_edge_rejected(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP)
        assert p.extend_forward(E_GU_LU) is None  # src table Groups != Appointments

    def test_table_revisit_rejected_without_self_join(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP)
        # Appointments.Doctor -> Groups.User -> back into Appointments
        p = p.extend_forward(E_AD_GU)
        back = edge("Groups", "User", "Appointments", "Doctor")
        assert p.extend_forward(back) is None

    def test_self_join_revisit_allowed_once(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_GU)
        p2 = p.extend_forward(E_GG)
        assert p2 is not None
        assert p2.var_tables.count("Groups") == 2
        # a third Groups variable is rejected even via self-join
        assert p2.extend_forward(E_GG) is None

    def test_group_explanation_length_4(self, hospital_graph):
        p = (
            Path.forward_seed(hospital_graph, E_LP_AP)
            .extend_forward(E_AD_GU)
            .extend_forward(E_GG)
            .extend_forward(E_GU_LU)
        )
        assert p is not None and p.is_explanation and p.length == 4

    def test_repeat_access_template(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_LP).extend_forward(E_LU_LU)
        assert p is not None and p.is_explanation
        assert p.length == 2
        assert p.var_tables == ("Log", "Log")


class TestBackwardExtension:
    def test_anchor_at_start(self, hospital_graph):
        p = Path.backward_seed(hospital_graph, E_AD_LU).extend_backward(E_LP_AP)
        assert p is not None and p.is_explanation

    def test_anchored_cannot_extend_backward(self, hospital_graph):
        p = Path.backward_seed(hospital_graph, E_AD_LU).extend_backward(E_LP_AP)
        assert p.extend_backward(E_LP_AP) is None

    def test_backward_new_var(self, hospital_graph):
        p = Path.backward_seed(hospital_graph, E_GU_LU)
        p2 = p.extend_backward(E_AD_GU)
        assert p2 is not None
        assert p2.first_table() == "Appointments"

    def test_backward_disconnected(self, hospital_graph):
        p = Path.backward_seed(hospital_graph, E_GU_LU)
        assert p.extend_backward(E_LP_AP) is None  # dst Appointments != Groups


class TestBridging:
    def test_bridge_on_shared_edge(self, hospital_graph):
        # forward: L.P=A.P, A.D=G1.U ; backward: A.D=G1.U??? backward must
        # end at L.U: G.U=L.U prefixed by the shared edge A.D=G.U
        fwd = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_GU)
        bwd = Path.backward_seed(hospital_graph, E_GU_LU).extend_backward(E_AD_GU)
        merged = Path.bridge(fwd, bwd)
        assert merged is not None and merged.is_explanation
        assert merged.length == 3  # 2 + 2 - 1

    def test_bridge_requires_shared_edge(self, hospital_graph):
        fwd = Path.forward_seed(hospital_graph, E_LP_AP)
        bwd = Path.backward_seed(hospital_graph, E_GU_LU)
        assert Path.bridge(fwd, bwd) is None

    def test_bridge_with_empty_middle(self, hospital_graph):
        # forward: L.P=A.P, A.D=G1.U ; backward: G1.gid=G2.gid, G2.U=L.U
        fwd = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_GU)
        bwd = Path.backward_seed(hospital_graph, E_GU_LU).extend_backward(E_GG)
        merged = Path.bridge_with_middle(fwd, (), bwd)
        assert merged is not None and merged.is_explanation
        assert merged.length == 4

    def test_bridge_with_one_middle_edge(self, hospital_graph):
        fwd = Path.forward_seed(hospital_graph, E_LP_AP)  # ends at Appointments
        bwd = Path.backward_seed(hospital_graph, E_GU_LU).extend_backward(E_GG)
        merged = Path.bridge_with_middle(fwd, (E_AD_GU,), bwd)
        assert merged is not None and merged.is_explanation
        assert merged.length == 4

    def test_bridge_table_mismatch(self, hospital_graph):
        fwd = Path.forward_seed(hospital_graph, E_LP_AP)  # ends Appointments
        bwd = Path.backward_seed(hospital_graph, E_GU_LU)  # starts Groups
        assert Path.bridge_with_middle(fwd, (), bwd) is None

    def test_bridge_equivalence_with_oneway(self, hospital_graph):
        direct = (
            Path.forward_seed(hospital_graph, E_LP_AP)
            .extend_forward(E_AD_GU)
            .extend_forward(E_GG)
            .extend_forward(E_GU_LU)
        )
        fwd = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_GU)
        bwd = Path.backward_seed(hospital_graph, E_GU_LU).extend_backward(E_GG)
        merged = Path.bridge_with_middle(fwd, (), bwd)
        assert merged.signature() == direct.signature()


    def test_merges_agree_with_wholesale_validation(self, hospital_graph):
        """``_merge`` rejects a table hosted by both halves before it
        builds anything; over every pairing of short forward and backward
        paths (Groups and Log self-joins included) that must reject only
        what ``validate()`` rejects — and every signature, read off the
        steps, must be the rebuilt query's."""
        from repro.db.query import canonical_query_signature

        def closure(seeds, grow):
            paths, frontier = [], [s for s in seeds if s is not None]
            for _ in range(3):
                paths += frontier
                frontier = [q for p in frontier for q in grow(p) if q is not None]
            return [p for p in paths if not p.is_explanation]

        graph = hospital_graph
        out_of, into = graph.edges_from_table, graph.edges_into_table
        forwards = closure(
            [Path.forward_seed(graph, e) for e in graph.start_edges()],
            lambda p: [p.extend_forward(e) for e in out_of(p.last_table())],
        )
        backwards = closure(
            [Path.backward_seed(graph, e) for e in graph.end_edges()],
            lambda p: [p.extend_backward(e) for e in into(p.first_table())],
        )

        def reference(fwd, steps, shared_bwd, shared_fwd, bwd):
            """The merge without the early rejection."""
            var_map, var_tables = {0: 0, shared_bwd: shared_fwd}, list(fwd.var_tables)
            for step in steps:
                for var in (step.src_var, step.dst_var):
                    if var not in var_map:
                        var_map[var] = len(var_tables)
                        var_tables.append(bwd.var_tables[var])
            renumbered = tuple(
                type(s)(s.edge, var_map[s.src_var], var_map[s.dst_var]) for s in steps
            )
            merged = fwd._with(tuple(var_tables), fwd.steps + renumbered, True, True)
            return merged if merged.validate() == [] else None

        merged_some = rejected_some = 0
        for fwd in forwards:
            for bwd in backwards:
                if fwd.steps[-1].edge == bwd.steps[0].edge:
                    expected = reference(
                        fwd, bwd.steps[1:], bwd.steps[0].dst_var, fwd.last_var(), bwd
                    )
                    assert Path.bridge(fwd, bwd) == expected
                if fwd.last_table() == bwd.first_table():
                    expected = reference(
                        fwd, bwd.steps, bwd.first_var(), fwd.last_var(), bwd
                    )
                    merged = Path.bridge_with_middle(fwd, (), bwd)
                    assert merged == expected
                    if merged is None:
                        rejected_some += 1
                    else:
                        merged_some += 1
                        assert merged.signature() == canonical_query_signature(
                            merged.to_query()
                        )
        assert merged_some and rejected_some
        for path in forwards + backwards:
            assert path.signature() == canonical_query_signature(path.to_query())


class TestValidationAndQuery:
    def test_validate_clean_path(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_LU)
        assert p.validate() == []

    def test_query_shape(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_LU)
        q = p.to_query()
        assert len(q.tuple_vars) == 2
        assert len(q.conditions) == 2
        assert q.projection == (AttrRef("L", "Lid"),)

    def test_alias_of_log_is_L(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP)
        assert p.alias_of(0) == "L"
        assert p.alias_of(1) == "Appointments_1"

    def test_signature_ignores_direction(self, hospital_graph):
        fwd = Path.forward_seed(hospital_graph, E_LP_AP).extend_forward(E_AD_LU)
        bwd = Path.backward_seed(hospital_graph, E_AD_LU).extend_backward(E_LP_AP)
        assert fwd.signature() == bwd.signature()

    def test_str_contains_marker(self, hospital_graph):
        p = Path.forward_seed(hospital_graph, E_LP_AP)
        assert "partial" in str(p)
        closed = p.extend_forward(E_AD_LU)
        assert "explanation" in str(closed)

    def test_counted_tables(self, hospital_graph):
        p = (
            Path.forward_seed(hospital_graph, E_LP_AP)
            .extend_forward(E_AD_GU)
            .extend_forward(E_GG)
            .extend_forward(E_GU_LU)
        )
        # Log + Appointments + Groups(x2 counted once) = 3
        assert p.counted_tables(hospital_graph) == 3
