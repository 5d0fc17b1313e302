"""The paper's worked examples (1, 2, 3), reproduced as executable tests.

Each test builds the scenario the paper describes in prose and checks the
quantitative claim it makes.  These double as living documentation: the
Sales table of Example 1, the R1 ⋈ R2 join of Example 2, and the
short-circuiting trap of Example 3.
"""

import pytest

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.core.dpc import exact_dpc, exact_join_dpc
from repro.core.planner import MonitorConfig, build_executable
from repro.core.requests import AccessPathRequest, JoinMethodRequest
from repro.exec import execute
from repro.optimizer import Optimizer, PlanHint, SingleTableQuery, JoinQuery
from repro.sql import Comparison, JoinEquality, conjunction_of
from repro.sql.types import SqlType
from repro.workloads.permutations import noisy_permutation


def build_sales(num_rows=20_000, shipdate_correlated=True, seed=3) -> Database:
    """Example 1's Sales(Id, Shipdate, State, VendorId), clustered on Id.

    ``shipdate_correlated=True`` models daily loading (Shipdate follows
    Id); ``False`` models per-vendor loading (Shipdate scattered).
    50 rows per page, as in the example.
    """
    database = Database("sales_db", buffer_pool_pages=50_000)
    schema = TableSchema(
        "sales",
        [
            ColumnDef("id", SqlType.INT),
            ColumnDef("shipdate", SqlType.INT),  # day number, ~50 rows/day
            ColumnDef("state", SqlType.INT),  # 50 states
            ColumnDef("vendorid", SqlType.INT),
            ColumnDef("padding", SqlType.STR, width_bytes=100),
        ],
    )
    noise = 0.0 if shipdate_correlated else 1.0
    order = noisy_permutation(num_rows, noise, seed=seed)
    rows = [
        (i, int(order[i]) // 50, (i * 17) % 50, i % 200, "x")
        for i in range(num_rows)
    ]
    database.load_table(
        schema,
        rows,
        clustered_on=["id"],
        indexes=[
            IndexDef("ix_shipdate_state", "sales", ("shipdate", "state")),
            IndexDef("ix_state", "sales", ("state",)),
        ],
    )
    return database


class TestExample1:
    """Same cardinality, wildly different page counts, driven by load order."""

    def test_clustering_drives_dpc(self):
        day_range = conjunction_of(Comparison("shipdate", "<", 20))  # ~1000 rows
        correlated = build_sales(shipdate_correlated=True)
        scattered = build_sales(shipdate_correlated=False)
        table_c = correlated.table("sales")
        table_s = scattered.table("sales")
        # Identical cardinality either way...
        count = lambda t: sum(
            1
            for page in t.all_page_ids()
            for row in t.rows_on_page(page)
            if row[1] < 20
        )
        assert count(table_c) == count(table_s)
        # ...but DPC near n/k when daily-loaded vs near min(n, P) when not.
        dpc_c = exact_dpc(table_c, day_range)
        dpc_s = exact_dpc(table_s, day_range)
        rows_per_page = table_c.num_rows / table_c.num_pages
        assert dpc_c <= count(table_c) / rows_per_page * 1.5
        assert dpc_s > 10 * dpc_c

    def test_plan_choice_flips_with_the_load_order(self):
        """Index Seek is right for the daily load, Table Scan for the
        per-vendor load — only execution feedback can tell them apart."""
        day_range = conjunction_of(Comparison("shipdate", "<", 20))
        query = SingleTableQuery("sales", day_range, "padding")
        outcomes = {}
        for label, correlated in (("daily", True), ("vendor", False)):
            database = build_sales(shipdate_correlated=correlated)
            request = AccessPathRequest("sales", day_range)
            plan = Optimizer(database, hint=PlanHint("table_scan")).optimize(query)
            build = build_executable(plan, database, [request], MonitorConfig())
            result = execute(build.root, database)
            from repro.optimizer import InjectionSet

            injections = InjectionSet()
            injections.absorb_observations(result.runstats.observations)
            improved = Optimizer(database, injections=injections).optimize(query)
            outcomes[label] = improved.child.__class__.__name__
        assert outcomes["daily"] == "IndexSeekPlan"
        assert outcomes["vendor"] == "SeqScanPlan"


class TestExample2AndSection4:
    """Join DPC via bit-vector filtering on the running Hash Join."""

    def make_join(self):
        database = build_sales(shipdate_correlated=True)
        # R1: a small driver table of ids (like a delta feed).
        schema = TableSchema(
            "r1", [ColumnDef("ref_id", SqlType.INT), ColumnDef("w", SqlType.INT)]
        )
        rows = [(i * 40, i) for i in range(400)]  # scattered ref ids
        database.load_table(schema, rows, clustered_on=["ref_id"])
        predicate = JoinEquality("r1", "ref_id", "sales", "id")
        query = JoinQuery(
            join_predicate=predicate, count_column="sales.padding"
        )
        return database, query, predicate

    def test_join_dpc_measured_from_hash_join(self):
        database, query, predicate = self.make_join()
        request = JoinMethodRequest("sales", predicate)
        plan = Optimizer(database, hint=PlanHint("hash_join")).optimize(query)
        build = build_executable(
            plan, database, [request], MonitorConfig(dpsample_fraction=1.0)
        )
        result = execute(build.root, database)
        (observation,) = result.runstats.observations
        truth = exact_join_dpc(
            database.table("sales"), database.table("r1"), predicate, None
        )
        assert observation.answered
        assert observation.estimate == truth  # exact: f=1, dense int domain

    def test_inl_side_confirms(self):
        database, query, predicate = self.make_join()
        request = JoinMethodRequest("sales", predicate)
        plan = Optimizer(
            database, hint=PlanHint("inl_join", inner_table="sales")
        ).optimize(query)
        build = build_executable(plan, database, [request], MonitorConfig())
        result = execute(build.root, database)
        (observation,) = result.runstats.observations
        truth = exact_join_dpc(
            database.table("sales"), database.table("r1"), predicate, None
        )
        assert observation.estimate == pytest.approx(truth, rel=0.2, abs=3)


class TestExample3:
    """Short-circuiting hides State='CA' truth values from the monitor
    unless DPSample turns it off on sampled pages."""

    def test_non_prefix_request_needs_sampling(self):
        database = build_sales()
        predicate = conjunction_of(
            Comparison("shipdate", "=", 10), Comparison("state", "=", 7)
        )
        query = SingleTableQuery("sales", predicate, "padding")
        state_only = AccessPathRequest(
            "sales", conjunction_of(Comparison("state", "=", 7))
        )
        plan = Optimizer(database, hint=PlanHint("table_scan")).optimize(query)
        build = build_executable(
            plan, database, [state_only], MonitorConfig(dpsample_fraction=1.0)
        )
        result = execute(build.root, database)
        (observation,) = result.runstats.observations
        # Answered via DPSample (not exact counting), and correct.
        assert observation.mechanism.value == "dpsample"
        truth = exact_dpc(database.table("sales"), state_only.expression)
        assert observation.estimate == truth

    def test_prefix_requests_need_no_suppression(self):
        """The §III-B rule: prefixes of the evaluated order are free."""
        database = build_sales()
        predicate = conjunction_of(
            Comparison("shipdate", "=", 10), Comparison("state", "=", 7)
        )
        query = SingleTableQuery("sales", predicate, "padding")
        requests = [
            AccessPathRequest(
                "sales", conjunction_of(Comparison("shipdate", "=", 10))
            ),
            AccessPathRequest("sales", predicate),
        ]
        plan = Optimizer(database, hint=PlanHint("table_scan")).optimize(query)
        build = build_executable(plan, database, requests, MonitorConfig())
        result = execute(build.root, database)
        for observation in result.runstats.observations:
            assert observation.exact
            assert observation.mechanism.value == "exact-scan-count"

    def test_index_seek_cannot_answer_state_only(self):
        """§II-B verbatim: from the Index Seek on (Shipdate, State) the
        expression State='CA' alone is not obtainable."""
        database = build_sales()
        predicate = conjunction_of(
            Comparison("shipdate", "=", 10), Comparison("state", "=", 7)
        )
        query = SingleTableQuery("sales", predicate, "padding")
        state_only = AccessPathRequest(
            "sales", conjunction_of(Comparison("state", "=", 7))
        )
        plan = Optimizer(
            database, hint=PlanHint("index_seek", index_name="ix_shipdate_state")
        ).optimize(query)
        build = build_executable(plan, database, [state_only], MonitorConfig())
        execute(build.root, database)
        (observation,) = build.unanswerable
        assert not observation.answered
        # But the full plan predicate IS obtainable, as §II-B notes.
        both = AccessPathRequest("sales", predicate)
        build2 = build_executable(plan, database, [both], MonitorConfig())
        result2 = execute(build2.root, database)
        (obs2,) = result2.runstats.observations
        assert obs2.answered
