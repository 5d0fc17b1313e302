"""Edge cases of the monitor planner and executor plumbing."""

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.core.planner import MonitorConfig, build_executable
from repro.core.requests import AccessPathRequest, JoinMethodRequest
from repro.exec import execute
from repro.optimizer import Optimizer, PlanHint, SingleTableQuery, JoinQuery
from repro.sql import Comparison, JoinEquality, conjunction_of
from repro.sql.types import SqlType


class TestDuplicateAndOverlappingRequests:
    def test_duplicate_requests_each_answered(self, synthetic_db):
        predicate = conjunction_of(Comparison("c2", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        request = AccessPathRequest("t", predicate)
        plan = Optimizer(synthetic_db, hint=PlanHint("table_scan")).optimize(query)
        build = build_executable(
            plan, synthetic_db, [request, request], MonitorConfig()
        )
        result = execute(build.root, synthetic_db)
        observations = result.runstats.observations
        assert len(observations) == 2
        assert observations[0].estimate == observations[1].estimate

    def test_mixed_prefix_and_foreign_requests(self, synthetic_db):
        predicate = conjunction_of(Comparison("c2", "<", 500))
        query = SingleTableQuery("t", predicate, "padding")
        requests = [
            AccessPathRequest("t", predicate),  # prefix -> exact
            AccessPathRequest("t", conjunction_of(Comparison("c3", "<", 500))),
            AccessPathRequest("t", conjunction_of(Comparison("c4", "<", 500))),
        ]
        plan = Optimizer(synthetic_db, hint=PlanHint("table_scan")).optimize(query)
        build = build_executable(
            plan, synthetic_db, requests, MonitorConfig(dpsample_fraction=1.0)
        )
        result = execute(build.root, synthetic_db)
        assert len(result.runstats.observations) == 3
        assert all(o.answered for o in result.runstats.observations)

    def test_join_request_on_both_tables(self, join_db):
        query = JoinQuery(
            join_predicate=JoinEquality("t1", "c1", "t", "c1"),
            predicates={"t1": conjunction_of(Comparison("c1", "<", 500))},
            count_column="t.padding",
        )
        requests = [
            JoinMethodRequest.for_query(query, "t"),
            JoinMethodRequest.for_query(query, "t1"),
        ]
        plan = Optimizer(join_db, hint=PlanHint("hash_join")).optimize(query)
        build = build_executable(plan, join_db, requests, MonitorConfig())
        result = execute(build.root, join_db)
        observations = {
            o.request.inner_table: o
            for o in list(result.runstats.observations) + build.unanswerable
        }
        # Exactly one side (the probe) is answerable in a hash join.
        assert observations["t"].answered != observations["t1"].answered

    def test_no_requests_no_observations(self, synthetic_db):
        query = SingleTableQuery(
            "t", conjunction_of(Comparison("c2", "<", 500)), "padding"
        )
        plan = Optimizer(synthetic_db).optimize(query)
        build = build_executable(plan, synthetic_db)
        result = execute(build.root, synthetic_db)
        assert result.runstats.observations == []
        assert build.unanswerable == []


class TestEmptyAndDegenerateTables:
    def make_empty(self):
        database = Database("empty")
        schema = TableSchema(
            "e", [ColumnDef("a", SqlType.INT), ColumnDef("b", SqlType.INT)]
        )
        database.load_table(
            schema, [], clustered_on=None, indexes=[IndexDef("ix", "e", ("a",))]
        )
        return database

    def test_scan_of_empty_table(self):
        database = self.make_empty()
        query = SingleTableQuery("e", conjunction_of(Comparison("a", "<", 5)), "b")
        plan = Optimizer(database, hint=PlanHint("table_scan")).optimize(query)
        request = AccessPathRequest("e", query.predicate)
        build = build_executable(plan, database, [request], MonitorConfig())
        result = execute(build.root, database)
        assert result.scalar() == 0
        (observation,) = result.runstats.observations
        assert observation.estimate == 0.0

    def test_seek_of_empty_table(self):
        database = self.make_empty()
        query = SingleTableQuery("e", conjunction_of(Comparison("a", "<", 5)), "b")
        plan = Optimizer(database, hint=PlanHint("index_seek")).optimize(query)
        build = build_executable(plan, database)
        assert execute(build.root, database).scalar() == 0

    def test_single_row_table(self):
        database = Database("one")
        schema = TableSchema("o", [ColumnDef("a", SqlType.INT)])
        database.load_table(schema, [(7,)])
        query = SingleTableQuery("o", conjunction_of(Comparison("a", "=", 7)), None)
        plan = Optimizer(database).optimize(query)
        build = build_executable(plan, database)
        assert execute(build.root, database).scalar() == 1


class TestSeedIsolation:
    def test_different_configs_different_samples(self, synthetic_db):
        """Config seed changes the Bernoulli draw (and only that)."""
        query_predicate = conjunction_of(Comparison("c2", "<", 4_000))
        foreign = conjunction_of(Comparison("c5", "<", 4_000))
        query = SingleTableQuery("t", query_predicate, "padding")
        request = AccessPathRequest("t", foreign)
        plan = Optimizer(synthetic_db, hint=PlanHint("table_scan")).optimize(query)
        estimates = set()
        for seed in range(4):
            build = build_executable(
                plan,
                synthetic_db,
                [request],
                MonitorConfig(dpsample_fraction=0.3, seed=seed),
            )
            result = execute(build.root, synthetic_db)
            estimates.add(result.runstats.observations[0].estimate)
        assert len(estimates) > 1

    def test_same_config_reproducible(self, synthetic_db):
        query_predicate = conjunction_of(Comparison("c2", "<", 4_000))
        foreign = conjunction_of(Comparison("c5", "<", 4_000))
        query = SingleTableQuery("t", query_predicate, "padding")
        request = AccessPathRequest("t", foreign)
        plan = Optimizer(synthetic_db, hint=PlanHint("table_scan")).optimize(query)

        def run():
            build = build_executable(
                plan,
                synthetic_db,
                [request],
                MonitorConfig(dpsample_fraction=0.3, seed=11),
            )
            return execute(build.root, synthetic_db).runstats.observations[0].estimate

        assert run() == run()


class TestDerivedSeedsStableAcrossProcesses:
    def test_stable_hash_values(self):
        """Pin derived seeds: a PYTHONHASHSEED-dependent regression would
        change these values between processes (see rng._stable_hash)."""
        from repro.common.rng import derive_seed

        assert derive_seed(7, "synthetic", "C3") == derive_seed(7, "synthetic", "C3")
        # Pinned constants: recorded once, must never drift.
        assert derive_seed(0, "dpsample") == 759650718
        assert derive_seed(1, "tpch") == 489598155
