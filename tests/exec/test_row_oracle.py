"""The row oracle checked against oracles outside both drives.

Both drives fold a scan's page verdicts through the same
``ScanMonitorBundle.observe_pages``, so row == batch alone cannot catch a
fault in that fold: these tests take their expected values from
``core/dpc.py::exact_dpc`` and from the stored rows themselves.  They
also close a row scan early, as a ``MergeJoin`` does in either drive,
and check that it was charged for exactly the rows it read.
"""

from itertools import islice

import pytest

from repro.core.bitvector import BitVectorFilter
from repro.core.dpc import exact_dpc
from repro.core.dpsample import BernoulliPageSampler
from repro.core.monitors import ScanMonitorBundle
from repro.core.planner import MonitorConfig
from repro.core.requests import AccessPathRequest, Mechanism
from repro.exec import HashJoin, SeqScan
from repro.exec.base import ExecutionContext
from repro.harness.equivalence import TallyIO
from repro.optimizer import PlanHint
from repro.session import Session
from repro.sql import Comparison, Conjunction, conjunction_of
from repro.workloads import single_table_workload

from tests.conftest import make_tiny_table


@pytest.fixture(scope="module")
def fig6_statements(synthetic_db):
    """Two Fig. 6 statements per column, ``count(padding) WHERE ci < v``."""
    return single_table_workload(
        synthetic_db, "t", ["c2", "c3", "c4", "c5"], queries_per_column=2, seed=0
    )


def test_fig6_scan_counts_equal_exact_dpc(synthetic_db, fig6_statements):
    """Every Fig. 6 statement on the row oracle's table scan: the query's
    own predicate is counted exactly, and two non-prefix requests (another
    column's predicate, and the conjunction of both) by DPSample at
    fraction 1.0; each must read ``exact_dpc``."""
    table = synthetic_db.table("t")
    session = Session(synthetic_db, monitor_config=MonitorConfig(dpsample_fraction=1.0))
    for index, generated in enumerate(fig6_statements):
        query = generated.query
        other = fig6_statements[(index + 3) % len(fig6_statements)].query.predicate
        if other.key() == query.predicate.key():
            continue
        both = Conjunction(query.predicate.terms + other.terms)
        requests = [
            AccessPathRequest("t", predicate)
            for predicate in (query.predicate, other, both)
        ]
        plan = session.optimize(query, hint=PlanHint("table_scan"))
        executed = session.run_plan(query, plan, requests=requests, exec_mode="row")
        observed = {o.key: o for o in executed.observations}
        for request, mechanism in zip(
            requests,
            (Mechanism.EXACT_SCAN_COUNT, Mechanism.DPSAMPLE, Mechanism.DPSAMPLE),
        ):
            observation = observed[request.key()]
            assert observation.mechanism is mechanism, generated.label
            assert observation.exact, generated.label
            assert observation.estimate == exact_dpc(table, request.expression), (
                generated.label,
                request.key(),
            )


def _scan_order(table):
    """The stored rows in page order, each with its page id."""
    return [
        (page_id, row)
        for page_id in table.all_page_ids()
        for row in table.rows_on_page(page_id)
    ]


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_table(num_rows=1000, seed=5)


@pytest.mark.parametrize("stop_after", [1, 7, 40, 100])
@pytest.mark.parametrize("sampled", [False, True])
def test_closed_scan_is_charged_for_the_rows_it_read(tiny, stop_after, sampled):
    """A monitored row scan closed after its k-th output row: rows,
    predicate evaluations and monitor checks are those of the rows read.

    ``v < 300`` is the query; with ``sampled`` a non-prefix request on
    ``k >= 500`` makes each DPSample-selected page evaluate both terms on
    every row, which the expectation replays from a sampler with the
    same seed."""
    database, table, _rows = tiny
    query = conjunction_of(Comparison("v", "<", 300))
    monitor = conjunction_of(Comparison("v", "<", 300), Comparison("k", ">=", 500))
    bundle = ScanMonitorBundle("tiny", 1, sampler=BernoulliPageSampler(0.5, seed=7))
    bundle.add_expression_request(AccessPathRequest("tiny", query), (0,), exact=True)
    if sampled:
        bundle.add_expression_request(
            AccessPathRequest("tiny", conjunction_of(Comparison("k", ">=", 500))),
            (1,),
            exact=False,
        )
    scan = SeqScan(table, query, bundle=bundle, monitor_conjunction=monitor)
    io = TallyIO()
    rows = scan.rows(ExecutionContext(database=database, io=io))
    pulled = list(islice(rows, stop_after))
    rows.close()

    coins = BernoulliPageSampler(0.5, seed=7)
    full_pages = (
        {page_id for page_id in table.all_page_ids() if coins.sample_page(page_id)}
        if sampled
        else set()
    )
    read = evaluations = passed = 0
    for page_id, row in _scan_order(table):
        read += 1
        evaluations += 2 if page_id in full_pages else 1
        if row[1] < 300:
            passed += 1
            if passed == stop_after:
                break
    assert len(pulled) == stop_after
    assert read % table.data_file.page_capacity  # the stop is mid-page
    assert io.units["charge_rows"] == read
    assert io.units["charge_predicates"] == evaluations
    assert io.units["charge_monitor_checks"] == read
    assert scan.stats.actual_rows == stop_after
    assert scan.stats.predicate_evaluations == evaluations


@pytest.mark.parametrize("stop_after", [1, 25])
def test_closed_hash_join_is_charged_for_the_probes_it_read(tiny, stop_after):
    """A row-drive hash join closed after its k-th output row: its hashes
    are the build keys (twice each: table and bit vector) plus the probe
    rows read."""
    database, table, _rows = tiny
    build = SeqScan(table, conjunction_of(Comparison("k", "<", 50)))
    probe = SeqScan(table, Conjunction())
    join = HashJoin(build, probe, "k", "v", bitvector=BitVectorFilter(1024))
    io = TallyIO()
    rows = join.rows(ExecutionContext(database=database, io=io))
    pulled = list(islice(rows, stop_after))
    rows.close()

    probes_read = joined = 0
    for _page_id, row in _scan_order(table):
        probes_read += 1
        joined += row[1] < 50
        if joined == stop_after:
            break
    assert len(pulled) == stop_after
    assert io.units["charge_hashes"] == 2 * 50 + probes_read
