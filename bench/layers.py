"""Layer kernels timed directly on public functions, with no engine around them.

These run in every traced run, whatever the workload: load-time cost
(parse -> localize -> plan/codegen) on the policy path-vector source, store
mutation and probe cost on a 50k-row two-index table, and join cost in the
centralized evaluators.  The policy program is not stratifiable centrally
(aggregate through recursion), so the ``seminaive`` kernels evaluate the
plain path-vector program, on a 50-node tree.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from repro.bgp.generator import policy_path_vector_source
from repro.ndlog.codegen import CodegenRule
from repro.ndlog.functions import builtin_registry
from repro.ndlog.localization import localize_program
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import IncrementalEvaluator, RuleEngine, evaluate
from repro.ndlog.store import Table
from repro.protocols.pathvector import path_vector_program
from repro.scenarios import generate_scenario

from . import config
from .calib import calibrate_interval, p50, take_reading

REPEATS = 5
STORE_ROWS = 50_000


def _median_ms(call: Callable[[], object], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        samples.append((perf_counter() - start) * 1000.0)
    return p50(samples)


def _load_time(out: dict) -> None:
    source = policy_path_vector_source()
    out["parser.parse_ms"] = _median_ms(lambda: parse_program(source, "policy_pathvector"))
    program = parse_program(source, "policy_pathvector")
    out["localization.localize_ms"] = _median_ms(lambda: localize_program(program))
    rules = localize_program(program).program.rules
    serial = iter(range(REPEATS))

    def cold() -> None:
        # an extra function changes the registry signature the codegen
        # cache is keyed by, so every rule is generated and compiled again
        registry = builtin_registry({f"f_bench_cold_{next(serial)}": len})
        RuleEngine(registry).precompile(rules)

    out["plan_codegen.compile_cold_ms"] = _median_ms(cold)
    warm = RuleEngine(builtin_registry())
    warm.precompile(rules)
    out["plan_codegen.compile_warm_ms"] = _median_ms(
        lambda: RuleEngine(builtin_registry()).precompile(rules)
    )
    lowered = sum(isinstance(warm.plan_for(rule), CodegenRule) for rule in rules)
    out["plan_codegen.rules_lowered"] = lowered
    out["plan_codegen.rules_fallback"] = len(rules) - lowered


def _store(out: dict) -> None:
    rows = [(i % 500, i // 500, i) for i in range(STORE_ROWS)]
    table = Table("bench", keys=(0, 1))
    table.index_on((0,))
    table.index_on((1,))
    start = perf_counter()
    for row in rows:
        table.upsert(row, 0.0)
    upserted = perf_counter()
    found = 0
    for i in range(STORE_ROWS):
        found += len(table.probe((0,), (i % 500,)))
    probed = perf_counter()
    for row in rows:
        table.release(row)
    released = perf_counter()
    if found != STORE_ROWS * (STORE_ROWS // 500):
        raise AssertionError("store kernel: probe returned the wrong rows")
    out["store.upsert_us"] = (upserted - start) * 1e6 / STORE_ROWS
    out["store.probe_us"] = (probed - upserted) * 1e6 / STORE_ROWS
    out["store.release_us"] = (released - probed) * 1e6 / STORE_ROWS


def _seminaive(out: dict) -> None:
    scenario = generate_scenario("tree", size=50, seed=0)
    facts = scenario.link_facts()
    program = path_vector_program()
    evaluate(program, facts)  # warm the codegen cache
    out["seminaive.fixpoint_ms"] = _median_ms(lambda: evaluate(program, facts), 3)
    link = scenario.topology.up_links()[0]
    both = [("link", (link.src, link.dst, link.cost)), ("link", (link.dst, link.src, link.cost))]
    incremental = IncrementalEvaluator(program)
    incremental.load(facts)

    def delete_reinsert() -> None:
        incremental.apply(deletes=both)
        incremental.apply(inserts=both)

    out["seminaive.delete_reinsert_ms"] = _median_ms(delete_reinsert, 3)


def kernel_metrics() -> dict[str, float]:
    """All kernel metrics, timings in reference-speed units."""

    out: dict[str, float] = {}
    before = take_reading()
    _load_time(out)
    _store(out)
    _seminaive(out)
    after = take_reading()
    factor = calibrate_interval(1.0, before, after, config.CALIB_REF_MS)
    counts = ("plan_codegen.rules_lowered", "plan_codegen.rules_fallback")
    return {name: value if name in counts else value * factor for name, value in out.items()}
