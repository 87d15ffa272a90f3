"""KTILER block analyzer: instrumentation, dependencies, footprints (§IV-B)."""

from repro.analyzer.dependency import build_block_graph
from repro.analyzer.footprint import BlockMemoryLines
from repro.analyzer.instrument import InstrumentedRun, run_instrumented

__all__ = [
    "run_instrumented",
    "InstrumentedRun",
    "build_block_graph",
    "BlockMemoryLines",
]
