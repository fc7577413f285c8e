"""User-extension surface (SURVEY §2.11).

The reference extends by subclassing (`DataObject` loaders,
``tera/DataAggregation.py:100-132``; `Alignment.load` hooks,
``tera/DataIntegration.py:34-42``; `API` subclasses,
``tera/DataAccess.py:19-84``).  The engine's equivalents are structural
protocols — any object with the right shape plugs in, no inheritance:

- **Source**: ``path → ray.data.Dataset`` (e.g. ``sources.dumps.
  read_pipe_dump``, ``read_ntriples``, ``sources.mappings.read_logmap``).
- **TripleEmitter**: pure ``pa.Table → pa.Table`` batch function whose
  output follows ``schema.TRIPLE_SCHEMA`` (every ``stages.*.emit_*``).
  Pass to ``Dataset.map_batches(fn, batch_format="pyarrow")``.
- **LinkerStage**: stateful callable CLASS — ``__init__`` pins
  broadcast state once per actor, ``__call__`` maps a batch (e.g.
  ``state.enrich.EnrichStage``, ``dedup.minhash.MinHashStage``).  Pass
  the class itself to
  ``map_batches(Cls, fn_constructor_kwargs=..., concurrency=...)``, or
  an INSTANCE to run it as plain tasks (``pipelines.transcripts.
  LinkerStage``, whose lexicon ref resolves lazily per worker).
- **Mapping**: a ``(src, dst, score)`` Dataset; combinators in
  ``state.mapping`` (threshold / invert / compose / best_per_src).

A pipeline is a plain composition of these over ``ray.data.Dataset`` —
mirroring the reference's constructor-driven composition without its
inheritance coupling.  ``tests/test_protocols.py`` asserts the shipped
components satisfy the shapes.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import pyarrow as pa

#: canonical mapping-table column names (SURVEY T1/J6)
MAPPING_COLUMNS = ("src", "dst", "score")


@runtime_checkable
class Source(Protocol):
    """path → Dataset reader (S-series operators)."""

    def __call__(self, path: str, *args: Any, **kwargs: Any) -> Any: ...


@runtime_checkable
class TripleEmitter(Protocol):
    """Pure batch transform: rows in, TRIPLE_SCHEMA rows out (M-series)."""

    def __call__(self, batch: pa.Table) -> pa.Table: ...


@runtime_checkable
class LinkerStage(Protocol):
    """Stateful stage (T-series): constructed once per actor (or once,
    as an instance run as tasks), called per batch."""

    def __init__(self, *args: Any, **kwargs: Any) -> None: ...

    def __call__(self, batch: pa.Table) -> pa.Table: ...


def is_mapping_table(t: pa.Table) -> bool:
    """Structural check for the Mapping protocol's column contract."""
    return all(c in t.schema.names for c in MAPPING_COLUMNS)
