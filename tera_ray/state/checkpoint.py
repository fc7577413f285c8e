"""Stage-boundary checkpointing with per-partition lineage manifests.

North-rule requirement (SURVEY §4 "Checkpoint / resume"): every stage
boundary materializes partitioned Parquet plus a ``_MANIFEST.json``
recording the stage id, its input fingerprint, and per-partition row
counts; a resumed run skips stages whose manifest matches and re-reads
their output.  The reference has only whole-graph ``save()``
(``tera/DataAggregation.py:54-62``) — no resume.

Layout per stage::

    <root>/<stage>/part=<k>/*.parquet     hash(partition key) = k
    <root>/<stage>/_MANIFEST.json         written LAST (atomic rename) —
                                          its presence certifies the stage

A run that dies mid-stage leaves no manifest, so the stage re-runs from
its (checkpointed) inputs; completed stages are never recomputed.
Partitioning by a stable key hash keeps outputs resumable and balanced —
never one giant file.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time

import numpy as np
import pyarrow as pa

MANIFEST = "_MANIFEST.json"


def _hash_partition(col: pa.ChunkedArray | pa.Array, num_partitions: int) -> pa.Array:
    from ..stages.base import bucket_column

    return bucket_column(col, num_partitions).cast(pa.int64())


def _partition_counts(stage_dir: str) -> dict[str, int]:
    """Per-partition parquet row counts from file METADATA only.

    Skips '.'/'_'-prefixed files and directories — the same discovery
    rule Arrow datasets apply (``ignore_prefixes``), so these counts
    always describe exactly what ``read_stage`` will read (compaction
    temp dirs are '_'-prefixed and therefore invisible to both).
    """
    import pyarrow.parquet as pq

    out: dict[str, int] = {}
    for dirpath, dirnames, files in os.walk(stage_dir):
        dirnames[:] = [d for d in dirnames if not d.startswith((".", "_"))]
        for f in files:
            if not f.endswith(".parquet") or f.startswith((".", "_")):
                continue
            key = os.path.basename(dirpath)
            n = pq.read_metadata(os.path.join(dirpath, f)).num_rows
            out[key] = out.get(key, 0) + n
    return out


def write_stage(ds, root: str, stage: str, input_fingerprint: str,
                partition_key: str = "subj", num_partitions: int = 32,
                metrics: dict | None = None):
    """Materialize ``ds`` as hash-partitioned Parquet + manifest.

    Returns the stage directory.  The write streams through
    ``write_parquet`` with a derived ``part`` column (one directory per
    hash bucket); per-partition row counts are aggregated from the
    written files, NOT from a driver-side collect.
    """
    t0 = time.perf_counter()
    stage_dir = os.path.join(root, stage)
    # A crashed run leaves partial parquet files with NO manifest; Ray's
    # write_parquet uses unique filenames, so re-executing into the same
    # directory would keep the stale files and both the manifest row
    # count and read_stage would silently include them.  Clear first:
    # the manifest (written last, atomic rename) is the only completion
    # certificate, so deleting an uncertified directory is always safe.
    if os.path.isdir(stage_dir):
        import shutil

        shutil.rmtree(stage_dir)
    os.makedirs(stage_dir, exist_ok=True)

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column("part", _hash_partition(t[partition_key],
                                                       num_partitions))

    ds.map_batches(add_part, batch_format="pyarrow").write_parquet(
        stage_dir, partition_cols=["part"])

    parts = _partition_counts(stage_dir)
    total = sum(parts.values())
    manifest = {
        "stage": stage,
        "input_fingerprint": input_fingerprint,
        "partition_key": partition_key,
        "num_partitions": num_partitions,
        "row_count": total,
        "partitions": dict(sorted(parts.items())),
        "written_at": time.time(),
        # operational metrics (wall time incl. the distributed write,
        # plus caller extras) — informational only: resume matches on
        # input_fingerprint, never on metrics
        "metrics": {"wall_s": round(time.perf_counter() - t0, 3),
                    **(metrics or {})},
    }
    tmp = os.path.join(stage_dir, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(stage_dir, MANIFEST))
    return stage_dir


def read_manifest(root: str, stage: str) -> dict | None:
    p = os.path.join(root, stage, MANIFEST)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def stage_is_complete(root: str, stage: str, input_fingerprint: str) -> bool:
    m = read_manifest(root, stage)
    if m is None or m.get("input_fingerprint") != input_fingerprint:
        return False
    # a torn compaction leaves '_part=*' temp dirs: the stage's visible
    # partitions may be missing rows, so treat it as incomplete and
    # rebuild from inputs (the contract compact_stage documents)
    stage_dir = os.path.join(root, stage)
    if any(e.startswith("_part=") for e in os.listdir(stage_dir)):
        return False
    return True


def read_stage(root: str, stage: str):
    """Re-open a completed stage's output as a Dataset (drops the
    physical ``part`` column)."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(root, stage))
    return ds.map_batches(
        lambda t: t.drop_columns([c for c in ("part",) if c in t.schema.names]),
        batch_format="pyarrow")


def input_fingerprint(*paths: str) -> str:
    """Cheap deterministic fingerprint of input files: (path, size,
    mtime_ns) tuples hashed — enough to invalidate on changed inputs
    without reading data."""
    import hashlib

    h = hashlib.sha1()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}|{st.st_size}|{st.st_mtime_ns}\x1f".encode())
    return h.hexdigest()


def run_stage(ds_factory, root: str, stage: str, fingerprint: str,
              partition_key: str = "subj", num_partitions: int = 32):
    """Resume-aware stage execution: if a matching manifest exists, skip
    the work and re-open the stored output; otherwise run ``ds_factory()``,
    checkpoint it, and return the re-opened Dataset."""
    if stage_is_complete(root, stage, fingerprint):
        return read_stage(root, stage), True
    write_stage(ds_factory(), root, stage, fingerprint,
                partition_key=partition_key, num_partitions=num_partitions)
    return read_stage(root, stage), False


def build_kg_checkpointed(data_dir: str, ckpt_root: str, fuzzy: bool = True,
                          num_partitions: int = 32,
                          big_rows: int | None = 100_000):
    """Flagship pipeline with resumable stage boundaries:

      link    — transcripts → mention triples  (key: conv_id)
      lexicon — lexicon-table triples          (key: subj)
      kg      — union + exact dedup            (key: subj)

    Each stage writes hash-partitioned Parquet + manifest; a rerun with
    the same inputs skips completed stages (byte-identical manifests).
    """
    from ..pipelines.transcripts import (
        build_lexicon,
        lexicon_dataset,
        link_transcripts,
        read_transcripts,
    )
    from ..stages.base import dedup_triples

    tpath = os.path.join(data_dir, "transcripts.parquet")
    lex_tables = [os.path.join(data_dir, n + ".parquet")
                  for n in ("species", "species_synonyms", "chemicals",
                            "tests", "results")
                  if os.path.exists(os.path.join(data_dir, n + ".parquet"))]
    fp_link = input_fingerprint(tpath, *lex_tables) + f"|fuzzy={fuzzy}"
    fp_lex = input_fingerprint(*lex_tables)

    def make_link():
        lex_ref = build_lexicon(data_dir)
        # build_kg's read: the linker's three columns, in a block count
        # sized to the input (write_stage writes one file per block per
        # partition)
        tr, _ = read_transcripts(tpath)
        return link_transcripts(tr, lex_ref, fuzzy=fuzzy)

    link_ds, link_skipped = run_stage(make_link, ckpt_root, "link", fp_link,
                                      partition_key="conv_id",
                                      num_partitions=num_partitions)

    def make_lex():
        # deduped lexicon store with corpus-scaled tables emitted
        # DISTRIBUTED (same routing as build_kg; no O(corpus) driver
        # emission in the checkpointed path either)
        return lexicon_dataset(data_dir, big_rows=big_rows)

    lex_ds, lex_skipped = run_stage(make_lex, ckpt_root, "lexicon", fp_lex,
                                    partition_key="subj",
                                    num_partitions=min(8, num_partitions))

    fp_kg = fp_link + "|" + fp_lex

    def make_kg():
        # same dedup mode as build_kg's default (content equality with
        # the direct build is asserted in tests/test_checkpoint.py)
        return dedup_triples(link_ds.union(lex_ds), mode="hash")

    kg_ds, kg_skipped = run_stage(make_kg, ckpt_root, "kg", fp_kg,
                                  partition_key="subj",
                                  num_partitions=num_partitions)
    return kg_ds, {"link": link_skipped, "lexicon": lex_skipped,
                   "kg": kg_skipped}


SHARDS = "_SHARDS.json"


def read_shard_registry(root: str) -> dict:
    """The store's ingest ledger: shard fingerprint → {stage, paths,
    rows, written_at}.  The registry is what lets the nightly path
    attest ``prev_turns_disjoint`` WITHOUT a probe pass over prev
    (``update_kg``'s manifest-flag contract): under the input_hint
    sharding contract (each ``(conv_id, turn_idx)`` lives in exactly
    one shard file), an unseen fingerprint implies prev holds none of
    the shard's turns; a seen one is a re-delivery and is skipped
    idempotently."""
    p = os.path.join(root, SHARDS)
    if not os.path.exists(p):
        return {"shards": {}}
    with open(p) as f:
        return json.load(f)


def _write_shard_registry(root: str, reg: dict) -> None:
    tmp = os.path.join(root, SHARDS + ".tmp")
    with open(tmp, "w") as f:
        json.dump(reg, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(root, SHARDS))


def _base_stage(reg: dict) -> str:
    return reg.get("base_stage", "kg")


@contextlib.contextmanager
def _registry_lock(root: str, timeout: float = 120.0):
    """Advisory ``flock`` serializing ``_SHARDS.json`` commits, so a
    nightly append racing :func:`consolidate_shards` can never lose a
    registered shard (the consolidate commit was check-then-write, not
    compare-and-swap).  ``flock`` releases automatically when the
    holder's fd closes — including on process death — so no staleness
    heuristic (and no reclaim TOCTOU) exists; a leftover lock FILE
    from a crash is inert.  Caveat: flock semantics on some network
    filesystems are weaker — same assumption the ``os.replace``
    registry commit already makes."""
    import fcntl

    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, SHARDS + ".lock")
    fd = os.open(path, os.O_CREAT | os.O_RDWR)
    t0 = time.monotonic()
    try:
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() - t0 > timeout:
                    raise TimeoutError(
                        f"shard-registry lock held too long: {path}")
                time.sleep(0.05)
        yield
    finally:
        with contextlib.suppress(OSError):
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _content_signature(path: str, whole: int = 16 << 20,
                       edge: int = 1 << 20) -> str:
    """Content signature, 16 hex digits of SHA-256: over the whole file
    up to ``whole`` bytes; above that, over its first and last ``edge``
    bytes — the leading data pages and the parquet footer (row-group
    offsets, statistics, schema), which any realistic revision of a
    large file perturbs."""
    import hashlib

    h = hashlib.sha256()
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        if size <= whole:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        else:
            h.update(f.read(edge))
            f.seek(size - edge)
            h.update(f.read(edge))
    return h.hexdigest()[:16]


def _shard_ledger_key(path: str, verify: str = "size") -> str:
    """Identity of an ingested shard FILE in the re-delivery ledger:
    ``<parent-dir-name>/<file-name>:<size>`` (``verify="size"``, the
    default) or ``…:<size>:<content-sha>`` (``verify="hash"``).  Plain
    basenames collide under the standard ``part-0000.parquet`` writer
    naming across feed directories; the parent segment separates daily
    drops and the size separates content revisions (an mtime-only
    re-upload of identical bytes keeps its size and still matches).
    ``verify="hash"`` additionally separates a same-size IN-PLACE
    content rewrite (e.g. a fixed-path feed overwriting
    ``incoming/part-0000.parquet``) at the cost of reading up to 16 MiB
    of each shard file per ingest attempt (:func:`_content_signature`)."""
    if not os.path.exists(path):
        return (f"{os.path.basename(os.path.dirname(path))}/"
                f"{os.path.basename(path)}:0")
    st_size = os.path.getsize(path)
    key = (f"{os.path.basename(os.path.dirname(path))}/"
           f"{os.path.basename(path)}:{st_size}")
    if verify == "hash":
        key += ":" + _content_signature(path)
    return key


# <dir>/<name>:<size>[:<content-sha>], parsed from the right: names may
# hold colons (``drop-12:30/``), and the lazy name stops an all-decimal
# sha from being read as the size
_LEDGER_KEY = re.compile(r"^(.*?):(\d+)(?::[0-9a-f]{16})?$")


def _ledger_name(key: str) -> str:
    """The size-free part of a ledger key (for overlap detection: a
    same-named file with DIFFERENT size is a content revision — never
    trusted as disjoint, the probe decides)."""
    m = _LEDGER_KEY.match(key)
    return m.group(1) if m else key


def _ledger_sizekey(key: str) -> str:
    """A key truncated to ``<dir>/<name>:<size>`` — how ``verify="hash"``
    keys match ledger entries recorded before hash mode existed."""
    m = _LEDGER_KEY.match(key)
    return f"{m.group(1)}:{m.group(2)}" if m else key


def _ingested_keys(reg: dict, base_m: dict | None) -> set[str]:
    """Every shard-file ledger key the store has ever ingested — the
    ONE derivation used by both the skip check and consolidation (the
    three sources: persistent ledger, live shard entries, the base
    manifest)."""
    seen: set[str] = set(reg.get("ingested_paths", ()))
    for s in reg["shards"].values():
        seen.update(s.get("paths", ()))
    if base_m is not None:
        seen.update(base_m.get("metrics", {}).get("shard_paths", ()))
    return seen


def merged_kg(root: str):
    """The logical KG store: the base stage unioned with every
    registered shard's novel partition — the directory-union contract
    ``update_kg(emit="novel")`` documents.  Nothing is rewritten; a
    100 TB store is only ever appended to (and occasionally
    consolidated, :func:`consolidate_shards`)."""
    reg = read_shard_registry(root)
    ds = read_stage(root, _base_stage(reg))
    for fp in sorted(reg["shards"]):
        ds = ds.union(read_stage(root, reg["shards"][fp]["stage"]))
    return ds


def consolidate_shards(root: str, num_partitions: int = 32) -> dict:
    """Fold every registered shard stage into a fresh base stage.

    Long-lived stores accumulate one novel-partition stage per shard;
    reads then union N stages.  Consolidation writes the merged store
    as ``kg_base_<generation>`` and commits by atomically REPLACING
    the registry (base pointer + empty shard map + the accumulated
    ``ingested_paths`` ledger, so re-delivery detection survives
    consolidation).  Crash-safe: before the registry replace the new
    stage is simply invisible (re-run overwrites it); after it, the
    old stage dirs are invisible orphans removed best-effort.
    """
    import shutil

    reg = read_shard_registry(root)
    base = _base_stage(reg)
    if not reg["shards"]:
        bm0 = read_manifest(root, base)
        return {"consolidated": False, "stages_merged": 0,
                "base_stage": base,
                "rows": (bm0 or {}).get("row_count", 0)}
    seen = _ingested_keys(reg, read_manifest(root, base))
    old_stages = [base] + [s["stage"] for s in reg["shards"].values()]
    gen = int(reg.get("generation", 0)) + 1
    new_stage = f"kg_base_{gen}"
    write_stage(merged_kg(root), root, new_stage, f"consolidated:{gen}",
                partition_key="subj", num_partitions=num_partitions,
                metrics={"consolidated_from": sorted(old_stages)})
    # optimistic-concurrency commit UNDER THE REGISTRY LOCK: a nightly
    # append may have registered a NEW shard while the rewrite ran —
    # committing the stale snapshot would silently drop its rows from
    # merged_kg.  The lock makes re-read → decide → write atomic
    # against the append's own locked commit (check-then-write alone
    # still loses a shard registered BETWEEN the re-read and the
    # os.replace); on divergence abort and retry after the feed
    # quiesces — the written stage is invisible and gets overwritten.
    with _registry_lock(root):
        now = read_shard_registry(root)
        if (set(now["shards"]) != set(reg["shards"])
                or _base_stage(now) != base):
            shutil.rmtree(os.path.join(root, new_stage),
                          ignore_errors=True)
            return {"consolidated": False, "stages_merged": 0,
                    "base_stage": _base_stage(now),
                    "rows": (read_manifest(root, _base_stage(now))
                             or {}).get("row_count", 0),
                    "reason": "concurrent_update"}
        _write_shard_registry(root, {
            "shards": {},
            "base_stage": new_stage,
            "generation": gen,
            "ingested_paths": sorted(seen),
            "lexicon_fingerprint": reg.get("lexicon_fingerprint"),
        })  # ← the commit point
    for s in old_stages:
        shutil.rmtree(os.path.join(root, s), ignore_errors=True)
    return {"consolidated": True, "stages_merged": len(old_stages),
            "base_stage": new_stage,
            "rows": read_manifest(root, new_stage)["row_count"]}


def update_kg_incremental(root: str, data_dir: str, shard_paths,
                          fuzzy: bool = True, num_partitions: int = 32,
                          trust_sharding: bool = True,
                          verify: str = "size"):
    """Nightly shard ingest over the checkpointed store (the 10^12-turn
    maintenance loop): link ONLY the new shard, derive its novel
    triples against the merged store, write them as their OWN
    hash-partitioned stage (prev partitions untouched on disk), and
    record the shard in ``_SHARDS.json``.

    - First ever shard → full ``build_kg_from`` into the base ``kg``
      stage.
    - Re-delivered shard → no-op (``{"skipped": True}``): caught by
      the (path, size, mtime) fingerprint OR the persistent
      ``<dir>/<name>:<size>`` ledger (survives mtime-only re-uploads
      AND consolidation); a partial name overlap or a same-named file
      with different size is never skipped and never trusted as
      disjoint — the prev-overlap probe decides.  ``verify="hash"``
      folds a content signature into the ledger key, so a
      same-size IN-PLACE content rewrite (invisible to size keys) is
      ingested as a new shard; off by default — it costs up to 16 MiB
      of reads per shard file per attempt, and pre-hash ledger entries
      are grandfathered by their size key.  Files above 16 MiB are
      signed by their first and last MiB only: a same-size rewrite
      confined to the pages between, under a byte-identical footer,
      still reads as a re-delivery.
    - Unchanged lexicon tables (fingerprint match in the registry) →
      ``update_kg(lexicon_unchanged=True)``: the append never reads
      prev at all — O(new shard), measured store-size-independent
      (BASELINE.md).
    - ``trust_sharding=True`` passes ``prev_turns_disjoint=True`` to
      :func:`~tera_ray.pipelines.transcripts.update_kg` (the registry
      certifies the file was never ingested; the input_hint contract
      says shard files partition the turn space), eliding the
      prev-overlap probe.  Set ``False`` for feeds that can split one
      turn across files — ``scope="auto"`` then probes prev before
      taking the shuffle-free path, and degrades to the global
      anti-join if needed.

    Returns ``{"skipped", "stage", "novel_rows"}``.
    """
    from ..pipelines.transcripts import (build_kg_from, read_transcripts,
                                         update_kg)

    if isinstance(shard_paths, str):
        shard_paths = [shard_paths]
    fp = input_fingerprint(*shard_paths)
    keys = sorted(_shard_ledger_key(p, verify=verify)
                  for p in shard_paths)
    reg = read_shard_registry(root)
    base_m = read_manifest(root, _base_stage(reg))
    seen_keys = _ingested_keys(reg, base_m)
    seen_names = {_ledger_name(k) for k in seen_keys}
    # Idempotence has two layers: the (path, size, mtime) fingerprint
    # catches byte-identical re-submissions, and the ledger of
    # ``<dir>/<name>:<size>`` keys catches a re-uploaded shard whose
    # mtime changed (retried pushes of the SAME bytes keep their
    # size).  A same-named file with a different size is a content
    # revision — never skipped AND never trusted as disjoint; any
    # partial name overlap likewise revokes the attestation (the
    # prev-overlap probe decides), so trust_sharding can never
    # double-ingest turns.  ``verify="hash"`` keys carry a content
    # signature too, so a same-size IN-PLACE rewrite is a new shard —
    # but entries ingested BEFORE hash mode match on their size key
    # (grandfathered: re-pushes of old shards stay idempotent).  The
    # grandfathering is bidirectional: a size-mode lookup also matches
    # hash-keyed entries by size prefix (size mode cannot distinguish
    # revisions by design), so reverting to the default never
    # re-ingests previously-seen shards.
    if verify == "hash":
        in_ledger = bool(seen_keys) and set(keys) <= seen_keys
        if not in_ledger and seen_keys:
            pre_hash = {k for k in seen_keys if _ledger_sizekey(k) == k}
            in_ledger = {_ledger_sizekey(k) for k in keys} <= pre_hash
    else:
        seen_size = {_ledger_sizekey(k) for k in seen_keys}
        in_ledger = bool(seen_size) and set(keys) <= seen_size
    if fp in reg["shards"] or (base_m is not None
                               and base_m.get("input_fingerprint") == fp) \
            or in_ledger:
        return {"skipped": True, "stage": None, "novel_rows": 0}
    if seen_names & {_ledger_name(k) for k in keys}:
        trust_sharding = False
    lex_tables = [os.path.join(data_dir, n + ".parquet")
                  for n in ("species", "species_synonyms", "chemicals",
                            "tests", "results", "taxonomy_nodes",
                            "taxonomy_names", "divisions")
                  if os.path.exists(os.path.join(data_dir, n + ".parquet"))]
    lex_fp = input_fingerprint(*lex_tables)
    new_tr, _ = read_transcripts(shard_paths)
    if base_m is None:
        write_stage(build_kg_from(new_tr, data_dir, fuzzy=fuzzy,
                                  dedup_mode="auto"),
                    root, "kg", fp, partition_key="subj",
                    num_partitions=num_partitions,
                    metrics={"lexicon_fingerprint": lex_fp,
                             "shard_paths": keys})
        with _registry_lock(root):
            reg2 = read_shard_registry(root)
            reg2["lexicon_fingerprint"] = lex_fp
            _write_shard_registry(root, reg2)
        return {"skipped": False, "stage": "kg",
                "novel_rows": read_manifest(root, "kg")["row_count"]}
    # unchanged lexicon tables ⇒ prev already holds every lexicon /
    # static triple this shard would re-derive: the novel job touches
    # ONLY the new shard (update_kg(lexicon_unchanged=True) never
    # reads prev) — the O(new shard) nightly shape
    lex_same = reg.get("lexicon_fingerprint") == lex_fp
    novel = update_kg(merged_kg(root), new_tr, data_dir, fuzzy=fuzzy,
                      emit="novel", scope="auto",
                      prev_turns_disjoint=True if trust_sharding else None,
                      lexicon_unchanged=lex_same)
    stage = "kg_shard_" + fp[:12]
    write_stage(novel, root, stage, fp, partition_key="subj",
                num_partitions=num_partitions,
                metrics={"lexicon_unchanged": lex_same})
    entry = {
        "stage": stage,
        "paths": keys,
        "rows": read_manifest(root, stage)["row_count"],
        "written_at": time.time(),
    }
    # registry commit = locked read-MERGE-write: re-reading under the
    # lock means a consolidation (or sibling append) that committed
    # while this shard was building is never overwritten by our stale
    # snapshot — our entry is merged into whatever registry exists now
    # (the novel anti-join ran against the pre-consolidation store,
    # whose content the consolidated base preserves, so the entry
    # stays valid under either base)
    with _registry_lock(root):
        reg2 = read_shard_registry(root)
        reg2["shards"][fp] = entry
        if not lex_same:
            # the merged store now embeds the NEW lexicon tables
            reg2["lexicon_fingerprint"] = lex_fp
        _write_shard_registry(root, reg2)
    return {"skipped": False, "stage": stage,
            "novel_rows": entry["rows"]}


def validate_stage(root: str, stage: str) -> dict:
    """Lineage-integrity check: re-derive per-partition row counts from
    parquet FILE METADATA (no data read) and compare to the manifest.
    Returns ``{ok, row_count, manifest_row_count, bad_partitions}`` —
    the guard a resumed 100 TB run uses to detect a half-compacted or
    manually-mutilated stage before trusting ``read_stage``."""
    m = read_manifest(root, stage)
    if m is None:
        return {"ok": False, "row_count": 0, "manifest_row_count": None,
                "bad_partitions": ["<no manifest>"]}
    stage_dir = os.path.join(root, stage)
    actual = _partition_counts(stage_dir)
    leftovers = sorted(e for e in os.listdir(stage_dir)
                       if e.startswith("_part="))
    bad = sorted(set(leftovers) | set(m["partitions"]) ^ set(actual)
                 | {k for k in m["partitions"]
                    if actual.get(k) != m["partitions"][k]})
    total = sum(actual.values())
    return {"ok": not bad and total == m["row_count"],
            "row_count": total, "manifest_row_count": m["row_count"],
            "bad_partitions": bad}


def compact_stage(root: str, stage: str) -> dict:
    """Small-files compaction: rewrite every multi-file partition of a
    completed stage into ONE parquet file, preserving rows exactly.

    One Ray task per fragmented partition (the partition list is tiny;
    the files themselves never pass through the driver).  Crash-safe
    swap per partition via '_'-PREFIXED temp dirs (invisible to Arrow
    dataset discovery AND to :func:`_partition_counts`, so a live or
    torn compaction can never be double-read): write
    ``_part=k.compact/``, rename ``part=k`` → ``_part=k.old``, rename
    the compact dir in, delete the old one.  A crash at any point
    leaves either the intact original or a ``_part=*`` leftover, which
    :func:`stage_is_complete` treats as incomplete (rebuild from
    inputs) and :func:`validate_stage` flags.  The manifest is
    untouched (content and counts unchanged — asserted by a validate
    pass).  Re-runs skip leftover temp dirs by construction (the
    partition scan matches ``part=`` only)."""
    import ray

    stage_dir = os.path.join(root, stage)
    m = read_manifest(root, stage)
    assert m is not None, "compact requires a completed stage"
    frag = []
    for entry in sorted(os.listdir(stage_dir)):
        d = os.path.join(stage_dir, entry)
        if not (os.path.isdir(d) and entry.startswith("part=")):
            continue
        files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        if len(files) > 1:
            frag.append((d, files))

    @ray.remote
    def compact_one(d: str, files: list[str]) -> int:
        import shutil

        import pyarrow.parquet as pq

        tabs = [pq.read_table(os.path.join(d, f)) for f in files]
        merged = pa.concat_tables(tabs, promote_options="none")
        base = os.path.dirname(d)
        name = os.path.basename(d)
        tmp_dir = os.path.join(base, "_" + name + ".compact")
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
        pq.write_table(merged, os.path.join(tmp_dir, "compact_000.parquet"))
        old_dir = os.path.join(base, "_" + name + ".old")
        shutil.rmtree(old_dir, ignore_errors=True)
        os.replace(d, old_dir)
        os.replace(tmp_dir, d)
        shutil.rmtree(old_dir)
        return merged.num_rows

    rows = ray.get([compact_one.remote(d, fs) for d, fs in frag])
    check = validate_stage(root, stage)
    assert check["ok"], f"post-compaction validation failed: {check}"
    return {"compacted_partitions": len(frag),
            "rows_rewritten": int(sum(rows)), "validate": check}
