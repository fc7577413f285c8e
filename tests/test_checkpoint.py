"""Checkpoint/resume + lineage-manifest tests (SURVEY §5.5, north rule)."""

import json
import os

import pyarrow as pa
import pytest

import ray


@pytest.mark.usefixtures("ray_session")
class TestCheckpoint:
    def test_write_read_roundtrip_and_manifest(self, tmp_path):
        from tera_ray.state.checkpoint import read_manifest, read_stage, write_stage

        t = pa.table({
            "subj": [f"s{i % 7}" for i in range(100)],
            "pred": ["p"] * 100,
            "obj": [str(i) for i in range(100)],
        })
        ds = ray.data.from_arrow(t)
        write_stage(ds, str(tmp_path), "s1", "fp1", num_partitions=4)
        m = read_manifest(str(tmp_path), "s1")
        assert m["row_count"] == 100
        assert m["input_fingerprint"] == "fp1"
        assert sum(m["partitions"].values()) == 100
        assert len(m["partitions"]) <= 4
        assert m["metrics"]["wall_s"] > 0  # per-stage op metrics recorded
        back = read_stage(str(tmp_path), "s1").take_all()
        assert sorted(r["obj"] for r in back) == sorted(t["obj"].to_pylist())
        assert all(set(r) == {"subj", "pred", "obj"} for r in back[:3])

    def test_rerun_clears_stale_partial_files(self, tmp_path):
        """A crashed run leaves partial parquet files (no manifest);
        re-executing the stage must NOT count or serve those stale rows
        (round-1 advisor high finding)."""
        import pyarrow.parquet as pq

        from tera_ray.state.checkpoint import read_manifest, read_stage, write_stage

        t = pa.table({"subj": ["a", "b", "c"], "pred": ["p"] * 3,
                      "obj": ["1", "2", "3"]})
        # simulate a partial crashed write: stray parquet, no manifest
        stale_dir = tmp_path / "st" / "part=0"
        os.makedirs(stale_dir, exist_ok=True)
        pq.write_table(
            pa.table({"subj": ["STALE"] * 50, "pred": ["p"] * 50,
                      "obj": ["x"] * 50, "part": ["0"] * 50}),
            stale_dir / "stale_000.parquet")
        write_stage(ray.data.from_arrow(t), str(tmp_path), "st", "fp1",
                    num_partitions=2)
        m = read_manifest(str(tmp_path), "st")
        assert m["row_count"] == 3, "stale rows leaked into the manifest"
        back = read_stage(str(tmp_path), "st").take_all()
        assert sorted(r["subj"] for r in back) == ["a", "b", "c"]

    def test_incomplete_stage_reruns(self, tmp_path):
        from tera_ray.state.checkpoint import run_stage

        t = pa.table({"subj": ["a", "b"], "pred": ["p", "p"], "obj": ["1", "2"]})
        calls = []

        def factory():
            calls.append(1)
            return ray.data.from_arrow(t)

        # simulate a killed run: partition dir exists, no manifest
        os.makedirs(tmp_path / "st" / "part=0", exist_ok=True)
        _, skipped = run_stage(factory, str(tmp_path), "st", "fpX",
                               num_partitions=2)
        assert not skipped and calls == [1]
        # second run: manifest present + fingerprint matches → skip
        _, skipped2 = run_stage(factory, str(tmp_path), "st", "fpX",
                                num_partitions=2)
        assert skipped2 and calls == [1]
        # changed input fingerprint → rerun
        _, skipped3 = run_stage(factory, str(tmp_path), "st", "fpY",
                                num_partitions=2)
        assert not skipped3 and calls == [1, 1]

    def test_build_kg_checkpointed_resume_identical(self, tmp_path, fixtures_t1):
        from tera_ray.state.checkpoint import build_kg_checkpointed, read_manifest

        kg1, skipped1 = build_kg_checkpointed(fixtures_t1, str(tmp_path / "c"),
                                              fuzzy=False)
        n1 = kg1.count()
        assert skipped1 == {"link": False, "lexicon": False, "kg": False}
        m1 = {s: read_manifest(str(tmp_path / "c"), s)
              for s in ("link", "lexicon", "kg")}

        kg2, skipped2 = build_kg_checkpointed(fixtures_t1, str(tmp_path / "c"),
                                              fuzzy=False)
        assert skipped2 == {"link": True, "lexicon": True, "kg": True}
        assert kg2.count() == n1
        m2 = {s: read_manifest(str(tmp_path / "c"), s)
              for s in ("link", "lexicon", "kg")}
        for s in m1:  # byte-identical manifests modulo timestamp
            a = {k: v for k, v in m1[s].items() if k != "written_at"}
            b = {k: v for k, v in m2[s].items() if k != "written_at"}
            assert a == b

        # resumed output matches a fresh full build (A1-level equality)
        from tera_ray.pipelines.transcripts import build_kg

        fresh = build_kg(fixtures_t1, fuzzy=False)
        def spo(ds):
            rows = ds.take_all()
            return sorted((r["subj"], r["pred"], r["obj"]) for r in rows)
        assert spo(kg2) == spo(fresh)

    def test_checkpointed_big_lexicon_routing_equal(self, tmp_path,
                                                    fixtures_t1):
        """big_rows=1 forces every lexicon table through distributed
        emission in the CHECKPOINTED build; output must equal the
        direct build (the scale routing can't change content)."""
        from tera_ray.pipelines.transcripts import build_kg
        from tera_ray.state.checkpoint import build_kg_checkpointed

        kg, _ = build_kg_checkpointed(fixtures_t1, str(tmp_path / "cb"),
                                      fuzzy=False, num_partitions=4,
                                      big_rows=1)

        def spo(ds):
            rows = ds.take_all()
            return sorted((r["subj"], r["pred"], r["obj"]) for r in rows)

        assert spo(kg) == spo(build_kg(fixtures_t1, fuzzy=False))

    def test_manifest_json_is_valid_lineage(self, tmp_path, fixtures_t1):
        from tera_ray.state.checkpoint import build_kg_checkpointed

        build_kg_checkpointed(fixtures_t1, str(tmp_path / "c2"), fuzzy=False)
        p = tmp_path / "c2" / "link" / "_MANIFEST.json"
        m = json.loads(p.read_text())
        assert m["partition_key"] == "conv_id"
        assert m["row_count"] == sum(m["partitions"].values()) > 0

    def test_incremental_same_basename_different_dirs_not_skipped(
            self, tmp_path, fixtures_t1):
        """Standard writer naming (part-0000.parquet in per-day dirs)
        must NOT be mistaken for a re-delivery: the ledger keys on
        <dir>/<name>:<size>, so day 2's file ingests and the merged
        store equals the full build."""
        from collections import Counter

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from tera_ray.pipelines.transcripts import build_kg
        from tera_ray.state.checkpoint import (
            merged_kg,
            update_kg_incremental,
        )

        tr = pq.read_table(os.path.join(fixtures_t1, "transcripts.parquet"))
        tail = pc.cast(pc.utf8_slice_codeunits(
            tr["conv_id"], start=5, stop=99), pa.int64())
        odd = pc.equal(pc.bit_wise_and(tail, pa.scalar(1, pa.int64())),
                       pa.scalar(1, pa.int64()))
        d1 = tmp_path / "2026-08-19"
        d2 = tmp_path / "2026-08-20"
        d1.mkdir()
        d2.mkdir()
        s1 = str(d1 / "part-0000.parquet")
        s2 = str(d2 / "part-0000.parquet")  # same basename, new content
        pq.write_table(tr.filter(pc.invert(odd)), s1)
        pq.write_table(tr.filter(odd), s2)
        root = str(tmp_path / "store")
        r1 = update_kg_incremental(root, fixtures_t1, s1, num_partitions=4)
        r2 = update_kg_incremental(root, fixtures_t1, s2, num_partitions=4)
        assert not r1["skipped"] and not r2["skipped"]

        got = Counter()
        for b in merged_kg(root).iter_batches(batch_format="pyarrow",
                                              batch_size=None):
            got.update(zip(b["subj"].to_pylist(), b["pred"].to_pylist(),
                           b["obj"].to_pylist()))
        want = Counter()
        for b in build_kg(fixtures_t1).iter_batches(
                batch_format="pyarrow", batch_size=None):
            want.update(zip(b["subj"].to_pylist(), b["pred"].to_pylist(),
                            b["obj"].to_pylist()))
        assert got == want and max(got.values()) == 1

    def test_incremental_partial_overlap_probes_not_trusts(self, tmp_path,
                                                           fixtures_t1):
        """A delivery whose file set PARTIALLY overlaps already-ingested
        shards is ambiguous: the disjointness attestation is revoked,
        the prev-overlap probe routes to the exact anti-join, and the
        merged store still equals the full build with no duplicates."""
        from collections import Counter

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from tera_ray.pipelines.transcripts import build_kg
        from tera_ray.state.checkpoint import (
            merged_kg,
            update_kg_incremental,
        )

        tr = pq.read_table(os.path.join(fixtures_t1, "transcripts.parquet"))
        tail = pc.cast(pc.utf8_slice_codeunits(
            tr["conv_id"], start=5, stop=99), pa.int64())
        bucket = pc.cast(pc.bit_wise_and(tail, pa.scalar(3, pa.int64())),
                         pa.int64())
        paths = []
        for k in range(3):
            m = pc.equal(bucket, pa.scalar(k, pa.int64())) if k < 2 else \
                pc.greater_equal(bucket, pa.scalar(2, pa.int64()))
            p = str(tmp_path / f"shard{k}.parquet")
            pq.write_table(tr.filter(m), p)
            paths.append(p)

        root = str(tmp_path / "store")
        update_kg_incremental(root, fixtures_t1, paths[0], num_partitions=4)
        update_kg_incremental(root, fixtures_t1, paths[1], num_partitions=4)
        # partial overlap: shard1 again + the genuinely new shard2
        r = update_kg_incremental(root, fixtures_t1, [paths[1], paths[2]],
                                  num_partitions=4)
        assert not r["skipped"]

        got = Counter()
        for b in merged_kg(root).iter_batches(batch_format="pyarrow",
                                              batch_size=None):
            got.update(zip(b["subj"].to_pylist(), b["pred"].to_pylist(),
                           b["obj"].to_pylist()))
        want = Counter()
        for b in build_kg(fixtures_t1).iter_batches(
                batch_format="pyarrow", batch_size=None):
            want.update(zip(b["subj"].to_pylist(), b["pred"].to_pylist(),
                            b["obj"].to_pylist()))
        assert got == want and max(got.values()) == 1

    def test_incremental_lexicon_change_still_exact(self, tmp_path,
                                                    fixtures_t1):
        """If a later shard arrives with CHANGED lexicon tables, the
        fingerprint mismatch must force the real novelty check and the
        new lexicon triples must land in the merged store."""
        import shutil

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from tera_ray.state.checkpoint import (
            merged_kg,
            update_kg_incremental,
        )

        tr = pq.read_table(os.path.join(fixtures_t1, "transcripts.parquet"))
        tail = pc.cast(pc.utf8_slice_codeunits(
            tr["conv_id"], start=5, stop=99), pa.int64())
        odd = pc.equal(pc.bit_wise_and(tail, pa.scalar(1, pa.int64())),
                       pa.scalar(1, pa.int64()))
        s1 = str(tmp_path / "shard1.parquet")
        s2 = str(tmp_path / "shard2.parquet")
        pq.write_table(tr.filter(pc.invert(odd)), s1)
        pq.write_table(tr.filter(odd), s2)

        # second data_dir: same tables + one brand-new chemical
        d2 = str(tmp_path / "data2")
        shutil.copytree(fixtures_t1, d2)
        chem = pq.read_table(os.path.join(d2, "chemicals.parquet"))
        extra = pa.table({
            "cas_number": pa.array(["999999"], pa.string()),
            "chemical_name": pa.array(["novelchemxyz"], pa.string()),
            "ecotox_group": pa.array(["Metals"], pa.string()),
        }).cast(chem.schema)
        pq.write_table(pa.concat_tables([chem, extra]),
                       os.path.join(d2, "chemicals.parquet"))

        root = str(tmp_path / "store")
        update_kg_incremental(root, fixtures_t1, s1, num_partitions=4)
        r2 = update_kg_incremental(root, d2, s2, num_partitions=4)
        assert not r2["skipped"]
        got = merged_kg(root)
        hits = got.filter(
            expr="subj == 'https://cfpub.epa.gov/ecotox/cas/999999'")
        rows = hits.take_all()
        assert rows, "new chemical's triples missing from merged store"
        # and no duplicated triples overall
        from collections import Counter

        cnt = Counter()
        for b in got.iter_batches(batch_format="pyarrow", batch_size=None):
            cnt.update(zip(b["subj"].to_pylist(), b["pred"].to_pylist(),
                           b["obj"].to_pylist()))
        assert max(cnt.values()) == 1

    def test_incremental_shard_ingest(self, tmp_path, fixtures_t1):
        """Nightly path end-to-end: two disjoint shards ingested via
        the shard registry must reproduce the one-shot full build
        (multiset), a re-delivered shard must be an idempotent no-op,
        and prev partitions must stay untouched on disk."""
        from collections import Counter

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from tera_ray.pipelines.transcripts import build_kg
        from tera_ray.state.checkpoint import (
            merged_kg,
            read_shard_registry,
            update_kg_incremental,
        )

        tr = pq.read_table(os.path.join(fixtures_t1, "transcripts.parquet"))
        tail = pc.cast(pc.utf8_slice_codeunits(
            tr["conv_id"], start=5, stop=99), pa.int64())
        odd = pc.equal(pc.bit_wise_and(tail, pa.scalar(1, pa.int64())),
                       pa.scalar(1, pa.int64()))
        s1 = str(tmp_path / "shard1.parquet")
        s2 = str(tmp_path / "shard2.parquet")
        pq.write_table(tr.filter(pc.invert(odd)), s1)
        pq.write_table(tr.filter(odd), s2)
        root = str(tmp_path / "store")

        r1 = update_kg_incremental(root, fixtures_t1, s1, num_partitions=4)
        assert not r1["skipped"] and r1["stage"] == "kg"
        base_manifest = json.loads(
            (tmp_path / "store" / "kg" / "_MANIFEST.json").read_text())
        r2 = update_kg_incremental(root, fixtures_t1, s2, num_partitions=4)
        assert not r2["skipped"] and r2["stage"].startswith("kg_shard_")
        # prev (base) partitions untouched by the append
        assert json.loads((tmp_path / "store" / "kg"
                           / "_MANIFEST.json").read_text()) == base_manifest
        # re-delivery is a registry no-op
        r3 = update_kg_incremental(root, fixtures_t1, s2, num_partitions=4)
        assert r3["skipped"]
        assert len(read_shard_registry(root)["shards"]) == 1
        # re-delivery with a NEW mtime (retried upload): the fingerprint
        # changes but the file-name ledger still skips it
        os.utime(s2)
        r3b = update_kg_incremental(root, fixtures_t1, s2,
                                    num_partitions=4)
        assert r3b["skipped"]
        assert len(read_shard_registry(root)["shards"]) == 1
        # same for the BASE shard's file
        os.utime(s1)
        r3c = update_kg_incremental(root, fixtures_t1, s1,
                                    num_partitions=4)
        assert r3c["skipped"]

        def spo(ds):
            out = Counter()
            for b in ds.iter_batches(batch_format="pyarrow",
                                     batch_size=None):
                out.update(zip(b["subj"].to_pylist(), b["pred"].to_pylist(),
                               b["obj"].to_pylist()))
            return out

        got = spo(merged_kg(root))
        want = spo(build_kg(fixtures_t1))
        assert got == want and max(got.values()) == 1

        # consolidation folds the shard stage into a new base, keeps
        # the merged multiset, and PRESERVES re-delivery detection
        from tera_ray.state.checkpoint import consolidate_shards

        c = consolidate_shards(root, num_partitions=4)
        assert c["consolidated"] and c["stages_merged"] == 2
        assert spo(merged_kg(root)) == want
        assert not os.path.isdir(os.path.join(root, "kg"))
        assert read_shard_registry(root)["shards"] == {}
        # a post-consolidation re-delivery of shard2 must still skip
        r5 = update_kg_incremental(root, fixtures_t1, s2, num_partitions=4)
        assert r5["skipped"]
        # idempotent no-op when nothing to consolidate
        c2 = consolidate_shards(root)
        assert not c2["consolidated"]


@pytest.mark.usefixtures("ray_session")
class TestValidateAndCompact:
    def _write(self, tmp_path):
        import ray.data

        from tera_ray.state.checkpoint import write_stage

        t = pa.table({
            "subj": pa.array([f"s{i}" for i in range(400)], pa.string()),
            "v": pa.array(list(range(400)), pa.int64()),
        })
        write_stage(ray.data.from_arrow(t), str(tmp_path), "st", "fp",
                    partition_key="subj", num_partitions=4)
        return t

    def _fragment(self, tmp_path):
        # split one partition's single file into two halves (simulated
        # multi-writer fragmentation)
        import pyarrow.parquet as pq

        import glob

        d = sorted(glob.glob(str(tmp_path / "st" / "part=*")))[0]
        f = sorted(os.listdir(d))[0]
        t = pq.read_table(os.path.join(d, f))
        h = t.num_rows // 2
        pq.write_table(t.slice(0, h), os.path.join(d, "frag_000.parquet"))
        pq.write_table(t.slice(h), os.path.join(d, "frag_001.parquet"))
        os.remove(os.path.join(d, f))
        return d

    def test_validate_detects_mutilation(self, tmp_path):
        from tera_ray.state.checkpoint import validate_stage

        self._write(tmp_path)
        assert validate_stage(str(tmp_path), "st")["ok"]
        # fragmentation preserves counts -> still valid
        d = self._fragment(tmp_path)
        assert validate_stage(str(tmp_path), "st")["ok"]
        # deleting a fragment loses rows -> flagged with the partition
        os.remove(os.path.join(d, "frag_001.parquet"))
        chk = validate_stage(str(tmp_path), "st")
        assert not chk["ok"]
        assert os.path.basename(d) in chk["bad_partitions"]

    def test_compact_merges_and_preserves_rows(self, tmp_path):
        from tera_ray.state.checkpoint import (
            compact_stage,
            read_stage,
            validate_stage,
        )

        t = self._write(tmp_path)
        d = self._fragment(tmp_path)
        res = compact_stage(str(tmp_path), "st")
        assert res["compacted_partitions"] == 1
        assert res["validate"]["ok"]
        files = [f for f in os.listdir(d) if f.endswith(".parquet")]
        assert files == ["compact_000.parquet"]
        got = sorted(r["subj"] for b in read_stage(str(tmp_path), "st")
                     .iter_batches(batch_format="pyarrow", batch_size=None)
                     for r in b.to_pylist())
        assert got == sorted(t["subj"].to_pylist())
        assert validate_stage(str(tmp_path), "st")["ok"]


@pytest.mark.usefixtures("ray_session")
def test_torn_compaction_forces_rebuild(tmp_path):
    """A crash mid-compaction leaves a '_part=*' temp dir: the stage
    must read as INCOMPLETE (rebuild from inputs), validate must flag
    it, and the leftover must be invisible to readers (no double-read
    of the duplicated partition)."""
    import ray.data

    from tera_ray.state.checkpoint import (
        read_stage,
        stage_is_complete,
        validate_stage,
        write_stage,
    )

    t = pa.table({"subj": pa.array([f"s{i}" for i in range(100)],
                                   pa.string()),
                  "v": pa.array(list(range(100)), pa.int64())})
    write_stage(ray.data.from_arrow(t), str(tmp_path), "st", "fp",
                partition_key="subj", num_partitions=2)
    assert stage_is_complete(str(tmp_path), "st", "fp")
    # simulate the crash window between rename-out and rename-in:
    # the original partition still exists under the '_' temp name
    import glob
    import shutil

    d = sorted(glob.glob(str(tmp_path / "st" / "part=*")))[0]
    shutil.copytree(d, os.path.join(os.path.dirname(d),
                                    "_" + os.path.basename(d) + ".old"))
    assert not stage_is_complete(str(tmp_path), "st", "fp")
    chk = validate_stage(str(tmp_path), "st")
    assert not chk["ok"]
    assert any(b.startswith("_part=") for b in chk["bad_partitions"])
    # readers never see the temp dir: row count unchanged (no dupes)
    n = sum(b.num_rows for b in read_stage(str(tmp_path), "st")
            .iter_batches(batch_format="pyarrow", batch_size=None))
    assert n == 100


@pytest.mark.usefixtures("ray_session")
def test_sigkill_mid_write_then_resume(tmp_path):
    """LITERAL kill-and-resume (BASELINE target): a subprocess is
    SIGKILLed while write_stage is mid-flight (parquet files on disk,
    no manifest yet); the stage must read as incomplete and a fresh
    run must rebuild to the exact row count with a valid manifest."""
    import os
    import signal
    import subprocess
    import sys
    import textwrap
    import time

    root = str(tmp_path)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = textwrap.dedent(f"""
        import sys, time
        sys.path.insert(0, {repo!r})
        import ray
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        import pyarrow as pa
        import ray.data as rd
        from tera_ray.state.checkpoint import write_stage

        t = pa.table({{
            "subj": pa.array([f"s{{i}}" for i in range(4000)]),
            "v": pa.array(list(range(4000))),
        }})
        ds = rd.from_arrow(t).repartition(20)

        def slow(b):
            time.sleep(0.8)
            return b

        write_stage(ds.map_batches(slow, batch_format="pyarrow"),
                    {root!r}, "st", "fp", partition_key="subj",
                    num_partitions=4)
    """)
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    stage_dir = os.path.join(root, "st")
    manifest = os.path.join(stage_dir, "_MANIFEST.json")
    deadline = time.time() + 60
    try:
        # wait until data is hitting disk but the manifest is absent
        while time.time() < deadline:
            if os.path.exists(manifest):
                break
            has_parquet = any(
                f.endswith(".parquet")
                for _, _, fs in os.walk(stage_dir) for f in fs
            ) if os.path.isdir(stage_dir) else False
            if has_parquet:
                break
            time.sleep(0.2)
        assert not os.path.exists(manifest), \
            "build finished before the kill — slow map too fast"
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    finally:
        proc.wait(timeout=30)

    from tera_ray.state.checkpoint import (
        run_stage,
        stage_is_complete,
        validate_stage,
    )

    # torn state: parquet fragments, no manifest → incomplete
    assert not stage_is_complete(root, "st", "fp")
    assert not validate_stage(root, "st")["ok"]

    import ray.data as rd

    t = pa.table({"subj": pa.array([f"s{i}" for i in range(4000)]),
                  "v": pa.array(list(range(4000)))})

    def factory():
        return rd.from_arrow(t)

    out, skipped = run_stage(factory, root, "st", "fp",
                             partition_key="subj", num_partitions=4)
    assert not skipped                      # it rebuilt, not resumed
    chk = validate_stage(root, "st")
    assert chk["ok"] and chk["row_count"] == 4000, chk
    n = sum(b.num_rows for b in out.iter_batches(
        batch_format="pyarrow", batch_size=None))
    assert n == 4000


def test_kg_build_job_entrypoint(tmp_path):
    """`jobs/kg_build_job.py` is the `ray job submit` driver: a cold
    run builds all three stages with lineage manifests and exits 0
    with a JSON summary; an identical re-submit skips every stage
    (kill-and-resume contract at the JOB level, not just the API)."""
    import json
    import os
    import subprocess
    import sys

    from tera_ray.sources.synthetic import fixture_dir

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(repo, "jobs", "kg_build_job.py")
    data = fixture_dir("t1")
    ckpt = str(tmp_path / "job_ckpt")

    def submit(extra=()):
        out = subprocess.run(
            [sys.executable, script, "--data-dir", data,
             "--ckpt-dir", ckpt, "--num-partitions", "4", *extra],
            capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout.strip().splitlines()[-1])

    cold = submit(extra=("--validate",))
    assert cold["triples"] > 0
    assert all(not s["skipped"] and s["valid"] and s["rows"] > 0
               for s in cold["stages"].values())
    warm = submit()
    assert warm["triples"] == cold["triples"]
    assert all(s["skipped"] for s in warm["stages"].values())


@pytest.mark.usefixtures("ray_session")
def test_ray_job_shard_mode(tmp_path):
    """`kg_build_job.py --shard`: the nightly incremental entrypoint —
    first shard builds the base store, the second appends its novel
    partition via the registry, a re-delivered shard is a no-op, and
    `--validate` reports the merged row count."""
    import json
    import subprocess
    import sys

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from tera_ray.sources.synthetic import fixture_dir

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(repo, "jobs", "kg_build_job.py")
    data = fixture_dir("t1")
    ckpt = str(tmp_path / "shard_ckpt")

    tr = pq.read_table(os.path.join(data, "transcripts.parquet"))
    tail = pc.cast(pc.utf8_slice_codeunits(tr["conv_id"], start=5, stop=99),
                   pa.int64())
    odd = pc.equal(pc.bit_wise_and(tail, pa.scalar(1, pa.int64())),
                   pa.scalar(1, pa.int64()))
    s1 = str(tmp_path / "shard1.parquet")
    s2 = str(tmp_path / "shard2.parquet")
    pq.write_table(tr.filter(pc.invert(odd)), s1)
    pq.write_table(tr.filter(odd), s2)

    def submit(shard, extra=()):
        out = subprocess.run(
            [sys.executable, script, "--data-dir", data, "--ckpt-dir",
             ckpt, "--num-partitions", "4", "--shard", shard, *extra],
            capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout.strip().splitlines()[-1])

    base = submit(s1)
    assert not base["skipped"] and base["stage"] == "kg"
    app = submit(s2, extra=("--validate",))
    assert not app["skipped"] and app["stage"].startswith("kg_shard_")
    assert app["valid"] and app["registered_shards"] == 1
    redo = submit(s2)
    assert redo["skipped"] and redo["registered_shards"] == 1

    from tera_ray.pipelines.transcripts import build_kg

    assert app["merged_rows"] == build_kg(data).count()

    # --consolidate folds the shard stage into a fresh base via the job
    out = subprocess.run(
        [sys.executable, script, "--data-dir", data, "--ckpt-dir", ckpt,
         "--num-partitions", "4", "--consolidate"],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    c = json.loads(out.stdout.strip().splitlines()[-1])
    assert c["consolidated"] and c["rows"] == app["merged_rows"]


@pytest.mark.usefixtures("ray_session")
class TestLedgerAndLock:
    """Round-5 hardening: verify="hash" content keys and the locked
    read-merge-write registry commit (ADVICE r4 checkpoint items)."""

    def _same_size_pair(self, tmp_path, marker_a, marker_b):
        """Two VALID parquet shards, byte-identical in SIZE, different
        in content: plain-encoded, uncompressed, values of equal
        length — only the payload (and footer statistics) differ."""
        import pyarrow.parquet as pq

        def tbl(marker):
            n = 8
            return pa.table({
                "conv_id": pa.array([f"conv_{i:04d}" for i in range(n)]),
                "turn_idx": pa.array(list(range(n)), pa.int32()),
                "text": pa.array([f"{marker} turn {i:02d}" for i in range(n)]),
            })

        pa_, pb_ = str(tmp_path / "va.parquet"), str(tmp_path / "vb.parquet")
        for p, m in [(pa_, marker_a), (pb_, marker_b)]:
            pq.write_table(tbl(m), p, use_dictionary=False,
                           compression="none")
        assert os.path.getsize(pa_) == os.path.getsize(pb_)
        return pa_, pb_

    def test_ledger_key_hash_mode_separates_same_size_rewrite(
            self, tmp_path):
        from tera_ray.state.checkpoint import (
            _ledger_name,
            _ledger_sizekey,
            _shard_ledger_key,
        )

        va, vb = self._same_size_pair(tmp_path, "alpha", "omega")
        shard = str(tmp_path / "incoming.parquet")
        os.replace(va, shard)
        k_size1 = _shard_ledger_key(shard)
        k_hash1 = _shard_ledger_key(shard, verify="hash")
        os.replace(vb, shard)          # in-place same-size rewrite
        assert _shard_ledger_key(shard) == k_size1          # blind spot
        k_hash2 = _shard_ledger_key(shard, verify="hash")
        assert k_hash2 != k_hash1                           # detected
        assert _ledger_sizekey(k_hash1) == _ledger_sizekey(k_hash2) == k_size1
        assert _ledger_name(k_hash1) == _ledger_name(k_size1)

    def test_hash_key_sees_an_early_byte(self, tmp_path):
        """Two same-size files that differ only in byte 100 get
        different ``verify="hash"`` keys, whether hashed whole or by
        head and tail (a tail-only signature gave them the same key)."""
        from tera_ray.state.checkpoint import (
            _content_signature,
            _shard_ledger_key,
        )

        body = bytes(range(256)) * 1024            # 256 KiB
        keys = []
        for i, first in enumerate((b"A", b"B")):
            # same <dir>/<name>:<size> prefix: only the hash can differ
            d = tmp_path / str(i) / "incoming"
            d.mkdir(parents=True)
            p = d / "part-0000.parquet"
            p.write_bytes(body[:100] + first + body[101:])
            keys.append((_shard_ledger_key(str(p), verify="hash"),
                         _content_signature(str(p), whole=4096, edge=4096)))
        assert keys[0][0] != keys[1][0]           # hashed whole
        assert keys[0][1] != keys[1][1]           # hashed head + tail

    def test_incremental_hash_verify_ingests_same_size_rewrite(
            self, tmp_path):
        """End-to-end: a same-size in-place rewrite is skipped as a
        re-delivery under the default size keys (the documented blind
        spot) but ingested as NEW content under verify="hash"."""
        from tera_ray.state.checkpoint import (
            read_shard_registry,
            update_kg_incremental,
        )

        va, vb = self._same_size_pair(tmp_path, "alpha", "omega")
        data_dir = str(tmp_path / "empty_lexicon")
        os.makedirs(data_dir)
        shard = str(tmp_path / "feed" / "part-0000.parquet")
        os.makedirs(os.path.dirname(shard))

        for mode, rewritten_skipped in [("size", True), ("hash", False)]:
            root = str(tmp_path / f"store_{mode}")
            import shutil
            shutil.copy(va, shard)
            r1 = update_kg_incremental(root, data_dir, shard,
                                       fuzzy=False, num_partitions=2,
                                       verify=mode)
            assert not r1["skipped"]
            shutil.copy(vb, shard)     # same-size content revision
            assert os.path.getsize(shard) == os.path.getsize(va)
            r2 = update_kg_incremental(root, data_dir, shard,
                                       fuzzy=False, num_partitions=2,
                                       verify=mode)
            assert r2["skipped"] == rewritten_skipped, mode
            if mode == "hash":
                # byte-identical re-push of the SAME revision still
                # idempotent under hash keys
                os.utime(shard)
                r3 = update_kg_incremental(root, data_dir, shard,
                                           fuzzy=False,
                                           num_partitions=2,
                                           verify=mode)
                assert r3["skipped"]
                assert len(read_shard_registry(root)["shards"]) == 1

    def test_registry_lock_exclusive_and_crash_safe(self, tmp_path):
        """flock-based: a concurrent holder blocks (TimeoutError), a
        released lock re-acquires immediately, and a leftover lock
        FILE from a crashed holder is inert (flock died with the fd —
        no staleness heuristic, no reclaim TOCTOU)."""
        from tera_ray.state.checkpoint import SHARDS, _registry_lock

        root = str(tmp_path / "store")
        with _registry_lock(root):
            with pytest.raises(TimeoutError):
                with _registry_lock(root, timeout=0.2):
                    pass
        # released: immediate re-acquire works
        with _registry_lock(root, timeout=0.2):
            pass
        # leftover file without a live flock (crashed holder): inert
        lock = os.path.join(root, SHARDS + ".lock")
        assert os.path.exists(lock)
        os.utime(lock, (1, 1))
        with _registry_lock(root, timeout=0.2):
            pass

    def test_size_mode_skips_shards_ingested_under_hash_mode(
            self, tmp_path):
        """Grandfathering is bidirectional: after ingesting under
        verify="hash", a re-push checked with the DEFAULT size mode
        still matches the hash-keyed ledger entry by size prefix."""
        from tera_ray.state.checkpoint import update_kg_incremental

        va, vb = self._same_size_pair(tmp_path, "alpha", "omega")
        data_dir = str(tmp_path / "lex2")
        os.makedirs(data_dir)
        root = str(tmp_path / "store_revert")
        r1 = update_kg_incremental(root, data_dir, va, fuzzy=False,
                                   num_partitions=2, verify="hash")
        assert not r1["skipped"]
        os.utime(va)   # mtime-only re-push, now checked in size mode
        r2 = update_kg_incremental(root, data_dir, va, fuzzy=False,
                                   num_partitions=2)
        assert r2["skipped"]

    def test_ledger_keys_with_colons_in_the_dir_name(self, tmp_path):
        """A shard dir like ``drop-12:30/`` keeps the size (and hash)
        fields of its ledger key: an mtime-only re-push is skipped in
        size mode and, after a size-mode ingest, under verify="hash"
        too (its size-keyed entry is grandfathered)."""
        from tera_ray.state.checkpoint import (
            _ledger_name,
            _ledger_sizekey,
            _shard_ledger_key,
            read_shard_registry,
            update_kg_incremental,
        )

        va, _ = self._same_size_pair(tmp_path, "alpha", "omega")
        shard = str(tmp_path / "drop-12:30" / "part:0000.parquet")
        os.makedirs(os.path.dirname(shard))
        os.replace(va, shard)
        k_size = _shard_ledger_key(shard)
        k_hash = _shard_ledger_key(shard, verify="hash")
        size = os.path.getsize(shard)
        assert k_size == f"drop-12:30/part:0000.parquet:{size}"
        assert _ledger_sizekey(k_hash) == _ledger_sizekey(k_size) == k_size
        assert _ledger_name(k_hash) == _ledger_name(k_size) \
            == "drop-12:30/part:0000.parquet"

        data_dir = str(tmp_path / "lex")
        os.makedirs(data_dir)
        root = str(tmp_path / "store")
        r1 = update_kg_incremental(root, data_dir, shard, fuzzy=False,
                                   num_partitions=2)
        assert not r1["skipped"]
        for verify in ("size", "hash"):
            os.utime(shard)     # mtime-only re-push of the same bytes
            r = update_kg_incremental(root, data_dir, shard, fuzzy=False,
                                      num_partitions=2, verify=verify)
            assert r["skipped"], verify
        assert len(read_shard_registry(root)["shards"]) == 0

    def test_append_commit_merges_concurrent_registration(
            self, tmp_path, monkeypatch):
        """A sibling append that commits while this shard builds must
        survive our registry write (the old snapshot-write would erase
        it; the locked read-merge-write keeps both entries)."""
        import pyarrow.parquet as pq

        import tera_ray.pipelines.transcripts as tr_mod
        from tera_ray.state.checkpoint import (
            SHARDS,
            read_shard_registry,
            update_kg_incremental,
        )

        va, vb = self._same_size_pair(tmp_path, "alpha", "omega")
        data_dir = str(tmp_path / "lex")
        os.makedirs(data_dir)
        root = str(tmp_path / "store")
        r1 = update_kg_incremental(root, data_dir, va, fuzzy=False,
                                   num_partitions=2)
        assert not r1["skipped"]

        real = tr_mod.update_kg

        def racing(*a, **kw):
            # simulate a sibling append committing mid-build
            reg = read_shard_registry(root)
            reg["shards"]["sibling_fp"] = {
                "stage": "kg_shard_sibling", "paths": ["x/y:1"],
                "rows": 1, "written_at": 0.0}
            with open(os.path.join(root, SHARDS), "w") as f:
                json.dump(reg, f)
            return real(*a, **kw)

        monkeypatch.setattr(tr_mod, "update_kg", racing)
        r2 = update_kg_incremental(root, data_dir, vb, fuzzy=False,
                                   num_partitions=2)
        assert not r2["skipped"]
        shards = read_shard_registry(root)["shards"]
        assert "sibling_fp" in shards          # not erased
        assert any(v["stage"] == r2["stage"] for v in shards.values())
