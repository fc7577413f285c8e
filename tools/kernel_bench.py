"""Ray-free timer for the transcript linker and its fuzzy DP kernels.

Tells a kernel regression apart from scheduler noise: every figure is
an in-process call with no Ray session.  Builds the ``hard`` variant of
the synthetic transcript fixture (misspelling-heavy, few mentions) with
``tera_ray.sources.synthetic`` (``TURNS`` turns, which also size the
lexicon), the lexicon ``build_lexicon`` would broadcast, and one batch
of ``BATCH`` turns, the size of one linker task on a 20k-turn build,
then reports the median and min/max of ``--repeats`` runs of:

- ``linker_cold``: ``LinkerStage.__call__`` on a freshly unpickled
  lexicon (empty fuzzy memo, no per-process caches), as the first batch
  a worker links;
- ``linker_warm``: the same call again on the same lexicon;
- ``loop``: one ``levenshtein_batch`` call per probe against its whole
  fuzzy block, the per-span kernel of the row-wise path;
- ``pairs``: one ``levenshtein_pairs`` call over the same probes'
  (probe, candidate) pairs that pass the length and case gates.

The probe set is every (span, case) the cold call put in the memo.
``kernel_calls`` counts the DP kernel calls of one cold linker call.

The ``contract`` section (off by default) times the driver-side
unique-turn contract check ``build_kg`` runs before its read: the
``(conv_id, turn_idx)`` hash pass over Parquet files
(``_turn_key_contract`` on a ``pyarrow.dataset``), on the ``TURNS``-turn
transcript file and on a ``CONTRACT_ROWS``-row key table written by the
tool (8 turns per conversation).  Each input runs in a fresh child
process, which reports its RSS before the first pass (``base_rss_mib``)
and its peak RSS after all passes (``peak_rss_mib``).

Usage::

    python tools/kernel_bench.py [--repeats 7]
        [--sections linker,loop,pairs,contract]
        [--root /tmp/tera_ray_fixtures]

Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

_KERNELS = ("levenshtein_batch", "levenshtein_pairs")
TURNS = 20000
BATCH = 5000
CONTRACT_ROWS = 2_000_000


def _timed(fn, repeats: int, setup=None) -> dict:
    secs = []
    for _ in range(repeats):
        arg = setup() if setup else None
        t0 = time.perf_counter()
        fn(arg)
        secs.append(time.perf_counter() - t0)
    return {"median_s": round(statistics.median(secs), 6),
            "min_s": round(min(secs), 6), "max_s": round(max(secs), 6)}


def _count_kernel_calls(fn) -> dict:
    """Calls of each DP kernel of ``tera_ray.state.lexicon`` while
    ``fn()`` runs (module globals wrapped, then restored)."""
    from tera_ray.state import lexicon as mod

    counts, saved = {}, {}
    for name in _KERNELS:
        if not hasattr(mod, name):
            continue
        saved[name] = getattr(mod, name)
        counts[name] = 0

        def wrap(*a, _n=name, _f=saved[name], **kw):
            counts[_n] += 1
            return _f(*a, **kw)

        setattr(mod, name, wrap)
    try:
        fn()
    finally:
        for name, f in saved.items():
            setattr(mod, name, f)
    return counts


def _rss_mib(field: str) -> float:
    """``VmRSS`` (now) or ``VmHWM`` (peak) of this process, in MiB.  The
    peak is read from ``/proc`` because ``ru_maxrss`` survives ``exec``
    and would report the parent's peak."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise KeyError(field)


def _contract_child(path: str, repeats: int) -> None:
    """One input's contract timings, in this (fresh) process."""
    import pyarrow.dataset as pads

    from tera_ray.pipelines.transcripts import _turn_key_contract

    base = _rss_mib("VmRSS")
    out = _timed(lambda _: _turn_key_contract(pads.dataset(path)), repeats)
    out["rows"] = pads.dataset(path).count_rows()
    out["base_rss_mib"] = round(base, 1)
    out["peak_rss_mib"] = round(_rss_mib("VmHWM"), 1)
    print(json.dumps(out))


def _key_table(root: str) -> str:
    """A ``CONTRACT_ROWS``-row ``(conv_id, turn_idx)`` Parquet file,
    8 turns per conversation, cached under ``root``."""
    path = os.path.join(root, f"contract_keys_{CONTRACT_ROWS}.parquet")
    if not os.path.exists(path):
        i = np.arange(CONTRACT_ROWS)
        conv = np.char.add("conversation-", (i // 8).astype(str))
        tmp = path + ".tmp"
        pq.write_table(pa.table({
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(i % 8, pa.int32())}), tmp)
        os.replace(tmp, path)
    return path


def _contract(d: str, root: str, repeats: int) -> dict:
    import subprocess

    out = {}
    for name, path in (("turns", os.path.join(d, "transcripts.parquet")),
                       ("keys", _key_table(root))):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--_contract", path,
             "--repeats", str(repeats)],
            capture_output=True, text=True, check=True)
        out[name] = json.loads(res.stdout.splitlines()[-1])
    return out


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--sections", default="linker,loop,pairs")
    ap.add_argument("--root", default="/tmp/tera_ray_fixtures",
                    help="fixture cache directory")
    ap.add_argument("--_contract", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args._contract:
        return _contract_child(args._contract, args.repeats)
    sections = set(args.sections.split(","))

    from tera_ray.pipelines.transcripts import LinkerStage
    from tera_ray.sources import synthetic as syn
    from tera_ray.state import lexicon as lx

    d = syn.fixture_dir(TURNS, root=args.root, variant="hard")

    def rd(name):
        return pq.read_table(os.path.join(d, name + ".parquet"))

    template = pickle.dumps(lx.lexicon_from_tables(
        species=rd("species"), synonyms=rd("species_synonyms"),
        chemicals=rd("chemicals"), endpoints=syn.ENDPOINTS,
        effects=syn.EFFECTS))
    batch = pq.read_table(os.path.join(d, "transcripts.parquet"),
                          columns=["conv_id", "turn_idx", "text"]
                          ).slice(0, BATCH)

    def cold():
        return pickle.loads(template)

    probe_lex = cold()
    out = {"turns": TURNS, "batch_turns": batch.num_rows,
           "repeats": args.repeats,
           "kernel_calls": _count_kernel_calls(
               lambda: LinkerStage(probe_lex)(batch))}
    probes = list(probe_lex._fuzzy_memo)
    out["probes"] = len(probes)

    if "linker" in sections:
        out["linker_cold"] = _timed(lambda lex: LinkerStage(lex)(batch),
                                    args.repeats, setup=cold)
        warm = LinkerStage(cold())
        warm(batch)
        out["linker_warm"] = _timed(lambda _: warm(batch), args.repeats)

    lex = cold()
    blocks = [lex.fuzzy_blocks[(s[:2], s.count(" ") + 1)]
              for s, _ in probes]
    if "loop" in sections:
        def loop(_):
            for (s, _u), blk in zip(probes, blocks):
                lx.levenshtein_batch(s, blk[1], blk[2], 2)

        out["loop"] = _timed(loop, args.repeats)
        out["loop_calls"] = len(probes)
    if "pairs" in sections:
        # the gated (probe, candidate) pairs _fuzzy_score builds
        qa, ql, ca, cl = [], [], [], []
        for (s, up), (_, mat, lens, low) in zip(probes, blocks):
            ok = (np.abs(lens - len(s)) <= 2) & (up | low)
            q = np.frombuffer(s.encode("utf-32-le"), np.uint32)
            for k in np.flatnonzero(ok):
                qa.append(q)
                ql.append(len(s))
                ca.append(mat[k, : lens[k]])
                cl.append(lens[k])

        def pad(rows, lens):
            m = np.zeros((len(rows), max(lens, default=1)), np.uint32)
            for i, r in enumerate(rows):
                m[i, : len(r)] = r
            return m

        a, b = pad(qa, ql), pad(ca, cl)
        a_lens, b_lens = np.array(ql, np.int64), np.array(cl, np.int64)
        out["pairs"] = _timed(
            lambda _: lx.levenshtein_pairs(a, a_lens, b, b_lens, 2),
            args.repeats)
        out["pairs_n"] = len(ql)
    if "contract" in sections:
        out["contract"] = _contract(d, args.root, args.repeats)
    print(json.dumps(out))
    return out


if __name__ == "__main__":
    main()
