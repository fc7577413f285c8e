"""Entity lexicons and the in-text mention linker (SURVEY T2).

The reference aligns whole label fields (``tera/DataIntegration.py:293-329``);
the transcript graft needs in-text mention detection against the same
lexicons (latin/common/synonym species names from
``tera/DataAggregation.py:509-527,700-704`` and chemical aliases from
``:777-794``).  The lexicon is a token-span index — a hash trie keyed on
the first token with full-span continuation lookups — built ONCE on
the driver and broadcast via ``ray.put``; the linker's plain tasks
deserialize it once per worker process and keep it there
(``pipelines.transcripts._resolve_lexicon``), with its lazy probe
structures and fuzzy memo.

Misspelled mentions (no exact span hit) fall back to a blocked fuzzy
lookup: candidates bucketed by (first-2-chars, token-count), scored with
a banded Levenshtein (max distance 2) — the distributed analog of the
reference's fuzzywuzzy ``extractOne`` (``DataIntegration.py:263-272``),
but bounded by blocking instead of O(N×M).  The batch linker scores all
of a batch's fallback probes together with :func:`levenshtein_pairs`; the
row-wise reference path scores one span per :func:`levenshtein_batch`
call.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute

_WORD_SPLIT = re.compile(r"\s+")
# (span, candidate) pairs per levenshtein_pairs call in the batch linker
_PAIR_CHUNK = 1 << 16
_STRIP_PUNCT = ".,;:()[]{}\"'!?"
# RE2 class equivalent to Python's Unicode \s (pc.split_pattern_regex
# runs RE2, where \s is ASCII-only): C0 controls \t-\r and \x1c-\x1f,
# NEL, and the Unicode separator category (Zs/Zl/Zp).
_WS_RE2 = r"[\t-\r\x1c-\x1f\x85\p{Z}]+"


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with surrounding punctuation stripped.

    Keeps unit-internal characters (``mg/L``, ``12.3``, ``^2``) intact —
    the same vocabulary ``unit_parser`` consumes (``tera/utils.py:52-99``).
    """
    out = []
    for tok in _WORD_SPLIT.split(text):
        tok = tok.strip(_STRIP_PUNCT)
        if tok:
            out.append(tok)
    return out


def normalize(span: str) -> str:
    return span.lower()


def flat_token_arrays(texts: pa.Array):
    """Vectorized :func:`tokenize` over a whole string column.

    Arrow kernels do the splitting / punctuation-trimming / lowering
    (split_pattern_regex → list_flatten → utf8_trim → utf8_lower), so no
    per-token Python runs.  Returns ``(orig, low, starts)``: flat token
    arrays (original-case and lowered) plus an ``int64`` offset vector —
    document ``d``'s tokens live at ``starts[d]:starts[d+1]``.  Null /
    empty texts contribute zero tokens, matching the row-wise path's
    ``if not text: continue``.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_docs = len(texts)
    toks = pa.compute.split_pattern_regex(texts, pattern=_WS_RE2)
    flat = pa.compute.list_flatten(toks)
    parents = pa.compute.list_parent_indices(toks)
    trimmed = pa.compute.utf8_trim(flat, characters=_STRIP_PUNCT)
    keep = pa.compute.greater(pa.compute.utf8_length(trimmed), 0)
    orig = trimmed.filter(keep)
    par = parents.filter(keep)
    low = pa.compute.utf8_lower(orig)
    starts = np.zeros(n_docs + 1, np.int64)
    if len(par):
        counts = np.bincount(
            par.to_numpy(zero_copy_only=False).astype(np.int64),
            minlength=n_docs)
        np.cumsum(counts, out=starts[1:])
    return orig, low, starts


def levenshtein(a: str, b: str, maxd: int = 2) -> int:
    """Banded Levenshtein distance, early-exit above ``maxd``."""
    la, lb = len(a), len(b)
    if abs(la - lb) > maxd:
        return maxd + 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    prev = list(range(la + 1))
    for j in range(1, lb + 1):
        cur = [j] + [0] * la
        best = j
        bj = b[j - 1]
        for i in range(1, la + 1):
            c = prev[i - 1] + (a[i - 1] != bj)
            c2 = min(prev[i] + 1, cur[i - 1] + 1)
            cur[i] = c if c < c2 else c2
            if cur[i] < best:
                best = cur[i]
        if best > maxd:
            return maxd + 1
        prev = cur
    return prev[la]


def levenshtein_batch(a: str, mat: np.ndarray, lens: np.ndarray,
                      maxd: int = 2) -> np.ndarray:
    """Levenshtein distance of ``a`` against K padded candidates at once.

    ``mat``: (K, Lmax) uint32 codepoints, 0-padded; ``lens``: true
    lengths.  One vectorized DP row per char of ``a``; the serial
    insertion dependency becomes a min-plus prefix scan
    (``min_k(cur_k + (j-k))`` = ``minimum.accumulate(cur - j) + j``).
    Early-exits when every lane's row minimum exceeds ``maxd``.
    Returns distances clipped to ``maxd + 1``.
    """
    K, Lmax = mat.shape
    la = len(a)
    big = np.int32(maxd + 1)
    out = np.full(K, big, np.int32)
    feasible = np.abs(lens - la) <= maxd
    if not feasible.any() or la == 0:
        if la == 0:
            out[lens <= maxd] = lens[lens <= maxd].astype(np.int32)
        return out
    # DP only over the length-feasible lanes (|len-la| <= maxd), with
    # columns clipped to their max length — blocks mix lengths freely
    # (key is a 2-char prefix + token count), so this cuts both DP
    # dimensions: measured ~4x on the fixture's largest block
    idx = np.flatnonzero(feasible)
    lens_f = lens[idx]
    lmax = int(lens_f.max())
    mat_f = mat[idx, :lmax]
    kf = len(idx)
    acodes = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    j_idx = np.arange(lmax + 1, dtype=np.int32)
    prev = np.broadcast_to(j_idx, (kf, lmax + 1)).copy()
    for i in range(1, la + 1):
        sub = prev[:, :-1] + (mat_f != acodes[i - 1])
        cur = np.empty_like(prev)
        cur[:, 0] = i
        cur[:, 1:] = np.minimum(prev[:, 1:] + 1, sub)
        # insertion via min-plus prefix scan along j
        t = cur - j_idx
        np.minimum.accumulate(t, axis=1, out=t)
        cur = t + j_idx
        if cur.min() > maxd:
            return out
        prev = cur
    d = prev[np.arange(kf), lens_f]
    np.minimum(d, big, out=d)
    out[idx] = d
    return out


def levenshtein_pairs(a: np.ndarray, a_lens: np.ndarray, b: np.ndarray,
                      b_lens: np.ndarray, maxd: int = 2) -> np.ndarray:
    """Banded Levenshtein distance of P (query, candidate) pairs at once.

    ``a``/``b``: (P, La)/(P, Lb) uint32 codepoints, 0-padded, with true
    lengths ``a_lens``/``b_lens``.  The DP keeps only the ``2·maxd + 1``
    diagonals ``j = i + o`` (``|o| <= maxd``) of each query row ``i``.
    Since ``j`` depends only on ``(i, o)``, each (row, offset) cell is
    one vector op over all P pairs, with no per-pair Python: the band
    is held offset-major, (band, P), so every such op runs over a
    contiguous vector.  Cells are clipped to ``maxd + 1``.  Pairs run
    longest query first, so row ``i`` covers a prefix of them and each
    pair's answer is read at its own last row; the loop stops once no
    live pair's band minimum is ``<= maxd`` (row minima never decrease
    past row ``maxd``).  Returns int32 distances clipped to
    ``maxd + 1``.
    """
    P = len(a_lens)
    big = maxd + 1
    out = np.full(P, big, np.int32)
    if P == 0:
        return out
    W = 2 * maxd + 1
    order = np.argsort(-np.asarray(a_lens, np.int64), kind="stable")
    neg_al = -np.asarray(a_lens, np.int64)[order]      # ascending
    la_max = int(-neg_al[0])
    # candidate char j - 1 of cell (i, k), j = i + k - maxd, sits in row
    # i + k of bt: maxd + 1 leading pad rows, one row per column
    nb = min(b.shape[1], la_max + maxd)
    bt = np.zeros((la_max + W, P), np.uint32)
    bt[maxd + 1: maxd + 1 + nb] = b[order, :nb].T
    at = np.ascontiguousarray(a[order, :la_max].T)
    # band offset of each pair's answer (j = b_len) in its row i = a_len
    k_end = np.asarray(b_lens, np.int64)[order] + neg_al + maxd
    k = np.arange(W)[:, None]
    band = np.broadcast_to(np.where(k >= maxd, k - maxd, big)
                           .astype(np.int8), (W, P)).copy()
    n = P
    for i in range(la_max + 1):
        if i:
            prev = band[:, :n]
            cur = prev + (bt[i: i + W, :n] != at[i - 1, :n])
            # cells with j < 0 stay clipped at big from row 0 on, so
            # the j == 0 cell reads i from the cell above: no boundary
            # case
            np.minimum(cur[:-1], prev[1:] + 1, out=cur[:-1])
            for o in range(1, W):              # insertions, along the band
                np.minimum(cur[o], cur[o - 1] + 1, out=cur[o])
            np.minimum(cur, big, out=cur)
            band = cur
        # pairs [live, n) have a_len == i: read their answers
        live = int(np.searchsorted(neg_al, -(i + 1), side="right"))
        if live < n:
            ke = k_end[live:n]
            ok = (ke >= 0) & (ke < W)
            fin = np.arange(live, n)[ok]
            out[order[fin]] = band[ke[ok], fin]
        n = live
        if n == 0 or (i >= maxd and band[:, :n].min() > maxd):
            break
    return out


def _gather_rows(codes: np.ndarray, offs: np.ndarray, lens: np.ndarray,
                 rows: np.ndarray, width: int) -> np.ndarray:
    """Strings ``rows`` of a flat codepoint buffer (string ``r`` is
    ``codes[offs[r]: offs[r] + lens[r]]``) as a 0-padded
    ``(len(rows), width)`` uint32 matrix for :func:`levenshtein_pairs`.
    ``codes`` must end in at least ``width`` zeros past its last string;
    each row is one strided window, so the gather makes no index
    matrix."""
    m = np.lib.stride_tricks.sliding_window_view(codes, width)[offs[rows]]
    m[np.arange(width) >= lens[rows][:, None]] = 0
    return m


def _pack_spans(spans: list[str]):
    """Candidate list → (codepoint matrix, lengths) for levenshtein_batch."""
    lens = np.array([len(s) for s in spans], np.int64)
    lmax = int(lens.max(initial=1))
    mat = np.zeros((len(spans), lmax), np.uint32)
    for k, s in enumerate(spans):
        mat[k, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    return mat, lens


@dataclass
class Lexicon:
    """Alias → entity-URI index over token spans.

    ``spans``: first-token → {full normalized span → (entity_uri, kind)};
    ``max_len``: longest alias token count (bounds span probing);
    ``fuzzy_blocks``: (first-2-chars, n_tokens) → [(span, uri, kind)].
    """

    spans: dict[str, dict[str, tuple[str, str]]] = field(default_factory=dict)
    max_len: int = 1
    # (prefix2, n_tokens) → (sorted [(span, uri, kind)], packed codepoint
    # matrix, lengths, lower-origin mask) — see build_fuzzy
    fuzzy_blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        self._fuzzy_memo: dict[tuple[str, bool], tuple[str, str] | None] = {}
        self._first_set: pa.Array | None = None
        self._len_sets: dict[int, pa.Array] | None = None
        self._fuzzy_pfx_set: pa.Array | None = None
        self._fuzzy_pfx_low_set: pa.Array | None = None
        self._lower_spans: set[str] = set()
        self._lower_pfx: set[str] = set()
        self._flat: tuple | None = None

    def __getstate__(self):
        # the flat candidate matrix is rebuilt lazily per process
        # (_fuzzy_flat); pickling it would grow every broadcast
        state = dict(self.__dict__)
        state["_flat"] = None
        return state

    def add(self, alias: str, uri: str, kind: str) -> None:
        toks = tokenize(normalize(alias))
        if not toks:
            return
        span = " ".join(toks)
        self.spans.setdefault(toks[0], {}).setdefault(span, (uri, kind))
        if alias.lstrip()[:1].islower():
            # lowercase-ORIGIN alias (a common name, not a proper noun):
            # lowercase text tokens may fuzzy-match it — see build_fuzzy
            self._lower_spans.add(span)
        self._first_set = None
        self._len_sets = None
        if len(toks) > self.max_len:
            self.max_len = len(toks)

    def _span_len_sets(self) -> dict[int, pa.Array]:
        """Per-token-count span value-sets for the vectorized n-gram
        ``is_in`` probe (lazy; rebuilt per process after broadcast)."""
        if self._len_sets is None:
            by_len: dict[int, list[str]] = defaultdict(list)
            for d in self.spans.values():
                for span in d:
                    by_len[span.count(" ") + 1].append(span)
            self._len_sets = {ln: pa.array(sorted(vs), pa.string())
                              for ln, vs in by_len.items()}
        return self._len_sets

    def build_fuzzy(self) -> None:
        """Blocking index for misspelling fallback.  Block key =
        (2-char prefix, token count); fixture misspellings mutate at
        char position >= 2 (``sources/synthetic.py``), so the prefix
        block retains recall — the blocking-recall assumption is tested
        in tests/test_properties.py and tests/test_driver_contract.py.

        Each block is ``(items, mat, lens, low_mask)``: its candidates
        sorted, packed once into a codepoint matrix with their lengths,
        and the lower-origin mask.  The row-wise path scores one span
        against a whole block per ``levenshtein_batch`` call.  The batch
        linker (:meth:`match_flat`) instead gathers every (span,
        candidate) pair of a batch from one flat matrix of all blocks,
        built lazily once per process (:meth:`_fuzzy_flat`) and never
        pickled, and scores them in one ``levenshtein_pairs`` call —
        distinct misspelled spans rarely hit the memo, so this is the
        cold-path cost.

        Case-aware gating (the recall path for misspelled COMMON
        names): an uppercase-starting text token may fuzzy-match any
        alias; a lowercase-starting one only aliases whose ORIGINAL
        surface form started lowercase (common names — "zebrafish",
        "water flea").  Ordinary lowercase words stay excluded by the
        2-char-prefix block plus the lower-origin candidate mask, so
        precision doesn't pay for the recall.
        """
        blocks: dict[tuple[str, int], list[tuple[str, str, str]]] = defaultdict(list)
        for first, d in self.spans.items():
            for span, (uri, kind) in d.items():
                blocks[(span[:2], span.count(" ") + 1)].append((span, uri, kind))
        packed = {}
        low = self._lower_spans
        lower_pfx = set()
        for key, items in blocks.items():
            items.sort()  # deterministic candidate order
            spans = [s for s, _, _ in items]
            mat, lens = _pack_spans(spans)
            low_mask = np.array([s in low for s in spans], bool)
            if low_mask.any():
                lower_pfx.add(key[0])
            packed[key] = (items, mat, lens, low_mask)
        self.fuzzy_blocks = packed
        self._lower_pfx = lower_pfx
        self._fuzzy_pfx_set = None
        self._fuzzy_pfx_low_set = None
        self._flat = None

    # --- matching ---
    def match_tokens(
        self, tokens: list[str], fuzzy: bool = True
    ) -> list[tuple[int, int, str, str]]:
        """Longest-match scan: returns (start, n_tokens, uri, kind)."""
        norm = [t.lower() for t in tokens]
        out = []
        i, n = 0, len(tokens)
        while i < n:
            first = norm[i]
            d = self.spans.get(first)
            hit = None
            if d is not None:
                for ln in range(min(self.max_len, n - i), 0, -1):
                    span = " ".join(norm[i : i + ln])
                    ent = d.get(span)
                    if ent is not None:
                        hit = (i, ln, ent[0], ent[1])
                        break
            if hit is None and fuzzy and len(first) >= 4:
                upper = tokens[i][:1].isupper()
                if upper or first[:2] in self._lower_pfx:
                    hit = self._fuzzy_at(norm, i, n, upper)
            if hit is not None:
                out.append(hit)
                i += hit[1]
            else:
                i += 1
        return out

    def _fuzzy_span(self, span: str, ln: int, upper: bool = True):
        """Memoized blocked-fuzzy lookup of one normalized span.

        ``upper``: the TEXT token started uppercase — it may match any
        alias; lowercase tokens only lower-origin aliases (build_fuzzy).
        Transcripts repeat surface forms constantly (both real aliases
        and common capitalized words), so the banded-Levenshtein block
        scan runs once per distinct (span, case) per process, not per
        occurrence.
        """
        memo = self._fuzzy_memo
        mkey = (span, upper)
        if mkey in memo:
            return memo[mkey]
        res = None
        blk = self.fuzzy_blocks.get((span[:2], ln))
        if blk is not None:
            items, mat, lens, low_mask = blk
            if upper or low_mask.any():
                dists = levenshtein_batch(span, mat, lens, 2)
                ok = dists <= 2
                if not upper:
                    ok &= low_mask
                if ok.any():
                    bkey = None
                    for k in np.flatnonzero(ok):
                        cspan, uri, kind = items[k]
                        key = (int(dists[k]), cspan, uri)  # deterministic
                        if bkey is None or key < bkey:
                            bkey, res = key, (uri, kind)
        if len(memo) < 1_000_000:
            memo[mkey] = res
        return res

    def _fuzzy_at(self, norm, i: int, n: int, upper: bool = True):
        # block key = (first-2-chars, token count) and the fuzzy gate
        # guarantees len(norm[i]) >= 4, so block existence is decidable
        # from the first token alone — skip span construction (join) and
        # memo churn for the (common) absent-block probes
        pfx = norm[i][:2]
        blocks = self.fuzzy_blocks
        for ln in range(min(self.max_len, n - i), 0, -1):
            if (pfx, ln) not in blocks:
                continue
            span = " ".join(norm[i : i + ln])
            res = self._fuzzy_span(span, ln, upper)
            if res is not None:
                # longest span wins (loop order)
                return (i, ln, res[0], res[1])
        return None

    def _fuzzy_flat(self):
        """Every fuzzy-block candidate in one flat codepoint buffer for
        the batched fallback of :meth:`match_flat`: candidate ``row``
        is ``codes[offs[row]: offs[row] + lens[row]]``, and block
        ``key`` owns rows ``ranges[key]``, in its sorted candidate
        order.  Unpadded, so one long alias widens nothing; ``codes``
        ends in as many zeros as the longest candidate has codepoints,
        for :func:`_gather_rows`.  Lazy, once per process (never
        pickled, see ``__getstate__``).  Returns ``(codes, offs, lens,
        low_mask, ents, ranges, pfx_by_len)``: ``ents[row] = (uri,
        kind)``; ``pfx_by_len``: token count → the prefixes keying a
        block of that count."""
        if self._flat is None:
            keys = sorted(self.fuzzy_blocks)
            blks = [self.fuzzy_blocks[k] for k in keys]
            bounds = np.cumsum([0] + [len(b[0]) for b in blks])
            lens = np.concatenate([b[2] for b in blks])
            width = int(lens.max())
            codes = np.concatenate(
                [bmat[np.arange(bmat.shape[1]) < blens[:, None]]
                 for _, bmat, blens, _ in blks]
                + [np.zeros(width, np.uint32)])
            by_len: dict[int, list[str]] = defaultdict(list)
            for pfx, ln in keys:
                by_len[ln].append(pfx)
            self._flat = (
                codes,
                np.cumsum(lens) - lens,
                lens,
                np.concatenate([b[3] for b in blks]),
                [(uri, kind) for b in blks for _, uri, kind in b[0]],
                {k: (lo, hi) for k, lo, hi in zip(
                    keys, bounds[:-1].tolist(), bounds[1:].tolist())},
                {ln: pa.array(v, pa.string()) for ln, v in by_len.items()},
            )
        return self._flat

    def _fuzzy_probe(self, pos: np.ndarray, upper: np.ndarray, pfx: pa.Array,
                     room: np.ndarray, ngrams: dict[int, pa.Array]):
        """Blocked-fuzzy hits for a batch's fallback positions ``pos``
        (token starts with no exact hit): ``{position: (n_tokens, uri,
        kind)}``, the longest hitting span per position, as
        :meth:`_fuzzy_at` picks it.  Every token count whose (prefix,
        count) keys a block and that fits the ``room`` left in the
        document is a probe; its span is read from ``ngrams`` (the exact
        probe's per-count n-gram keys) and Python touches only each
        count's distinct (span, case) keys: the memo answers repeats and
        :meth:`_fuzzy_score` scores the rest at once."""
        memo = self._fuzzy_memo
        *_, pfx_by_len = self._fuzzy_flat()
        per_ln = []                                 # (ln, probes, key id, keys)
        todo: dict[tuple[str, bool], int] = {}      # memo misses → ln
        for ln, pset in sorted(pfx_by_len.items()):
            sel = np.flatnonzero((room >= ln) & pa.compute.is_in(
                pfx, value_set=pset).to_numpy(zero_copy_only=False))
            if not sel.size:
                continue
            enc = ngrams[ln].take(pa.array(pos[sel])).dictionary_encode()
            uniq, kid = np.unique(
                enc.indices.to_numpy().astype(np.int64) * 2 + upper[sel],
                return_inverse=True)
            spans = enc.dictionary.to_pylist()
            keys = [(spans[u >> 1], bool(u & 1)) for u in uniq.tolist()]
            for key in keys:
                if key not in memo:
                    todo.setdefault(key, ln)
            per_ln.append((ln, sel, kid, keys))
        fresh = self._fuzzy_score(todo) if todo else {}
        ents: list[tuple[str, str]] = []            # distinct hits
        hit_ln = np.zeros(len(pos), np.int64)       # 0: no fuzzy hit
        hit_ent = np.zeros(len(pos), np.int64)
        for ln, sel, kid, keys in per_ln:           # ascending ln: the
            code = np.full(len(keys), -1, np.int64)     # longest hit wins
            for u, key in enumerate(keys):
                res = fresh[key] if key in fresh else memo[key]
                if res is not None:
                    code[u] = len(ents)
                    ents.append(res)
            c = code[kid]
            found = c >= 0
            hit_ln[sel[found]] = ln
            hit_ent[sel[found]] = c[found]
        got = np.flatnonzero(hit_ln)
        return {p: (ln, *ents[e]) for p, ln, e in zip(
            pos[got].tolist(), hit_ln[got].tolist(), hit_ent[got].tolist())}

    def _fuzzy_score(self, todo: dict[tuple[str, bool], int]) -> dict:
        """Answer memo-missing fuzzy probes ``{(span, upper): n_tokens}``
        with one :func:`levenshtein_pairs` call (per ``_PAIR_CHUNK``
        pairs) over every (span, block candidate) pair that passes the
        length (``<= 2`` apart) and case gates of :meth:`_fuzzy_span`;
        each span's winner is the smallest (distance, candidate span,
        uri), which is the smallest (distance, row) since a block's rows
        are sorted.  Fills the memo and returns ``{(span, upper): (uri,
        kind) | None}``."""
        codes, offs, lens, low_mask, ents, ranges, _ = self._fuzzy_flat()
        keys = list(todo)
        spans = [s for s, _ in keys]
        nq = len(keys)
        qlen = np.fromiter(map(len, spans), np.int64, nq)
        lo, hi = np.array([ranges[(s[:2], ln)]
                           for s, ln in zip(spans, todo.values())]).T
        cnt = hi - lo
        qi = np.repeat(np.arange(nq), cnt)
        ci = np.arange(int(cnt.sum())) + np.repeat(lo - (np.cumsum(cnt) - cnt),
                                                   cnt)
        up = np.fromiter((u for _, u in keys), bool, nq)
        ok = (np.abs(lens[ci] - qlen[qi]) <= 2) & (up[qi] | low_mask[ci])
        qi, ci = qi[ok], ci[ok]
        out = dict.fromkeys(keys)
        if qi.size:
            # only paired spans and candidates set the widths: a paired
            # span is at most 2 longer than a candidate, so no long
            # unmatchable token widens the matrices
            lq = int(qlen[qi].max())
            qcodes = np.concatenate([
                np.frombuffer("".join(spans).encode("utf-32-le"), np.uint32),
                np.zeros(lq, np.uint32)])
            qoffs = np.cumsum(qlen) - qlen
            lc = int(lens[ci].max())
            # one kernel call per _PAIR_CHUNK pairs bounds the gathered
            # matrices; a batch rarely holds more than one chunk
            d = np.concatenate([
                levenshtein_pairs(_gather_rows(qcodes, qoffs, qlen, q, lq),
                                  qlen[q],
                                  _gather_rows(codes, offs, lens, c, lc),
                                  lens[c], 2)
                for q, c in ((qi[k: k + _PAIR_CHUNK], ci[k: k + _PAIR_CHUNK])
                             for k in range(0, len(qi), _PAIR_CHUNK))])
            win = d <= 2
            qi, ci, d = qi[win], ci[win], d[win]
            o = np.lexsort((ci, d, qi))
            qi, ci = qi[o], ci[o]
            first = np.flatnonzero(np.diff(qi, prepend=-1))
            for q, c in zip(qi[first].tolist(), ci[first].tolist()):
                out[keys[q]] = ents[c]
        memo = self._fuzzy_memo
        for key, res in out.items():
            if len(memo) >= 1_000_000:
                break
            memo[key] = res
        return out

    def match_flat(self, orig: pa.Array, low: pa.Array, starts: np.ndarray,
                   fuzzy: bool = True):
        """Batch equivalent of per-document :meth:`match_tokens` over the
        flat token arrays of :func:`flat_token_arrays`.

        Exact matching is fully vectorized: for every span length ``ln``
        the lexicon holds, an n-gram key array is built with ONE Arrow
        ``binary_join_element_wise`` over shifted views of ``low`` and
        probed with ``is_in`` against the per-length span set — the
        whole batch's phrase lookups run as C++ kernels, and Python
        touches only the actual hit positions (longest ``ln`` wins,
        doc-boundary-masked).

        The blocked-fuzzy fallback runs once per batch, before the
        greedy scan: every position with no exact hit that passes the
        case, length≥4 and prefix gates is probed at every token count
        whose block exists (:meth:`_fuzzy_probe`), the memo answers
        repeated spans, and the rest are scored in ONE
        ``levenshtein_pairs`` call (:meth:`_fuzzy_score`).  Probes at
        positions the non-overlap rule later skips, and shorter spans
        behind a longer hit, are speculative: they fill the memo and
        are never emitted.  The greedy non-overlap scan then only reads
        the exact and fuzzy hits.  Returns ``(doc_ids, uris, kinds)`` in
        per-document scan order — the same hit sequence
        ``match_tokens`` yields row-wise (asserted in
        tests/test_transcripts.py).
        """
        doc_ids: list[int] = []
        uris: list[str] = []
        kinds: list[str] = []
        n_tok = len(low)
        if n_tok == 0:
            return doc_ids, uris, kinds
        pcm = pa.compute
        low_np = None
        # token → owning doc (counts-repeat; O(n_tok), no search)
        counts = np.diff(starts)
        tok_doc = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        # exact n-gram probe, ascending ln so the longest span wins
        best: dict[int, tuple[int, str, str]] = {}
        # ln → span key at each start, kept for the fuzzy probe
        ngrams: dict[int, pa.Array] = {}
        for ln, sset in sorted(self._span_len_sets().items()):
            if ln > n_tok:
                continue
            if ln == 1:
                keys = low
                mask = pcm.is_in(low, value_set=sset).to_numpy(
                    zero_copy_only=False)
            else:
                parts = [low.slice(i, n_tok - ln + 1) for i in range(ln)]
                keys = pcm.binary_join_element_wise(*parts, " ")
                mask = pcm.is_in(keys, value_set=sset).to_numpy(
                    zero_copy_only=False)
                # doc-boundary mask: all ln tokens in the same doc
                mask &= tok_doc[: n_tok - ln + 1] == tok_doc[ln - 1:]
            if fuzzy:
                ngrams[ln] = keys
            hp = np.flatnonzero(mask)
            if hp.size == 0:
                continue
            if low_np is None:
                low_np = low.to_numpy(zero_copy_only=False)
            kstr = (low_np[hp] if ln == 1
                    else keys.take(pa.array(hp)).to_pylist())
            spans_d = self.spans
            for p, k in zip(hp.tolist(), kstr):
                uri, kind = spans_d[low_np[p]][k]
                best[p] = (ln, uri, kind)
        if fuzzy:
            # a fuzzy candidate can only hit if its 2-char prefix keys
            # SOME block — vectorized prefilter kills the (dominant)
            # capitalized-but-unmatchable positions before the scan.
            # Case-aware: uppercase tokens probe any block; lowercase
            # tokens only prefixes owning a lower-origin alias (common
            # names), so ordinary words stay out (see build_fuzzy).
            if self._fuzzy_pfx_set is None:
                self._fuzzy_pfx_set = pa.array(
                    sorted({p for p, _ in self.fuzzy_blocks}), pa.string())
            if self._fuzzy_pfx_low_set is None:
                self._fuzzy_pfx_low_set = pa.array(
                    sorted(self._lower_pfx), pa.string())
            len_ok = pcm.greater_equal(pcm.utf8_length(low), 4)
            pfx2 = pcm.utf8_slice_codeunits(low, 0, 2)
            up_np = pcm.and_(
                pcm.and_(pcm.match_substring_regex(orig, r"^\p{Lu}"),
                         len_ok),
                pcm.is_in(pfx2, value_set=self._fuzzy_pfx_set),
            ).to_numpy(zero_copy_only=False)
            lo_np = (pcm.and_(
                pcm.and_(pcm.invert(pcm.match_substring_regex(
                    orig, r"^\p{Lu}")), len_ok),
                pcm.is_in(pfx2, value_set=self._fuzzy_pfx_low_set),
            ).to_numpy(zero_copy_only=False)
                if len(self._fuzzy_pfx_low_set) else None)
            fz_np = up_np if lo_np is None else (up_np | lo_np)
            pos = np.setdiff1d(np.flatnonzero(fz_np),
                               np.fromiter(best, np.int64, len(best)),
                               assume_unique=True)
            if pos.size:
                # speculative: every probe is scored, including positions
                # the non-overlap scan below skips; those only fill the
                # memo and are never emitted
                best.update(self._fuzzy_probe(
                    pos, up_np[pos], pfx2.take(pa.array(pos)),
                    starts[tok_doc[pos] + 1] - pos, ngrams))
        if not best:
            return doc_ids, uris, kinds
        cand = np.sort(np.fromiter(best, np.int64, len(best)))
        cur_doc, next_allowed = -1, -1
        for p, dc in zip(cand.tolist(), tok_doc[cand].tolist()):
            if dc != cur_doc:
                cur_doc, next_allowed = dc, -1
            if p < next_allowed:
                continue
            ln, uri, kind = best[p]
            doc_ids.append(dc)
            uris.append(uri)
            kinds.append(kind)
            next_allowed = p + ln
        return doc_ids, uris, kinds


def lexicon_from_tables(
    species: pa.Table | None = None,
    synonyms: pa.Table | None = None,
    chemicals: pa.Table | None = None,
    endpoints: list[str] = (),
    effects: list[str] = (),
    ns: str = "https://cfpub.epa.gov/ecotox/",
) -> Lexicon:
    """Build the mention lexicon from the same tables the label emitters
    consume (``emit_taxa``/``emit_synonyms``/``emit_chemicals``), so the
    linker and the KG agree on entity URIs.
    """
    lex = Lexicon()
    if species is not None:
        nums = species["species_number"].to_pylist()
        for col, kind in [("latin_name", "species"), ("common_name", "species")]:
            for num, alias in zip(nums, species[col].to_pylist()):
                if alias:
                    lex.add(alias, ns + "taxon/" + num, kind)
    if synonyms is not None:
        for num, alias in zip(
            synonyms["species_number"].to_pylist(), synonyms["latin_name"].to_pylist()
        ):
            if alias:
                lex.add(alias, ns + "taxon/" + num, "species")
    if chemicals is not None:
        for cas, names in zip(
            chemicals["cas_number"].to_pylist(), chemicals["chemical_name"].to_pylist()
        ):
            if not names:
                continue
            for alias in names.split(", "):
                lex.add(alias, ns + "cas/" + cas, "chemical")
    for ep in endpoints:
        lex.add(ep, ns + "endpoint/" + ep, "endpoint")
    for ef in effects:
        lex.add(ef, ns + "effect/" + ef, "effect")
    lex.build_fuzzy()
    return lex
