"""Property-based tests (hypothesis) for the PURE kernels under the
distributed operators — the pieces whose correctness every shuffle plan
inherits.  No Ray session needed: these run the per-batch kernels
directly against naive references on randomized inputs."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from tera_ray.dedup.minhash import shingle_hashes
from tera_ray.sketch.hll import _registers_batch
from tera_ray.stages.base import dedup_table, hash_column
from tera_ray.state.lexicon import (_pack_spans, levenshtein, levenshtein_batch,
                                    levenshtein_pairs)

_words = st.text(alphabet="abcdef gh", min_size=0, max_size=30)
_keys = st.text(alphabet="abc", min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcdefg", min_size=0, max_size=12),
       st.lists(st.text(alphabet="abcdefg", min_size=0, max_size=12),
                min_size=1, max_size=8))
def test_levenshtein_batch_matches_scalar(query, cands):
    mat, lens = _pack_spans(cands)
    got = levenshtein_batch(query, mat, lens, 2)
    for g, c in zip(got, cands):
        want = levenshtein(query, c, 2)
        # both clamp above maxd=2; compare the clamped values
        assert min(int(g), 3) == min(want, 3), (query, c, g, want)


# ASCII, Latin-1, CJK and a non-BMP codepoint (one utf-32 unit each)
_lev_text = st.text(alphabet="abcdé中\U0001F600", min_size=0, max_size=10)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_lev_text, _lev_text), min_size=1, max_size=24),
       st.integers(min_value=1, max_value=3))
def test_levenshtein_pairs_matches_scalar(pairs, maxd):
    """The pair kernel scores every (query, candidate) pair at once; each
    distance must equal the scalar DP's, clipped at ``maxd + 1`` — with
    empty strings, length gaps above ``maxd`` and mixed query lengths
    (pairs finish at different DP rows) in one batch."""
    a, a_lens = _pack_spans([q for q, _ in pairs])
    b, b_lens = _pack_spans([c for _, c in pairs])
    got = levenshtein_pairs(a, a_lens, b, b_lens, maxd)
    want = [min(levenshtein(q, c, maxd), maxd + 1) for q, c in pairs]
    assert got.tolist() == want, (pairs, maxd)


def test_levenshtein_pairs_edges():
    assert levenshtein_pairs(np.zeros((0, 1), np.uint32), np.zeros(0, int),
                             np.zeros((0, 1), np.uint32), np.zeros(0, int),
                             2).tolist() == []
    pairs = [("", ""), ("", "ab"), ("", "abc"), ("abcdef", "ab"),
             ("kitten", "sitting"), ("\U0001F600b", "b\U0001F600")]
    a, a_lens = _pack_spans([q for q, _ in pairs])
    b, b_lens = _pack_spans([c for _, c in pairs])
    assert levenshtein_pairs(a, a_lens, b, b_lens, 2).tolist() == \
        [0, 2, 3, 3, 3, 2]
    assert levenshtein_pairs(a, a_lens, b, b_lens, 3).tolist() == \
        [0, 2, 3, 4, 3, 2]


@settings(max_examples=40, deadline=None)
@given(st.lists(_words, min_size=1, max_size=10),
       st.integers(min_value=1, max_value=9))
def test_shingle_sets_are_batch_layout_invariant(texts, split_at):
    """A doc's shingle SET must not depend on which batch it rides in
    (the round-1 advisor's cross-doc contamination bug class)."""
    def per_doc_sets(docs):
        arr = pa.array(docs, pa.string())
        off, sh, n = shingle_hashes(arr, 3)
        return [frozenset(sh[off[i]: off[i + 1]].tolist())
                for i in range(n)]

    whole = per_doc_sets(texts)
    cut = min(split_at, len(texts))
    split = per_doc_sets(texts[:cut]) + per_doc_sets(texts[cut:])
    assert whole == split


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_keys, _keys, st.integers(0, 5)),
                min_size=0, max_size=40))
def test_dedup_table_keeps_first_per_key(rows):
    t = pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([str(r[2]) for r in rows], pa.string()),
    })
    out = dedup_table(t)
    got = list(zip(out["subj"].to_pylist(), out["pred"].to_pylist(),
                   out["obj"].to_pylist()))
    seen, want = set(), []
    for r in rows:
        key = (r[0], r[1], str(r[2]))
        if key not in seen:
            seen.add(key)
            want.append(key)
    assert sorted(got) == sorted(want)
    assert len(got) == len(set(got))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="xyz0123", min_size=1, max_size=8),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=5))
def test_hll_registers_merge_invariant(vals, nsplits):
    """Register partials merged by max must equal the single-pass
    registers, regardless of how the values are batched (the merge
    contract every shuffle plan relies on)."""
    arr = np.array(vals, dtype=object)
    idx_all, rho_all = _registers_batch(arr, 14)
    whole = dict(zip(idx_all.tolist(), rho_all.tolist()))
    merged: dict[int, int] = {}
    for chunk in np.array_split(arr, nsplits):
        if len(chunk) == 0:
            continue
        i, r = _registers_batch(chunk, 14)
        for ii, rr in zip(i.tolist(), r.tolist()):
            merged[ii] = max(merged.get(ii, 0), rr)
    assert merged == whole


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-100, max_value=100,
                                   allow_nan=False, width=32),
                         min_size=4, max_size=4),
                min_size=1, max_size=20))
def test_quantize_roundtrip_error_bound(vecs):
    """Dequantized values stay within scale/2 of the originals (the
    int8 quantizer's defining guarantee)."""
    from tera_ray.ann.quantize import quantize_batch

    t = pa.table({
        "vec_id": pa.array(list(range(len(vecs))), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32(), 4)),
    })
    out = quantize_batch(t)
    q = (out["q"].combine_chunks().values.to_numpy(zero_copy_only=False)
         .reshape(len(vecs), 4).astype(np.float64))
    scale = out["scale"].to_numpy(zero_copy_only=False)
    orig = np.array(vecs, np.float32).astype(np.float64)
    deq = q * scale[:, None]
    tol = np.maximum(scale[:, None] / 2, 1e-12) * (1 + 1e-9)
    assert (np.abs(deq - orig) <= tol).all()
    assert (np.abs(q) <= 127).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(_keys, _keys, _keys), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=4))
def test_hash_column_is_chunking_invariant(rows, nchunks):
    """Bucket assignment must not depend on block boundaries — the
    invariant every hash-bucket shuffle relies on."""
    t = pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
    })
    whole = hash_column(t).to_pylist()
    pieces = []
    step = max(1, len(rows) // nchunks)
    for s in range(0, len(rows), step):
        pieces.extend(hash_column(t.slice(s, step)).to_pylist())
    assert whole == pieces


# --- RDF sink↔parser inversion (NT / Turtle / RDF-XML) ----------------------

_xml_ok = st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="".join(chr(c) for c in range(0x20)
                                 if chr(c) not in "\t\n\r"))
_lit_text = st.text(alphabet=_xml_ok, min_size=0, max_size=25)
# IRI tails may include the IRIREF-forbidden chars (space, <>, quote …)
# — the UCHAR / XML-attr escaping must carry them through
_iri_tail = st.text(alphabet=st.sampled_from(
    list("abcXYZ09 <>\"{}|^`\\&\t\n\r")), min_size=0, max_size=12)


@st.composite
def _triples(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    rows = []
    for i in range(n):
        s = draw(st.one_of(
            st.builds(lambda t: "http://e/s" + t, _iri_tail),
            st.sampled_from([f"_:b{k}" for k in range(4)])))
        p = "http://e/p" + str(draw(st.integers(min_value=0, max_value=3)))
        if draw(st.booleans()):
            rows.append((s, p, draw(_lit_text), True))
        else:
            o = draw(st.one_of(
                st.builds(lambda t: "http://e/o" + t, _iri_tail),
                st.sampled_from([f"_:b{k}" for k in range(4)])))
            rows.append((s, p, o, False))
    return rows


def _tbl(rows):
    return pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
        "obj_is_literal": pa.array([r[3] for r in rows], pa.bool_()),
    })


@settings(max_examples=60, deadline=None)
@given(_triples())
def test_nt_format_parse_inverts(rows):
    from tera_ray.sources.dumps import NTriplesParser
    from tera_ray.sources.sinks import format_nt

    lines = format_nt(_tbl(rows))["line"].to_pylist()
    parser = NTriplesParser()
    got = []
    for ln in lines:
        r = parser.parse_line(ln)
        assert not isinstance(r, str), (ln, r)
        if r is not None:
            got.append(r)
    assert sorted(got) == sorted(rows)


@settings(max_examples=60, deadline=None)
@given(_triples())
def test_turtle_format_parse_inverts(rows):
    from tera_ray.sources.dumps import TurtleParser
    from tera_ray.sources.sinks import format_turtle

    lines = format_turtle(_tbl(rows), {})["line"].to_pylist()
    triples, rejects = TurtleParser().parse_document("\n".join(lines) + "\n")
    assert rejects == []
    assert sorted(triples) == sorted(rows)


@settings(max_examples=60, deadline=None)
@given(_triples())
def test_rdfxml_format_parse_inverts(rows):
    """Includes the XML normalization traps: \\r in text (EOL folding)
    and \\n/\\t in attribute values (attr-value normalization) must
    survive via character references."""
    from tera_ray.sources.dumps import RdfXmlParser
    from tera_ray.sources.sinks import format_rdfxml

    body, ns = format_rdfxml(_tbl(rows))
    decls = "".join(f'\n  xmlns:{p}="{u}"' for u, p in ns.items())
    doc = ('<?xml version="1.0" encoding="utf-8"?>\n'
           '<rdf:RDF xmlns:rdf='
           '"http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
           f"{decls}>\n" + "\n".join(body["line"].to_pylist())
           + "\n</rdf:RDF>\n")
    triples, rejects = RdfXmlParser().parse_document(doc)
    assert rejects == []
    assert sorted(triples) == sorted(rows)


def test_rdf_sinks_nasty_chars_regression():
    """Deterministic cases for the escaping traps (hypothesis may not
    draw them): \\r/\\n/\\t + quotes/backslash in literals, and
    IRIREF-forbidden chars (space, <>, quote, \\n) in IRIs, through
    all three sink↔parser pairs."""
    from tera_ray.sources.dumps import (
        NTriplesParser,
        RdfXmlParser,
        TurtleParser,
    )
    from tera_ray.sources.sinks import format_nt, format_rdfxml, format_turtle

    rows = [
        ("http://e/s", "http://e/p0", "cr\rlf\ncrlf\r\ntab\tq\"b\\e", True),
        ("http://e/s with space", "http://e/p1", "http://e/o<>\"\nx", False),
        ("_:b0", "http://e/p2", "", True),
        ("http://e/s", "http://e/p3", "_:b1", False),
        ("http://e/amp&lt", "http://e/p0", "xml &amp; <tag> ]]>", True),
    ]
    t = _tbl(rows)

    nt = NTriplesParser()
    got_nt = [r for r in (nt.parse_line(ln)
                          for ln in format_nt(t)["line"].to_pylist())
              if r is not None and not isinstance(r, str)]
    assert sorted(got_nt) == sorted(rows)

    lines = format_turtle(t, {})["line"].to_pylist()
    got_ttl, rej = TurtleParser().parse_document("\n".join(lines) + "\n")
    assert rej == [] and sorted(got_ttl) == sorted(rows)

    body, ns = format_rdfxml(t)
    decls = "".join(f'\n  xmlns:{p}="{u}"' for u, p in ns.items())
    doc = ('<rdf:RDF xmlns:rdf='
           '"http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
           f"{decls}>\n" + "\n".join(body["line"].to_pylist())
           + "\n</rdf:RDF>")
    got_xml, rej = RdfXmlParser().parse_document(doc)
    assert rej == [] and sorted(got_xml) == sorted(rows)


_alias_word = st.text(alphabet="abcdefghij", min_size=5, max_size=10)


@given(st.lists(_alias_word, min_size=1, max_size=6, unique=True),
       st.data())
@settings(max_examples=40, deadline=None)
def test_case_aware_fuzzy_links_misspelled_aliases(words, data):
    """Any adjacent-char swap at position >= 2 of a registered alias
    must still link — uppercase (proper-noun) aliases from capitalized
    text, lowercase-origin aliases from lowercase text (the common-name
    path).  And a lowercase token must NEVER fuzzy-match an
    uppercase-origin alias (precision gate)."""
    from tera_ray.state.lexicon import Lexicon

    lex = Lexicon()
    uppers = [w.capitalize() + " major" for w in words[: len(words) // 2]]
    lowers = [w + " flea" for w in words[len(words) // 2:]]
    for i, a in enumerate(uppers):
        lex.add(a, f"u://{i}", "species")
    for i, a in enumerate(lowers):
        lex.add(a, f"l://{i}", "species")
    lex.build_fuzzy()

    def swap(s, i):
        return s[:i] + s[i + 1] + s[i] + s[i + 2:]

    for origin, aliases in (("upper", uppers), ("lower", lowers)):
        for a in aliases:
            i = data.draw(st.integers(2, len(a) - 2), label="swap_pos")
            m = swap(a, i)
            hits = lex.match_tokens(m.split(" "))
            # the (misspelled) mention must link to SOME alias of the
            # same case-origin pool (d<=2 collisions between generated
            # aliases are allowed; what matters is recall + case gate)
            assert hits, (origin, a, m)
            if origin == "lower":
                # lowercase text token: only lower-origin aliases legal
                assert all(u.startswith("l://") for _, _, u, _ in hits), \
                    (a, m, hits)
