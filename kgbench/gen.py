"""Seeded input generator for the KG benchmark.

Writes the transcript table of the ``input_hint`` schema (``conv_id,
turn_idx, role, text, tool, ts``), the lexicon tables (``species``,
``species_synonyms``, ``chemicals``) and the ECOTOX-style ``tests`` /
``results`` tables of FIXTURES.md as Parquet into a directory the
benchmark owns, plus ``truth.parquet``: the entity planted in each turn.
The engine never sees ``truth.parquet``.

Everything is a function of ``(seed, n_turns, mix)``; nothing is shared
with the engine's own fixture generator or its on-disk cache.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

NS = "https://cfpub.epa.gov/ecotox/"

# Endpoint / effect codes: the closed vocabulary the engine's lexicon
# links (FIXTURES.md §1); units are the fixture's parseable unit names.
ENDPOINTS = ["LC50", "EC50", "NOEC", "LOEC", "EC10"]
EFFECTS = ["MOR", "GRO", "REP", "DEV"]
UNITS = ["mg/L", "ug/L", "mM", "ng/L", "g/L", "mg/kg"]
DUR_UNITS = ["h", "d", "w"]
HABITATS = ["Water", "Soil", "Sediment"]
LIFESTAGES = ["Adult", "Juvenile", "Larva", "Egg"]
GROUPS = ["Fish", "Crustaceans", "Insects/Spiders", "Algae", "Mammals",
          "Birds", "Worms"]
CHEM_GROUPS = ["Metals", "Organophosphates", "PAHs", "Pesticides",
               "Solvents"]
# Only these NA sentinels are ever written (a subset of the reference's
# NA list), so the oracles know every sentinel the inputs can hold.
SENTINELS = ("NR", "--")
# longest (hot) conversation, in turns
MAX_CONV = 2000

# Mention mixes.  "default": FIXTURES.md rates (70% of turns mention a
# species and a chemical).  "noisy": few mentions, half of the species
# aliases misspelled, a heavier synonym / common-name share.
MIXES = {
    "default": dict(mention=0.70, synonym=0.20, common=0.15, misspell=0.05),
    "noisy": dict(mention=0.10, synonym=0.25, common=0.25, misspell=0.50),
}

_G1 = ["Dan", "Onco", "Lepo", "Pime", "Cypri", "Gamma", "Daph", "Chiro",
       "Sal", "Micro", "Ranu", "Xeno", "Amei", "Poeci", "Hyal", "Cera"]
_G2 = ["io", "rhynchus", "mis", "phales", "nus", "rus", "nia", "nomus",
       "mo", "pterus", "ncu", "pus", "urus", "lia", "lella", "todes"]
_EP = ["rerio", "mykiss", "macrochirus", "promelas", "carpio", "pulex",
       "magna", "riparius", "trutta", "salar", "aztec", "laevis",
       "melas", "reticulata", "azteca", "dubia", "major", "minor",
       "vulgaris", "communis", "montanus", "sylvestris"]
_ADJ = ["spotted", "golden", "lesser", "greater", "striped", "silver",
        "northern", "southern", "eastern", "western", "painted", "banded",
        "pale", "dusky", "speckled", "crested", "giant", "pygmy",
        "common", "mottled", "scarlet", "olive", "amber", "slender",
        "hooded", "ringed", "marbled", "bristled", "horned", "shining",
        "freckled", "barred"]
_NOUN = ["minnow", "trout", "darter", "sculpin", "shiner", "perch", "chub",
         "guppy", "stickleback", "sunfish", "midge", "scud", "flea",
         "carp", "salmon", "frog", "toad", "newt", "snail", "mussel",
         "shrimp", "crayfish", "mayfly", "stonefly", "caddis", "leech",
         "worm", "beetle", "gnat", "dace", "loach", "goby"]
_C1 = ["chlor", "meth", "benz", "tolu", "phen", "naphth", "atra", "diaz",
       "mala", "para", "carb", "endo", "fluo", "nitro", "sulf", "cyper"]
_C2 = ["pyrifos", "oxychlor", "ene", "idine", "anthrene", "zine", "inon",
       "thion", "aryl", "ofuran", "sulfan", "ranthene", "benzene",
       "methrin", "achlor", "oxon"]


def _misspell(alias: str, r: int) -> str:
    """Light typo: swap two adjacent letters of the alias's longest
    word, at position >= 2 inside that word (the first two letters and
    the word boundaries stay intact)."""
    words = alias.split(" ")
    k = max(range(len(words)), key=lambda i: len(words[i]))
    w = words[k]
    if len(w) < 5:
        return alias
    i = 2 + r % (len(w) - 3)
    if w[i] == w[i + 1]:
        return alias
    words[k] = w[:i] + w[i + 1] + w[i] + w[i + 2:]
    return " ".join(words)


def _entities(n_species: int, n_chem: int, rng):
    latin = []
    seen = set()
    while len(latin) < n_species:
        name = (_G1[rng.integers(len(_G1))] + _G2[rng.integers(len(_G2))]
                + " " + _EP[rng.integers(len(_EP))])
        if name not in seen:
            seen.add(name)
            latin.append(name)
    combos = rng.permutation(len(_ADJ) * len(_NOUN))[:n_species]
    common = [_ADJ[c // len(_NOUN)] + " " + _NOUN[c % len(_NOUN)]
              for c in combos]
    nums = [str(100000 + i) for i in range(n_species)]
    drop = rng.random(n_species)
    species = {
        "species_number": nums,
        "common_name": common,
        "latin_name": latin,
        "kingdom": ["k1"] * n_species,
        "phylum_division": [None if drop[i] < 0.3 else "p%d" % (i // 512)
                            for i in range(n_species)],
        "subphylum_div": [None] * n_species,
        "superclass": [None] * n_species,
        "class": ["c%d" % (i // 256) for i in range(n_species)],
        "tax_order": ["o%d" % (i // 64) for i in range(n_species)],
        "family": ["f%d" % (i // 16) for i in range(n_species)],
        "genus": [None if drop[i] < 0.1 else "g%d" % (i // 4)
                  for i in range(n_species)],
        "species": nums,
        "ecotox_group": [GROUPS[rng.integers(len(GROUPS))]
                         for _ in range(n_species)],
    }
    # old-genus style synonyms ("Danio rerio" -> "Danious rerio") for
    # about half of the species; an alias that would name two entities
    # is never generated
    taken = {a.lower() for a in latin} | {a.lower() for a in common}
    syn_num, syn_name = [], []
    for num, name in zip(nums, latin):
        g, e = name.split(" ", 1)
        alias = g + "us " + e
        if rng.random() < 0.5 and alias.lower() not in taken:
            taken.add(alias.lower())
            syn_num.append(num)
            syn_name.append(alias)
    synonyms = {"species_number": syn_num, "latin_name": syn_name}
    combos = rng.permutation(len(_C1) * len(_C2))[:n_chem]
    chem_names = [_C1[c // len(_C2)] + _C2[c % len(_C2)] for c in combos]
    chemicals = {
        "cas_number": [str(50000 + 7 * i) for i in range(n_chem)],
        "chemical_name": [nm + (", " + nm + " technical"
                                if rng.random() < 0.25 else "")
                          for nm in chem_names],
        "ecotox_group": [CHEM_GROUPS[rng.integers(len(CHEM_GROUPS))]
                         for _ in range(n_chem)],
    }
    return species, synonyms, chemicals


def _tests_results(n_tests: int, species, chemicals, rng):
    si = rng.integers(len(species["species_number"]), size=n_tests)
    ci = rng.integers(len(chemicals["cas_number"]), size=n_tests)

    def maybe(vals, p):
        return [vals[rng.integers(len(vals))] if rng.random() < p
                else SENTINELS[rng.integers(2)] for _ in range(n_tests)]

    tests = {
        "test_id": [str(i + 1) for i in range(n_tests)],
        "test_cas": [chemicals["cas_number"][c] for c in ci],
        "species_number": [species["species_number"][s] for s in si],
        "study_duration_mean": maybe(["24", "48", "96", "7", "14"], 0.8),
        "study_duration_unit": maybe(DUR_UNITS, 0.8),
        "organism_habitat": maybe(HABITATS, 0.7),
        "organism_lifestage": maybe(LIFESTAGES, 0.6),
        "organism_age_mean": maybe(["1", "2", "7", "30"], 0.4),
        "organism_age_unit": maybe(DUR_UNITS, 0.4),
        "organism_init_wt_mean": maybe(["0.5", "1.2", "2.0"], 0.3),
        "organism_init_wt_unit": maybe(["g", "mg"], 0.3),
    }
    n_res = n_tests * 3 // 2
    ti = rng.integers(n_tests, size=n_res)
    results = {
        "test_id": [str(t + 1) for t in ti],
        "endpoint": [ENDPOINTS[rng.integers(len(ENDPOINTS))]
                     for _ in range(n_res)],
        "conc1_mean": ["%g" % (10 ** (3 * rng.random()))
                       + (">" if rng.random() < 0.05 else "")
                       for _ in range(n_res)],
        "conc1_unit": [UNITS[rng.integers(len(UNITS))]
                       if rng.random() < 0.9 else "NR"
                       for _ in range(n_res)],
        "effect": [EFFECTS[rng.integers(len(EFFECTS))]
                   for _ in range(n_res)],
    }
    return tests, results


def _transcripts(n_turns: int, species, synonyms, chemicals, mix, rng):
    """Turns with planted mentions; Zipf-ish conversation sizes up to
    ``MAX_CONV`` turns; rows shuffled so turn order is not the file
    order."""
    syn = dict(zip(synonyms["species_number"], synonyms["latin_name"]))
    sizes = []
    total = 0
    while total < n_turns:
        if rng.random() < 0.05:
            size = max(2, min(int(rng.zipf(1.5)) * 4, MAX_CONV))
        else:
            size = max(2, min(4 + int(rng.zipf(1.8)), 64))
        size = min(size, n_turns - total)
        sizes.append(size)
        total += size
    conv, tix, role, text, tool, ts = [], [], [], [], [], []
    t_conv, t_tix, t_kind, t_uri = [], [], [], []
    roles = ["user", "assistant", "tool"]
    base = 1_700_000_000_000_000
    offsets = rng.integers(0, 10**9, size=len(sizes))
    ns_, nc_ = len(species["species_number"]), len(chemicals["cas_number"])
    for c, size in enumerate(sizes):
        cid = "conv-%08d" % c
        for t in range(size):
            r = roles[t % 3]
            if rng.random() < 1.0 - mix["mention"]:
                line = ("Turn %d of conversation %d with no relevant "
                        "findings." % (t, c))
            else:
                si, ci = int(rng.integers(ns_)), int(rng.integers(nc_))
                num = species["species_number"][si]
                alias = species["latin_name"][si]
                v = rng.random()
                if v < mix["synonym"] and num in syn:
                    alias = syn[num]
                elif v < mix["synonym"] + mix["common"]:
                    alias = species["common_name"][si]
                if rng.random() < mix["misspell"]:
                    alias = _misspell(alias, int(rng.integers(1 << 30)))
                cas = chemicals["cas_number"][ci]
                chem = chemicals["chemical_name"][ci].split(", ")[0]
                line = "Exposure of %s to %s gave %s %s %s (%s)." % (
                    alias, chem, ENDPOINTS[rng.integers(len(ENDPOINTS))],
                    "%g" % (10 ** (3 * rng.random())),
                    UNITS[rng.integers(len(UNITS))],
                    EFFECTS[rng.integers(len(EFFECTS))])
                t_conv += [cid, cid]
                t_tix += [t, t]
                t_kind += ["species", "chemical"]
                t_uri += [NS + "taxon/" + num, NS + "cas/" + cas]
            conv.append(cid)
            tix.append(t)
            role.append(r)
            text.append(line)
            tool.append("search" if r == "tool" else "")
            ts.append(base + int(offsets[c]) + t * 1_000_000)
    table = pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(tix, pa.int32()),
        "role": pa.array(role, pa.string()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array(tool, pa.string()),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
    })
    truth = pa.table({
        "conv_id": pa.array(t_conv, pa.string()),
        "turn_idx": pa.array(t_tix, pa.int32()),
        "kind": pa.array(t_kind, pa.string()),
        "uri": pa.array(t_uri, pa.string()),
    })
    return table.take(pa.array(rng.permutation(table.num_rows))), truth


def generate(out_dir: str, seed: int, n_turns: int, mix: str = "default",
             transcript_files: int = 1) -> dict:
    """Write every input table for one workload into ``out_dir``.

    ``transcript_files > 1`` writes ``transcripts.parquet`` as a
    directory of that many files, each a disjoint set of whole
    conversations, balanced by turn count.  Returns the table sizes."""
    rng = np.random.default_rng(seed)
    n_species = max(50, min(1000, n_turns // 20))
    n_chem = max(40, min(256, n_turns // 25))
    species, synonyms, chemicals = _entities(n_species, n_chem, rng)
    tests, results = _tests_results(max(100, n_turns // 10), species,
                                    chemicals, rng)
    transcripts, truth = _transcripts(n_turns, species, synonyms, chemicals,
                                      MIXES[mix], rng)
    os.makedirs(out_dir, exist_ok=True)
    for name, data in [("species", species), ("species_synonyms", synonyms),
                       ("chemicals", chemicals), ("tests", tests),
                       ("results", results)]:
        pq.write_table(pa.table(data), os.path.join(out_dir, name + ".parquet"))
    pq.write_table(truth, os.path.join(out_dir, "truth.parquet"))
    path = os.path.join(out_dir, "transcripts.parquet")
    if transcript_files == 1:
        pq.write_table(transcripts, path)
    else:
        os.makedirs(path)
        # largest conversation first onto the lightest shard
        convs = transcripts["conv_id"].to_numpy(zero_copy_only=False)
        ids, sizes = np.unique(convs, return_counts=True)
        load = [0] * transcript_files
        shard_of = {}
        for i in np.argsort(-sizes, kind="stable"):
            k = load.index(min(load))
            shard_of[ids[i]] = k
            load[k] += int(sizes[i])
        shard = np.array([shard_of[c] for c in convs])
        for k in range(transcript_files):
            part = transcripts.filter(pa.array(shard == k))
            pq.write_table(part, os.path.join(path, "shard-%02d.parquet" % k))
    return {"turns": transcripts.num_rows, "species": n_species,
            "chemicals": n_chem, "tests": len(tests["test_id"]),
            "results": len(results["test_id"]), "planted": truth.num_rows}
