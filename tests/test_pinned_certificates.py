"""Byte-identity of conformal and family certificates across refactors.

The five shapes of the construct benchmark, at n = 60, and the two
shapes that are mostly surgery, at n ~ 200, with each edge listed from an
end picked by a fixed seed: `construct --method conformal --seed 0` must
keep writing exactly the certificate bytes pinned below.  A change to the
descent, the switch, the coloring or the surgeries that alters which
states are visited shows up here as a digest mismatch.  The certificates
of the 169 3-edge-colorable graphs of the shipped corpus are pinned too,
by one digest over all of them, and so are the family certificates of
flower:k and goldberg:k for six k up to 99, with and without their claimed
matchings and profiles.
"""

import hashlib
import json
import random

import pytest

from copnc.cli import main
from copnc.graph import CubicGraph, proper_3_edge_coloring
from copnc.partition import trails_from_marking, validate_normal

from conftest import circular_ladder, corpus_upto, digon_ladder, generalized_petersen3, moebius_ladder, truncated_ladder


SHAPES = {
    "circular": lambda: circular_ladder(30),
    "moebius": lambda: moebius_ladder(30),
    "gp3": lambda: generalized_petersen3(30),
    "truncated": lambda: truncated_ladder(10),
    "digon": lambda: digon_ladder(15),
    "truncated_198": lambda: truncated_ladder(33),
    "digon_200": lambda: digon_ladder(50),
}

# SHA-256 of the certificate bytes, recorded before the descent switched
# locally on markings (n = 60) and before the surgeries lifted markings
# instead of trails (n ~ 200)
PINNED = {
    "circular": "501eeeea21f56b11104267aa880fffde15a784bbc36eef0bedc836ffb20955d8",
    "moebius": "86c60bd0f71f89ea334f9e89b37b5aafae27ff7ed8ab3109bb9067eebf44e238",
    "gp3": "0543a24c8fd5e07cf1f452d42cbe96506a6e53da9aa009dee93d4c224ecfcab5",
    "truncated": "59770c78a4e991375ca323d8ef77b69baa6b90e20320c6fcbe07c2c4b7f9dee4",
    "digon": "45e41a67e58311ebdebe87b8782c6731d182214d0e5d0d5633b4bd28f013f00f",
    "truncated_198": "e9d012edc0ba6f1b902ea8233b70b086442814a7df6f67b42da5724ef781a1a7",
    "digon_200": "6f9ae748ce5feec20e56911c90068b562962c1f0e171d095a4ee849c778f189a",
}

# SHA-256 of the certificate bytes of every 3-edge-colorable corpus graph
# with n <= 12, concatenated in corpus order; recorded before the descent
# ran on plain mark lists
PINNED_CORPUS = "72a4528925d0be670154699f958a518efa4f7d4e9754884f1cfd6451b719081a"

# SHA-256 of `family <spec>` output, without and with --emit-partitions,
# recorded before the k -> k+2 replay kept its tables in end coordinates
PINNED_FAMILIES = {
    "flower:3": (
        "9e387d70789540256e3b7bea11cd6eae77409881fd5e056ed027a400acbe7300",
        "1a257117b5fa95dbd4bab96ea44fd7e5e3a1a8d407d3b0809d7fae50c461e91e",
    ),
    "flower:5": (
        "4db0a486a8fd8e853f06809c01a245e33a04549efd5f4d491a3228a96dfedce7",
        "81a8f60945b20be4bc36834e02c5d806851ca0cb6569ec44221c88bb32ffd4d1",
    ),
    "flower:9": (
        "e3c2d3c78764373190722b7666cefea5cc6bd1968d499bce0f44203bb01132e7",
        "45e1508c3cc19203faec657fd981fa8fe914deacde44b2581c8a8df237826ea1",
    ),
    "flower:15": (
        "2c8d9417b50d7b93bf0f40295b656c5e76908aaa1ae97f57e757b2a79f6c6c27",
        "9494521684ff6cf8fba2df176c38046f1df22349d13a3c4a08a0ebc91d06c9e1",
    ),
    "flower:49": (
        "07764373f5126bae429d291cee09b4bb41c4f878d495ff4f74b9a54a0ef029cc",
        "20b296fcc3cf845afc823a93a0623d05d8e64a1bbf5e0295a39db976b4e5b142",
    ),
    "flower:99": (
        "25942e853a8a144e833e05a809bcdf0ae60a7327df7be3dd92df003f27547245",
        "65d30f184d08d122aed98b1fceec1b1831d64ed1440ef8ec8661f900e773eb9b",
    ),
    "goldberg:3": (
        "817d5c2c7709a5a7427ca2e4f1e9852bcb172a7a0336a610cdbfd260f4a419e5",
        "10cd2d9bba96e690d0e0cdff0e4eb06c232af20cfb626814c3532dd3809e3b7d",
    ),
    "goldberg:5": (
        "3ab1c7d7dc4412e42e630278f4e5bffaa2e559f2d89fe717002bd515960ce8fe",
        "7d7958da1690d200ade2b87b3043398972a0bb527298ad517929f52b4c9d4f7f",
    ),
    "goldberg:9": (
        "bba377b00b5c2026ed1e87cac7f83f1e0c6c637ff8f88c8f0be2b0de88e73230",
        "da71413678d4b1dd4fd3c4e88f2c09b0dcff96fdcdc919171513c459a7326041",
    ),
    "goldberg:15": (
        "ee7acc509176494aa23a968f5d66b46f0fd6e9e1d786ecf59c599fe6f70fe6e5",
        "1db08d39d9133ec3493468dee0c55ea306869f38942b5d70b33fadf84c6792a9",
    ),
    "goldberg:49": (
        "03403aa2b4174e9c4196be757d2fccd6476a6b1b2057571a67c8f1eaedce50d0",
        "3e5a183ba8bd0bab1e88867c4da335e8d614207106ebd5d156c7404306f92c83",
    ),
    "goldberg:99": (
        "96aa6b2d4b7267d861500add4b81a2e8c6f8dbbae6b155cac8866a33927d771c",
        "e67db590293cb3f7fd4ceddac338c0884081f89b9667c493af8825519f9e02ba",
    ),
}


def shape_edges_text(name):
    """Edge-list text of one shape, each edge listed from a random end."""
    n, edges = SHAPES[name]()
    rng = random.Random(name)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def certificate_bytes(name, text, tmp_path):
    graph = tmp_path / f"{name}.edges"
    graph.write_text(text)
    cert = tmp_path / f"{name}.json"
    argv = ["construct", "--method", "conformal", "--graph", f"@{graph}", "--seed", "0", "--out", str(cert)]
    assert main(argv) == 0
    written = cert.read_text()
    assert written == json.dumps(json.loads(written), sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    return cert.read_bytes()


def certificate_digest(name, tmp_path):
    return hashlib.sha256(certificate_bytes(name, shape_edges_text(name), tmp_path)).hexdigest()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_conformal_certificate_bytes_pinned(name, tmp_path):
    assert certificate_digest(name, tmp_path) == PINNED[name]


def test_corpus_certificate_bytes_pinned(tmp_path):
    digest = hashlib.sha256()
    count = 0
    for gid, g in corpus_upto(12):
        if proper_3_edge_coloring(g) is None:
            continue
        text = "\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.endpoints]) + "\n"
        digest.update(certificate_bytes(gid, text, tmp_path))
        count += 1
    assert count == 169
    assert digest.hexdigest() == PINNED_CORPUS


@pytest.mark.parametrize("emit", [False, True], ids=["plain", "emit-partitions"])
@pytest.mark.parametrize("spec", sorted(PINNED_FAMILIES, key=lambda s: (s.split(":")[0], int(s.split(":")[1]))))
def test_family_certificate_bytes_pinned(spec, emit, tmp_path):
    cert = tmp_path / "family.json"
    assert main(["family", spec, "--out", str(cert)] + (["--emit-partitions"] if emit else [])) == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == PINNED_FAMILIES[spec][emit]


@pytest.mark.parametrize("name", sorted(SHAPES) + ["flower:9", "goldberg:9"])
def test_trails_are_the_certificate_id_lists(name, tmp_path):
    """Each trail of a partition read back from a pinned certificate is a
    pair of int tuples, (vertices, edges), equal to the certificate's id
    lists of that trail, in the certificate's order."""
    if name in SHAPES:
        raw = certificate_bytes(name, shape_edges_text(name), tmp_path)
        assert hashlib.sha256(raw).hexdigest() == PINNED[name]
    else:
        cert = tmp_path / "family.json"
        assert main(["family", name, "--out", str(cert)]) == 0
        raw = cert.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == PINNED_FAMILIES[name][False]
    doc = json.loads(raw)
    g = CubicGraph(doc["graph"]["n"], doc["graph"]["edges"])
    for part in doc["partitions"]:
        given = [(t["vertices"], t["edges"]) for t in part]
        p = validate_normal(g, given)
        assert p.trails == trails_from_marking(g, p.marked).trails
        for t, (vs, es) in zip(p.trails, given, strict=True):
            assert type(t) is tuple and len(t) == 2
            assert type(t[0]) is tuple and type(t[1]) is tuple
            assert t == (tuple(vs), tuple(es))
