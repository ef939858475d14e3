"""Byte-identity of conformal certificates across refactors of the descent.

The five shapes of the construct benchmark, at n = 60, and the two
shapes that are mostly surgery, at n ~ 200, with each edge listed from an
end picked by a fixed seed: `construct --method conformal --seed 0` must
keep writing exactly the certificate bytes pinned below.  A change to the
descent, the switch, the coloring or the surgeries that alters which
states are visited shows up here as a digest mismatch.  The certificates
of the 169 3-edge-colorable graphs of the shipped corpus are pinned too,
by one digest over all of them.
"""

import hashlib
import json
import random

import pytest

from copnc.cli import main
from copnc.corpus import corpus_upto
from copnc.graph import proper_3_edge_coloring

from conftest import circular_ladder, digon_ladder, generalized_petersen3, moebius_ladder, truncated_ladder


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
