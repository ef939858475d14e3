"""Importing the CLI loads no module it does not use: the records are
plain classes (no dataclasses, which loads inspect) and the descent
imports logging only where it logs.  The records keep what frozen
dataclasses gave them: field names, construction by position, repr,
hashing, immutability, and equality to records of their own class only."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import copnc
from copnc.construct import ConformalTriple, bipartite_triple
from copnc.partition import NotAPartition, NotATrail, VertexEndCount, VertexNeverInternal

SRC = Path(copnc.__file__).resolve().parent.parent


def test_cli_import_loads_no_unused_module():
    # a fresh interpreter: the modules import copnc.cli adds to its own
    code = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import copnc.cli",
        f"assert copnc.__file__.startswith({str(SRC)!r}), copnc.__file__",
        "print(' '.join(sorted(set(sys.modules) - before)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    added = set(out.stdout.split())
    assert "copnc.construct" in added
    assert not added & {"dataclasses", "inspect", "logging"}


RECORDS = [
    (NotAPartition(5, 2), "NotAPartition(edge=5, count=2)"),
    (VertexNeverInternal(3), "VertexNeverInternal(vertex=3)"),
    (VertexEndCount(5, 2), "VertexEndCount(vertex=5, count=2)"),
    (NotATrail(1, "repeated edge id"), "NotATrail(index=1, reason='repeated edge id')"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[text for _, text in RECORDS])
def test_record_repr(record, text):
    assert repr(record) == text


def test_record_fields():
    rec = NotATrail(1, "repeated edge id")
    assert (rec.index, rec.reason) == (1, "repeated edge id")
    assert str(rec) == "trail 1 malformed: repeated edge id"


def test_record_equality_is_per_class():
    assert NotAPartition(5, 2) == NotAPartition(5, 2)
    assert NotAPartition(5, 2) != NotAPartition(5, 3)
    assert NotAPartition(5, 2) != VertexEndCount(5, 2)
    assert VertexEndCount(5, 2) not in [NotAPartition(5, 2)]
    assert NotAPartition(5, 2) != (5, 2)
    assert hash(NotAPartition(5, 2)) == hash(NotAPartition(5, 2))
    assert len({NotAPartition(5, 2), NotAPartition(5, 2), VertexEndCount(5, 2)}) == 2


def test_record_is_immutable():
    rec = NotAPartition(5, 2)
    with pytest.raises(AttributeError):
        rec.edge = 6
    with pytest.raises(AttributeError):
        rec.other = 1
    with pytest.raises(AttributeError):
        del rec.count
    assert (rec.edge, rec.count) == (5, 2)


def test_record_takes_every_field():
    with pytest.raises(TypeError):
        NotAPartition(5)
    with pytest.raises(TypeError):
        VertexNeverInternal(1, 2)


def test_record_copies():
    rec = NotATrail(0, "x")
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.deepcopy(rec) == rec


def test_conformal_triple_record(k33):
    triple = bipartite_triple(k33)
    same = ConformalTriple(triple.graph, triple.coloring, triple.partitions)
    assert same == triple and hash(same) == hash(triple)
    assert repr(triple).startswith("ConformalTriple(graph=")
    with pytest.raises(TypeError):
        iter(triple)
    with pytest.raises(AttributeError):
        triple.coloring = ()
