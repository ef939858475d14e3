import json

import pytest

from copnc import certificates as C
from copnc.cli import main
from copnc.construct import bipartite_triple, nop_from_matching
from copnc.families import petersen_triple
from validate_oracle import outcome
from validate_oracle import validate_certificate as gate_first


@pytest.fixture(autouse=True)
def against_oracle(monkeypatch):
    """Every validate_certificate call here, the CLI's included, must give
    the gate-first oracle's report byte for byte, or raise what it raises."""
    fast = C.validate_certificate

    def both(doc, expect_graph=None):
        want = outcome(gate_first, doc, expect_graph)
        try:
            report = fast(doc, expect_graph)
        except Exception as exc:
            assert f"{type(exc).__name__}: {exc}" == want
            raise
        assert json.dumps(report, sort_keys=True) == want
        return report

    monkeypatch.setattr(C, "validate_certificate", both)


# what `import copnc` offers next to the CLI; a name added or dropped here
# is a change of the library's surface
PUBLIC = """
    BadParameter CapExceeded ConformalTriple CubicGraph CycleError InvalidPartition Malformed
    NoMatching NonCubic NormalPartition NotBipartite NotThreeEdgeColorable SearchExhausted
    agreement associated_matching bipartite_triple bridges conformal_switch conformal_triple
    conformal_triple_general enumerate_compatible_triples enumerate_nops fan_raspaud_witness
    find_compatible_triple find_length3_triple find_nop flower_triple generate goldberg_triple
    is_bipartite is_conformal is_odd length_profile nop_from_matching parse_edge_list
    parse_graph6 partition_classes partition_violations perfect_matchings petersen_triple
    proper_3_edge_coloring to_graph6 trails_from_marking validate_normal
""".split()


def test_public_surface():
    import types

    import copnc

    names = {n for n in dir(copnc) if not n.startswith("_") and not isinstance(getattr(copnc, n), types.ModuleType)}
    assert names == set(PUBLIC)


class TestCertificates:
    def test_roundtrip(self, k33):
        t = bipartite_triple(k33)
        doc = C.certificate(k33, list(t.partitions))
        report = C.validate_certificate(doc)
        assert report["ok"]

    def test_schema_tag(self, k33):
        doc = C.certificate(k33, [])
        assert doc["schema"] == "copnc/1"

    def test_duplicated_edge_flagged(self, petersen):
        # duplicating a trail double-covers its edges
        doc = C.certificate(petersen, list(petersen_triple()))
        doc["partitions"][0].append(dict(doc["partitions"][0][0]))
        report = C.validate_certificate(doc)
        assert not report["ok"]
        assert any("covered 2 times" in v for v in report["partitions"][0]["violations"])

    def test_identical_partitions_flagged(self, k33):
        t = bipartite_triple(k33)
        doc = C.certificate(k33, [t.partitions[0], t.partitions[0]])
        report = C.validate_certificate(doc)
        assert not report["ok"]
        assert report["incompatible"][0]["agreement"] == list(range(6))

    def test_graph_mismatch(self, k33, cube):
        t = bipartite_triple(k33)
        doc = C.certificate(k33, list(t.partitions))
        report = C.validate_certificate(doc, expect_graph=cube)
        assert not report["ok"] and report["graph_mismatch"]

    def test_dumps_canonical(self, k33):
        t = bipartite_triple(k33)
        doc = C.certificate(k33, list(t.partitions))
        assert C.dumps(doc) == C.dumps(json.loads(C.dumps(doc)))

    def test_loop_trails_roundtrip(self, dumbbell):
        from copnc.search import find_nop

        p = find_nop(dumbbell)
        doc = json.loads(C.dumps(C.certificate(dumbbell, [p])))
        assert C.validate_certificate(doc)["ok"]


class TestCli:
    def test_construct_then_validate_closed_loop(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["construct", "--method", "bipartite", "--graph", "k33", "--out", str(out)]) == 0
        assert main(["validate", str(out), "--graph", "k33"]) == 0

    def test_family_closed_loop(self, tmp_path):
        out = tmp_path / "flower7.json"
        assert main(["family", "flower:7", "--out", str(out)]) == 0
        assert main(["validate", str(out), "--graph", "flower:7"]) == 0

    def test_petersen_family_certificate(self, tmp_path):
        out = tmp_path / "pet.json"
        assert main(["family", "petersen", "--emit-partitions", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["matchings"]) == 3
        assert main(["validate", str(out), "--graph", "petersen"]) == 0

    def test_validate_failure_exit_code(self, tmp_path, k33):
        t = bipartite_triple(k33)
        doc = C.certificate(k33, [t.partitions[0], t.partitions[0]])
        p = tmp_path / "bad.json"
        p.write_text(C.dumps(doc))
        assert main(["validate", str(p)]) == 2

    def test_conformal_construct_circular_ladder_r400(self, tmp_path, capsys):
        """n = 800: the coloring search and the descent run without a
        recursion-depth ceiling and the certificate validates."""
        import sys

        from conftest import circular_ladder

        n, edges = circular_ladder(400)
        graph = tmp_path / "ladder.edges"
        graph.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        out = tmp_path / "ladder.json"
        limit = sys.getrecursionlimit()
        assert main(["construct", "--method", "conformal", "--graph", f"@{graph}", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out), "--graph", f"@{graph}"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert len(json.loads(out.read_text())["partitions"]) == 3
        assert sys.getrecursionlimit() == limit

    def test_conformal_construct_theta_plus_k33(self, tmp_path, capsys):
        """A disconnected input with a theta component certifies: each
        component runs the general route on its own."""
        graph = tmp_path / "theta_k33.edges"
        k33 = [(u, v) for u in (2, 3, 4) for v in (5, 6, 7)]
        graph.write_text("8 12\n" + "0 1\n" * 3 + "".join(f"{u} {v}\n" for u, v in k33))
        out = tmp_path / "theta_k33.json"
        assert main(["construct", "--method", "conformal", "--graph", f"@{graph}", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out), "--graph", f"@{graph}"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_construct_precondition_exit(self, capsys):
        assert main(["construct", "--method", "bipartite", "--graph", "k4"]) == 3
        assert main(["construct", "--method", "conformal", "--graph", "flower:5"]) == 3

    @pytest.mark.parametrize("spec", ["flower:2", "goldberg:4"])
    def test_family_bad_parameter_exit(self, capsys, spec):
        # the same exit as construct --graph with a bad family parameter
        assert main(["family", spec]) == 5
        assert main(["construct", "--method", "conformal", "--graph", spec]) == 5
        assert "odd and >= 3" in capsys.readouterr().err

    def test_switch_class_json(self, capsys):
        assert main(["switch-class", "--graph", "theta", "--moves", "conformal", "--matching", "0"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["count"] == 2 and doc["sizes"] == [1, 1]

    def test_switch_class_odd_single(self, capsys):
        assert main(["switch-class", "--graph", "k4", "--moves", "odd"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["count"] == 1

    @pytest.mark.parametrize(
        "graph,moves,size",
        [
            ("k33", "plain", 642),
            ("k33", "odd", 300),
            ("prism", "plain", 628),
            ("prism", "odd", 226),
            ("cube", "plain", 5928),
            ("cube", "odd", 1824),
            ("cube", "conformal", 192),
        ],
    )
    def test_switch_class_pools(self, capsys, graph, moves, size):
        # plain moves switch over every normal partition, odd moves over
        # the odd ones, conformal moves over those conformal to the cube's
        # matching 0,5,8,11; in each case the whole pool is one class
        argv = ["switch-class", "--graph", graph, "--moves", moves]
        if moves == "conformal":
            argv += ["--matching", "0,5,8,11"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (doc["count"], doc["sizes"]) == (1, [size])

    @pytest.mark.parametrize(
        "matching,size",
        [
            ("0,5,9,10", 208),
            ("0,6,7,8", 208),
            ("1,3,8,11", 208),
            ("1,3,9,10", 192),
            ("1,4,7,9", 208),
            ("2,3,6,10", 208),
            ("2,4,5,11", 208),
            ("2,4,6,7", 192),
        ],
    )
    def test_switch_class_cube_matchings(self, capsys, matching, size):
        # the cube's other eight perfect matchings: with 0,5,8,11 above,
        # all nine conformal queries of the switching benchmark
        argv = ["switch-class", "--graph", "cube", "--moves", "conformal", "--matching", matching]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (doc["count"], doc["sizes"]) == (1, [size])

    @pytest.mark.parametrize(
        "graph,moves,matching,decodes",
        [
            ("k33", "plain", None, 0),
            ("cube", "plain", None, 0),
            ("cube", "conformal", "0,5,8,11", 0),
            ("cube", "conformal", "1,3,9,10", 0),
            ("k33", "odd", None, 300),
            ("prism", "odd", None, 226),
        ],
    )
    def test_switch_class_decodes(self, capsys, monkeypatch, graph, moves, matching, decodes):
        # the pool is read as markings: plain and conformal queries decode
        # nothing, odd ones decode each member once for the odd check
        import sys

        from copnc import partition

        calls = []
        decode = partition.trails_from_marking

        def counted(g, marked):
            calls.append(1)
            return decode(g, marked)

        for name, module in list(sys.modules.items()):  # every module holding the decoder
            if name.split(".")[0] == "copnc" and getattr(module, "trails_from_marking", None) is decode:
                monkeypatch.setattr(module, "trails_from_marking", counted)
        argv = ["switch-class", "--graph", graph, "--moves", moves]
        if matching:
            argv += ["--matching", matching]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 1
        assert len(calls) == decodes

    @pytest.mark.parametrize("moves", ["plain", "odd"])
    def test_switch_class_matching_needs_conformal(self, capsys, moves):
        argv = ["switch-class", "--graph", "k33", "--moves", moves, "--matching", "1,2"]
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--matching applies to conformal moves only" in captured.err

    # k4's 0,5 is a perfect matching, but 0,0,5 names edge 0 twice
    @pytest.mark.parametrize(
        "graph,matching", [("k4", "0,0"), ("k4", "0,1"), ("cube", "0,5,8"), ("theta", "7"), ("k4", "0,0,5")]
    )
    def test_switch_class_needs_perfect_matching(self, capsys, graph, matching):
        argv = ["switch-class", "--graph", graph, "--moves", "conformal", "--matching", matching]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition failed:")
        assert "not a perfect matching" in captured.err

    def test_sweep_g6(self, tmp_path, capsys, k4, k33, cube):
        from copnc.graph import to_graph6

        src = tmp_path / "tiny.g6"
        src.write_text("\n".join(to_graph6(g) for g in (k4, k33, cube)) + "\n")
        out = tmp_path / "report.jsonl"
        assert main(["sweep", "--input", f"@{src}", "--check", "thm5", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 3 and all(r["agree"] for r in lines)

    def test_sweep_edges_with_multigraphs(self, tmp_path, theta, dumbbell):
        from edge_list_oracle import to_edge_list

        src = tmp_path / "tiny.edges"
        src.write_text(to_edge_list(theta) + to_edge_list(dumbbell))
        out = tmp_path / "report.jsonl"
        assert main(["sweep", "--input", f"@{src}", "--check", "conj25", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["triple_found"] is True  # three parallel edges
        assert lines[1]["triple_found"] is False  # loops block any triple
        assert all(r["agree"] for r in lines)

    def test_sweep_parallel_jobs(self, tmp_path, k4, k33):
        from copnc.graph import to_graph6

        src = tmp_path / "two.g6"
        src.write_text("\n".join(to_graph6(g) for g in (k4, k33)) + "\n")
        out = tmp_path / "report.jsonl"
        assert main(["sweep", "--input", f"@{src}", "--check", "conj25", "--jobs", "2", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in lines] == ["two:0", "two:1"]

    @pytest.mark.parametrize("check", ["conj25", "thm12", "thm5"])
    def test_sweep_records_are_sorted_dumps(self, tmp_path, check):
        """Every line a sweep writes is the bytes of json.dumps(record,
        sort_keys=True), on the n = 8, 10 and simple n = 12 corpora, and
        through the process pool on n = 8."""
        from importlib import resources

        data = resources.files("copnc.data")
        runs = [(name, "1") for name in ("corpus_all_n08.edges", "corpus_all_n10.edges", "corpus_simple_n12.g6")]
        runs.append(("corpus_all_n08.edges", "2"))
        for name, jobs in runs:
            out = tmp_path / f"{name}.{jobs}.jsonl"
            argv = ["sweep", "--input", str(data.joinpath(name)), "--check", check, "--jobs", jobs, "--out", str(out)]
            assert main(argv) == 0
            lines = out.read_text().splitlines()
            assert len(lines) >= 71, name  # 71 graphs at n = 8, the fewest
            for line in lines:
                assert line == json.dumps(json.loads(line), sort_keys=True), (name, jobs)

    def test_process_pool_imported_only_for_jobs(self, tmp_path, k4, k33):
        # a fresh interpreter: importing the CLI loads no process pool, and
        # a --jobs 2 sweep still runs and writes what --jobs 1 writes
        import os
        import subprocess
        import sys
        from pathlib import Path

        import copnc
        from copnc.graph import to_graph6

        src = tmp_path / "two.g6"
        src.write_text("\n".join(to_graph6(g) for g in (k4, k33)) + "\n")
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        code = "\n".join([
            "import sys",
            "import copnc.cli",
            "assert 'concurrent.futures.process' not in sys.modules",
            f"argv = ['sweep', '--input', '@{src}', '--check', 'conj25', '--jobs', '2', '--out', '{two}']",
            "assert copnc.cli.main(argv) == 0",
            "assert 'concurrent.futures.process' in sys.modules",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(copnc.__file__).resolve().parent.parent)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        assert main(["sweep", "--input", f"@{src}", "--check", "conj25", "--out", str(one)]) == 0

        def records(path):
            return [{k: v for k, v in json.loads(l).items() if k != "elapsed"} for l in path.read_text().splitlines()]

        assert records(two) == records(one)

    def test_family_regenerate(self, capsys):
        assert main(["family", "--regenerate"]) == 0

    def test_graph_file_resolver(self, tmp_path, petersen):
        from copnc.graph import to_graph6

        src = tmp_path / "one.g6"
        src.write_text(to_graph6(petersen) + "\n")
        assert main(["construct", "--method", "matching", "--graph", f"@{src}"]) == 0

    def test_edge_list_header_checked_before_allocation(self, tmp_path, capsys):
        import tracemalloc

        src = tmp_path / "huge.edges"
        src.write_text("2000000 0\n")
        tracemalloc.start()
        try:
            assert main(["construct", "--method", "matching", "--graph", f"@{src}"]) == 5
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert "3n = 2m" in capsys.readouterr().err

    def test_multi_record_file_rejected_where_one_needed(self, tmp_path, k4, k33):
        from copnc.graph import to_graph6

        src = tmp_path / "two.g6"
        src.write_text("\n".join(to_graph6(g) for g in (k4, k33)) + "\n")
        assert main(["construct", "--method", "matching", "--graph", f"@{src}"]) == 5

    def test_validate_graph_mismatch_exit(self, tmp_path, k33):
        t = bipartite_triple(k33)
        p = tmp_path / "cert.json"
        p.write_text(C.dumps(C.certificate(k33, list(t.partitions))))
        assert main(["validate", str(p), "--graph", "cube"]) == 2

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no_dir", "a_dir"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--method", "conformal", "--graph", "k4"],
            ["family", "petersen"],
            ["sweep", "--input", "@{src}", "--check", "conj25"],
        ],
        ids=["construct", "family", "sweep"],
    )
    def test_unwritable_out_exit(self, tmp_path, capsys, k4, argv, target):
        from copnc.graph import to_graph6

        src = tmp_path / "k4.g6"
        src.write_text(to_graph6(k4) + "\n")
        argv = [a.format(src=src) for a in argv]
        assert main(argv + ["--out", str(tmp_path / target)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write") and captured.err.count("\n") == 1

    def test_missing_certificate_exit(self):
        assert main(["validate", "/definitely/not/here.json"]) == 5

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--input", "x.g6", "--check", "bogus"], "argument --check: invalid choice: 'bogus'"),
            (["construct", "--method", "matching"], "the following arguments are required: --graph"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            (["switch-class", "--graph", "cube", "--moves", "conformal", "--matching", "-1,5"],
             "argument --matching: expected one argument"),
        ],
    )
    def test_usage_error_exit(self, capsys, argv, message):
        # exit 5, not argparse's 2: exit 2 means a check failed
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()[0], captured.err.splitlines()[-1]
        assert usage.startswith("usage: copnc") and message in error

    def test_usage_error_exit_as_module(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import copnc

        env = {**os.environ, "PYTHONPATH": str(Path(copnc.__file__).resolve().parent.parent)}
        run = [sys.executable, "-m", "copnc"]
        out = subprocess.run(run + ["frobnicate"], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 5 and "invalid choice: 'frobnicate'" in out.stderr
        out = subprocess.run(run + ["sweep", "--help"], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0 and out.stdout.startswith("usage: copnc sweep")

    @pytest.mark.parametrize(
        "data",
        [b'{"graph": "\xff"}', b"[" * 200_000 + b"]" * 200_000, b'{"n": ' + b"1" * 5000 + b"}"],
        ids=["not_utf8", "deep", "long_int"],
    )
    def test_undecodable_certificate_exit(self, tmp_path, capsys, data):
        # not UTF-8, JSON nested deeper than json's decoder recurses, or an
        # int longer than the interpreter converts from a string
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        assert main(["validate", str(p)]) == 5
        assert "certificate is not JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".g6", ".edges"])
    def test_undecodable_graph_file_exit(self, tmp_path, capsys, suffix):
        src = tmp_path / f"bad{suffix}"
        src.write_bytes(b"\xff\n")
        assert main(["sweep", "--input", str(src), "--check", "conj25"]) == 5
        assert main(["construct", "--method", "matching", "--graph", f"@{src}"]) == 5
        assert capsys.readouterr().err.count("cannot read") == 2

    @pytest.mark.parametrize("line", ["?", "~???"])
    def test_graph6_without_vertices_exit(self, tmp_path, capsys, line):
        # the empty graph is no cubic graph, as the edge-list header "0 0" is not
        src = tmp_path / "empty.g6"
        src.write_text(line + "\n")
        assert main(["sweep", "--input", str(src), "--check", "conj25"]) == 5
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"graph": {"n": 2, "edges": [[0, 1]] * 3}, "partitions": 5},
            {"graph": {"n": -2, "edges": []}, "partitions": []},
            {"graph": {"n": -2, "edges": []}, "partitions": [[]]},
            {"graph": {"n": 2, "edges": [[0, 1]] * 3}, "partitions": []},
            {"graph": {"n": 2, "edges": [[0, 1]] * 3}},
            {"graph": {"n": 2, "edges": [[0, 1]] * 3}, "partitions": [5]},
            {"graph": {"n": 10**9, "edges": []}, "partitions": [[]]},
            {"graph": {"n": 2, "edges": [[0, 1], [0, 1], [0, 2]]}, "partitions": [[]]},
            {"graph": {"n": 2, "edges": [[0, 0], [0, 0], [1, 1]]}, "partitions": [[]]},
            {"graph": {"n": 1e400, "edges": []}, "partitions": [[]]},
            [],
        ],
    )
    def test_malformed_certificate_exit(self, tmp_path, capsys, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 5
        assert json.loads(capsys.readouterr().out)["ok"] is False


def even_k4_doc():
    """The first triple of the three-partition search without its parity
    prune on k4: lengths [5, 1], [4, 2] and [4, 2], so two even members."""
    from copnc.graph import generate
    from copnc.partition import NormalPartition
    from copnc.search import _Search

    g = generate("k4")
    markings = next(_Search(g, 3, odd=False).solutions())
    return C.certificate(g, [NormalPartition(g, mk) for mk in markings])


class TestOddness:
    def test_even_partition_named(self):
        report = C.validate_certificate(even_k4_doc())
        assert not report["ok"] and report["even"] == [1, 2]
        assert [e["lengths"] for e in report["partitions"]] == [[5, 1], [4, 2], [4, 2]]
        assert [e["odd"] for e in report["partitions"]] == [True, False, False]
        assert "incompatible" not in report

    def test_even_partition_exit(self, tmp_path, capsys):
        p = tmp_path / "even.json"
        p.write_text(C.dumps(even_k4_doc()))
        assert main(["validate", str(p)]) == 2
        assert json.loads(capsys.readouterr().out)["even"] == [1, 2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--method", "matching", "--graph", "petersen"],
            ["construct", "--method", "conformal", "--graph", "prism"],
            ["family", "goldberg:5", "--emit-partitions"],
            ["family", "flower:7", "--emit-partitions"],
            ["family", "petersen"],
            ["construct", "--method", "bipartite", "--graph", "cube"],
            ["construct", "--method", "conformal", "--graph", "k4"],
            ["construct", "--method", "conformal", "--graph", "theta"],
        ],
    )
    def test_emitted_partitions_odd(self, tmp_path, capsys, argv):
        out = tmp_path / "cert.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(e["odd"] for e in report["partitions"]) and "even" not in report


def _json_values():
    from hypothesis import strategies as st

    leaves = (
        st.none()
        | st.booleans()
        | st.integers(-3, 40)
        | st.integers()
        | st.floats()
        | st.text(max_size=4)
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )


def _paths(node, path=()):
    """Every field of a JSON document, as key/index paths from its root."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, child in items:
        yield from _paths(child, path + (k,))


class TestCertificateFuzz:
    """One field of a valid certificate replaced, removed, nudged by one or
    retyped (an int made the equal float, or a bool): validate answers
    with an exit code and never a traceback."""

    @pytest.fixture(scope="class")
    def bases(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("bases")
        for name, argv in (
            ("cube", ["construct", "--method", "conformal", "--graph", "cube"]),
            ("petersen", ["family", "petersen", "--emit-partitions"]),
        ):
            assert main(argv + ["--out", str(d / f"{name}.json")]) == 0
        return d, [json.loads((d / f"{name}.json").read_text()) for name in ("cube", "petersen")]

    def test_single_field_mutations(self, bases):
        import copy

        from hypothesis import given, seed, settings
        from hypothesis import strategies as st

        d, docs = bases
        path = d / "mutant.json"
        fields = [st.sampled_from(list(_paths(doc))[1:]) for doc in docs]
        values = _json_values()

        @seed(20121)
        @settings(max_examples=200, deadline=None, database=None)
        @given(st.data())
        def check(data):
            which = data.draw(st.sampled_from([0, 1]))
            doc = copy.deepcopy(docs[which])
            *head, last = data.draw(fields[which])
            parent = doc
            for k in head:
                parent = parent[k]
            how = data.draw(st.sampled_from(["replace", "remove", "nudge", "retype"]))
            if how == "remove":
                del parent[last]
            elif how == "nudge" and type(parent[last]) is int:
                parent[last] += data.draw(st.sampled_from([-1, 1]))
            elif how == "retype" and type(parent[last]) is int:
                parent[last] = data.draw(st.sampled_from([float(parent[last]), bool(parent[last])]))
            else:
                parent[last] = data.draw(values)
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path)]) in (0, 2, 5)

        check()


def json_oracle(x):
    """json's own indented text, the writer's specification."""
    return json.dumps(x, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _writer_values():
    """JSON values with every case the writer branches on: bools beside
    ints, lists of ints and of int lists, empty containers, floats at the
    edges, escaped and non-ASCII keys, nesting four and more deep."""
    from hypothesis import strategies as st

    keys = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n\t", "\x00\x1f", "é", "日本", "\U0001f600", "\ud800"])
    ints = st.integers(-3, 40) | st.integers(-(2**200), 2**200)
    leaves = (
        st.none()
        | st.booleans()
        | ints
        | st.floats()
        | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 1.5])
        | keys
    )
    int_lists = st.lists(ints | st.booleans(), max_size=4) | st.lists(st.lists(ints, max_size=3), max_size=3)
    values = st.recursive(
        leaves | int_lists,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
        max_leaves=12,
    )
    deep = st.builds(lambda a, b: {"d": [[{"e": [a, b]}], {}, []]}, values, values)
    return values | deep


def _depth(x) -> int:
    if isinstance(x, dict):
        x = list(x.values())
    return 1 + max(map(_depth, x), default=0) if isinstance(x, list) else 0


class TestWriter:
    """certificates.dumps against json.dumps with indent=1, which writes
    through json's pure-Python encoder."""

    def test_matches_json_on_generated_values(self):
        from hypothesis import example, given, seed, settings

        depths = []

        @seed(20130)
        @settings(max_examples=400, deadline=None, database=None)
        @given(_writer_values())
        @example([True, 1, False, 0])
        @example([[1, 2], [True], []])
        @example({"é\n": [[[{"a": [-0.0, 1e300, None, -(2**100)]}]]], "": {}, "b": []})
        def check(x):
            depths.append(_depth(x))
            assert C.dumps(x) == json_oracle(x)

        check()
        assert max(depths) >= 4

    @pytest.mark.parametrize("x", [[], {}, 0, "x", None, (1, 2), [(1, 2), (3,)], {"a": (True, 2)}])
    def test_small_values(self, x):
        assert C.dumps(x) == json_oracle(x)

    def test_partition_without_trails(self):
        from copnc.graph import CubicGraph
        from copnc.partition import trails_from_marking

        p = trails_from_marking(CubicGraph(0, []), [])
        assert C.dumps({"p": [p]}) == json_oracle({"p": [[]]})

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError):
            C.dumps({1: 2})

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--method", "matching", "--graph", "petersen"],
            ["construct", "--method", "bipartite", "--graph", "k33"],
            ["construct", "--method", "conformal", "--graph", "prism"],
            ["construct", "--method", "conformal", "--graph", "cube"],
            ["construct", "--method", "conformal", "--graph", "theta"],
            ["family", "petersen"],
            ["family", "petersen", "--emit-partitions"],
            ["family", "flower:7"],
            ["family", "goldberg:5", "--emit-partitions"],
        ],
    )
    def test_cli_outputs_match_json(self, tmp_path, argv):
        out = tmp_path / "cert.json"
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        assert text == json_oracle(json.loads(text))

    def test_family_data_text_is_the_frozen_file(self):
        from importlib import resources

        from copnc import families

        frozen = resources.files("copnc.data").joinpath("families.json").read_text()
        data = json.loads(frozen)
        assert families.family_data_text(data) == frozen == json_oracle(data)


def _emitted(tmp_path, argv) -> str:
    """The certificate text the CLI writes for argv."""
    out = tmp_path / "cert.json"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def _graph_arg(tmp_path, g) -> str:
    from edge_list_oracle import to_edge_list

    path = tmp_path / "g.edges"
    path.write_text(to_edge_list(g))
    return f"@{path}"


def _shape_graphs():
    """The five shapes of the construct benchmark at n = 20 ... 48,
    relabelled and oriented as the benchmark does."""
    import random

    from conftest import _perfbench_workloads

    from copnc.graph import CubicGraph

    wl = _perfbench_workloads()
    rng = random.Random(25)
    return [
        (f"{shape}:{n}", CubicGraph(*wl.oriented(*build(n, rng), rng)))
        for n in (20, 32, 48)
        for shape, build in wl.SHAPES.items()
    ]


def _loop_graphs():
    """The corpus graphs on 4 and 6 vertices with a loop and a perfect
    matching: the matching route ends trails in their loops."""
    from copnc.corpus import corpus_all
    from copnc.graph import has_perfect_matching

    return [(gid, g) for n in (4, 6) for gid, g in corpus_all(n) if g.has_loop() and has_perfect_matching(g)]


class TestEmitterOracle:
    """Every emitter writes its partitions straight from their trails; the
    bytes must be json's indent=1 text of certificate(), which holds the
    trails as objects {"edges": [...], "vertices": [...]}."""

    @pytest.mark.parametrize(
        "method,name",
        [("conformal", name) for name in ("k4", "k33", "prism", "cube")] + [("bipartite", "k33"), ("bipartite", "cube")],
    )
    def test_named_triples(self, tmp_path, method, name):
        from copnc.cli import _triple_claims
        from copnc.construct import conformal_triple_general
        from copnc.graph import generate

        g = generate(name)
        t = (conformal_triple_general if method == "conformal" else bipartite_triple)(g)
        want = json_oracle(C.certificate(g, list(t.partitions), _triple_claims(t, method)))
        assert _emitted(tmp_path, ["construct", "--method", method, "--graph", name]) == want

    @pytest.mark.parametrize("label,g", _shape_graphs(), ids=lambda x: x if isinstance(x, str) else "")
    def test_conformal_shapes(self, tmp_path, label, g):
        from copnc.cli import _triple_claims
        from copnc.construct import conformal_triple_general

        t = conformal_triple_general(g, seed=7)
        want = json_oracle(C.certificate(g, list(t.partitions), _triple_claims(t, "conformal")))
        argv = ["construct", "--method", "conformal", "--graph", _graph_arg(tmp_path, g), "--seed", "7"]
        assert _emitted(tmp_path, argv) == want

    def test_matching_on_loop_graphs(self, tmp_path):
        graphs = _loop_graphs()
        assert {g.n for _, g in graphs} == {4, 6}
        for gid, g in graphs:
            p = nop_from_matching(g)
            loops = {e for e, (u, v) in enumerate(g.endpoints) if u == v}
            assert any({es[0], es[-1]} & loops for _, es in p.trails), gid
            want = json_oracle(C.certificate(g, [p], {"method": "matching"}))
            argv = ["construct", "--method", "matching", "--graph", _graph_arg(tmp_path, g)]
            assert _emitted(tmp_path, argv) == want, gid

    @pytest.mark.parametrize("spec", ["petersen", "flower:7", "goldberg:5"])
    @pytest.mark.parametrize("emit", [False, True])
    def test_family(self, tmp_path, spec, emit):
        from copnc import families
        from copnc.partition import associated_matching

        name, _, k = spec.partition(":")
        triple = families.petersen_triple() if name == "petersen" else getattr(families, f"{name}_triple")(int(k))
        claims = {"family": spec}
        if emit:
            claims["matchings"] = [sorted(associated_matching(p)) for p in triple]
            claims["profiles"] = [sorted(p.lengths(), reverse=True) for p in triple]
        want = json_oracle(C.certificate(triple[0].graph, list(triple), claims))
        assert _emitted(tmp_path, ["family", spec] + ["--emit-partitions"] * emit) == want

    def test_random_markings(self):
        """Partitions of random decodable markings on the corpus graphs up
        to n = 10, loops and trails of length 1 among them, written at
        several depths of a document."""
        from hypothesis import assume, given, seed, settings
        from hypothesis import strategies as st

        from conftest import corpus_upto
        from copnc.partition import CycleError, trails_from_marking

        graphs = [g for _, g in corpus_upto(10, include_simple12=False)]

        @seed(2025)
        @settings(max_examples=200, deadline=None, database=None)
        @given(st.data())
        def check(data):
            g = data.draw(st.sampled_from(graphs))
            parts = []
            for _ in range(data.draw(st.integers(1, 3))):
                marking = [data.draw(st.sampled_from(ds)) for ds in g.vertex_darts]
                try:
                    parts.append(trails_from_marking(g, marking))
                except CycleError:
                    assume(False)
            trails = C.certificate(g, parts)["partitions"]
            assert C.dumps(C.certificate(g, []) | {"partitions": parts}) == json_oracle(C.certificate(g, parts))
            assert C.dumps({"a": [[parts[0]], {"b": parts}]}) == json_oracle({"a": [[trails[0]], {"b": trails}]})

        check()


def conformal_cube_doc():
    from copnc.construct import conformal_triple_general
    from copnc.graph import generate
    from copnc.cli import _triple_claims

    g = generate("cube")
    t = conformal_triple_general(g)
    return C.certificate(g, list(t.partitions), _triple_claims(t, "conformal"))


class TestClaims:
    """validate checks the claimed matchings and coloring against the
    partitions: a false claim exits 2 and is named, a malformed one exits 5."""

    def test_tampered_cube_exit(self, tmp_path, capsys):
        doc = conformal_cube_doc()
        doc["matchings"][0] = doc["matchings"][1]
        doc["coloring"] = [0] * len(doc["coloring"])
        p = tmp_path / "tampered.json"
        p.write_text(C.dumps(doc))
        assert main(["validate", str(p)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["mismatch"]["matchings"] == [0]
        assert report["mismatch"]["coloring"] == {"classes": [0, 1, 2], "improper": list(range(8))}
        assert all(e["odd"] and not e["violations"] for e in report["partitions"])

    def test_permuted_colors_are_proper_but_wrong(self):
        doc = conformal_cube_doc()
        doc["coloring"] = [(c + 1) % 3 for c in doc["coloring"]]
        report = C.validate_certificate(doc)
        assert not report["ok"] and report["mismatch"] == {"coloring": {"classes": [0, 1, 2]}}

    def test_unsorted_matching_is_the_same_claim(self):
        doc = conformal_cube_doc()
        doc["matchings"] = [m[::-1] for m in doc["matchings"]]
        assert C.validate_certificate(doc)["ok"]

    def test_matching_claim_on_invalid_partition_not_compared(self):
        doc = conformal_cube_doc()
        doc["partitions"][1] = doc["partitions"][1][1:]
        report = C.validate_certificate(doc)
        assert not report["ok"] and report["partitions"][1]["violations"]
        assert "mismatch" not in report

    @pytest.mark.parametrize(
        "field,value",
        [
            ("matchings", [[0], [1]]),
            ("matchings", [[0], [1], 2]),
            ("matchings", [[0], [1], [True]]),
            ("matchings", {"0": [0]}),
            ("coloring", [0] * 11),
            ("coloring", [0] * 11 + [3]),
            ("coloring", [0] * 11 + [-1]),
            ("coloring", [0] * 11 + [1.0]),
            ("coloring", [0] * 11 + [True]),
            ("coloring", None),
        ],
    )
    def test_malformed_claim_exit(self, tmp_path, capsys, field, value):
        doc = conformal_cube_doc()
        doc[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        expect = 0 if value is None else 5  # a null field is an absent claim
        assert main(["validate", str(p)]) == expect

    def test_coloring_needs_three_partitions(self):
        doc = conformal_cube_doc()
        del doc["matchings"]
        doc["partitions"] = doc["partitions"][:2]
        with pytest.raises(C.CertificateError, match="coloring"):
            C.validate_certificate(doc)


def flower_family_doc(tmp_path):
    out = tmp_path / "flower7.json"
    assert main(["family", "flower:7", "--emit-partitions", "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestFamilyClaims:
    """validate checks the claimed family (its spec must generate the graph)
    and profiles (the sorted trail lengths of each partition)."""

    def test_tampered_flower_exit(self, tmp_path, capsys):
        doc = flower_family_doc(tmp_path)
        doc["family"] = "flower:9"
        doc["profiles"][2] = doc["profiles"][0][::-1]
        p = tmp_path / "tampered.json"
        p.write_text(C.dumps(doc))
        assert main(["validate", str(p)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["mismatch"] == {"family": True, "profiles": [2]}
        assert all(e["odd"] and not e["violations"] for e in report["partitions"])

    @pytest.mark.parametrize("spec", ["petersen", "goldberg:7", "k4", "flower:9"])
    def test_family_of_another_graph(self, tmp_path, spec):
        doc = flower_family_doc(tmp_path)
        doc["family"] = spec
        assert C.validate_certificate(doc)["mismatch"] == {"family": True}

    def test_family_command_checks_its_spec_as_validate_does(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert main(["family", "petersen:3", "--out", str(out)]) == 5
        assert main(["family", "flower:07", "--emit-partitions", "--out", str(out)]) == 0
        assert main(["validate", str(out), "--graph", "flower:7"]) == 0

    def test_other_generated_graph_claims_its_spec(self):
        doc = conformal_cube_doc()
        doc["family"] = "cube"
        assert C.validate_certificate(doc)["ok"]

    def test_profiles_of_invalid_partition_not_compared(self, tmp_path):
        doc = flower_family_doc(tmp_path)
        doc["partitions"][1] = doc["partitions"][1][1:]
        doc["profiles"][1] = []
        report = C.validate_certificate(doc)
        assert not report["ok"] and report["partitions"][1]["violations"]
        assert "mismatch" not in report

    @pytest.mark.parametrize(
        "field,value",
        [
            ("family", 7),
            ("family", ["flower", 7]),
            ("family", "hexagon"),
            ("family", "flower:8"),
            ("family", "flower:x"),
            ("family", "flower"),
            ("family", "petersen:3"),
            ("family", "flower:99999999999999999"),
            ("profiles", [[3, 1]] * 2),
            ("profiles", [[3, 1]] * 3 + [[1]]),
            ("profiles", [[3, 1], [3, 1], 3]),
            ("profiles", [[3, 1], [3, 1], [3.0, 1]]),
            ("profiles", [[3, 1], [3, 1], [True]]),
            ("profiles", None),
            ("family", None),
        ],
    )
    def test_malformed_claim_exit(self, tmp_path, capsys, field, value):
        doc = flower_family_doc(tmp_path)
        doc[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        expect = 0 if value is None else 5  # a null field is an absent claim
        assert main(["validate", str(p)]) == expect


def matching_k4_doc():
    from copnc.graph import generate

    g = generate("k4")
    return C.certificate(g, [nop_from_matching(g)], {"method": "matching"})


class TestIdTypes:
    """Trail vertex and edge ids must be ints, and so must the graph's n
    and edge endpoints: a float, a bool or a digit string in their place
    is a certificate of the wrong shape, exit 5."""

    def test_one_float_vertex_id(self, tmp_path, capsys):
        doc = matching_k4_doc()
        t = next(t for t in doc["partitions"][0] if 0 in t["vertices"])
        t["vertices"][t["vertices"].index(0)] = 0.0
        p = tmp_path / "float.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 5
        assert "int" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("retype", [float, bool])
    @pytest.mark.parametrize("key", ["vertices", "edges"])
    def test_retyped_ids_exit(self, tmp_path, capsys, retype, key):
        doc = matching_k4_doc()
        for t in doc["partitions"][0]:
            t[key] = [retype(x) if x in (0, 1) else x for x in t[key]]
        p = tmp_path / "retyped.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 5

    @pytest.mark.parametrize(
        "field, value",
        [("edge", [0.9, 1]), ("edge", [False, True]), ("edge", ["0", "1"]), ("n", 4.7), ("n", 4.0)],
    )
    def test_retyped_graph_payload_exit(self, tmp_path, capsys, field, value):
        doc = matching_k4_doc()
        assert doc["graph"]["edges"][0] == [0, 1] and doc["graph"]["n"] == 4
        if field == "n":
            doc["graph"]["n"] = value
        else:
            doc["graph"]["edges"][0] = value
        p = tmp_path / "retyped.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 5
        assert "int" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("value", ["0123", {"0": 1}, 5, None])
    def test_id_lists_of_wrong_type(self, value):
        doc = matching_k4_doc()
        doc["partitions"][0][0]["vertices"] = value
        with pytest.raises(C.CertificateError):
            C.validate_certificate(doc)


def test_parser_built_once(capsys):
    from copnc import cli

    argv = ["construct", "--method", "matching", "--graph", "k4"]
    assert main(argv) == 0
    parser = cli._parser
    assert main(argv) == 0
    assert parser is not None and cli._parser is parser
