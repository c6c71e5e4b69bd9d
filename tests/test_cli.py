"""End-to-end command line coverage, driving main(argv) directly."""

from __future__ import annotations

import ast
import json
import time
from pathlib import Path

import pytest

import hyperhom.cli as cli
import hyperhom.homology as homology
import hyperhom.hypergraph as hypergraph
import hyperhom.kunneth as kunneth
from hyperhom.cli import main
from hyperhom.errors import IntegrityError
from hyperhom.examples import projective_plane, triangle_boundary
from hyperhom.fuzz import FuzzConfig, FuzzFailure, FuzzReport, check_pair
from hyperhom.homology import embedded_homology, parse_coefficient
from hyperhom.hypergraph import (
    associated_complex,
    hypergraph_from_edges,
    parse_hypergraph,
    product_boxtimes,
)
from test_solver_sites import _sites

SEGMENT_WITH_POINT = "v0\nv0 v1\n"


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_text_output(tmp_path, capsys) -> None:
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    code, out, err = run(capsys, "homology", path)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "embedded homology over z",
        "H_0 = Z",
        "H_1 = 0",
        "H_2 = 0",
    ]


def test_homology_structured_over_field_with_verify(tmp_path, capsys) -> None:
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    code, out, _ = run(
        capsys, "homology", path, "--coeff", "q", "--format", "structured", "--verify"
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "homology",
        "coefficients": "q",
        "verified": True,
        "homology": [
            {"degree": 0, "value": 1},
            {"degree": 1, "value": 0},
            {"degree": 2, "value": 0},
        ],
    }


def test_homology_max_dim_truncates(tmp_path, capsys) -> None:
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    code, out, _ = run(capsys, "homology", path, "--max-dim", "0")
    assert code == 0
    assert out.splitlines() == ["embedded homology over z", "H_0 = Z"]


def test_product_text_square(tmp_path, capsys) -> None:
    left = write(tmp_path, "l.txt", "a b\n")
    right = write(tmp_path, "r.txt", "x y\n")
    code, out, _ = run(capsys, "product", left, right)
    assert code == 0
    assert out == "a|x a|y b|y\na|x b|x b|y\n"


def test_product_structured_roundtrip_with_prefix_tokens(tmp_path, capsys) -> None:
    # "ab|x" sorts before "a|x" as a token, so the round trip only works
    # because the structured format carries the vertex order explicitly
    left = write(tmp_path, "l.txt", "a\nab\na ab\n")
    right = write(tmp_path, "r.txt", "x\nx y\n")
    code, out, _ = run(capsys, "product", left, right, "--format", "structured")
    assert code == 0
    h = parse_hypergraph("a\nab\na ab\n")
    h2 = parse_hypergraph("x\nx y\n")
    assert parse_hypergraph(out) == product_boxtimes(h, h2)


def test_product_closure_flag_matches_library(tmp_path, capsys) -> None:
    left = write(tmp_path, "l.txt", "a b\n")
    right = write(tmp_path, "r.txt", "x y\n")
    code, out, _ = run(
        capsys, "product", left, right, "--closure", "--format", "structured"
    )
    assert code == 0
    box = product_boxtimes(parse_hypergraph("a b\n"), parse_hypergraph("x y\n"))
    closed = associated_complex(box)
    parsed = parse_hypergraph(out)
    assert (parsed.vertices, parsed.edges) == (closed.vertices, closed.edges)


def test_closure_command(tmp_path, capsys) -> None:
    path = write(tmp_path, "h.txt", "v0 v1 v2\n")
    code, out, _ = run(capsys, "closure", path)
    assert code == 0
    assert out.splitlines() == [
        "v0",
        "v1",
        "v2",
        "v0 v1",
        "v0 v2",
        "v1 v2",
        "v0 v1 v2",
    ]


def test_kunneth_text_ok_with_verify(tmp_path, capsys) -> None:
    left = write(tmp_path, "l.txt", SEGMENT_WITH_POINT)
    right = write(tmp_path, "r.txt", "w1\nw0 w1\n")
    code, out, _ = run(capsys, "kunneth", left, right, "--verify")
    assert code == 0
    assert out.startswith("kunneth check over z\n")
    assert out.rstrip().endswith("result: ok")
    assert "MISMATCH" not in out


def test_kunneth_structured_over_prime_field(tmp_path, capsys) -> None:
    left = write(tmp_path, "l.txt", SEGMENT_WITH_POINT)
    right = write(tmp_path, "r.txt", "w1\nw0 w1\n")
    code, out, _ = run(
        capsys, "kunneth", left, right, "--coeff", "zp:2", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == "zp:2"
    assert doc["ok"] is True
    assert doc["degrees"][0] == {
        "degree": 0,
        "tensor": "1",
        "tor": "0",
        "product": "1",
        "ok": True,
    }


EZ_AW_SHUFFLE = [
    ("{0}(x){0}", "{0|0}"),
    ("{0}(x){1}", "{0|1}"),
    ("{1}(x){0}", "{1|0}"),
    ("{1}(x){1}", "{1|1}"),
    ("{0}(x){0,1}", "{0|0,0|1}"),
    ("{1}(x){0,1}", "{1|0,1|1}"),
    ("{0,1}(x){0}", "{0|0,1|0}"),
    ("{0,1}(x){1}", "{0|1,1|1}"),
    ("{0,1}(x){0,1}", "- {0|0,0|1,1|1} + {0|0,1|0,1|1}"),
]
EZ_AW_FRONT_BACK = [
    ("{0|0}", "{0}(x){0}"),
    ("{0|1}", "{0}(x){1}"),
    ("{1|0}", "{1}(x){0}"),
    ("{1|1}", "{1}(x){1}"),
    ("{0|0,0|1}", "{0}(x){0,1}"),
    ("{0|0,1|0}", "{0,1}(x){0}"),
    ("{0|0,1|1}", "{0}(x){0,1} + {0,1}(x){1}"),
    ("{0|1,1|1}", "{0,1}(x){1}"),
    ("{1|0,1|1}", "{1}(x){0,1}"),
    ("{0|0,0|1,1|1}", "0"),
    ("{0|0,1|0,1|1}", "{0,1}(x){0,1}"),
]


def test_ez_aw_demo_text(capsys) -> None:
    code, out, _ = run(capsys, "ez-aw-demo")
    assert code == 0
    lines = ["shuffle map on the square (segment x segment)"]
    lines += [f"  {t} -> {image}" for t, image in EZ_AW_SHUFFLE]
    lines += ["front/back-face map on the square"]
    lines += [f"  {sx} -> {image}" for sx, image in EZ_AW_FRONT_BACK]
    assert out == "\n".join(lines) + "\n"


def test_ez_aw_demo_structured(capsys) -> None:
    code, out, _ = run(capsys, "ez-aw-demo", "--format", "structured")
    assert code == 0
    doc = {
        "command": "ez-aw-demo",
        "shuffle": [{"tensor": t, "image": image} for t, image in EZ_AW_SHUFFLE],
        "front_back": [
            {"simplex": sx, "image": image} for sx, image in EZ_AW_FRONT_BACK
        ],
    }
    assert out == json.dumps(doc, indent=2) + "\n"


def test_fuzz_reports_are_reproducible(capsys) -> None:
    code1, out1, _ = run(capsys, "fuzz", "--count", "5", "--seed", "9")
    code2, out2, _ = run(capsys, "fuzz", "--count", "5", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checked 5 instance pairs: all passed" in out1


def test_fuzz_zero_count(capsys) -> None:
    code, out, _ = run(capsys, "fuzz", "--count", "0")
    assert code == 0
    assert "checked 0 instance pairs" in out


# (command, input files, further flags) for every command
EVERY_COMMAND = [
    ("homology", 1, ()),
    ("product", 2, ()),
    ("closure", 1, ()),
    ("kunneth", 2, ()),
    ("ez-aw-demo", 0, ()),
    ("fuzz", 0, ("--count", "3")),
]


@pytest.mark.parametrize("out_format", ["text", "structured"])
@pytest.mark.parametrize(
    "command, n_inputs, flags", EVERY_COMMAND, ids=[c for c, _, _ in EVERY_COMMAND]
)
def test_out_flag_writes_file_instead_of_stdout(
    tmp_path, capsys, command, n_inputs, flags, out_format
) -> None:
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    argv = (command, *[path] * n_inputs, *flags, "--format", out_format)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""
    target = tmp_path / "report"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


@pytest.mark.parametrize("command, n_inputs", [("product", 2), ("closure", 1)])
def test_only_the_requested_format_is_rendered(
    tmp_path, capsys, spy, command, n_inputs
) -> None:
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    text_calls = spy(cli, "to_text")
    structured_calls = spy(cli, "to_structured")
    assert run(capsys, command, *[path] * n_inputs)[0] == 0
    assert (len(text_calls), structured_calls) == (1, [])
    text_calls.clear()
    assert run(capsys, command, *[path] * n_inputs, "--format", "structured")[0] == 0
    assert (text_calls, len(structured_calls)) == ([], 1)


def test_usage_and_parse_failures_exit_1(tmp_path, capsys) -> None:
    missing = str(tmp_path / "nope.txt")
    code, _, err = run(capsys, "homology", missing)
    assert code == 1 and "error:" in err
    bad_json = write(tmp_path, "bad.json", "{not json")
    assert run(capsys, "homology", bad_json)[0] == 1
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "--help")[0] == 0


def test_validation_failures_exit_2(tmp_path, capsys) -> None:
    dup = write(tmp_path, "dup.txt", "v0 v0\n")
    code, _, err = run(capsys, "homology", dup)
    assert code == 2 and "error:" in err
    ok = write(tmp_path, "ok.txt", "v0\n")
    assert run(capsys, "homology", ok, "--coeff", "zp:4")[0] == 2
    assert run(capsys, "fuzz", "--count", "-3")[0] == 2
    for argv in (
        ("homology", ok, "--max-dim", "-1"),
        ("homology", ok, "--max-dim", "-2"),
        ("fuzz", "--max-dim", "-1"),
        ("fuzz", "--max-vertices", "0"),
        ("homology", ok, "--coeff", "zp:2305843009213693951"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "error:" in err


# (command, input files, a flag it does not read)
DROPPED_FLAGS = [
    ("homology", 1, ("--seed", "1")),
    ("kunneth", 2, ("--seed", "1")),
    ("kunneth", 2, ("--max-dim", "1")),
    ("fuzz", 0, ("--coeff", "q")),
    ("fuzz", 0, ("--verify",)),
] + [
    (command, n_inputs, flag)
    for command, n_inputs in (("product", 2), ("closure", 1), ("ez-aw-demo", 0))
    for flag in (("--coeff", "q"), ("--verify",), ("--seed", "1"), ("--max-dim", "1"))
]


@pytest.mark.parametrize(
    "command, n_inputs, flag",
    DROPPED_FLAGS,
    ids=[f"{command}{flag[0]}" for command, _, flag in DROPPED_FLAGS],
)
def test_flags_a_command_does_not_read_exit_1(
    tmp_path, capsys, command, n_inputs, flag
) -> None:
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    code, out, err = run(capsys, command, *[path] * n_inputs, *flag)
    assert (code, out) == (1, "") and "unrecognized arguments" in err


def test_wide_hyperedge_closure_is_refused_and_homology_never_builds_it(
    tmp_path, capsys
) -> None:
    # one 30-vertex hyperedge: its closure has 2^30 - 1 simplices
    wide = write(tmp_path, "wide.txt", " ".join(f"v{i:02d}" for i in range(30)) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "closure", wide)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "") and "limit" in err
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", wide, "--verify")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == [f"H_{n} = 0" for n in range(31)]


def test_oversized_product_is_refused(tmp_path, capsys) -> None:
    # two 16-vertex hyperedges: C(30, 15) lattice paths
    left = write(tmp_path, "l.txt", " ".join(f"a{i:02d}" for i in range(16)) + "\n")
    right = write(tmp_path, "r.txt", " ".join(f"b{i:02d}" for i in range(16)) + "\n")
    for command in ("product", "kunneth"):
        code, out, err = run(capsys, command, left, right)
        assert (code, out) == (2, "") and "limit" in err


def test_homology_never_builds_the_closure(tmp_path, capsys, spy) -> None:
    rp2 = projective_plane()
    path = write(tmp_path, "h.txt", "v0\nv0 v1\nv1 v2 v3\nv0 v2 v3\n")
    calls = spy(hypergraph, "associated_complex")
    for coeff in ("z", "q", "zp:2", "zp:3"):
        assert run(capsys, "homology", path, "--verify", "--coeff", coeff)[0] == 0
        embedded_homology(rp2, parse_coefficient(coeff), verify=True)
    assert calls == []


def test_kunneth_verify_builds_the_tensor_infimum_once(tmp_path, capsys, spy) -> None:
    left = write(tmp_path, "l.txt", SEGMENT_WITH_POINT)
    right = write(tmp_path, "r.txt", "w1\nw0 w1\n")
    tensor_calls = spy(kunneth, "inf_tensor_basis")
    direct_calls = spy(kunneth, "inf_bases_of_span")
    assert run(capsys, "kunneth", left, right, "--verify")[0] == 0
    assert [kwargs for _, kwargs in tensor_calls] == [{"verify": True}]
    # the direct recomputation of the tensor infimum still runs
    assert len(direct_calls) == 1


def test_tensor_boundaries_are_built_once_per_pair(tmp_path, capsys, spy) -> None:
    calls = spy(homology, "boundary_matrix")

    def assert_built_once() -> None:
        # the chain-map check reads the tensor boundaries through the
        # restricted boundaries; --verify also builds the direct infimum
        # from them, on the same tensor context
        built = [args for args, _ in calls if isinstance(args[0], kunneth.TensorContext)]
        contexts = {id(ctx) for ctx, _ in built}
        assert len(contexts) == 1
        assert [n for _, n in built] == list(range(built[0][0].top_degree + 1))
        calls.clear()

    right_text = "w1\nw0 w1\n"
    h, h2 = parse_hypergraph(SEGMENT_WITH_POINT), parse_hypergraph(right_text)
    assert check_pair(h, h2) is None
    assert_built_once()
    left = write(tmp_path, "l.txt", SEGMENT_WITH_POINT)
    right = write(tmp_path, "r.txt", right_text)
    assert run(capsys, "kunneth", left, right, "--verify")[0] == 0
    assert_built_once()


def test_fuzz_bounds_default_to_the_fuzz_config(capsys, monkeypatch) -> None:
    seen = []
    monkeypatch.setattr(cli, "run_fuzz", lambda cfg: seen.append(cfg) or FuzzReport(cfg, 0, ()))
    assert run(capsys, "fuzz", "--count", "0")[0] == 0
    assert run(capsys, "fuzz", "--count", "0", "--max-dim", "1", "--max-vertices", "2")[0] == 0
    assert seen == [
        FuzzConfig(count=0, seed=0),
        FuzzConfig(count=0, seed=0, max_vertices=2, max_dim=1),
    ]


def test_kunneth_mismatch_exits_3_and_still_prints_report(
    tmp_path, capsys, monkeypatch
) -> None:
    class FakeReport:
        ok = False

        def to_text(self) -> str:
            return "kunneth check over z\nresult: MISMATCH\n"

        def to_dict(self) -> dict:
            return {"ok": False}

    monkeypatch.setattr(cli, "kunneth_check", lambda h, h2, coeff: FakeReport())
    left = write(tmp_path, "l.txt", "v0\n")
    right = write(tmp_path, "r.txt", "w0\n")
    code, out, err = run(capsys, "kunneth", left, right)
    assert code == 3
    assert "MISMATCH" in out
    assert "error:" in err


def test_kunneth_mismatch_exits_3_and_still_writes_the_document(
    tmp_path, capsys, monkeypatch
) -> None:
    class FakeReport:
        ok = False

        def to_text(self) -> str:
            raise AssertionError("the structured format renders no text")

        def to_dict(self) -> dict:
            return {"ok": False}

    monkeypatch.setattr(cli, "kunneth_check", lambda h, h2, coeff: FakeReport())
    left = write(tmp_path, "l.txt", "v0\n")
    right = write(tmp_path, "r.txt", "w0\n")
    argv = ("kunneth", left, right, "--format", "structured")
    code, out, err = run(capsys, *argv)
    assert code == 3 and json.loads(out) == {"ok": False}
    assert err == "error: kunneth mismatch; the report above documents the counterexample\n"
    target = tmp_path / "report.json"
    assert run(capsys, *argv, "--out", str(target)) == (3, "", err)
    assert target.read_text() == out


def test_fuzz_failure_exits_3(capsys, monkeypatch) -> None:
    h = hypergraph_from_edges([["a", "b"]])
    fake = FuzzReport(
        FuzzConfig(count=1, seed=0),
        1,
        (FuzzFailure(0, "closure", "boom", h, h),),
    )
    monkeypatch.setattr(cli, "run_fuzz", lambda cfg: fake)
    code, out, err = run(capsys, "fuzz", "--count", "1")
    assert code == 3
    assert "1 FAILED" in out and "boom" in out
    assert "error:" in err


def test_integrity_failure_exits_4(tmp_path, capsys, monkeypatch) -> None:
    def boom(*args, **kwargs):
        raise IntegrityError("pipelines disagree")

    monkeypatch.setattr(cli, "embedded_homology", boom)
    path = write(tmp_path, "h.txt", "v0\n")
    code, _, err = run(capsys, "homology", path, "--verify")
    assert code == 4 and "pipelines disagree" in err


def test_kunneth_verify_exits_4_when_the_supremum_route_disagrees(
    tmp_path, capsys, monkeypatch
) -> None:
    # the supremum route is computed on its own, so a faulty supremum is
    # caught even after the plain check cached the infimum answers
    monkeypatch.setattr(homology, "sup_chain", lambda h: homology.inf_chain(triangle_boundary()))
    left = write(tmp_path, "l.txt", SEGMENT_WITH_POINT)
    right = write(tmp_path, "r.txt", "w0\n")
    code, out, err = run(capsys, "kunneth", left, right, "--verify")
    assert code == 4 and out == "" and "disagree" in err


def test_only_main_renders_writes_and_fails_a_check() -> None:
    # the commands return their report; main alone picks the format, writes
    # it, and turns a failed check into exit 3 once the report is written
    def names_output(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in (
            "_json_doc",
            "_write_output",
            "VerificationError",
        )

    def reads_output_settings(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("out_format", "out_path")

    path = Path(cli.__file__)
    assert set(_sites(path, names_output)) == {"main"}
    assert [s for s in _sites(path, reads_output_settings) if s.startswith("cmd_")] == []


# ------------------------------------------------------- the reused parser


def test_main_builds_its_parser_at_most_once(tmp_path, capsys, spy) -> None:
    builds = spy(cli, "_build_parser")
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    for argv in (("homology", path), ("closure", path), ("fuzz", "--count", "0")):
        assert run(capsys, *argv)[0] == 0
    assert len(builds) <= 1


def test_flags_do_not_leak_between_calls(tmp_path, capsys) -> None:
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    argv = ("homology", path, "--verify", "--coeff", "q", "--format", "structured")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["coefficients"] == "q"
    code, out, err = run(capsys, "homology", path)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["embedded homology over z", "H_0 = Z", "H_1 = 0", "H_2 = 0"]


def test_failed_calls_leave_the_next_call_unchanged(tmp_path, capsys) -> None:
    path = write(tmp_path, "h.txt", SEGMENT_WITH_POINT)
    valid = ("homology", path, "--coeff", "zp:3", "--max-dim", "1")
    first = run(capsys, *valid)
    assert first[0] == 0
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "homology", path, "--coeff", "zp:4")[0] == 2
    assert run(capsys, *valid) == first


def test_the_parser_is_built_inside_functions_only() -> None:
    # importing cli builds nothing; main builds the parser through _parser
    def calls(*names: str):
        # a call of one of names, as f() or module.f()
        def hit(node: ast.AST) -> bool:
            if not isinstance(node, ast.Call):
                return False
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name in names

        return hit

    path = Path(cli.__file__)
    assert "<module>" not in _sites(path, calls("_build_parser", "_parser", "ArgumentParser"))
    assert _sites(path, calls("_build_parser")) == ["_parser"]
    assert _sites(path, calls("_parser")) == ["main"]
