"""Command line front end.

Commands: homology, product, closure, kunneth, ez-aw-demo, fuzz.
Exit codes: 0 success, 1 usage or parse failure, 2 validation failure,
3 verification failure (a check that could falsify a theorem did not
pass), 4 internal integrity failure (dual pipelines disagree).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from functools import cache, partial
from pathlib import Path

from .errors import HyperhomError, ValidationError, VerificationError
from .homology import (
    INTEGERS,
    Coefficient,
    ChainElement,
    embedded_homology,
    parse_coefficient,
    render_chain,
)
from .hypergraph import (
    Hypergraph,
    hypergraph_from_edges,
    parse_hypergraph,
    product_boxtimes,
    to_structured,
    to_text,
)
from .fuzz import FuzzConfig, run_fuzz
from .kunneth import (
    TensorChain,
    TensorContext,
    aw_map,
    ez_map,
    kunneth_check,
    render_tensor_chain,
    restricted_chainmap_check,
)
from .value import Value


class RunConfig(Value):
    """One resolved invocation; every default lives here, except the fuzz
    size bounds, which :class:`FuzzConfig` fills in when left as None."""

    def __init__(
        self, command: str, inputs: tuple[str, ...] = (), coeff: Coefficient = INTEGERS,
        verify: bool = False, seed: int = 0, out_format: str = "text",
        max_dim: int | None = None, out_path: str | None = None, closure: bool = False,
        count: int = 100, max_vertices: int | None = None,
    ) -> None:
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "verify", verify)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "out_format", out_format)
        object.__setattr__(self, "max_dim", max_dim)
        object.__setattr__(self, "out_path", out_path)
        object.__setattr__(self, "closure", closure)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "max_vertices", max_vertices)


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads. Flags left out of
    argv stay out of the namespace, so :class:`RunConfig` supplies every
    default."""
    parser = argparse.ArgumentParser(
        prog="hyperhom",
        description="Embedded homology of hypergraphs, lattice-path products, "
        "and Kunneth verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, n_inputs: int) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        if n_inputs:
            sp.add_argument("inputs", nargs=n_inputs, metavar="FILE")
        sp.add_argument(
            "--format",
            dest="out_format",
            choices=("text", "structured"),
            help="report format",
        )
        sp.add_argument("--out", dest="out_path", metavar="FILE", help="write output to this path")
        return sp

    homology = add("homology", "embedded homology of one hypergraph", 1)
    product = add("product", "lattice-path product of two hypergraphs", 2)
    product.add_argument(
        "--closure",
        action="store_true",
        help="emit the associated simplicial complex of the product",
    )
    add("closure", "downward closure of one hypergraph", 1)
    kunneth = add("kunneth", "verify the Kunneth formula for a pair", 2)
    add("ez-aw-demo", "print the shuffle and front/back-face tables for a square", 0)
    fuzz = add("fuzz", "randomized verification campaign", 0)
    for sp in (homology, kunneth):
        sp.add_argument(
            "--coeff",
            help="coefficients: z (integers), q (rationals), zp:<p> (prime field)",
        )
        sp.add_argument(
            "--verify",
            action="store_true",
            help="also run the redundant pipelines (infimum vs supremum, "
            "direct vs tensored infimum, chain-map identities)",
        )
    homology.add_argument("--max-dim", type=int, help="highest homology degree to report")
    fuzz.add_argument("--max-dim", type=int, help="factor dimension bound")
    fuzz.add_argument("--seed", type=int, help="random seed")
    fuzz.add_argument("--count", type=int, help="number of instance pairs")
    fuzz.add_argument("--max-vertices", type=int, help="vertex bound per factor")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first :func:`main` call
    and reused: parsing leaves it unchanged, and every flag a call leaves
    out resolves to its :class:`RunConfig` default."""
    return _build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = dict(vars(args))
    if "inputs" in fields:
        fields["inputs"] = tuple(fields["inputs"])
    if "coeff" in fields:
        fields["coeff"] = parse_coefficient(fields["coeff"])
    return RunConfig(**fields)


def _read_hypergraph(path: str) -> Hypergraph:
    return parse_hypergraph(Path(path).read_text())


# what a command reports: its JSON document and its text, each built only
# when asked for, and the message of a failed check (None when all passed)
Report = tuple[Callable[[], dict], Callable[[], str], str | None]


def cmd_homology(config: RunConfig) -> Report:
    if config.max_dim is not None and config.max_dim < 0:
        raise ValidationError("--max-dim must be non-negative")
    h = _read_hypergraph(config.inputs[0])
    values = embedded_homology(h, config.coeff, verify=config.verify)
    if config.max_dim is not None:
        values = values[: config.max_dim + 1]

    def doc() -> dict:
        return {
            "command": "homology",
            "coefficients": str(config.coeff),
            "verified": config.verify,
            "homology": [
                {"degree": n, "value": v if config.coeff.is_field else str(v)}
                for n, v in enumerate(values)
            ],
        }

    def text() -> str:
        lines = [f"embedded homology over {config.coeff}"]
        lines += [f"H_{n} = {v}" for n, v in enumerate(values)]
        return "\n".join(lines) + "\n"

    return doc, text, None


def cmd_product(config: RunConfig) -> Report:
    h = _read_hypergraph(config.inputs[0])
    h2 = _read_hypergraph(config.inputs[1])
    box = product_boxtimes(h, h2)
    g = box.closure if config.closure else box
    return partial(to_structured, g), partial(to_text, g), None


def cmd_closure(config: RunConfig) -> Report:
    g = _read_hypergraph(config.inputs[0]).closure
    return partial(to_structured, g), partial(to_text, g), None


def cmd_kunneth(config: RunConfig) -> Report:
    h = _read_hypergraph(config.inputs[0])
    h2 = _read_hypergraph(config.inputs[1])
    report = kunneth_check(h, h2, config.coeff)
    if config.verify:
        embedded_homology(h, config.coeff, verify=True)
        embedded_homology(h2, config.coeff, verify=True)
        embedded_homology(product_boxtimes(h, h2), config.coeff, verify=True)
        restricted_chainmap_check(h, h2, verify=True)
    mismatch = "kunneth mismatch; the report above documents the counterexample"
    return report.to_dict, report.to_text, None if report.ok else mismatch


def cmd_ez_aw_demo(config: RunConfig) -> Report:
    """Both chain maps on the square: every basis tensor through the
    shuffle map, every product simplex through the front/back-face map."""
    seg = hypergraph_from_edges([["0", "1"]])
    ctx = TensorContext.from_hypergraphs(seg, seg)
    square = product_boxtimes(seg, seg).closure

    def tensor(t: TensorChain) -> str:
        return render_tensor_chain(t, ctx.left, ctx.right)

    shuffle = []
    for block in ctx.simplices:
        for s, u in block:
            t = TensorChain.of_pair(s, u)
            shuffle.append((tensor(t), render_chain(ez_map(t, ctx), square)))
    front_back = []
    for sx in square.edges:
        c = ChainElement.of_simplex(sx)
        front_back.append((render_chain(c, square), tensor(aw_map(c, ctx))))
    # (document key, name of a row's source, text heading, rendered rows)
    tables = [
        ("shuffle", "tensor", "shuffle map on the square (segment x segment)", shuffle),
        ("front_back", "simplex", "front/back-face map on the square", front_back),
    ]

    def doc() -> dict:
        return {"command": "ez-aw-demo"} | {
            key: [{source: a, "image": b} for a, b in rows]
            for key, source, _, rows in tables
        }

    def text() -> str:
        return "".join(
            heading + "\n" + "".join(f"  {a} -> {b}\n" for a, b in rows)
            for _, _, heading, rows in tables
        )

    return doc, text, None


def cmd_fuzz(config: RunConfig) -> Report:
    # bounds left out of argv take their defaults from FuzzConfig
    bounds = {"max_vertices": config.max_vertices, "max_dim": config.max_dim}
    try:
        fuzz_config = FuzzConfig(
            config.count, config.seed, **{k: v for k, v in bounds.items() if v is not None}
        )
    except ValueError as exc:
        # FuzzConfig checks the bounds; out of range they are invalid input
        raise ValidationError(str(exc)) from None
    report = run_fuzz(fuzz_config)
    failure = None if report.ok else f"{len(report.failures)} fuzz instance(s) failed"
    return report.to_dict, report.to_text, failure


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


_COMMANDS = {
    "homology": cmd_homology,
    "product": cmd_product,
    "closure": cmd_closure,
    "kunneth": cmd_kunneth,
    "ez-aw-demo": cmd_ez_aw_demo,
    "fuzz": cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _config_from_args(args)
        doc, text, failure = _COMMANDS[config.command](config)
        rendered = _json_doc(doc()) if config.out_format == "structured" else text()
        _write_output(rendered, config.out_path)
        if failure is not None:
            # raised only now, so the report of a failed check is written first
            raise VerificationError(failure)
        return 0
    except HyperhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
