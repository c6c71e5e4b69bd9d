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
from dataclasses import dataclass
from pathlib import Path

from .errors import HyperhomError, ValidationError, VerificationError
from .homology import (
    Coefficient,
    ChainElement,
    embedded_homology,
    parse_coefficient,
    render_chain,
)
from .hypergraph import (
    Hypergraph,
    dumps_structured,
    hypergraph_from_edges,
    parse_hypergraph,
    product_boxtimes,
    to_text,
)
from .fuzz import FuzzConfig, run_fuzz
from .kunneth import (
    ProductContext,
    TensorChain,
    TensorContext,
    aw_map,
    ez_map,
    inf_tensor_basis,
    kunneth_check,
    render_tensor_chain,
    restricted_chainmap_check,
)


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation."""

    command: str
    inputs: tuple[str, ...]
    coeff: Coefficient
    verify: bool
    seed: int
    out_format: str
    max_dim: int | None
    out_path: str | None
    closure: bool = False
    count: int = 100
    max_vertices: int = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperhom",
        description="Embedded homology of hypergraphs, lattice-path products, "
        "and Kunneth verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, n_inputs: int) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        if n_inputs:
            sp.add_argument("inputs", nargs=n_inputs, metavar="FILE")
        sp.add_argument(
            "--coeff",
            default="z",
            help="coefficients: z (integers), q (rationals), zp:<p> (prime field)",
        )
        sp.add_argument(
            "--verify",
            action="store_true",
            help="also run the redundant pipelines (infimum vs supremum, "
            "direct vs tensored infimum, chain-map identities)",
        )
        sp.add_argument("--seed", type=int, default=0, help="random seed")
        sp.add_argument(
            "--format",
            dest="out_format",
            choices=("text", "structured"),
            default="text",
            help="report format",
        )
        sp.add_argument(
            "--max-dim",
            type=int,
            default=None,
            help="highest homology degree to report (fuzz: factor dimension bound)",
        )
        sp.add_argument("--out", default=None, help="write output to this path")
        return sp

    add("homology", "embedded homology of one hypergraph", 1)
    product = add("product", "lattice-path product of two hypergraphs", 2)
    product.add_argument(
        "--closure",
        action="store_true",
        help="emit the associated simplicial complex of the product",
    )
    add("closure", "downward closure of one hypergraph", 1)
    add("kunneth", "verify the Kunneth formula for a pair", 2)
    add("ez-aw-demo", "print the shuffle and front/back-face tables for a square", 0)
    fuzz = add("fuzz", "randomized verification campaign", 0)
    fuzz.add_argument("--count", type=int, default=100, help="number of instance pairs")
    fuzz.add_argument(
        "--max-vertices", type=int, default=6, help="vertex bound per factor"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        inputs=tuple(getattr(args, "inputs", ()) or ()),
        coeff=parse_coefficient(args.coeff),
        verify=args.verify,
        seed=args.seed,
        out_format=args.out_format,
        max_dim=args.max_dim,
        out_path=args.out,
        closure=getattr(args, "closure", False),
        count=getattr(args, "count", 100),
        max_vertices=getattr(args, "max_vertices", 6),
    )


def _read_hypergraph(path: str) -> Hypergraph:
    return parse_hypergraph(Path(path).read_text())


def _truncated(values, max_dim: int | None):
    if max_dim is None:
        return list(values)
    return list(values)[: max_dim + 1]


def cmd_homology(config: RunConfig) -> str:
    h = _read_hypergraph(config.inputs[0])
    values = _truncated(
        embedded_homology(h, config.coeff, verify=config.verify), config.max_dim
    )
    if config.out_format == "structured":
        table = [
            {"degree": n, "value": v if config.coeff.is_field else str(v)}
            for n, v in enumerate(values)
        ]
        return _json_doc(
            {
                "command": "homology",
                "coefficients": str(config.coeff),
                "verified": config.verify,
                "homology": table,
            }
        )
    lines = [f"embedded homology over {config.coeff}"]
    lines += [f"H_{n} = {v}" for n, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def _emit_hypergraph(g: Hypergraph, config: RunConfig) -> str:
    if config.out_format == "structured":
        return dumps_structured(g)
    return to_text(g)


def cmd_product(config: RunConfig) -> str:
    h = _read_hypergraph(config.inputs[0])
    h2 = _read_hypergraph(config.inputs[1])
    box = product_boxtimes(h, h2)
    return _emit_hypergraph(box.closure if config.closure else box, config)


def cmd_closure(config: RunConfig) -> str:
    return _emit_hypergraph(_read_hypergraph(config.inputs[0]).closure, config)


def cmd_kunneth(config: RunConfig) -> str:
    h = _read_hypergraph(config.inputs[0])
    h2 = _read_hypergraph(config.inputs[1])
    report = kunneth_check(h, h2, config.coeff)
    if config.verify:
        embedded_homology(h, config.coeff, verify=True)
        embedded_homology(h2, config.coeff, verify=True)
        embedded_homology(product_boxtimes(h, h2), config.coeff, verify=True)
        inf_tensor_basis(h, h2, verify=True)
        restricted_chainmap_check(h, h2)
    rendered = (
        _json_doc(report.to_dict())
        if config.out_format == "structured"
        else report.to_text()
    )
    if not report.ok:
        _write_output(rendered, config.out_path)
        raise VerificationError(
            "kunneth mismatch; the report above documents the counterexample"
        )
    return rendered


def cmd_ez_aw_demo(config: RunConfig) -> str:
    """Both chain maps on the square: every basis tensor through the
    shuffle map, every product simplex through the front/back-face map."""
    seg = hypergraph_from_edges([["0", "1"]])
    ctx = ProductContext.from_hypergraphs(seg, seg)
    tctx = TensorContext(ctx.left, ctx.right)
    mu_rows = []
    for n in range(ctx.left.dim + ctx.right.dim + 1):
        for s, u in tctx.bases[n]:
            t = TensorChain.of_pair(s, u)
            mu_rows.append((t, ez_map(t, ctx)))
    nu_rows = []
    for n in range(ctx.product.dim + 1):
        for sx in ctx.product.simplices_of_dim(n):
            c = ChainElement.of_simplex(sx)
            nu_rows.append((c, aw_map(c, ctx)))
    if config.out_format == "structured":
        return _json_doc(
            {
                "command": "ez-aw-demo",
                "shuffle": [
                    {
                        "tensor": render_tensor_chain(t, ctx.left, ctx.right),
                        "image": render_chain(img, ctx.product),
                    }
                    for t, img in mu_rows
                ],
                "front_back": [
                    {
                        "simplex": render_chain(c, ctx.product),
                        "image": render_tensor_chain(img, ctx.left, ctx.right),
                    }
                    for c, img in nu_rows
                ],
            }
        )
    lines = ["shuffle map on the square (segment x segment)"]
    for t, img in mu_rows:
        lines.append(
            f"  {render_tensor_chain(t, ctx.left, ctx.right)} -> "
            f"{render_chain(img, ctx.product)}"
        )
    lines.append("front/back-face map on the square")
    for c, img in nu_rows:
        lines.append(
            f"  {render_chain(c, ctx.product)} -> "
            f"{render_tensor_chain(img, ctx.left, ctx.right)}"
        )
    return "\n".join(lines) + "\n"


def cmd_fuzz(config: RunConfig) -> str:
    fuzz_config = FuzzConfig(
        count=config.count,
        seed=config.seed,
        max_vertices=config.max_vertices,
        max_dim=3 if config.max_dim is None else config.max_dim,
    )
    report = run_fuzz(fuzz_config)
    rendered = (
        _json_doc(report.to_dict())
        if config.out_format == "structured"
        else report.to_text()
    )
    if not report.ok:
        _write_output(rendered, config.out_path)
        raise VerificationError(f"{len(report.failures)} fuzz instance(s) failed")
    return rendered


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _config_from_args(args)
        if config.count < 0:
            raise ValidationError("--count must be non-negative")
        if config.max_dim is not None and config.max_dim < 0:
            raise ValidationError("--max-dim must be non-negative")
        if config.max_vertices < 1:
            raise ValidationError("--max-vertices must be at least 1")
        text = _COMMANDS[config.command](config)
        _write_output(text, config.out_path)
        return 0
    except HyperhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
