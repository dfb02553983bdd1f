"""Command-line front end.

Subcommands::

    gen        generate slim graphs up to isomorphism (graph6/text/dot)
    recognize  decide line-graph membership for graph6 input lines
    covers     enumerate strict covers up to equivalence
    sums       enumerate compositions F (+) K for a fat graph F
    spectral   certified smallest-eigenvalue intervals and threshold side
    catalog    build the minimal-forbidden-subgraph catalog directory
    screen     decide membership by forbidden-subgraph containment
    verify     run one of the published-claim checkers

Outputs are newline-delimited JSON records unless ``--pretty`` selects
indented documents.  Exit codes: 0 success, 1 refuted verification,
2 usage error.  The catalog directory may also be set through the
``HOFFLINE_CATALOG`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import HoffmanGraph, HoffmanGraphError, canonical_form
from .enumeration import (
    all_slim_graphs,
    connected_slim_graphs,
    enumerate_sums,
    read_graph6_lines,
    write_graph6,
)
from .recognition import enumerate_strict_covers, is_h_line
from .spectral import compare_threshold, equals_threshold, smallest_eigenvalue
from .verify import CATALOG_CLAIMS, CLAIMS, N_MAX, MfsCatalog, build_catalog, screen, verify_claim


def _emit(doc, pretty):
    print(json.dumps(doc, indent=2 if pretty else None, sort_keys=True))


def _make_out_dir(path):
    """Create the directory a built catalog is saved to, before the
    build, so that a path that cannot be written fails at once."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise HoffmanGraphError(f"cannot write catalog {path}: {exc!r}") from None


def _stdin_graphs():
    """Graphs from standard input, read as bytes where it has them: a
    byte outside ASCII is then a malformed line, not a decoding error."""
    return read_graph6_lines(getattr(sys.stdin, "buffer", sys.stdin))


def _load_or_build_catalog(args):
    """An existing catalog directory is used as-is (operations raise when
    it is too shallow for an input); otherwise the catalog to n = 8 is
    built and, when a path was named, persisted there.  Only
    ``catalog build --nmax`` chooses another depth."""
    path = args.catalog or os.environ.get("HOFFLINE_CATALOG")
    if path and os.path.exists(os.path.join(path, "catalog.json")):
        return MfsCatalog.load(path)
    if path:
        _make_out_dir(path)
    cat = build_catalog(8, progress=lambda m: print(m, file=sys.stderr))
    if path:
        cat.save(path)
        print(f"catalog saved to {path}", file=sys.stderr)
    return cat


def _cmd_gen(args):
    stream = connected_slim_graphs(args.n) if not args.all else all_slim_graphs(args.n)
    for g in stream:
        if args.format == "graph6":
            print(write_graph6(g))
        elif args.format == "text":
            sys.stdout.write(g.to_text() + "\n")
        else:
            sys.stdout.write(g.to_dot())
    return 0


def _cmd_recognize(args):
    for g in _stdin_graphs():
        cover = is_h_line(g)
        doc = {
            "canonical_form": canonical_form(g).hex(),
            "is_line": cover is not None,
            "cover": cover.to_json_dict() if cover else None,
        }
        _emit(doc, args.pretty)
    return 0


def _cmd_covers(args):
    for g in _stdin_graphs():
        covers = enumerate_strict_covers(g)
        doc = {
            "canonical_form": canonical_form(g).hex(),
            "count": len(covers),
            "covers": [c.to_json_dict() for c in covers],
        }
        _emit(doc, args.pretty)
    return 0


def _cmd_sums(args):
    try:
        with open(args.F) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise HoffmanGraphError(f"cannot read --F {args.F}: {exc}") from exc
    f_graph = HoffmanGraph.from_text(text)
    classes = tuple(args.classes.split(","))
    for g in enumerate_sums(
        f_graph,
        args.slim_k,
        classes=classes,
        component_count_k=args.ck,
    ):
        doc = {
            "slim_count": g.slim_count,
            "fat_count": g.fat_count,
            "edges": sorted(g.edges()),
            "canonical_form": canonical_form(g).hex(),
        }
        _emit(doc, args.pretty)
    return 0


def _cmd_spectral(args):
    for g in _stdin_graphs():
        interval = smallest_eigenvalue(g)
        doc = {
            "lambda_min_lo": float(interval.lower),
            "lambda_min_hi": float(interval.upper),
            "vs_threshold": compare_threshold(interval).value,
            "equals_threshold": equals_threshold(interval),
        }
        _emit(doc, args.pretty)
    return 0


def _cmd_catalog(args):
    if not 5 <= args.nmax <= N_MAX:  # before the directory is made
        raise HoffmanGraphError(f"catalog sizes run from 5 to {N_MAX}")
    _make_out_dir(args.out)
    cat = build_catalog(args.nmax, progress=lambda m: print(m, file=sys.stderr))
    cat.save(args.out)
    _emit(
        {"counts": cat.counts(), "total": cat.total(), "checksum": cat.checksum()},
        args.pretty,
    )
    return 0


def _cmd_screen(args):
    cat = _load_or_build_catalog(args)
    for g in _stdin_graphs():
        doc = {
            "canonical_form": canonical_form(g).hex(),
            "is_line": screen(g, cat),
        }
        _emit(doc, args.pretty)
    return 0


def _cmd_verify(args):
    if args.catalog is not None and args.claim not in CATALOG_CLAIMS:
        raise HoffmanGraphError(f"only {'/'.join(CATALOG_CLAIMS)} read a catalog, not {args.claim}")
    catalog = _load_or_build_catalog(args) if args.claim in CATALOG_CLAIMS else None
    report = verify_claim(args.claim, catalog=catalog, n=args.n)
    print(report.to_json(pretty=args.pretty))
    return 0 if report.ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="hoffline",
        description="Hoffman graphs, {H2,H3,H5}-line-graph recognition, and "
        "the minimal forbidden subgraph catalog.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indented JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    # gen prints graph6, text or dot, never JSON, so it takes no --pretty
    g = sub.add_parser("gen", help="generate slim graphs up to isomorphism")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--all", action="store_true",
                   help="include disconnected graphs (default: connected only)")
    g.add_argument("--format", choices=("graph6", "text", "dot"), default="graph6")
    g.set_defaults(func=_cmd_gen)

    r = add("recognize", help="line-graph recognition, graph6 on stdin")
    r.set_defaults(func=_cmd_recognize)

    c = add("covers", help="strict covers up to equivalence, graph6 on stdin")
    c.set_defaults(func=_cmd_covers)

    s = add("sums", help="compositions F (+) K for a fat graph F")
    s.add_argument("--F", required=True, help="fat graph file (text format)")
    s.add_argument("--slim-k", type=int, required=True, dest="slim_k")
    s.add_argument("--ck", type=int, default=None, help="component count of K")
    s.add_argument("--classes", default="H1,H2,H3,H5")
    s.set_defaults(func=_cmd_sums)

    e = add("spectral", help="smallest-eigenvalue certification, graph6 on stdin")
    e.set_defaults(func=_cmd_spectral)

    k = add("catalog", help="build the forbidden-subgraph catalog")
    k.add_argument("action", choices=("build",))
    k.add_argument("--nmax", type=int, default=8)
    k.add_argument("--out", required=True)
    k.set_defaults(func=_cmd_catalog)

    sc = add("screen", help="membership by forbidden-subgraph containment")
    sc.add_argument("--catalog", default=None)
    sc.set_defaults(func=_cmd_screen)

    v = add("verify", help="run a published-claim checker")
    v.add_argument("--claim", choices=CLAIMS, required=True)
    v.add_argument("--n", type=int, default=None, help="size for the uniqueness audit")
    v.add_argument("--catalog", default=None)
    v.set_defaults(func=_cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HoffmanGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
