"""Command-line interface: build code bundles, run verification suites,
and tabulate spectral gaps.

Exit codes: 0 success, 1 verification failure, 2 invalid recipe or
arguments, 3 size cap exceeded, 4 construction error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import BpcodesError, CapExceeded, RecipeInvalid

ENVELOPE_NOTE = (
    "Supported envelope: odd primes with q <= 61 (group order <= ~230k vertices), "
    "local codes with block length = graph degree, odd cyclic order. The reference "
    "constants (p=401, delta=0.1, alpha_ho=1e-3, alpha_co=1e-5) describe the "
    "asymptotic family and are rejected at desk scale."
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bpcodes",
        description="Balanced-product quantum LDPC code construction and verification.",
        epilog=ENVELOPE_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a code bundle and write it to disk")
    b.add_argument("--graph", default="lps", help="lps (default) or cycle:N")
    b.add_argument("--p", type=int, help="LPS degree prime (degree = p+1)")
    b.add_argument("--q", type=int, help="LPS field prime (vertices = q(q^2-1))")
    b.add_argument("--ell", type=int, help="cyclic subgroup order (default q)")
    b.add_argument(
        "--local",
        default=None,
        help="local code spec: hamming7 | rep:N | full:N | bch:S,T | "
        "goppa:M,T,SEED | gv:S,DELTA,SEED, or a name from --registry "
        "(default gv:<degree>,0.1,0)",
    )
    b.add_argument("--registry", default=None, help="JSON file of named local-code recipes")
    b.add_argument("--out", required=True, help="output directory")

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, help="suite name or 'all'")

    s = sub.add_parser("spectrum", help="emit CSV of second eigenvalues")
    s.add_argument(
        "--graph",
        action="append",
        required=True,
        help="graph spec: lps:P,Q | cycle:N | complete:N | klein (repeatable)",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
    except RecipeInvalid as e:
        print(f"error: invalid recipe: {e}", file=sys.stderr)
        return 2
    except CapExceeded as e:
        print(f"error: size cap: {e}", file=sys.stderr)
        return 3
    except BpcodesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    return 0


def _cmd_build(args) -> int:
    from .pipeline import Recipe, build_bundle, load_registry, resolve_local_spec

    registry = load_registry(args.registry) if args.registry else None
    local = resolve_local_spec(args.local, registry) if args.local else None
    if local is None:
        if args.graph == "lps":
            if args.p is None:
                raise RecipeInvalid("lps builds need --p")
            local = f"gv:{args.p + 1},0.1,0"
        else:
            raise RecipeInvalid("cycle builds need --local")
    recipe = Recipe(
        graph=args.graph,
        p=args.p,
        q=args.q,
        ell=args.ell,
        local=local,
    )
    result = build_bundle(recipe, args.out)
    print(json.dumps(result.params, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES, run_suite

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.append(run_suite(name).as_dict())
    print(json.dumps(reports, indent=2))
    return 0 if all(r["ok"] for r in reports) else 1


def _cmd_spectrum(args) -> int:
    from .graphs import (
        complete_graph,
        cycle_labeled_graph,
        klein_quartic_graph,
        lps_graph,
        second_eigenvalue,
    )

    print("graph,n,s,lambda2,ramanujan_bound")
    for spec in args.graph:
        if spec.startswith("lps:"):
            g, _, _ = lps_graph(*_spec_ints(spec, 2))
        elif spec.startswith("cycle:"):
            g = cycle_labeled_graph(*_spec_ints(spec, 1))
        elif spec.startswith("complete:"):
            g = complete_graph(*_spec_ints(spec, 1))
        elif spec == "klein":
            g, _, _, _ = klein_quartic_graph()
        else:
            raise RecipeInvalid(f"unknown graph spec {spec!r}")
        lam2 = second_eigenvalue(g)
        print(f"{spec},{g.n},{g.s},{lam2:.6f},{2 * math.sqrt(g.s - 1):.6f}")
    return 0


def _spec_ints(spec: str, count: int) -> list[int]:
    """The ``count`` comma-separated integers after the colon of a graph
    spec; RecipeInvalid when there are not exactly that many."""
    try:
        values = [int(x) for x in spec.split(":", 1)[1].split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise RecipeInvalid(f"malformed graph spec {spec!r}")
    return values


if __name__ == "__main__":
    sys.exit(main())
