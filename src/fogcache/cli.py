"""Command-line entry points.

Exit codes: 0 success, 1 configuration/input error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from . import experiment as exp
from .catalog import generate_interests
from .centrality import ReplicationPolicy, export_scores_csv
from .graph import PathCache, connected_components, load_topology, serialize_topology
from .placement import export_assignment_csv
from .simulator import assign_roles
from .synthetic import KINDS, generate_synthetic_topology


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are config errors
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fogcache",
                     description="Content-centrality fog caching toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="generate or validate topology files")
    topo_sub = topo.add_subparsers(dest="action", required=True)
    gen = topo_sub.add_parser("generate")
    gen.add_argument("--kind", choices=KINDS, default="geometric")
    gen.add_argument("--nodes", type=int, default=330)
    gen.add_argument("--density", type=float, default=0.078)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("-o", "--output", default="-")
    val = topo_sub.add_parser("validate")
    val.add_argument("file")

    def common_sim_args(p, with_scheme=True):
        p.add_argument("--topology", required=True)
        if with_scheme:
            p.add_argument("--scheme", choices=exp.SCHEMES, default="cbc")
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--buffer-items", type=int, default=2)
        p.add_argument("--catalog-size", type=int, default=100)
        p.add_argument("--zipf-exponent", type=float, default=1.0)
        p.add_argument("--consumer-frac", type=float, default=0.3)
        p.add_argument("--provider-frac", type=float, default=0.3)
        p.add_argument("--master-seed", type=int, default=7)
        p.add_argument("--repetition", type=int, default=0)
        p.add_argument("-o", "--output", default="-")

    cent = sub.add_parser("centrality", help="compute and export node scores")
    cent.add_argument("--kind", choices=exp.RANKED, default="cbc")
    common_sim_args(cent, with_scheme=False)

    place = sub.add_parser("place", help="export a cache assignment")
    common_sim_args(place)

    sim = sub.add_parser("simulate", help="run one simulation cell")
    common_sim_args(sim)
    sim.add_argument("--interests", type=int, default=2_000)

    for name in ("experiment", "sweep-alpha"):
        e = sub.add_parser(name, help="run a full plan and emit reports")
        e.add_argument("--config")
        e.add_argument("--topology", action="append", default=[],
                       help="topology file (repeatable; default: built-in synthetic)")
        e.add_argument("--schemes")
        e.add_argument("--alphas")
        e.add_argument("--repetitions", type=int)
        e.add_argument("--interests", type=int)
        e.add_argument("--buffer-items", type=int)
        e.add_argument("--catalog-size", type=int)
        e.add_argument("--zipf-exponent", type=float)
        e.add_argument("--consumer-frac", type=float)
        e.add_argument("--provider-frac", type=float)
        e.add_argument("--master-seed", type=int)
        e.add_argument("--workers", type=int)
        e.add_argument("--output-dir")
        e.add_argument("--gnuplot", action="store_true")
        if name == "sweep-alpha":
            e.add_argument("--scheme", choices=exp.SCHEMES, default="cbc")
    return parser


def _write(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _load(path: str):
    return load_topology(Path(path).read_text())


def _cell(args, topology):
    """Roles, catalog and replication policy of one (topology, repetition)
    cell, seeded as the experiment seeds its first topology."""
    roles = assign_roles(topology, args.consumer_frac, args.provider_frac,
                         exp.derive_seed(args.master_seed, 0, args.repetition,
                                         "roles"))
    catalog = exp.zipf_catalog(args.catalog_size, args.zipf_exponent)
    policy = ReplicationPolicy(alpha=args.alpha, buffer_items=args.buffer_items,
                               catalog_size=args.catalog_size)
    return roles, catalog, policy


def _experiment_overrides(args) -> dict:
    overrides = {}
    for key in exp.CONFIG_KEYS:  # no args.topologies: --topology is joined below
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if args.topology:
        overrides["topologies"] = ",".join(args.topology)
    return overrides


def _run(args) -> int:
    if args.command == "topology":
        if args.action == "generate":
            topo = generate_synthetic_topology(args.kind, args.nodes,
                                               args.density, args.seed)
            _write(serialize_topology(topo), args.output)
        else:
            topo = _load(args.file)
            components = connected_components(topo)
            print(f"nodes={topo.node_count} edges={topo.edge_count} "
                  f"origin={topo.original_ids[topo.origin]} "
                  f"components={len(components)}")
        return 0

    if args.command in ("centrality", "place", "simulate"):
        topology = _load(args.topology)
        cache = PathCache(topology)
        roles, catalog, policy = _cell(args, topology)
        kind = args.kind if args.command == "centrality" else args.scheme
        scores = (exp.centrality_for(kind, topology, cache, roles, policy)
                  if kind in exp.RANKED else None)
        buffer = io.StringIO()
        if args.command == "centrality":
            export_scores_csv(scores, topology, buffer)
        else:
            assignment = exp.assignment_for(args.scheme, topology, scores, catalog,
                                            sorted(roles.providers), policy)
            if args.command == "place":
                export_assignment_csv(assignment, topology, buffer)
            else:
                workload = generate_interests(
                    catalog, roles.consumers, args.interests,
                    exp.derive_seed(args.master_seed, 0, args.repetition,
                                    "workload"))
                row = {"topology": Path(args.topology).stem,
                       "scheme": args.scheme, "alpha": args.alpha,
                       "repetition": args.repetition, "seed": workload.seed,
                       **exp.simulate(topology, assignment, roles, workload, cache)}
                buffer.write(exp.table_to_csv(exp.ResultTable(rows=[row],
                                                              aggregates=[])))
        _write(buffer.getvalue(), args.output)
        return 0

    # experiment / sweep-alpha
    config = exp.parse_config(Path(args.config).read_text()) if args.config else {}
    config.update(_experiment_overrides(args))
    if args.command == "sweep-alpha":
        config["schemes"] = args.scheme
        config.setdefault("alphas", "0.1,0.25,0.5,0.75,0.9")
    base = Path(args.config).parent if args.config else Path(".")
    plan, output_dir = exp.plan_from_config(config, base_dir=base)
    table = exp.run_experiment(plan)
    written = exp.emit_report(table, output_dir, gnuplot=args.gnuplot)
    for path in written:
        print(path)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
