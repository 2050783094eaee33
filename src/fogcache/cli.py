"""Command-line entry points.

Exit codes: 0 success, 1 configuration/input error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from . import experiment as exp
from .centrality import PowerIterationError, ReplicationPolicy, export_scores_csv
from .graph import PathCache, connected_components, load_topology, serialize_topology
from .placement import export_assignment_csv
from .synthetic import KINDS, generate_synthetic_topology

# the plan knobs one cell reads besides its alpha; `simulate` adds interests
_CELL_KNOBS = ("buffer_items", "catalog_size", "zipf_exponent", "consumer_frac",
               "provider_frac", "master_seed")


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

    def knob_flags(p, keys):  # text flags: the plan parses them and fills defaults
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"))

    for name, flag, choices, help_text in (
            ("centrality", "--kind", exp.RANKED, "compute and export node scores"),
            ("place", "--scheme", exp.SCHEMES, "export a cache assignment"),
            ("simulate", "--scheme", exp.SCHEMES, "run one simulation cell")):
        cell = sub.add_parser(name, help=help_text)
        cell.add_argument(flag, dest="scheme", choices=choices, default="cbc")
        cell.add_argument("--topology", required=True)
        cell.add_argument("--alpha", type=float, default=0.5)
        knob_flags(cell, _CELL_KNOBS + (("interests",) if name == "simulate" else ()))
        cell.add_argument("--repetition", type=int, default=0)
        cell.add_argument("-o", "--output", default="-")

    for name in ("experiment", "sweep-alpha"):
        e = sub.add_parser(name, help="run a full plan and emit reports")
        e.add_argument("--config")
        e.add_argument("--topology", action="append", default=[],
                       help="topology file (repeatable; default: built-in synthetic)")
        knob_flags(e, (*exp.KNOBS, "output_dir"))
        e.add_argument("--gnuplot", action="store_true")
        if name == "sweep-alpha":
            e.add_argument("--scheme", choices=exp.SCHEMES, default="cbc")
    return parser


def _write(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _overrides(args) -> dict:
    """The config keys given as flags, as text."""
    return {key: getattr(args, key) for key in exp.CONFIG_KEYS
            if getattr(args, key, None) is not None}


def _run(args) -> int:
    if args.command == "topology":
        if args.action == "generate":
            topo = generate_synthetic_topology(args.kind, args.nodes,
                                               args.density, args.seed)
            _write(serialize_topology(topo), args.output)
        else:
            if not args.file:  # an empty path would name the working directory
                raise ValueError("topology validate: empty path")
            topo = load_topology(Path(args.file).read_text())
            components = connected_components(topo)
            print(f"nodes={topo.node_count} edges={topo.edge_count} "
                  f"origin={topo.original_ids[topo.origin]} "
                  f"components={len(components)}")
        return 0

    if args.command in ("centrality", "place", "simulate"):
        # only `simulate` reads the cell's interests, so only it draws them
        drawn = {} if args.command == "simulate" else {"interests": "0"}
        plan, _ = exp.plan_from_config({**_overrides(args), **drawn,
                                        "topologies": [args.topology],
                                        "schemes": args.scheme,
                                        "alphas": str(args.alpha)})
        label, topology = plan.topologies[0]
        roles, workload = exp.cell_inputs(plan, 0, args.repetition)
        policy = ReplicationPolicy(plan.alphas[0], plan.buffer_items,
                                   plan.catalog_size)
        cache = PathCache(topology)
        scores = (exp.centrality_for(args.scheme, topology, cache, roles, policy)
                  if args.scheme in exp.RANKED else None)
        buffer = io.StringIO()
        if args.command == "centrality":
            export_scores_csv(scores, topology, buffer)
        else:
            assignment = exp.assignment_for(args.scheme, scores, roles.providers,
                                            policy)
            if args.command == "place":
                export_assignment_csv(assignment, topology, buffer)
            else:
                row = {"topology": label, "scheme": args.scheme,
                       "alpha": plan.alphas[0], "repetition": args.repetition,
                       "seed": workload.seed,
                       **exp.simulate(topology, assignment, roles, workload, cache)}
                buffer.write(exp.table_to_csv(exp.ResultTable(rows=[row],
                                                              aggregates=[])))
        _write(buffer.getvalue(), args.output)
        return 0

    # experiment / sweep-alpha
    if args.config == "":
        raise ValueError("--config: empty path")
    config = exp.parse_config(Path(args.config).read_text()) if args.config else {}
    config.update(_overrides(args))
    # a config file's topologies are relative to it, flag paths to the
    # working directory
    base = Path(args.config).parent if args.config else Path(".")
    if args.topology:
        config["topologies"], base = args.topology, Path(".")
    if args.command == "sweep-alpha":
        config["schemes"] = args.scheme
        config.setdefault("alphas", "0.1,0.25,0.5,0.75,0.9")
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
    except (OSError, OverflowError, PowerIterationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
