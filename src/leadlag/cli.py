"""Command line interface: ``leadlag run`` and ``leadlag synth``."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .corpus import write_corpus
from .errors import LeadLagError
from .geo import weighted_population
from .ingest import (
    apply_groupings,
    read_admissions,
    read_groupings,
    read_indicator_dir,
    read_mapping,
    read_population,
)
from .pipeline import METHODS, check_methods, run_analysis
from .reports import emit_reports, write_dtw_paths, write_trust_population

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadlag",
        description="Lead-lag analytics between surveillance indicators and "
                    "hospital admissions (Granger, cross-correlation, DTW).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the analysis over CSV inputs")
    run.add_argument("--config", required=True, help="YAML run configuration")
    run.add_argument("--admissions", required=True, help="trust_id,date,admissions CSV")
    run.add_argument("--indicators", required=True,
                     help="directory of geo_id,date,variable,value CSVs")
    run.add_argument("--mapping", required=True, help="ltla_id,trust_id,admissions CSV")
    run.add_argument("--population", required=True, help="ltla_id,population CSV")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--methods", default=",".join(METHODS),
                     help="comma-separated subset of granger,ccf,dtw")
    run.add_argument("--groupings", default=None,
                     help="optional group,member_variable CSV summing variables")
    run.add_argument("--export-dtw-paths", action="store_true",
                     help="also write dtw_paths.csv (indicator, wave, scope, query_date, "
                          "ref_date, lead_days)")

    synth = sub.add_parser("synth", help="write a synthetic corpus with known leads")
    synth.add_argument("--out", required=True)
    synth.add_argument("--trusts", type=int, default=121)
    synth.add_argument("--days", type=int, default=333)
    synth.add_argument("--indicators", type=int, default=20)
    synth.add_argument("--waves", type=int, default=3)
    synth.add_argument("--seed", type=int, default=0)
    return parser


def _run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    check_methods(methods)

    admissions = read_admissions(args.admissions)
    logger.info("admissions: %d trusts, %s to %s",
                len(admissions.geo_ids),
                admissions.start_date, admissions.end_date)

    indicators = read_indicator_dir(args.indicators)
    if args.groupings:
        indicators = apply_groupings(indicators, read_groupings(args.groupings))
    logger.info("indicators: %s", ", ".join(sorted(indicators)))

    mapping = read_mapping(args.mapping)
    overrides = {variable: read_mapping(path)
                 for variable, path in config.indicator_mappings.items()}

    populations = read_population(args.population)
    trust_pop = weighted_population(mapping, populations)

    dtw_paths: list[tuple] | None = [] if args.export_dtw_paths else None
    tables = run_analysis(config, admissions, indicators, mapping, overrides,
                          methods=methods, dtw_paths=dtw_paths)
    written = emit_reports(tables, args.out, fmt=args.format)
    if dtw_paths is not None:
        written.append(Path(args.out) / "dtw_paths.csv")
        write_dtw_paths(written[-1], dtw_paths)

    written.append(Path(args.out) / "trust_population.csv")
    write_trust_population(written[-1], trust_pop)

    logger.info("wrote %d rows across %s", sum(len(t.trust_ids) for t in tables),
                ", ".join(p.name for p in written))
    return 0


def _synth(args: argparse.Namespace) -> int:
    paths = write_corpus(args.out, n_trusts=args.trusts, n_days=args.days,
                         n_indicators=args.indicators, n_waves=args.waves,
                         seed=args.seed)
    logger.info("wrote synthetic corpus: %s", ", ".join(sorted(
        str(p) for p in paths.values())))
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _synth(args)
    except (LeadLagError, OSError) as exc:  # an error's class names its exit category
        category, code = ((exc.category, exc.exit_code) if isinstance(exc, LeadLagError)
                          else ("io", 6))
        print(f"error [{category}]: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
