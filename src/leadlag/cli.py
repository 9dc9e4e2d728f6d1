"""Command line interface: ``leadlag run`` and ``leadlag synth``."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .corpus import write_corpus
from .errors import ConfigError, LeadLagError, MappingError, SchemaError
from .geo import weighted_population
from .ingest import (
    apply_groupings,
    read_admissions,
    read_groupings,
    read_indicator_dir,
    read_mapping,
    read_population,
)
from .pipeline import DEFAULT_MAPPING, METHODS, run_analysis
from .reports import emit_reports

logger = logging.getLogger(__name__)

_ERROR_CATEGORIES = (
    (SchemaError, "input-schema", 2),
    (ConfigError, "config", 3),
    (MappingError, "mapping", 4),
    (LeadLagError, "analysis", 5),
    (OSError, "io", 6),
)


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
    run.add_argument("--indicator-level", choices=("ltla", "trust"), default="ltla",
                     help="geography level of the indicator CSVs")
    run.add_argument("--groupings", default=None,
                     help="optional group,member_variable CSV summing variables")
    run.add_argument("--export-dtw-paths", action="store_true",
                     help="also write dtw_paths.csv (query_date, ref_date, lead_days)")

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
    admissions = read_admissions(args.admissions)
    logger.info("admissions: %d trusts, %s to %s",
                len(admissions.geo_ids),
                admissions.start_date, admissions.end_date)

    indicators = read_indicator_dir(args.indicators, level=args.indicator_level)
    if args.groupings:
        indicators = apply_groupings(indicators, read_groupings(args.groupings))
    logger.info("indicators: %s", ", ".join(sorted(indicators)))

    mappings = {DEFAULT_MAPPING: read_mapping(args.mapping)}
    for variable, path in config.indicator_mappings.items():
        mappings[variable] = read_mapping(path)

    populations = read_population(args.population)
    trust_pop = weighted_population(mappings[DEFAULT_MAPPING], populations)

    dtw_paths: list[tuple] | None = [] if args.export_dtw_paths else None
    rows = run_analysis(config, admissions, indicators, mappings, methods=methods,
                        dtw_paths=dtw_paths)
    written = emit_reports(rows, args.out, fmt=args.format)
    if dtw_paths is not None:
        path_file = Path(args.out) / "dtw_paths.csv"
        lines = ["indicator,wave,scope,query_date,ref_date,lead_days"]
        for ind, wave, scope, q_date, r_date in sorted(dtw_paths):
            lines.append(f"{ind},{wave},{scope},{q_date},{r_date},{(r_date - q_date).days}")
        path_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path_file)

    pop_path = Path(args.out) / "trust_population.csv"
    pop_lines = ["trust_id,population"]
    pop_lines.extend(f"{t},{repr(p)}" for t, p in sorted(trust_pop.items()))
    pop_path.write_text("\n".join(pop_lines) + "\n", encoding="utf-8")
    written.append(pop_path)

    logger.info("wrote %d rows across %s", len(rows),
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
    except Exception as exc:  # noqa: BLE001 - map to exit categories at the boundary
        for exc_type, category, code in _ERROR_CATEGORIES:
            if isinstance(exc, exc_type):
                print(f"error [{category}]: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
