"""Command-line front end.

    qcausal run <file>      run one scenario file
    qcausal check           run the full acceptance battery
    qcausal regen-fixtures  regenerate golden fixtures (labeled UNVERIFIED)

Exit codes: 0 all verdicts pass, 2 some verdict failed, 1 validation or
resource error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import checks, fixtures
from .scenarios import DEFAULT_SEED, emit_json, parse_scenario, run_scenario
from .topology import ResourceLimitError


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcausal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario file")
    run_parser.add_argument("file", help="scenario file (key = value lines)")
    run_parser.add_argument("--out", default="out", help="artifact directory")
    run_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    check_parser = sub.add_parser("check", help="run the acceptance battery")
    check_parser.add_argument("--out", default="out", help="artifact directory")
    check_parser.add_argument("--seed", type=int, default=DEFAULT_SEED)

    regen_parser = sub.add_parser("regen-fixtures",
                                  help="recompute golden fixtures (UNVERIFIED until oracle-confirmed)")
    regen_parser.add_argument("--out", default="fixtures-regen", help="output directory")
    return parser


def _cmd_run(args) -> int:
    path = Path(args.file)
    scenario = parse_scenario(path.read_text(encoding="utf-8"))
    report = run_scenario(scenario, args.out, seed_override=args.seed, base_dir=path.parent)
    report_path = Path(args.out) / f"{scenario.stem}_report.json"
    emit_json(report_path, report.to_json_dict())
    for name, value in report.metrics.items():
        print(f"metric {name} = {value}")
    for name, ok in report.verdicts.items():
        print(f"verdict {name}: {'pass' if ok else 'FAIL'}")
    print(f"report: {report_path}")
    return 0 if report.passed() else 2


def _cmd_check(args) -> int:
    results, report = checks.run_all(seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_json(out / "check_report.json", report)
    for result in results:
        print(result.line())
    print(f"report: {out / 'check_report.json'}")
    return 0 if report["allPassed"] else 2


def _cmd_regen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "golden.json"
    emit_json(target, fixtures.regenerate())
    print(f"wrote {target} with status UNVERIFIED")
    print("confirm with: python scripts/verify_fixtures.py verify " + str(target))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_regen(args)
    except (ValueError, OSError, ResourceLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
