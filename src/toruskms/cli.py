"""Command line front end.

Subcommands:
  validate   check a scenario file (and optionally a thread) against the
             exact level relations, the static constraints and the thread
             compatibility relation, and list every violation
  state      evaluate the solenoid state on one word, optionally
             cross-checked against the quadrature oracle
  transform  apply one of the moment transforms to a thread level's measure
             and emit the resulting moment table as CSV
  suite      run a named verification suite and render a report
  report     run every check and render a report (json by default)

Every other subcommand exits 1 on the first violation validate would list.
No option sets a gate's tolerance or coverage, or filters the report rows.

Exit codes: 0 success, 1 a verification failed or a constraint is violated,
2 the inputs could not be parsed or a size option asks for too large an array.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import List, Optional, Tuple

import numpy as np

from .oracle import psi_oracle
from .scenario import ConstraintViolation, Scenario, scenario_from_json, validate_scenario
from .solenoid_limit import (
    SolenoidMeasureThread,
    build_thread,
    psi_eval,
    thread_from_json,
    validate_thread,
)
from .subinvariance import (
    BlockParams,
    kappa_from_nu,
    mu_from_nu,
    nu_from_kappa,
    nu_from_mu,
)
from .suites import (
    ORACLE_TOL,
    SUITES,
    SuiteConfig,
    _FLOORS,
    overall_pass,
    render_csv,
    render_json,
    render_text,
    run_checks,
)
from .toeplitz_algebra import parse_word
from .torus_measure import write_moment_csv

# transform name -> function of (measure, params)
TRANSFORMS = {
    "nu-from-mu": functools.partial(nu_from_mu, check=False),
    "mu-from-nu": functools.partial(mu_from_nu, check=False),
    "nu-from-kappa": nu_from_kappa,
    "kappa-from-nu": kappa_from_nu,
}


# The most entries one array shaped by --moment-box or --samples may hold (1 GiB
# as complex); like the quadrature's panel cap, no option sets it.
_MAX_ENTRIES = 2**26


class InputError(Exception):
    """Raised when a scenario, thread, or word cannot be parsed."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_scenario(path: str) -> Scenario:
    obj = _load_json(path)
    try:
        return scenario_from_json(obj)
    except ConstraintViolation as exc:
        raise ConstraintViolation(f"scenario {path}: {exc}") from exc
    except Exception as exc:
        raise InputError(f"bad scenario in {path}: {exc}") from exc


def _load_thread(scenario: Scenario, path: Optional[str]) -> SolenoidMeasureThread:
    if path is None:
        return build_thread(scenario, kind="uniform")
    obj = _load_json(path)
    try:
        return thread_from_json(obj, scenario)
    except ConstraintViolation as exc:
        raise ConstraintViolation(f"thread {path}: {exc}") from exc
    except Exception as exc:
        raise InputError(f"bad thread in {path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _checked_inputs(args) -> Tuple[Optional[SolenoidMeasureThread], List[str]]:
    """The thread and every violation `validate` lists; none is built on an invalid scenario."""
    scenario = _load_scenario(args.scenario)
    problems = validate_scenario(scenario)
    if problems:
        return None, problems
    thread = _load_thread(scenario, args.thread)
    return thread, validate_thread(thread)


def _load_inputs(args) -> SolenoidMeasureThread:
    """The thread, rejected on the first violation `validate` lists."""
    thread, problems = _checked_inputs(args)
    if problems:
        raise ConstraintViolation(problems[0])
    return thread


def _require_size(option: str, value: int, entries: int) -> None:
    """InputError when the option's value shapes an array of more than _MAX_ENTRIES entries."""
    if entries > _MAX_ENTRIES:
        raise InputError(f"--{option} {value} needs an array of {entries} entries, "
                         f"above the cap {_MAX_ENTRIES}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruskms",
        description="verify equilibrium states over rotation-twisted occupation algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument(
            "--thread",
            default=None,
            help="thread JSON file (default: uniform measures at every level)",
        )
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    p_val = sub.add_parser("validate", help="check scenario (and thread) constraints")
    common(p_val)

    p_state = sub.add_parser("state", help="evaluate the state on one word")
    common(p_state)
    p_state.add_argument(
        "--word",
        required=True,
        help='word text, e.g. "V[1] U[2] V*[1] @ 1" (lists for k or d > 1)',
    )
    p_state.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the closed form against the quadrature oracle",
    )

    p_tr = sub.add_parser("transform", help="emit a transformed moment table as CSV")
    common(p_tr)
    p_tr.add_argument("--transform", required=True, choices=TRANSFORMS)
    p_tr.add_argument("--level", type=int, default=1, help="tower level (default 1)")
    p_tr.add_argument(
        "--moment-box", type=int, default=5, help="radius of the emitted moment table"
    )

    p_suite = sub.add_parser("suite", help="run one verification suite")
    common(p_suite)
    p_suite.add_argument("--suite", required=True, choices=sorted(SUITES))
    _report_options(p_suite)

    p_rep = sub.add_parser("report", help="run every check")
    common(p_rep)
    _report_options(p_rep, default_format="json")
    p_rep.set_defaults(suite="all")

    return parser


def _report_options(p, default_format="text"):
    defaults = SuiteConfig()  # the one place the four defaults are written
    for name, text in (
        ("samples", "word samples per check"),
        ("s_samples", "continuous defect samples per level"),
        ("moment_box", "moment box radius"),
        ("seed", "report seed"),
    ):
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=getattr(defaults, name),
                       help=f"{text} (default %(default)s)")
    p.add_argument(
        "--format", choices=("text", "json", "csv"), default=default_format
    )


def _cmd_validate(args) -> int:
    problems = _checked_inputs(args)[1]
    if problems:
        _emit("\n".join(problems) + "\nINVALID\n", args.out)
        return 1
    checked = "scenario satisfies" if args.thread is None else "scenario and thread satisfy"
    _emit(f"OK: {checked} all constraints\n", args.out)
    return 0


def _cmd_state(args) -> int:
    thread = _load_inputs(args)
    scenario = thread.scenario
    try:
        word = parse_word(args.word, scenario.dims.k, scenario.dims.d)
    except Exception as exc:
        raise InputError(f"bad word {args.word!r}: {exc}") from exc
    if not 1 <= word.level <= scenario.depth:
        raise InputError(f"word level {word.level} outside 1..{scenario.depth}")
    value = psi_eval(thread, word)
    lines = [f"psi({word}) = {value.real:.17g} {value.imag:+.17g}i"]
    code = 0
    if not np.isfinite(value):
        lines.append("NON-FINITE VALUE")
        code = 1
    if args.oracle:
        try:
            oracle = psi_oracle(thread, word)
        except ConstraintViolation:
            raise
        except ValueError as exc:  # a panel count above the quadrature's cap
            raise InputError(f"no quadrature oracle for {word}: {exc}") from exc
        gap = abs(value - oracle)
        lines.append(f"oracle      = {oracle.real:.17g} {oracle.imag:+.17g}i")
        lines.append(f"|difference| = {gap:.3e} (tolerance {ORACLE_TOL:.3e})")
        if not gap <= ORACLE_TOL:
            lines.append("ORACLE MISMATCH")
            code = 1
    _emit("\n".join(lines) + "\n", args.out)
    return code


def _cmd_transform(args) -> int:
    thread = _load_inputs(args)
    scenario = thread.scenario
    if not 1 <= args.level <= scenario.depth:
        raise InputError(f"level {args.level} outside 1..{scenario.depth}")
    d = scenario.dims.d
    _require_size("moment-box", args.moment_box, d * (2 * args.moment_box + 1) ** d)  # the box
    params = BlockParams.at_level(scenario, args.level)
    out = TRANSFORMS[args.transform](thread.measure(args.level), params)
    _emit(write_moment_csv(out, args.moment_box), args.out)
    return 0


def _suite_config(args) -> SuiteConfig:
    """The report options, one per SuiteConfig field."""
    return SuiteConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SuiteConfig)})


def _config_echo(args) -> dict:
    return {
        "suite": args.suite,
        "scenario": args.scenario,
        "thread": args.thread,
        **dataclasses.asdict(_suite_config(args)),
        "oracle_tol": ORACLE_TOL,
    }


def _render(rows, args) -> str:
    if args.format == "json":
        return render_json(rows, _config_echo(args))
    if args.format == "csv":
        return render_csv(rows)
    return render_text(rows)


def _cmd_checks(args) -> int:
    """`suite` and `report`: run a suite (`report` runs "all") and render its rows."""
    thread = _load_inputs(args)
    dims, depth = thread.scenario.dims, thread.scenario.depth
    # the largest arrays: C04's moment matrix on [0, box]^d and C05's word exponents
    _require_size("moment-box", args.moment_box, (args.moment_box + 1) ** (2 * dims.d))
    _require_size("samples", args.samples, depth * args.samples * 2 * (2 * dims.k + dims.d))
    rows = run_checks(SUITES[args.suite], thread, _suite_config(args))
    _emit(_render(rows, args), args.out)
    return 0 if overall_pass(rows) else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "state": _cmd_state,
    "transform": _cmd_transform,
    "suite": _cmd_checks,
    "report": _cmd_checks,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for option, low in _FLOORS.items():
        if getattr(args, option, low) < low:
            parser.error(f"--{option.replace('_', '-')} must be at least {low}")
    try:
        return _COMMANDS[args.command](args)
    except ConstraintViolation as exc:
        sys.stderr.write(f"constraint violated: {exc}\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
