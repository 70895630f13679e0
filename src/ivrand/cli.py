"""Command-line interface.

Subcommands:
    test    run the Monte Carlo pipeline and write a report
    exact   run exact enumeration tests on small data
    synth   generate a synthetic dataset with known ground truth

Exit codes: 0 success, 2 input or validation error, 3 numerical
failure, 4 enumeration or redraw cap exceeded.  Errors are written to
stderr as one JSON object per failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._blas import one_blas_thread
from .data import BIAS_DENOMINATORS, TestConfig, load_dataset, write_delimited
from .data import read_delimited  # noqa: F401  wrapped by name in perfbench/layers.py
from .errors import (
    CapExceededError,
    IvrandError,
    MechanismError,
    PropensityError,
    RedrawLimitError,
    StatisticError,
    ValidationError,
)
from .mechanisms import MechanismSpec
from .propensity import fit_logistic, predict  # noqa: F401  wrapped by name in perfbench/layers.py
from .randtest import STATISTICS
from .report import DEFAULT_STATISTICS, build_report
from .synth import PRESETS, ScenarioSpec, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CAP = 4

_STATISTIC_ALIASES = {
    "bias": "iv_bias",
    "balance": "prevalence_diff",
}
# the binning rules numpy.histogram_bin_edges accepts by name
_HIST_BIN_RULES = ("auto", "fd", "doane", "scott", "stone", "rice", "sturges", "sqrt")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError, so they exit 2 as one JSON object."""

    def error(self, message):
        raise ValidationError([message])


def _fail(kind: str, message: str, code: int, details=None) -> int:
    payload = {"error": kind, "message": message}
    if details:
        payload["details"] = details
    print(json.dumps(payload), file=sys.stderr)
    return code


def _default_threads() -> int:
    """``IVRAND_THREADS``, or 1 when it is unset."""
    env = os.environ.get("IVRAND_THREADS")
    if env is None:
        return 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValidationError(
            [f"IVRAND_THREADS={env!r}: threads must be a positive integer"])
    return threads


def _one_character(value: str) -> str:
    if len(value) != 1:
        raise argparse.ArgumentTypeError(f"must be one character, got {value!r}")
    return value


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("data", help="delimited input file with a header row")
    parser.add_argument("--instrument", required=True, help="instrument column (binary)")
    parser.add_argument("--exposure", required=True, help="exposure column (binary)")
    parser.add_argument("--covariates", default=None,
                        help="comma-separated covariate columns (default: all others)")
    parser.add_argument("--categorical-covariates", default="",
                        help="comma-separated columns to expand into indicators")
    parser.add_argument("--delimiter", default=",", type=_one_character)
    parser.add_argument("--statistic", action="append", default=None,
                        help="statistic to run (repeatable); default scmd, bias, "
                             "sqrt_mahalanobis")
    parser.add_argument("--alpha", type=float, default=TestConfig.alpha)
    parser.add_argument("--seed", type=int, default=TestConfig.seed)
    parser.add_argument("--bias-denominator", default=TestConfig.bias_denominator,
                        choices=BIAS_DENOMINATORS)
    parser.add_argument("--ridge", type=float, default=0.0,
                        help="ridge penalty for the propensity fits")
    parser.add_argument("--hist-bins", default="fd",
                        help="report histogram binning (numpy rule name or count)")
    parser.add_argument("--out", default="ivrand_report.json")
    parser.add_argument("--plots-dir", default=None,
                        help="directory for plot-data tables")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: IVRAND_THREADS, else 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ivrand",
        description="Randomization tests of as-if random instrument assignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="Monte Carlo randomization tests")
    _add_common_flags(p_test)
    p_test.add_argument("--mechanism", default="complete",
                        choices=["complete", "block", "bernoulli"])
    p_test.add_argument("--block-column", default=None,
                        help="column holding block labels (mechanism=block)")
    p_test.add_argument("--draws", type=int, default=TestConfig.n_draws)

    p_exact = sub.add_parser("exact", help="exact enumeration tests (small N)")
    _add_common_flags(p_exact)
    p_exact.add_argument("--cap", type=int, default=TestConfig.enumeration_cap,
                         help="largest allowed C(N, N_T)")

    p_synth = sub.add_parser("synth", help="generate synthetic data")
    p_synth.add_argument("--scenario", default="confounded-exposure",
                         help=f"one of: {', '.join(sorted(PRESETS))}")
    p_synth.add_argument("--n", type=int, default=2_000)
    p_synth.add_argument("--k", type=int, default=5)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", default="synth_data",
                         help="output prefix; writes <out>.csv and "
                              "<out>.ground_truth.json")
    return parser


def _statistics_from_args(args) -> tuple:
    if not args.statistic:
        return DEFAULT_STATISTICS
    stats = []
    for raw in args.statistic:
        name = _STATISTIC_ALIASES.get(raw, raw)
        if name not in STATISTICS:
            raise ValidationError([f"unknown statistic {raw!r}"])
        stats.append(name)
    return tuple(dict.fromkeys(stats))


def _load(args):
    """Read the file once; return the dataset and the mechanism: a block
    ``MechanismSpec``, or the ``--mechanism`` name (None for ``exact``)."""
    block_column = getattr(args, "block_column", None)
    mechanism = getattr(args, "mechanism", None)
    if bool(block_column) != (mechanism == "block"):
        raise ValidationError(["--block-column needs --mechanism block" if block_column
                               else "--mechanism block needs --block-column"])
    covariates = None   # every other column, block labels left out
    if args.covariates:
        skip = {args.instrument, args.exposure}
        covariates = [c for c in map(str.strip, args.covariates.split(","))
                      if c and c not in skip]
    categorical = [c.strip() for c in args.categorical_covariates.split(",")
                   if c.strip()]
    loaded = load_dataset(args.data, args.instrument, args.exposure, covariates,
                          categorical, args.delimiter, block_column=block_column)
    dataset, labels = loaded if block_column is not None else (loaded, None)
    if mechanism == "block":
        if labels is None:
            raise ValidationError([f"missing column: {block_column}"])
        mechanism = MechanismSpec.block(labels)
    return dataset, mechanism


def _parse_bins(raw):
    if raw in _HIST_BIN_RULES:
        return raw
    if raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    raise ValidationError([
        f"--hist-bins must be a positive integer or one of "
        f"{', '.join(_HIST_BIN_RULES)}; got {raw!r}"
    ])


def _cmd_report(args) -> int:
    """``test`` and ``exact``: run the pipeline and write the report."""
    exact = args.command == "exact"
    size = {"n_draws": 1, "enumeration_cap": args.cap} if exact else {"n_draws": args.draws}
    threads = _default_threads() if args.threads is None else args.threads
    config = TestConfig(alpha=args.alpha, seed=args.seed,
                        bias_denominator=args.bias_denominator, threads=threads, **size)
    bins = _parse_bins(args.hist_bins)
    statistics = _statistics_from_args(args)
    dataset, mechanism = _load(args)
    report = build_report(
        dataset, config, statistics=statistics, mechanism=mechanism,
        ridge=args.ridge, hist_bins=bins, exact=exact, source=args.data,
    )
    report.write(args.out)
    if args.plots_dir:
        report.write_plot_data(args.plots_dir, delimiter=args.delimiter)
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.scenario not in PRESETS:
        raise ValidationError([
            f"unknown scenario {args.scenario!r}; valid scenarios: "
            + ", ".join(sorted(PRESETS))
        ])
    spec = ScenarioSpec(n_units=args.n, k_covariates=args.k, seed=args.seed,
                        **PRESETS[args.scenario])
    dataset, ground_truth = generate(spec)
    data_path = f"{args.out}.csv"
    truth_path = f"{args.out}.ground_truth.json"
    write_delimited(dataset, data_path, instrument_col="instrument",
                    exposure_col="exposure")
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(ground_truth, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"data": data_path, "ground_truth": truth_path}))
    return EXIT_OK


@one_blas_thread()
def main(argv=None) -> int:
    handlers = {"test": _cmd_report, "exact": _cmd_report, "synth": _cmd_synth}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ValidationError as exc:
        return _fail("validation", str(exc), EXIT_INPUT, details=exc.issues)
    except ValueError as exc:
        # out-of-range settings, e.g. TestConfig fields or a negative ridge
        return _fail("validation", str(exc), EXIT_INPUT)
    except CapExceededError as exc:
        return _fail("cap_exceeded",
                     f"{exc} (use the Monte Carlo 'test' command instead)",
                     EXIT_CAP)
    except RedrawLimitError as exc:
        return _fail("redraw_limit", str(exc), EXIT_CAP)
    except (PropensityError, StatisticError) as exc:
        return _fail("numerical", str(exc), EXIT_NUMERICAL)
    except MechanismError as exc:
        return _fail("mechanism", str(exc), EXIT_INPUT)
    except IvrandError as exc:
        return _fail("internal", str(exc), EXIT_NUMERICAL)
    except FileNotFoundError as exc:
        return _fail("validation", str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
