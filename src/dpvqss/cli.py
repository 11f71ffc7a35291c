"""Experiment driver: run, sweep, oracle-check, metrics, and report.

Config files are flat key=value text with dotted sections::

    protocol.n = 5
    protocol.k = 3
    protocol.m = 16
    adversary.eve.kind = intercept_resend
    trials = 100

Unknown keys are rejected by name.  Every integer, in a list too, takes
an optional base prefix, so `0x4` is 4; `adversary.eve.channel` is one
integer or `all`.  Sweeps add `sweep.<key> = v1,v2,...` entries whose
cross-product defines the grid; seed, trials, out and audit cannot be
swept, and a sweep config cannot set audit.  A cell that fails validation
becomes a `skipped` row naming the error.  `oracle-check`
compares the sampler's exact outcome law of an honest round with the dense
reference's Born probabilities, entry by entry, and draws no samples.
Every subcommand is deterministic under a fixed --seed; exit codes are 0
(success), 1 (error), and 2 (a protocol abort was observed by `run`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import __version__, entangle
from .adversary import AdversaryPlan, EveStrategy, RogueBehavior
from .bitvec import random_bits
from .metrics import efficiency_report, empirical_stats
from .protocol import (
    RUN_SCHEMA,
    ProtocolConfig,
    canonical_json,
    random_secret,
    run_protocol,
    secret_length,
)
from .qsim import CapacityError, dense_state

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABORT_OBSERVED = 2
# Largest gap oracle-check allows between two exact probabilities.
ORACLE_TOLERANCE = 1e-12


class ConfigError(ValueError):
    pass


def _parse_int(text):
    return int(text, 0)


def _at_least(name, least=1):
    def parse(text):
        value = int(text, 0)
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
        return value
    return parse


def _list_at_least(name, least):
    item = _at_least(name, least)
    def parse(text):
        values = tuple(item(tok) for tok in text.split(",") if tok.strip())
        if not values:
            raise ValueError(f"{name} needs at least one value, got {text!r}")
        return values
    return parse


_parse_trials = _at_least("trials")


def _parse_seed(text):
    seed = int(text, 0)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def _parse_bool(text):
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}")


def _flag(parse):
    """A config-key parser as an argparse type, so that a bad flag value
    prints the parser's reason rather than its function name."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


def _parse_int_list(text):
    return tuple(_parse_int(tok) for tok in text.split(",") if tok.strip())


def _parse_str_list(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_channel(text):
    return None if text == "all" else _parse_int(text)


def _parse_hex(text):
    return bytes.fromhex(text)


def _parse_bits(text):
    """An MSB-first bit-string literal, e.g. "1101", kept as written."""
    if not text or text.strip("01"):
        raise ValueError(f"not a bit-vector literal: {text!r}")
    return text


# key -> (converter, default)
CONFIG_KEYS = {
    "protocol.n": (_parse_int, None),
    "protocol.k": (_parse_int, None),
    "protocol.m": (_parse_int, None),
    "protocol.w": (_parse_int, 8),
    "protocol.decoys": (_parse_int, 16),
    "protocol.source": (str, "alice"),
    "adversary.eve.kind": (str, "none"),
    "adversary.eve.basis": (str, "computational"),
    "adversary.eve.phases": (_parse_int_list, (1, 2, 3)),
    "adversary.eve.channel": (_parse_channel, None),
    "adversary.rogues.agents": (_parse_int_list, ()),
    "adversary.rogues.actions": (_parse_str_list, ()),
    "adversary.rogues.mode": (str, "random"),
    "adversary.rogues.fixed": (_parse_bits, None),
    "seed": (_parse_seed, 0),
    "trials": (_parse_trials, 1),
    "secret": (_parse_hex, None),
    "out": (str, None),
    "audit": (_parse_bool, False),
}

REQUIRED_KEYS = ("protocol.n", "protocol.k", "protocol.m")
# Per-run keys: every cell shares one seed, trial count and output, and a
# sweep runs no leakage audit.
UNSWEPT_KEYS = ("seed", "trials", "out", "audit")


@dataclass
class RunConfig:
    values: dict
    sweep: dict
    protocol: ProtocolConfig | None  # None for sweep configs (built per cell)
    plan: AdversaryPlan | None

    @property
    def trials(self) -> int:
        return self.values["trials"]

    @property
    def seed(self) -> int:
        return self.values["seed"]


def parse_config_text(text: str, path: str = "<config>") -> RunConfig:
    raw: dict[str, object] = {}
    sweep: dict[str, tuple] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        swept = key.startswith("sweep.")
        base = key.removeprefix("sweep.")
        if base not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if swept and base in UNSWEPT_KEYS:
            raise ConfigError(f"{path}:{lineno}: key {key!r} cannot be swept")
        # A plain key and a sweep of it would leave the plain line dead.
        if base in raw or base in sweep:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        tokens = value.split(",") if swept else [value]
        try:
            parsed = tuple(CONFIG_KEYS[base][0](tok.strip()) for tok in tokens)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"{path}:{lineno}: key {key!r}: {err}") from None
        target = sweep if swept else raw
        target[base] = parsed if swept else parsed[0]

    for key in REQUIRED_KEYS:
        if key not in raw and key not in sweep:
            raise ConfigError(f"{path}: missing required key {key!r}")
    values = {k: raw.get(k, default) for k, (_, default) in CONFIG_KEYS.items()}
    if sweep:
        if values["audit"]:
            raise ConfigError(f"{path}: key 'audit' is not supported in sweeps")
        return RunConfig(values, sweep, None, None)
    try:
        protocol, plan = _build_run(values)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{path}: {err}") from None
    return RunConfig(values, {}, protocol, plan)


def _build_run(values) -> tuple[ProtocolConfig, AdversaryPlan]:
    """The validated config and plan of a run or sweep cell; raises
    ValueError before any trial runs if they cannot run."""
    cfg = ProtocolConfig(
        n=values["protocol.n"], k=values["protocol.k"], m=values["protocol.m"],
        w=values["protocol.w"], decoys=values["protocol.decoys"],
        source=values["protocol.source"],
    )
    plan = AdversaryPlan(
        eve=EveStrategy(
            kind=values["adversary.eve.kind"],
            basis=values["adversary.eve.basis"],
            phases=tuple(values["adversary.eve.phases"]),
            channel=values["adversary.eve.channel"],
        ),
        rogues=RogueBehavior(
            agents=tuple(values["adversary.rogues.agents"]),
            actions=tuple(values["adversary.rogues.actions"]),
            mode=values["adversary.rogues.mode"],
            fixed_value=values["adversary.rogues.fixed"],
        ),
    )
    plan.validate(cfg)
    secret_length(cfg, values["secret"])
    return cfg, plan


def _run_trials(cfg: ProtocolConfig, plan: AdversaryPlan, trials: int,
                seed: int, secret: bytes | None, cell: int = 0,
                audit: bool = False):
    reports = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, cell, trial])
        trial_secret = secret if secret is not None else random_secret(cfg, rng)
        rep = run_protocol(cfg, trial_secret, plan, rng=rng, seed=seed,
                           trial=trial, audit=audit)
        reports.append(rep.to_dict())
    return reports


def _error(err) -> int:
    print(f"error: {err}", file=sys.stderr)
    return EXIT_ERROR


def _load(args, sweep: bool):
    """The config, seed, trial count and open output (stdout, left open, if
    no path is given) of `run` (sweep=False) or `sweep`; raises ConfigError
    or OSError before any trial runs."""
    with open(args.config, "r", encoding="utf-8") as fh:
        rc = parse_config_text(fh.read(), args.config)
    if sweep and not rc.sweep:
        raise ConfigError("no sweep.* keys in config")
    if rc.sweep and not sweep:
        raise ConfigError("config contains sweep keys; use the sweep subcommand")
    seed = rc.seed if args.seed is None else args.seed
    trials = rc.trials if args.trials is None else args.trials
    out_path = args.out or rc.values["out"]
    out = (open(out_path, "w", encoding="utf-8") if out_path
           else nullcontext(sys.stdout))
    return rc, seed, trials, out


def cmd_run(args) -> int:
    try:
        rc, seed, trials, out = _load(args, sweep=False)
    except (ConfigError, OSError) as err:
        return _error(err)
    with out as fh:
        reports = _run_trials(rc.protocol, rc.plan, trials, seed,
                              rc.values["secret"], audit=rc.values["audit"])
        fh.write(_render_rows(reports, "json"))
    any_abort = any(r["verdict"] == "abort" for r in reports)
    return EXIT_ABORT_OBSERVED if any_abort else EXIT_OK


def _sampler_law(n: int, p: int, s: int) -> np.ndarray:
    """The sampler's exact law of an honest distribution round, indexed as
    the dense reference packs its registers (register i at bits i*p ..).

    One position's support is the image of `_read_law` over every draw; the
    law is XOR-linear in the draws, so it is uniform on that image.  The
    positions draw independently, and the secret's bit at each position
    flips register n there.
    """
    r = n + 1
    support = np.zeros(1 << r)
    for draws in product((0, 1), repeat=r + 1):
        registers = entangle._read_law(r, 1, [], iter(draws))
        support[sum(bit << i for i, bit in enumerate(registers))] = 1
    support /= support.sum()
    index = np.arange(1 << (r * p))
    law = np.ones(len(index))
    for j in range(p):
        pattern = sum(((index >> (i * p + j)) & 1) << i for i in range(r))
        law *= support[pattern ^ ((s >> j & 1) << n)]
    return law


def oracle_check_case(n, m, secrets, seed):
    """The largest gap, per secret, between the dense reference's Born
    probabilities of an honest distribution round's registers (summed over
    the |-> target) and the sampler's exact law; raises CapacityError past
    the dense bound."""
    rng = np.random.default_rng([seed, n, m])
    results = []
    p = n * m
    for _ in range(secrets):
        secret = random_bits(p, rng)
        state, _ = dense_state(n + 1, p, phase_bits={n: secret})
        # The |-> target is the top qubit: summing it out adds the two halves.
        born = (np.abs(state.amps) ** 2).reshape(2, -1).sum(axis=0)
        law = _sampler_law(n, p, secret)
        results.append({"secret": format(secret, f"0{p}b"),
                        "max_deviation": float(np.max(np.abs(born - law)))})
    return results


def cmd_check_oracle(args) -> int:
    try:
        results = oracle_check_case(args.n, args.m, args.secrets, args.seed)
    except CapacityError as err:
        return _error(err)
    ok = True
    for res in results:
        passed = res["max_deviation"] <= ORACLE_TOLERANCE
        ok = ok and passed
        print(f"secret={res['secret']} max_deviation={res['max_deviation']:.3e} "
              f"{'PASS' if passed else 'FAIL'}")
    print(f"oracle-check n={args.n} m={args.m}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ERROR


def _sweep_cells(rc: RunConfig):
    keys = sorted(rc.sweep)
    for combo in product(*(rc.sweep[k] for k in keys)):
        yield dict(zip(keys, combo))


RATES = ("abort", "decoy_abort", "detection", "recovery", "ambiguity")


def _rates(stats) -> dict:
    """The trial count and rate columns of a sweep row or `report` CSV."""
    return {"trials": stats["trials"],
            **{f"{name}_rate": stats[name]["rate"] for name in RATES}}


def _etas(n: int, m: int, decimal: bool = False) -> dict:
    """The exact eta1..eta3 columns, each followed by its `_decimal` twin
    if asked."""
    cols = {}
    for name, eta in efficiency_report(n, m).items():
        cols[name] = f"{eta['num']}/{eta['den']}"
        if decimal:
            cols[f"{name}_decimal"] = eta["decimal"]
    return cols


def _cell_value(value):
    """A swept value as the report renders it: a secret in hex, a tuple as a
    list; a fixed lie is already its MSB-first bit string."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, tuple):
        return list(value)
    return value


def cmd_sweep(args) -> int:
    try:
        rc, seed, trials, out = _load(args, sweep=True)
    except (ConfigError, OSError) as err:
        return _error(err)
    rows = []
    with out as fh:
        for cell_idx, cell in enumerate(_sweep_cells(rc)):
            shown = {k: _cell_value(v) for k, v in sorted(cell.items())}
            row = {f"cell.{k}": v for k, v in shown.items()}
            values = {**rc.values, **cell}
            try:
                cfg, plan = _build_run(values)
            except ValueError as err:
                print(f"warning: skipping cell {shown}: {err}", file=sys.stderr)
                rows.append({**row, "skipped": str(err)})
                continue
            reports = _run_trials(cfg, plan, trials, seed, values["secret"],
                                  cell=cell_idx)
            rows.append({**row, **_rates(empirical_stats(reports)),
                         **_etas(cfg.n, cfg.m)})
        fh.write(_render_rows(rows, args.format))
    return EXIT_OK


def _render_rows(rows, fmt) -> str:
    if fmt == "json":
        return "".join(canonical_json(r) + "\n" for r in rows)
    columns = dict.fromkeys(key for row in rows for key in row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_metrics(args) -> int:
    rows = [{"n": n, "m": m, **_etas(n, m, decimal=True)}
            for n in args.n for m in args.m]
    sys.stdout.write(_render_rows(rows, args.format))
    return EXIT_OK


def _read_reports(path: str) -> list[dict]:
    """The run reports of a JSON-lines file; raises ValueError naming the
    first line that is not one."""
    reports = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rep = json.loads(line)
            except ValueError:
                rep = None
            if not isinstance(rep, dict) or rep.get("schema") != RUN_SCHEMA:
                raise ValueError(f"{path}:{lineno}: not a {RUN_SCHEMA} report")
            reports.append(rep)
    if not reports:
        raise ValueError("no reports in file")
    return reports


def cmd_report(args) -> int:
    try:
        stats = empirical_stats(_read_reports(args.reports))
    except (OSError, ValueError) as err:
        return _error(err)
    if args.format == "csv":
        sys.stdout.write(_render_rows([_rates(stats)], "csv"))
    else:
        sys.stdout.write(canonical_json(stats) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpvqss",
        description="Threshold quantum secret sharing simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute trials from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=_flag(_parse_seed), default=None)
    p_run.add_argument("--trials", type=_flag(_parse_trials), default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_oc = sub.add_parser(
        "oracle-check",
        help="certify the sampler against the dense statevector reference",
    )
    p_oc.add_argument("--n", type=_flag(_at_least("n")), required=True)
    p_oc.add_argument("--m", type=_flag(_at_least("m")), required=True)
    p_oc.add_argument("--secrets", type=_flag(_at_least("secrets")),
                      default=4)
    p_oc.add_argument("--seed", type=_flag(_parse_seed), default=0)
    p_oc.set_defaults(func=cmd_check_oracle)

    p_sw = sub.add_parser("sweep", help="run a parameter grid")
    p_sw.add_argument("config")
    p_sw.add_argument("--seed", type=_flag(_parse_seed), default=None)
    p_sw.add_argument("--trials", type=_flag(_parse_trials), default=None)
    p_sw.add_argument("--out", default=None)
    p_sw.add_argument("--format", choices=("json", "csv"), default="json")
    p_sw.set_defaults(func=cmd_sweep)

    p_me = sub.add_parser("metrics", help="efficiency table for an (n, m) grid")
    p_me.add_argument("--n", type=_flag(_list_at_least("n", 2)),
                      default=(2, 3, 5))
    p_me.add_argument("--m", type=_flag(_list_at_least("m", 1)),
                      default=(1, 4, 16))
    p_me.add_argument("--format", choices=("json", "csv"), default="csv")
    p_me.set_defaults(func=cmd_metrics)

    p_re = sub.add_parser("report", help="aggregate a JSON-lines report file")
    p_re.add_argument("reports")
    p_re.add_argument("--format", choices=("json", "csv"), default="json")
    p_re.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; 2 is reserved for observed aborts.
        return EXIT_OK if err.code in (0, None) else EXIT_ERROR
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
