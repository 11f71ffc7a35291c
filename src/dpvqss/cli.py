"""Experiment driver: run, sweep, oracle-check, metrics, and report.

Config files are flat key=value text with dotted sections::

    protocol.n = 5
    protocol.k = 3
    protocol.m = 16
    adversary.eve.kind = intercept_resend
    trials = 100

Unknown keys are rejected by name.  Sweeps add `sweep.<key> = v1,v2,...`
entries whose cross-product defines the grid; seed, trials, out and audit
cannot be swept, and a sweep config cannot set audit.  Every subcommand is
deterministic under a fixed --seed; exit codes are 0 (success), 1 (error),
and 2 (a protocol abort was observed by `run`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import xor

import numpy as np

from . import __version__
from .adversary import AdversaryPlan, EveStrategy, RogueBehavior
from .bitvec import BitVector, CapacityError
from .entangle import sample_idpqc_outcomes
from .metrics import chi_square_homogeneity, efficiency_report, empirical_stats
from .protocol import (
    ProtocolConfig,
    canonical_json,
    random_secret,
    run_protocol,
    secret_length,
)
from .qsim import dense_outcomes, dense_state

log = logging.getLogger("dpvqss")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABORT_OBSERVED = 2


class ConfigError(ValueError):
    pass


def _parse_int(text):
    return int(text, 0)


def _parse_trials(text):
    trials = int(text, 0)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return trials


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
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_str_list(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_channel(text):
    return None if text in ("all", "none", "") else int(text)


def _parse_hex(text):
    return bytes.fromhex(text)


def _parse_bits(text):
    return BitVector.from_string(text)


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

    @property
    def secret(self) -> bytes | None:
        return self.values["secret"]

    @property
    def out(self) -> str | None:
        return self.values["out"]


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
        value = value.strip()
        if key.startswith("sweep."):
            base_key = key[len("sweep."):]
            if base_key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown sweep key {base_key!r}")
            if base_key in UNSWEPT_KEYS:
                raise ConfigError(f"{path}:{lineno}: key {key!r} cannot be swept")
            conv = CONFIG_KEYS[base_key][0]
            try:
                sweep[base_key] = tuple(conv(tok.strip()) for tok in value.split(","))
            except (ValueError, TypeError) as err:
                raise ConfigError(f"{path}:{lineno}: key {key!r}: {err}") from None
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        conv = CONFIG_KEYS[key][0]
        try:
            raw[key] = conv(value)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"{path}:{lineno}: key {key!r}: {err}") from None

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


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), path)


def _trial_rng(seed: int, *indices: int):
    return np.random.default_rng([seed] + list(indices))


def _run_trials(cfg: ProtocolConfig, plan: AdversaryPlan, trials: int,
                seed: int, secret: bytes | None, cell: int = 0,
                audit: bool = False):
    reports = []
    for trial in range(trials):
        rng = _trial_rng(seed, cell, trial)
        trial_secret = secret if secret is not None else random_secret(cfg, rng)
        rep = run_protocol(cfg, trial_secret, plan, rng=rng, seed=seed,
                           trial=trial, audit=audit)
        reports.append(rep.to_dict())
    return reports


def cmd_run(args) -> int:
    try:
        rc = parse_config(args.config)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if rc.sweep:
        print("error: config contains sweep keys; use the sweep subcommand",
              file=sys.stderr)
        return EXIT_ERROR
    seed = args.seed if args.seed is not None else rc.seed
    trials = args.trials if args.trials is not None else rc.trials
    reports = _run_trials(rc.protocol, rc.plan, trials, seed, rc.secret,
                          audit=rc.values["audit"])
    out_path = args.out or rc.out
    lines = "".join(canonical_json(r) + "\n" for r in reports)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    any_abort = any(r["verdict"] == "abort" for r in reports)
    return EXIT_ABORT_OBSERVED if any_abort else EXIT_OK


def _pack_outcome(registers, p: int) -> int:
    return sum(reg << (i * p) for i, reg in enumerate(registers))


def oracle_check_case(n, m, shots, secrets, seed, dump=False):
    """Compare dense-reference and sampler outcome distributions for honest
    rounds.

    The violation count is the number of dense shots whose register XOR
    misses the secret (the sampler's support is that constraint set by
    construction, so any nonzero count is a support violation).
    """
    rng = np.random.default_rng([seed, n, m])
    results = []
    p = n * m
    for idx in range(secrets):
        secret = BitVector.random(p, rng)
        s = secret.value
        if dump and idx == 0:
            print(dense_state(n + 1, p, phase_bits={n: s})[0].dump())
        oracle_counts: Counter = Counter()
        violations = 0
        for out in dense_outcomes(n + 1, p, {n: s}, shots, rng):
            if reduce(xor, out.registers) != s:
                violations += 1
            oracle_counts[_pack_outcome(out.registers, p)] += 1
        sampler_counts: Counter = Counter()
        for _ in range(shots):
            out = sample_idpqc_outcomes(s, n, m, rng)
            sampler_counts[_pack_outcome(out.registers, p)] += 1
        p_value = chi_square_homogeneity(oracle_counts, sampler_counts)
        results.append({
            "secret": str(secret), "violations": violations, "p_value": p_value,
        })
    return results


def cmd_check_oracle(args) -> int:
    try:
        results = oracle_check_case(args.n, args.m, args.shots,
                                    args.secrets, args.seed, dump=args.dump)
    except CapacityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    ok = True
    for res in results:
        passed = res["violations"] == 0 and res["p_value"] > 0.001
        ok = ok and passed
        print(
            f"secret={res['secret']} violations={res['violations']} "
            f"p={res['p_value']:.6f} {'PASS' if passed else 'FAIL'}"
        )
    print(f"oracle-check n={args.n} m={args.m} shots={args.shots}: "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ERROR


def _sweep_cells(rc: RunConfig):
    keys = sorted(rc.sweep)
    for combo in product(*(rc.sweep[k] for k in keys)):
        yield dict(zip(keys, combo))


def cmd_sweep(args) -> int:
    try:
        rc = parse_config(args.config)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if not rc.sweep:
        print("error: no sweep.* keys in config", file=sys.stderr)
        return EXIT_ERROR
    seed = args.seed if args.seed is not None else rc.seed
    trials = args.trials if args.trials is not None else rc.trials

    rows = []
    for cell_idx, cell in enumerate(_sweep_cells(rc)):
        values = dict(rc.values)
        values.update(cell)
        try:
            cfg, plan = _build_run(values)
        except ValueError as err:
            log.warning("skipping cell %s: %s", cell, err)
            continue
        reports = _run_trials(cfg, plan, trials, seed, values["secret"],
                              cell=cell_idx)
        stats = empirical_stats(reports)
        eff = efficiency_report(cfg.n, cfg.m).to_dict()
        row = {f"cell.{k}": v for k, v in sorted(cell.items())}
        row.update({
            "trials": trials,
            "abort_rate": stats["abort"]["rate"],
            "decoy_abort_rate": stats["decoy_abort"]["rate"],
            "detection_rate": stats["detection"]["rate"],
            "recovery_rate": stats["recovery"]["rate"],
            "ambiguity_rate": stats["ambiguity"]["rate"],
            "eta1": f"{eff['eta1']['num']}/{eff['eta1']['den']}",
            "eta2": f"{eff['eta2']['num']}/{eff['eta2']['den']}",
            "eta3": f"{eff['eta3']['num']}/{eff['eta3']['den']}",
        })
        rows.append(row)

    text_out = _render_rows(rows, args.format)
    out_path = args.out or rc.out
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text_out)
    else:
        sys.stdout.write(text_out)
    return EXIT_OK


def _render_rows(rows, fmt) -> str:
    if fmt == "json":
        return "".join(canonical_json(r) + "\n" for r in rows)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_metrics(args) -> int:
    rows = []
    for n in args.n:
        for m in args.m:
            eff = efficiency_report(n, m).to_dict()
            rows.append({
                "n": n, "m": m,
                "eta1": f"{eff['eta1']['num']}/{eff['eta1']['den']}",
                "eta1_decimal": eff["eta1"]["decimal"],
                "eta2": f"{eff['eta2']['num']}/{eff['eta2']['den']}",
                "eta2_decimal": eff["eta2"]["decimal"],
                "eta3": f"{eff['eta3']['num']}/{eff['eta3']['den']}",
                "eta3_decimal": eff["eta3"]["decimal"],
            })
    sys.stdout.write(_render_rows(rows, args.format))
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.reports, "r", encoding="utf-8") as fh:
            reports = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if not reports:
        print("error: no reports in file", file=sys.stderr)
        return EXIT_ERROR
    try:
        stats = empirical_stats(reports)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "csv":
        flat = {
            "trials": stats["trials"],
            "abort_rate": stats["abort"]["rate"],
            "decoy_abort_rate": stats["decoy_abort"]["rate"],
            "detection_rate": stats["detection"]["rate"],
            "recovery_rate": stats["recovery"]["rate"],
            "ambiguity_rate": stats["ambiguity"]["rate"],
        }
        sys.stdout.write(_render_rows([flat], "csv"))
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
    p_oc.add_argument("--n", type=int, required=True)
    p_oc.add_argument("--m", type=int, required=True)
    p_oc.add_argument("--shots", type=int, default=20_000)
    p_oc.add_argument("--secrets", type=int, default=4)
    p_oc.add_argument("--seed", type=_flag(_parse_seed), default=0)
    p_oc.add_argument("--dump", action="store_true",
                      help="print the pre-measurement state of the first case")
    p_oc.set_defaults(func=cmd_check_oracle)

    p_sw = sub.add_parser("sweep", help="run a parameter grid")
    p_sw.add_argument("config")
    p_sw.add_argument("--seed", type=_flag(_parse_seed), default=None)
    p_sw.add_argument("--trials", type=_flag(_parse_trials), default=None)
    p_sw.add_argument("--out", default=None)
    p_sw.add_argument("--format", choices=("json", "csv"), default="json")
    p_sw.set_defaults(func=cmd_sweep)

    p_me = sub.add_parser("metrics", help="efficiency table for an (n, m) grid")
    p_me.add_argument("--n", type=_parse_int_list, default=(2, 3, 5))
    p_me.add_argument("--m", type=_parse_int_list, default=(1, 4, 16))
    p_me.add_argument("--format", choices=("json", "csv"), default="csv")
    p_me.set_defaults(func=cmd_metrics)

    p_re = sub.add_parser("report", help="aggregate a JSON-lines report file")
    p_re.add_argument("reports")
    p_re.add_argument("--format", choices=("json", "csv"), default="json")
    p_re.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("QSS_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; 2 is reserved for observed aborts.
        return EXIT_OK if err.code in (0, None) else EXIT_ERROR
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
