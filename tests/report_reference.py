"""Dict-building reference for `RunReport.to_json_line`.

`report_dict` builds a run report as a plain dict, member by member, from
the report's fields, and `canonical_json` encodes it with sorted keys and
no spaces.  It writes every token and dict itself, importing nothing that
renders from the package it checks.  The renderer writes the same line into
a frame cached per (config, plan); tests compare the two byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from dpvqss import __version__
from dpvqss.metrics import efficiency_report
from dpvqss.protocol import RUN_SCHEMA, AgentResult, RunReport


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def agent_dict(a: AgentResult, secret: int, m: int) -> dict:
    return {
        "loyal": a.loyal,
        "s_i": format(a.s_i, f"0{m}b") if a.s_i is not None else None,
        "claimed_shares": [f"{j}:{claim:0{m // 4}x}"
                           for j, claim in enumerate(a.claimed_shares)],
        "reconstructed": (
            f"{a.reconstructed:0{m // 4}x}"
            if a.reconstructed is not None else None
        ),
        "support": a.support,
        "ambiguous": a.ambiguous,
        "recovered_secret": a.reconstructed == secret,
    }


def report_dict(rep: RunReport) -> dict:
    cfg = rep.config
    plan = rep.plan
    config = {"n": cfg.n, "k": cfg.k, "m": cfg.m, "w": cfg.w,
              "decoys": cfg.decoys, "source": cfg.source}
    adversary = {
        "eve": {"kind": plan.eve.kind, "basis": plan.eve.basis,
                "phases": list(plan.eve.phases), "channel": plan.eve.channel},
        "rogues": {"agents": list(plan.rogues.agents),
                   "actions": list(plan.rogues.actions),
                   "mode": plan.rogues.mode,
                   "fixed_value": plan.rogues.fixed_value},
    }
    blob = canonical_json({"config": config, "adversary": adversary})
    return {
        "schema": RUN_SCHEMA,
        "version": __version__,
        "seed": rep.seed,
        "trial": rep.trial,
        "config": config,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "adversary": adversary,
        "secret": f"{rep.secret:0{cfg.m // 4}x}",
        "verdict": rep.verdict,
        "abort": asdict(rep.abort) if rep.abort else None,
        "detection_events": rep.detection_events,
        "agents": {str(a.index): agent_dict(a, rep.secret, cfg.m)
                   for a in rep.agents},
        "rounds": rep.transcript.summary(),
        "metrics": efficiency_report(cfg.n, cfg.m),
        "leakage": rep.leakage,
    }
