"""Outer distillation loop.

Runs boosting rounds against the teacher: search the current class for a weak
learner, append it, update the game weights with its residuals, and escalate
to a larger (connection-expanded) class whenever the search comes back empty.
The ensemble predicts by prefix-averaging member logits, so any prefix is a
usable model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, read_json, read_numeric_csv, write_json, write_table
from .data import mlp_spec
from .findwl import FindWlConfig, find_weak_learner
from .game import EXP_ARG_LIMIT, init_uniform, md_update
from .nets import (AT_LEAST_ONE, CONNECTION_KINDS, FINITE_NONNEGATIVE, FINITE_POSITIVE, INTEGER,
                   LIST_AT_LEAST_ONE, NUMBER, ConfigError, check, check_fields, expand_class,
                   forward, params_from_dict, params_to_dict, split_head)

# a history file's record: one per (round, label)
HISTORY_RECORD = np.dtype([("round", np.int64), ("label", np.int64), ("edge_gamma", np.float64),
                           ("z", np.float64), ("eta", np.float64), ("class_r", np.int64),
                           ("clamp_count", np.int64)])
HISTORY_COLUMNS = HISTORY_RECORD.names
# how far a recorded cell may sit from verify's replay; a clamp count (None)
# is not compared, since recomputing it needs the run's config
_REPLAY_TOLERANCES = (0.0, 0.0, 1e-9, 1e-9, 1e-12, 0.0, None)


@dataclass
class DistillConfig:
    T: int = 7                       # max ensemble size
    # search classes r = 1..R-1: r = 1 is the base class, and every r >= 2 is
    # one and the same class, one tap of the newest member, searched again
    # with a new seed
    R: int = 2
    eta: float = 1.0                 # the weight player's rate, unless g_inf is set
    # a residual sup-norm bound G: when set, the rate is the theorem's for (N, T, G)
    g_inf: float | None = None
    edge_tol: float = 0.0
    # the base class's hidden widths, between the data's columns and labels
    base_hidden: list = field(default_factory=lambda: [24, 24])
    connection_kind: str = "residual_add"
    findwl: FindWlConfig = field(default_factory=FindWlConfig)
    seed: int = 0

    def validate(self) -> None:
        check_fields(self, _DISTILL_RULES)
        # with g_inf set eta is unread, so its rule above checks only its type
        if self.g_inf is None:
            check("eta", self.eta, FINITE_POSITIVE)
        # a connected class taps a member's last hidden layer
        if self.connection_kind != "none":
            check("base_hidden", self.base_hidden,
                  (bool, f"a non-empty list with connection_kind {self.connection_kind!r}"))
        self.findwl.validate()


# R = 1 would search no class at all
_DISTILL_RULES = {"T": AT_LEAST_ONE, "R": (lambda v: INTEGER[0](v) and v >= 2, "an integer >= 2"),
                  "eta": NUMBER, "g_inf": (lambda v: v is None or FINITE_POSITIVE[0](v),
                                           "None or a finite number > 0"),
                  "edge_tol": FINITE_NONNEGATIVE, "base_hidden": LIST_AT_LEAST_ONE,
                  "connection_kind": (lambda v: v in CONNECTION_KINDS,
                                      f"one of {CONNECTION_KINDS}"),
                  "seed": INTEGER}


def resolve_eta(cfg: DistillConfig, n_samples: int) -> float:
    """`cfg.eta`, or, when `cfg.g_inf` is set, the rate the convergence
    theorem prescribes for (N, T, G)."""
    if cfg.g_inf is None:
        return cfg.eta
    return math.sqrt(math.log(2.0 * n_samples) / cfg.T) / cfg.g_inf


@dataclass
class RoundRecord:
    round_index: int          # 1-based position in the ensemble
    class_r: int              # escalation level the member was found at
    edge_gamma: np.ndarray    # per label, measured against the pre-update state
    z: np.ndarray             # per label
    eta: float
    clamp_count: int


@dataclass
class RunHistory:
    rounds: list = field(default_factory=list)
    escalations: list = field(default_factory=list)  # (members_so_far, new_r)


@dataclass
class Ensemble:
    members: list = field(default_factory=list)
    class_rs: list = field(default_factory=list)
    seed: int = 0
    eta: float = 1.0
    T: int = 0
    R: int = 0
    teacher_hash: str = ""


# rules for an ensemble file's `meta` values, `member_class_r` aside
_META_RULES = {"seed": INTEGER, "eta": FINITE_POSITIVE, "T": AT_LEAST_ONE, "R": AT_LEAST_ONE,
               "teacher_hash": (lambda v: isinstance(v, str), "a string")}


def run(cfg: DistillConfig, x: np.ndarray, teacher_logits: np.ndarray,
        teacher_hash: str = "") -> tuple[Ensemble, RunHistory]:
    """The full game: returns the ensemble and its verification trail.

    Escalation is permanent — once the search fails at level r the loop moves
    to r+1 and never revisits smaller classes; the run ends when either the
    ensemble is full or the escalation budget is spent.
    """
    cfg.validate()
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(teacher_logits, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty training data")
    if x.shape[0] != g.shape[0]:
        raise ValueError(f"data has {x.shape[0]} rows but teacher logits {g.shape[0]}")
    n, n_labels = g.shape
    base = mlp_spec(x.shape[1], cfg.base_hidden, n_labels)
    eta = resolve_eta(cfg, n)
    state = init_uniform(n, n_labels)
    root = RngStream(cfg.seed)
    ens = Ensemble(seed=cfg.seed, eta=eta, T=cfg.T, R=cfg.R, teacher_hash=teacher_hash)
    hist = RunHistory()
    tap, tapped = None, None   # the activation a connected class reads, and its member
    r = 1
    attempt = 0
    while len(ens.members) < cfg.T and r < cfg.R:
        spec, conn = expand_class(base, cfg.connection_kind, r - 1, ens.members)
        if conn.kind != "none" and conn.source_round != tapped:
            # a tap reads its member's last hidden layer, `split_head`'s rows
            tapped, tap = conn.source_round, split_head(ens.members[conn.source_round], x)[1]
        result = find_weak_learner(state, spec, conn, x, g, cfg.findwl,
                                   root.split(attempt), tap=tap, edge_tol=cfg.edge_tol)
        attempt += 1
        resid = None if result.params is None else result.logits - g
        # a candidate whose residuals would overflow the exponential update
        # is no weak learner, however its edge came out
        if resid is None or eta * float(np.max(np.abs(resid))) > EXP_ARG_LIMIT:
            r += 1
            hist.escalations.append((len(ens.members), r))
            if not ens.members and cfg.connection_kind != "none":
                break                 # nothing to tap: no larger class exists
            continue
        member_index = len(ens.members)
        state, record = md_update(state, resid, eta)
        ens.members.append(result.params)
        ens.class_rs.append(r)
        hist.rounds.append(RoundRecord(
            round_index=member_index + 1, class_r=r, edge_gamma=record.edge_gamma,
            z=record.z, eta=eta, clamp_count=result.clamp_count))
    return ens, hist


def member_logits(members: list, x: np.ndarray):
    """An iterator over each member's logits on x, in order, computed
    lazily, member by member: `forward(head, rows, tap)` after
    `nets.split_head`, which decides how the rows are cut.  A member's
    `rows`, its last hidden layer on x and the one layer a connection
    reads, is cached under the member's index only if some connection reads
    it; a tap that is not cached when its reader runs raises the ConfigError
    that names it.  An untapped `rows` array is written over by the next
    member of its width: a fresh array of a batch's size per member faulted
    its pages in again on every call.  The run's search computes its
    candidates' logits the same way, so these are the run's bits."""
    x = np.asarray(x, dtype=np.float64)
    tapped = {m.connection.source_round for m in members if m.connection.kind != "none"}
    cache = {}
    spares = {}   # width -> an untapped member's `rows`, which a later one overwrites
    for member_index, params in enumerate(members):
        hidden = len(params.spec) > 1
        width = params.spec[-2].out_dim if hidden else None
        head, rows = split_head(params, x, spares.pop(width, None))
        logits, _ = forward(head, rows, cache.get(params.connection.source_round))
        if hidden:
            if member_index in tapped:
                cache[member_index] = rows
            else:
                spares[width] = rows
        yield logits


def prefix_logits(members: list, x: np.ndarray):
    """Yield the prefix average of the first k members' logits for k = 1, 2, ..."""
    total = None
    for k, logits in enumerate(member_logits(members, x), start=1):
        total = logits if total is None else total + logits
        yield total / k


def ensemble_predict(ens: Ensemble, x: np.ndarray, k: int) -> np.ndarray:
    """Prefix average of the first k members' logits."""
    if not 1 <= k <= len(ens.members):
        raise ValueError(f"prefix length {k} out of range 1..{len(ens.members)}")
    for prefix in prefix_logits(ens.members[:k], x):
        pass
    return prefix


# --- files ------------------------------------------------------------------

def _check_meta(meta: dict, n_members: int) -> None:
    """Refuse the first `meta` value that fails its rule, naming its key, so
    an ensemble that would not load is not saved either."""
    for key, rule in _META_RULES.items():
        check(key, meta[key], rule)
    check("member_class_r", meta["member_class_r"],
          (lambda v: LIST_AT_LEAST_ONE[0](v) and len(v) == n_members,
           f"a list of one integer >= 1 per member, {n_members} in all"))


def ensemble_to_dict(ens: Ensemble) -> dict:
    meta = {"seed": ens.seed, "eta": ens.eta, "T": ens.T, "R": ens.R,
            "teacher_hash": ens.teacher_hash, "member_class_r": list(ens.class_rs)}
    members = [params_to_dict(member, _check_tap(i, member, ens.members[:i]))
               for i, member in enumerate(ens.members)]
    _check_meta(meta, len(ens.members))
    return {"meta": meta, "members": members}


def ensemble_from_dict(doc: dict) -> Ensemble:
    try:
        meta = doc["meta"]
        members = []
        for i, m in enumerate(doc["members"]):
            members.append(_member_from_dict(i, m, members))
        _check_meta(meta, len(members))
        return Ensemble(members=members, class_rs=list(meta["member_class_r"]),
                        seed=meta["seed"], eta=meta["eta"], T=meta["T"], R=meta["R"],
                        teacher_hash=meta["teacher_hash"])
    except (KeyError, TypeError) as exc:   # a missing key, or a list where an object belongs
        raise ValueError(f"malformed ensemble document: {exc!r}") from exc


def _member_from_dict(index: int, doc: dict, earlier: list):
    """`params_from_dict`, whose refusal names the member, and `_check_tap`."""
    try:
        params = params_from_dict(doc)
    except ValueError as exc:   # ConfigError included, which keeps its type
        raise type(exc)(f"member {index}: {exc}") from exc
    _check_tap(index, params, earlier, doc["connection"])
    return params


def _check_tap(index: int, params, earlier: list, recorded: dict | None = None) -> int:
    """Refuse, naming the member and the field, a connection of member
    `index` but one that `expand_class` builds: a member with a hidden layer
    reading the last hidden layer of one of the `earlier` members.  Returns
    that layer's index (-1 without a tap), the file's `source_layer`; the
    layer indices a file `recorded` must be it and the output layer's."""
    conn = params.connection
    if conn.kind == "none":
        return -1
    try:
        check("spec", len(params.spec), (lambda v: v >= 2, f"2 layers or more with a "
                                                          f"{conn.kind!r} connection"))
        check("source_round", conn.source_round,
              (lambda v: INTEGER[0](v) and 0 <= v < index,
               f"an earlier member's index in 0..{index - 1}" if index
               else "an earlier member's index (member 0 has none)"))
        hidden = len(earlier[conn.source_round].spec) - 2
        check("source_round", conn.source_round,
              (lambda v: hidden >= 0, "a member with a hidden layer to tap"))
        if recorded is not None:
            last = len(params.spec) - 1
            check("target_layer", recorded["target_layer"],
                  (lambda v: INTEGER[0](v) and v == last, f"the output layer's index, {last}"))
            check("source_layer", recorded["source_layer"],
                  (lambda v: INTEGER[0](v) and v == hidden,
                   f"member {conn.source_round}'s last hidden layer's index, {hidden}"))
    except ConfigError as exc:
        raise ConfigError(f"member {index}: {exc}") from exc
    return hidden


def save_ensemble(path, ens: Ensemble) -> None:
    write_json(path, ensemble_to_dict(ens))


def load_ensemble(path) -> Ensemble:
    return ensemble_from_dict(read_json(path))


def _history_cells(hist: RunHistory) -> list:
    """One tuple of `HISTORY_COLUMNS` cells per (round, label)."""
    return [(rec.round_index, label, gamma, z, rec.eta, rec.class_r, rec.clamp_count)
            for rec in hist.rounds for label, (gamma, z) in enumerate(zip(rec.edge_gamma, rec.z))]


def write_history(path, hist: RunHistory) -> None:
    write_table(path, np.array(_history_cells(hist), HISTORY_RECORD))


def read_history(path) -> np.ndarray:
    """The history file's records, one per (round, label)."""
    return read_numeric_csv(path, lambda width: HISTORY_RECORD)


def history_matches(rows, ens: Ensemble, records: list) -> bool:
    """Whether `read_history`'s rows are what `write_history` writes for `ens`
    and the `md_update` records its members' residuals replay to, in the
    writer's order, clamp counts aside."""
    replay = RunHistory([RoundRecord(round_index=t, class_r=r, edge_gamma=rec.edge_gamma,
                                     z=rec.z, eta=ens.eta, clamp_count=0)
                         for t, (r, rec) in enumerate(zip(ens.class_rs, records), start=1)])
    want = _history_cells(replay)
    # an exact column is compared with ==: an int64 difference can wrap
    return len(ens.class_rs) == len(records) and len(rows) == len(want) and all(
        tol is None or (row[name] == cell if tol == 0.0 else
                        abs(row[name] - cell) <= tol + tol * max(abs(row[name]), abs(cell)))
        for row, cells in zip(rows, want)
        for name, tol, cell in zip(HISTORY_COLUMNS, _REPLAY_TOLERANCES, cells))
