"""Weak-learner search.

Trains candidate students by minibatch SGD on a distillation loss plus a
log-barrier penalty that softly enforces the weak-learning condition, with
random restarts.  The barrier's finite region is |f - g| < 2B, pushing each
residual entry to the side the current weight state prefers.
"""
from __future__ import annotations

import contextlib
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, ShapeError, fork_chunks, split_range
from .core import usable_cpus as _usable_cpus
from .game import CHECK_DEGENERATE, CHECK_PASS, WeightState, weak_learning_check
from .nets import (AT_LEAST_ONE, FINITE_NONNEGATIVE, FINITE_POSITIVE, INTEGER,
                   NONNEGATIVE_BELOW_ONE, NUMBER, POSITIVE_UP_TO_ONE, ConnectionSpec,
                   LearnerParams, backward, check_fields, flatten, forward, init_params,
                   optional, split_head, step_buffers)

# clamp residuals at this fraction of the barrier edge to keep logs finite
_CLAMP_MARGIN = 1e-6


@dataclass
class SgdConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 60
    batch_size: int = 64
    lr_drops: tuple = (0.3, 0.6, 0.9)  # epoch fractions
    lr_factor: float = 0.2

    def validate(self) -> None:
        check_fields(self, _SGD_RULES)


_SGD_RULES = {"lr": FINITE_NONNEGATIVE, "momentum": NONNEGATIVE_BELOW_ONE,
              "weight_decay": FINITE_NONNEGATIVE,
              "epochs": (lambda v: INTEGER[0](v) and v >= 0, "an integer >= 0"),
              "batch_size": AT_LEAST_ONE,
              # a factor outside (0, 1] stops, reverses or grows the step at a drop
              "lr_factor": POSITIVE_UP_TO_ONE,
              "lr_drops": (lambda v: isinstance(v, (tuple, list))
                           and all(NUMBER[0](f) and 0 < f < 1 for f in v),
                           "a list of epoch fractions in (0, 1)")}


def default_student_recipe() -> SgdConfig:
    """Training recipe for candidate students.

    Gentler than the teacher's: a large step size under the barrier's steep
    near-wall gradient can kick logits past the wall and run away, so the
    default keeps the product lr * wall-gradient small.
    """
    return SgdConfig(lr=0.005, momentum=0.9, weight_decay=5e-4, epochs=60,
                     batch_size=64, lr_drops=(0.3, 0.6, 0.9), lr_factor=0.2)


@dataclass
class FindWlConfig:
    barrier_gamma: float = 0.2
    logit_bound_b: float | None = None  # None: derived as 1.5 * max|teacher logit|
    max_search: int = 4
    sgd: SgdConfig = field(default_factory=default_student_recipe)

    def validate(self) -> None:
        check_fields(self, _FINDWL_RULES)
        self.sgd.validate()


_FINDWL_RULES = {"barrier_gamma": FINITE_POSITIVE,
                 "logit_bound_b": optional(FINITE_POSITIVE),
                 "max_search": AT_LEAST_ONE}


def iplus_mask(state: WeightState) -> np.ndarray:
    """Boolean matrix I[k+(i,j) > k-(i,j)], fixed for one round's search."""
    return state.kplus > state.kminus


def _clamp_limit(b: float) -> float:
    return 2.0 * b * (1.0 - _CLAMP_MARGIN)


def _check_barrier(b: float, barrier_gamma: float) -> None:
    if b <= 0:
        raise ValueError("logit bound B must be > 0")
    if barrier_gamma <= 0:
        raise ValueError("barrier_gamma must be > 0")


def barrier_loss(l: np.ndarray, mask: np.ndarray, b: float,
                 barrier_gamma: float) -> tuple[float, int]:
    """Log-barrier penalty and the number of residuals clamped to its edge.

    Negative per-entry contributions reward residuals already on the preferred
    side; the +inf wall at |l| = 2B is kept finite by the clamp.
    """
    _check_barrier(b, barrier_gamma)
    if l.shape != mask.shape:
        raise ShapeError(f"barrier_loss: shape {l.shape} vs mask {mask.shape}")
    l = np.asarray(l, dtype=np.float64)
    limit = _clamp_limit(b)
    scaled = np.clip(l, -limit, limit) / (2.0 * b)
    terms = np.where(mask, np.log1p(scaled), np.log1p(-scaled))
    return -float(terms.sum()) / barrier_gamma, int(np.count_nonzero(np.abs(l) >= limit))


def distill_loss(f_logits: np.ndarray, g_logits: np.ndarray) -> float:
    """Distillation loss of the student logits against the teacher's: the
    game's own loss, 0.5 * ||f - g||^2 / n_rows."""
    f = np.asarray(f_logits, dtype=np.float64)
    g = np.asarray(g_logits, dtype=np.float64)
    if f.shape != g.shape:
        raise ShapeError(f"distill loss: shape {f.shape} vs {g.shape}")
    diff = f - g
    return 0.5 * float((diff * diff).sum()) / f.shape[-2]


def default_logit_bound(g_logits: np.ndarray) -> float:
    """B = 1.5 * max|teacher logit|, floored away from zero."""
    return 1.5 * max(float(np.max(np.abs(g_logits))), 1e-6)


def lr_at_epoch(epoch: int, cfg: SgdConfig) -> float:
    drops = sum(1 for frac in cfg.lr_drops if epoch >= math.floor(frac * cfg.epochs))
    return cfg.lr * cfg.lr_factor ** drops


@dataclass
class SgdState:
    """What `sgd_epoch` keeps across the epochs of one `params`: built by
    the first epoch and refilled in place by every step, so a step after
    the first epoch allocates no rows, activations or gradients; an epoch
    allocates only its permutation and small temporaries (a stack's index
    slices, a single net's finiteness check, a softmax's row maxima and
    sums).

    `flat` holds every weight and bias (`nets.flatten`), `velocity` its
    momentum, `grad` the step's gradient, which `backward` writes straight
    into, and `scaled` the update's scratch.  `x` is a C-contiguous copy of
    the `x` the state was built for (that array itself when it is already
    contiguous), and `source` a reference to that `x`, which a later epoch
    must be handed again; it is weak, so that the state keeps alive no
    array of the split's row count but its copy.  `batches` holds, for each
    minibatch in order, its slice of the permutation and the buffers its
    step writes: its rows of `x`, of the tap and of each target, its
    `nets.StepBuffers` and the buffer its loss gradient is written into;
    minibatches of one row count share their buffers."""
    flat: np.ndarray
    velocity: np.ndarray
    grad: np.ndarray
    scaled: np.ndarray
    x: np.ndarray
    source: weakref.ref
    batches: list


def _sgd_state(params, x, tap, targets, perm, batch_size) -> SgdState:
    """The state `sgd_epoch` builds on its first epoch; `perm` is that
    epoch's row order, (n,) or (S, n) for a stack of S.  Every step gathers
    from its one copy of `x`, which is C-contiguous because `take` copies
    all of a strided source (such as the records view
    `data.load_dataset_csv` returns) before it gathers."""
    flat = flatten(params)
    grad = np.empty_like(flat)
    n = perm.shape[-1]

    def gathered(a, batch):
        return np.empty(batch + a.shape[1:], dtype=a.dtype)
    buffers, batches = {}, []
    for start in range(0, n, batch_size):
        rows = slice(start, start + batch_size)
        batch = perm[..., rows].shape   # the batch size, and a ragged last batch
        if batch not in buffers:
            buffers[batch] = (gathered(x, batch), None if tap is None else gathered(tap, batch),
                              [gathered(t, batch) for t in targets],
                              step_buffers(params, batch, grad),
                              np.empty(batch + (params.spec[-1].out_dim,)))
        batches.append((rows,) + buffers[batch])
    return SgdState(flat=flat, velocity=np.zeros_like(flat), grad=grad,
                    scaled=np.empty_like(flat), x=np.ascontiguousarray(x),
                    source=weakref.ref(x), batches=batches)


def sgd_epoch(params: LearnerParams, x: np.ndarray, grad_fn, cfg: SgdConfig,
              rng: RngStream | list, lr: float, state: SgdState | None = None, tap=None):
    """One shuffled pass of minibatch SGD with momentum and weight decay.

    `grad_fn` is a pair `(fn, targets)`, as `total_grad_fn` and
    `data.hard_label_grad` build it: `targets` are arrays whose rows align
    with `x`, and `fn(logits, *batch_targets, out=buffer)` writes
    dloss/dlogits of each minibatch, with those arrays' rows for it, into
    `buffer`, and may overwrite `logits` while it does; the step reads only
    the gradient, so no loss value is computed.  Each step gathers its
    minibatch's rows of `x`, of `tap` (the activation `params.connection`
    reads) and of the targets into the state's buffers; the tap and the
    targets are read as given, so they should be C-contiguous, as every
    caller's are, or each gather copies all of them first.

    `state` carries the `SgdState` across epochs: on first use (None)
    the weights and biases move into its flat buffer and `x` is copied
    once, and it is returned for the next epoch of the same `params`, `x`,
    `tap`, targets and batch size.  A state built for another `x` is
    refused, since it would train on that `x`'s rows.  Each step then
    writes its rows, activations and gradients into the state's buffers and
    updates the whole flat buffer with a few ufuncs.
    Returns (params, state, rng); params are updated in place.

    A stack of nets (see `nets.forward`) takes `rng` as a list with one
    stream per slice, each drawing that slice's permutation.  Nothing here
    checks a slice for divergence: batched matmul computes each slice on its
    own, so a slice gone non-finite keeps running without touching the
    others, and `_train_stack` drops it after training.
    """
    fn, targets = grad_fn
    n = x.shape[0]
    if state is not None and state.source() is not x:
        raise ValueError("sgd_epoch: 'state' was built for another 'x'")
    if isinstance(rng, list):
        # each slice's draw is copied into its row and dropped, so the
        # epoch holds one set of permutations; the caller's list is copied
        perm = np.empty((len(rng), n), dtype=np.intp)
        rng = list(rng)
        for i, stream in enumerate(rng):
            perm[i], rng[i] = stream.permutation(n)
    else:
        perm, rng = rng.permutation(n)
    if state is None:
        state = _sgd_state(params, x, tap, targets, perm, cfg.batch_size)
    flat, vel, grad, scaled, x = state.flat, state.velocity, state.grad, state.scaled, state.x
    for rows, bx, btap, btargets, buffers, out in state.batches:
        # `take` gathers the same rows as `x[idx]`, several times faster for
        # arrays only a few columns wide.  `idx` is part of a permutation,
        # so "clip" clips nothing; it lets `take` write straight into `out`,
        # which the default "raise" fills through a temporary copy
        idx = perm[..., rows]
        x.take(idx, axis=0, out=bx, mode="clip")
        if tap is not None:
            tap.take(idx, axis=0, out=btap, mode="clip")
        for t, bt in zip(targets, btargets):
            t.take(idx, axis=0, out=bt, mode="clip")
        logits, acts = forward(params, bx, btap, buffers)
        dlogits = fn(logits, *btargets, out=out)
        # writes the gradient into `grad`, laid out as `flat`
        backward(params, bx, acts, dlogits, btap, buffers)
        # per element: grad = dW + wd * W; vel = momentum * vel + grad;
        # W -= lr * vel, as one pass over the whole buffer for each ufunc
        np.multiply(flat, cfg.weight_decay, out=scaled)
        grad += scaled
        vel *= cfg.momentum
        vel += grad
        np.multiply(vel, lr, out=scaled)
        flat -= scaled
    return params, state, rng


def total_grad_fn(g_logits: np.ndarray, mask: np.ndarray | None = None,
                  cfg: FindWlConfig | None = None, b: float = 0.0):
    """Gradient of the minibatch training objective w.r.t. the logits: the
    distillation loss plus the barrier toward `mask`; `mask=None` means no
    barrier, the distillation loss alone, and reads neither `cfg` nor `b`.

    Returns `sgd_epoch`'s pair `(fn, targets)`: the targets are the teacher
    logits and, with a barrier, its signed wall `s`, 2B where `mask` holds
    and -2B elsewhere, built here once.  The barrier's gradient
    -(1 / (2B + l)) / gamma where `mask` holds and (1 / (2B - l)) / gamma
    elsewhere, at the clamped residual l, is then (1 / (l + s)) / -gamma
    everywhere, with the same bits.  `b` and `barrier_gamma` are checked
    here, once, so a step runs no checks."""
    g_logits = np.asarray(g_logits, dtype=np.float64)
    if mask is None:
        def distill_only(logits, g, out=None):
            grad = np.subtract(logits, g, out=out)
            grad /= grad.shape[-2]
            return grad
        return distill_only, (g_logits,)
    gamma = cfg.barrier_gamma
    _check_barrier(b, gamma)
    limit = _clamp_limit(b)
    wall = np.where(mask, 2.0 * b, -2.0 * b)

    def fn(logits, g, s, out=None):
        scratch = None if out is None else logits
        # one residual r = f - g serves both terms
        grad = np.subtract(logits, g, out=out)
        barrier = np.maximum(grad, -limit, out=scratch)
        grad /= grad.shape[-2]
        # the clamp: `np.clip`'s bits (NaN stays NaN), without its wrappers
        np.minimum(barrier, limit, out=barrier)
        barrier += s
        np.divide(1.0, barrier, out=barrier)
        barrier /= -gamma
        grad += barrier
        return grad
    return fn, (g_logits, wall)


@dataclass
class FindResult:
    """Outcome of one weak-learner search."""

    params: LearnerParams | None
    verdict: str          # "pass", "degenerate", or "none"
    train_loss: float
    clamp_count: int
    restart_index: int
    logits: np.ndarray | None = None   # of `params` on the search's rows


def _train_stack(spec, connection, x, tap, grad_fn, sgd_cfg, rngs):
    """Initialise one candidate per restart stream in `rngs` now, and return
    an iterator that trains them as one stack when it is first read.

    The iterator yields, in the order of `rngs`, (position in `rngs`, params,
    logits on `x`) for each candidate whose logits on all of `x` are finite
    after training.  Divergence inside a candidate is routine (the barrier's
    wall gradient can run away); it costs the restart, nothing more.  A
    search initialises every stack in its own process, so that process sees
    each restart's `init_params` call, and may read the iterator in a forked
    child (`core.fork_chunks`).

    That final forward pass is the only divergence check.  It sees a slice
    that diverged at any step: once a minibatch logit is non-finite, so is
    its gradient column, whose sum makes the output bias non-finite; no
    later SGD update makes that bias finite again, so neither are the final
    logits."""
    nets = [init_params(spec, rng.split(0), connection) for rng in rngs]
    streams = [rng.split(1) for rng in rngs]

    def train():
        stack = LearnerParams(spec=nets[0].spec, connection=connection,
                              weights=[np.stack(w) for w in zip(*(p.weights for p in nets))],
                              biases=[np.stack(b) for b in zip(*(p.biases for p in nets))])
        slices, state = streams, None
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(sgd_cfg.epochs):
                stack, state, slices = sgd_epoch(
                    stack, x, grad_fn, sgd_cfg, slices,
                    lr=lr_at_epoch(epoch, sgd_cfg), state=state, tap=tap)
        # the weights stay views of its flat buffer; the copy of x and the
        # step buffers go before the passes over all of x
        del state
        for pos in range(len(rngs)):
            params = LearnerParams(spec=stack.spec, connection=connection,
                                   weights=[w[pos] for w in stack.weights],
                                   biases=[b[pos] for b in stack.biases])
            try:
                # one net at a time, holding its last hidden layer on all of
                # x (`split_head`) and keeping only its logits
                with np.errstate(over="ignore", invalid="ignore"):
                    logits = forward(*split_head(params, x), tap)[0]
            except FloatingPointError:
                continue
            yield pos, params, logits
    return train()


def _training(restarts: range) -> str:
    """What a child training `restarts` does, as its failure names it."""
    first, last = restarts[0], restarts[-1]
    return f"training restart {first}" if first == last else f"training restarts {first}-{last}"


def find_weak_learner(state: WeightState, spec, connection: ConnectionSpec,
                      x: np.ndarray, g_logits: np.ndarray, cfg: FindWlConfig,
                      rng: RngStream, tap=None, edge_tol: float = 0.0) -> FindResult:
    """Search one class for a weak learner via restarts; `tap` is what
    `connection` reads on `x`.

    Restarts use independent rng splits; the first restart whose trained
    candidate passes the weak-learning check wins, making the outcome
    independent of any execution order.  When the state is degenerate the
    check cannot pass, so the lowest-total-loss candidate is returned instead.
    A result with params=None means every restart failed; any other holds
    its candidate's logits on `x`, from the check.  A restart whose
    logits on `x` are not finite after training diverged and is dropped:
    that one end-of-training check is the search's only divergence check.

    Restarts train as stacks, cut into contiguous chunks over the usable
    CPUs.  A degenerate round trains all of them, in up to one balanced
    stack per CPU.  Any other round trains restart 0 alone, and the rest in
    up to one stack per other CPU: with one CPU they train only if restart 0
    does not pass; with more they train beside it in forked children, which
    are killed if it passes.  Verdicts are read in restart order either way.
    """
    cfg.validate()
    b = cfg.logit_bound_b if cfg.logit_bound_b is not None else default_logit_bound(g_logits)
    degenerate = np.array_equal(state.kplus, state.kminus)
    mask = iplus_mask(state)
    # equal paired weights give the barrier no direction to push, so a
    # degenerate round's candidate trains (and competes) on distillation alone
    grad_fn = total_grad_fn(g_logits, None if degenerate else mask, cfg, b)
    # a degenerate round cannot pass, so it trains every restart; any other
    # round often passes at restart 0, where a stack of S would cost ~2x.
    # The restarts are cut into a chunk per usable CPU: the first trains in
    # this process, and each other one in a child at the same time.  Every
    # slice of a stack holds the bits of its restart trained alone, so the
    # chunks change no bit of the result, only the wall time.  On 2 CPUs the
    # balanced plan [0, 1] | [2, 3] was measured against [0] | [1, 2, 3] and
    # lost: it cut cube-escalate's distill from 3.14 to 2.70 s, but slowed
    # the canonical ellipsoid's `distill.run`, whose 40 of 40 rounds pass at
    # restart 0, from 4.90 to 6.07 s.  So the plan stays, and failing rounds
    # get faster through a cheaper step instead.
    workers = _usable_cpus()
    if degenerate:
        chunks = split_range(range(cfg.max_search), workers)
    else:
        chunks = [range(1)] + split_range(range(1, cfg.max_search), max(workers - 1, 1))

    def train(chunk):
        return _train_stack(spec, connection, x, tap, grad_fn, cfg.sgd,
                            [rng.split(restart) for restart in chunk])

    passed = best = None
    with contextlib.closing(fork_chunks(chunks, train, workers, _training)) as stacks:
        for chunk, trained in stacks:
            for pos, params, logits in trained:
                resid = logits - g_logits
                dl_val = distill_loss(logits, g_logits)
                b_val, clamps = barrier_loss(resid, mask, b, cfg.barrier_gamma)
                total = dl_val if degenerate else dl_val + b_val
                # every trained candidate that stayed finite is checked, so a
                # restart the check never saw is one that diverged
                verdict = weak_learning_check(state, resid, edge_tol)
                if verdict == CHECK_PASS:
                    if passed is None:
                        passed = FindResult(params, CHECK_PASS, total, clamps, chunk[pos],
                                            logits)
                elif best is None or total < best.train_loss:
                    best = FindResult(params, verdict, total, clamps, chunk[pos], logits)
            if passed is not None:
                return passed
    if best is not None and best.verdict == CHECK_DEGENERATE:
        return best
    return FindResult(None, "none", best.train_loss if best else float("nan"),
                      best.clamp_count if best else 0, -1)
