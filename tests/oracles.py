"""Independent references for the tests, and helpers to read a model's hidden block.

The model references evaluate what the paper defines by plain loops or by
building the dense matrix; ``windows_first`` and ``zscore_windows`` are
the raw windows of a series and their z-scored copy, which ``rgtn.data``
never builds; ``tt_svd_reference`` is the TT-SVD by a full
SVD of each unfolding, ``raw_checkpoint`` writes the checkpoint
layout byte by byte, and ``is_series_view`` tells a read-only view of one
series from a copy of its windows; none of them calls ``rgtn``.  ``hidden_node``,
``hidden_rows`` and ``hidden_states`` read the block a model's head reads,
so a test can compare the filtered hidden-state block against a reference:
through ``forward`` with an identity head, tensor-train for the graph
variants and dense for the rnn.
"""

import hashlib
import json
import struct
from dataclasses import replace
from math import prod

import numpy as np

from rgtn.models import HeadConfig, ModelConfig, forward, init_params, predict


def random_idempotent(rng, m, rank=None):
    """Random (oblique) projection matrix: W @ W = W."""
    r = rank or int(rng.integers(1, m + 1))
    while True:
        b = rng.standard_normal((m, r))
        c = rng.standard_normal((r, m))
        core = c @ b
        if abs(np.linalg.det(core)) > 1e-3:
            return b @ np.linalg.inv(core) @ c


def linear_dynamics_matrix(d_phys, d_feat, seed, spectral_radius=0.85):
    """The state matrix ``synth_linear_dynamics`` draws for ``seed``.

    Its generator's first two draws, a physical and a feature factor, each
    rescaled to spectral radius sqrt(spectral_radius); their Kronecker
    product acts on states flattened physical-index-fastest.
    """
    return _dynamics(np.random.default_rng(seed), d_phys, d_feat, spectral_radius)


def _dynamics(rng, d_phys, d_feat, spectral_radius):
    factors = []
    for n in (d_phys, d_feat):
        m = rng.standard_normal((n, n))
        factors.append(m * (np.sqrt(spectral_radius) / np.max(np.abs(np.linalg.eigvals(m)))))
    return np.kron(factors[1], factors[0])


def linear_dynamics_states(d_phys, d_feat, n_steps, noise, seed, spectral_radius=0.85):
    """The states ``synth_linear_dynamics`` keeps, drawing one noise vector per step.

    After the state matrix it draws the start state, then runs
    s <- G s + noise * eps for 200 burn-in steps and ``n_steps`` kept ones.
    Rows are states flattened physical-index-fastest.
    """
    rng = np.random.default_rng(seed)
    g = _dynamics(rng, d_phys, d_feat, spectral_radius)
    state = rng.standard_normal(d_phys * d_feat)
    states = []
    for _ in range(200 + n_steps):
        state = g @ state + noise * rng.standard_normal(d_phys * d_feat)
        states.append(state)
    return np.array(states[200:])


def zscore_windows(inputs, train):
    """A z-scored copy of the windows, with the statistics of ``inputs[train]``.

    The statistics are the mean and spread of each cell over the gathered
    copy of the train windows, reduced over samples and steps, with scale 1
    for a cell of no spread.  ``inputs`` is left as it is.  Returns
    (inputs, mean, scale).
    """
    gathered = inputs[train]
    mean = gathered.mean(axis=(0, 1))
    scale = gathered.std(axis=(0, 1))
    scale = np.where(scale <= 1e-12 * (1.0 + np.abs(mean)), 1.0, scale)
    return (inputs - mean) / scale, mean, scale


def windows_first(values, tau, horizon, train_fraction):
    """A regression series windowed window by window, then z-scored as a copy.

    Window i is ``values[i : i + tau]`` and its target the step ``horizon``
    after its last, flattened physical index fastest; the first
    ``int(n * train_fraction)`` of the n windows are the train split, whose
    statistics z-score inputs and targets.  Returns (inputs, targets, mean,
    scale).
    """
    n = len(values) - tau - horizon + 1
    # C order, as windows are laid out: the statistics' rounding follows the layout
    inputs = np.ascontiguousarray(np.stack([values[i : i + tau] for i in range(n)]))
    targets = np.stack([values[i + tau + horizon - 1].ravel(order="F") for i in range(n)])
    inputs, mean, scale = zscore_windows(inputs, np.arange(int(n * train_fraction)))
    return inputs, (targets - mean.ravel(order="F")) / scale.ravel(order="F"), mean, scale


def is_series_view(windows, series):
    """Whether ``windows`` is a read-only view of one array no larger than ``series``."""
    root = windows
    while getattr(root, "base", None) is not None:
        root = root.base
    return (not windows.flags.writeable and np.shares_memory(windows, root)
            and root.nbytes <= series.nbytes)


def time_adjacency(tau, c):
    """A[t, s] = c^(t-s) for s < t and 0 otherwise, entry by entry."""
    a = np.zeros((tau, tau))
    for t in range(tau):
        for s in range(t):
            a[t, s] = c ** (t - s)
    return a


def unrolled_recurrence(c, w_r, w_x, x):
    """Step-by-step h_t = c W_r h_{t-1} + W_x x_t with h_0 = 0; x is (tau, n)."""
    h = np.zeros(w_x.shape[0])
    rows = []
    for t in range(x.shape[0]):
        h = c * w_r @ h + w_x @ x[t]
        rows.append(h.copy())
    return np.stack(rows)


def block_map(a, w_r, xhat):
    """(I + A kron W_r) vec(xhat) for one (tau, m) block, hidden index fastest."""
    tau, m = xhat.shape
    big = np.eye(tau * m) + np.kron(a, w_r)
    return (big @ xhat.reshape(-1)).reshape(tau, m)


def rnn_loop(w_h, w_x, b_h, x, act=np.tanh):
    """Entrywise scalar-loop vanilla RNN over one window x of shape (tau, n)."""
    m = w_h.shape[0]
    h_prev = [0.0] * m
    out = []
    for t in range(x.shape[0]):
        h = []
        for i in range(m):
            acc = b_h[i]
            for j in range(m):
                acc += w_h[i, j] * h_prev[j]
            for j in range(x.shape[1]):
                acc += w_x[i, j] * x[t, j]
            h.append(act(acc))
        out.append(h)
        h_prev = h
    return np.array(out)


# Adam's defaults from Kingma & Ba (2015), which every run uses
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_per_tensor(values, grads, state, step, config):
    """One Adam step tensor by tensor, as separate arrays; returns the new step.

    ``grads`` maps a name to its gradient or None; a tensor with None keeps
    its value and moments.  ``state`` maps a name to its ``[m, v]``.
    """
    step += 1
    for name, g in grads.items():
        if g is None:
            continue
        m, v = state.setdefault(name, [np.zeros_like(values[name]), np.zeros_like(values[name])])
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g**2
        state[name] = [m, v]
        m_hat = m / (1.0 - BETA1**step)
        v_hat = v / (1.0 - BETA2**step)
        values[name] = values[name] - config.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    return step


def tt_head_matrix(cores):
    """Dense (prod in, prod out) matrix of a three-core TT head.

    Cores are (r0, in, out, r1); both sides flatten first mode fastest.
    """
    full = np.einsum("aipb,bjqc,ckrd->ijkpqr", *cores)
    n_in = full.shape[0] * full.shape[1] * full.shape[2]
    return full.reshape(n_in, -1, order="F")


def tt_svd_reference(x, max_ranks=None, rel_tolerance=None):
    """TT-SVD cores of ``x`` by a full SVD of each first-mode-fastest unfolding.

    The sequential SVD of Oseledets (2011) as ``rgtn.tt.tt_svd`` computed it
    before the R-SVD step, with the same truncation rule: ``s V^T`` of the
    kept singular pairs goes on to the next unfolding.
    """
    dims, n = x.shape, x.ndim
    caps = list(max_ranks) if isinstance(max_ranks, (list, tuple)) else [max_ranks] * (n - 1)
    tol = 0.0
    if rel_tolerance is not None and n > 1:
        tol = float(rel_tolerance) * float(np.linalg.norm(x)) / np.sqrt(n - 1)
    cores, current, rank = [], x, 1
    for k in range(n - 1):
        mat = current.reshape(rank * dims[k], -1, order="F")
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        keep = len(s)
        if tol > 0.0:
            tail = np.cumsum(s[::-1] ** 2)[::-1]
            below = np.nonzero(tail <= tol**2)[0]
            if below.size:
                keep = int(below[0])
        else:
            keep = int(np.count_nonzero(s > 0.0))
        if caps[k] is not None:
            keep = min(keep, int(caps[k]))
        keep = max(keep, 1)
        u_kept = u[:, :keep] * (s[:keep] > 0.0)
        cores.append(u_kept.reshape(rank, dims[k], keep, order="F"))
        current = (s[:keep, None] * vt[:keep]).reshape((keep,) + dims[k + 1 :], order="F")
        rank = keep
    cores.append(current.reshape(rank, dims[-1])[:, :, None])
    return cores


def tt_dense(cores):
    """The dense tensor of a chain of (r, n, r') cores, contracted left to right."""
    full = cores[0]
    for core in cores[1:]:
        full = np.tensordot(full, core, axes=(full.ndim - 1, 0))
    return full[0, ..., 0]


def headless(variant, tau, d_phys, d_feat, hidden, c=0.5, activation="identity"):
    """A model config for reading the hidden block: its one-output head goes unread."""
    return ModelConfig(
        variant=variant,
        tau=tau,
        d_phys=d_phys,
        d_feat=d_feat,
        hidden=hidden,
        out_dim=1,
        c=c,
        activation=activation,
        head=HeadConfig(ranks=(1, 1), out_modes=(1, 1, 1)),
    )


def with_head(config, body):
    """The body parameters ``body`` plus the freshly initialised head ``forward`` also takes."""
    head = {k: v for k, v in init_params(config, seed=0).items() if k.startswith("head.")}
    return {**body, **head}


def body_params(values):
    """The parameters of a model's body: all but the head's."""
    return {k: v for k, v in values.items() if not k.startswith("head.")}


def identity_head(config, values):
    """The config and parameters whose head passes the hidden block through unchanged.

    The graph variants get ranks (1, 1), out_modes = (tau, physical, hidden)
    and identity cores, the rnn an identity dense weight, and each a zero
    bias: ``forward`` then returns the block flattened first mode fastest,
    exactly, as one row per window.
    """
    block = config.feature_block
    if config.variant == "rnn":
        cfg, head = replace(config, out_dim=prod(block)), {"head.w": np.eye(prod(block))}
    else:
        cfg = replace(config, out_dim=prod(block), head=HeadConfig(ranks=(1, 1), out_modes=block))
        head = {f"head.core{k}": np.eye(n)[None, :, :, None] for k, n in enumerate(block)}
    return cfg, {**values, **head, "head.bias": np.zeros(cfg.out_dim)}


def hidden_node(config, values, x):
    """The block the head reads, one row per window, flattened first mode fastest, as a node.

    (batch, tau * physical * hidden) for the graph variants and
    (batch, hidden * tau) for the rnn, read through ``identity_head``.
    """
    return forward(*identity_head(config, values), x)


def hidden_rows(config, values, x):
    """``hidden_node``'s array, computed by ``predict``: the body op's kernel with no tape."""
    return predict(*identity_head(config, values), x)


def unflatten(flat, block):
    """Invert the per-sample first-mode-fastest flatten of a feature block."""
    rev = flat.reshape((flat.shape[0],) + tuple(reversed(block)))
    return rev.transpose((0,) + tuple(range(rev.ndim - 1, 0, -1)))


def hidden_states(config, values, x):
    """The block the head reads, as (batch,) + config.feature_block."""
    return unflatten(hidden_rows(config, values, x), config.feature_block)


def raw_checkpoint(header, payload=b""):
    """Checkpoint file bytes for any JSON header: magic, version 1, length, header, payload."""
    head = json.dumps(header).encode("utf-8")
    return b"RGTNCKPT" + struct.pack("<I", 1) + struct.pack("<Q", len(head)) + head + payload


def payload_header(entries, payload, meta=None):
    """A header for ``payload`` with the given params entries and its digest."""
    return {
        "version": 1,
        "meta": {"kind": "model"} if meta is None else meta,
        "params": entries,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
