"""The sign exam against a reference copy of its scalar bracket loop.

``reference_recover_sign`` is the bracket loop as it stood before the
search kept its chart state incrementally: every probe rebuilt the
center and half-width arrays and took two norms.  It is kept verbatim,
apart from its name, so the equivalence test below pins the optimized
search to it byte for byte: the same queries in the same order, the same
estimates, the same certificate.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teachsim.exam import (ExamResult, RecoveryConfig, RemoteLearner,
                           _PIN_OFFSET, _tangent_frame, approx_recover_sign)
from teachsim.feature_space import random_map
from teachsim.learners import LearnerState


def reference_recover_sign(sign_oracle, d, config):
    """Estimate v = G^T w from sign feedback plus its known norm.

    Sign responses expose only which side of each queried hyperplane the
    direction u = v / ||v|| lies on.  The scheme works in the tangent chart
    anchored at an initial estimate alpha_0:

    1. Query the d coordinate signs s_i = sign(u_i) and set
       alpha_0 = s / sqrt(d).  Then <u, alpha_0> = ||u||_1 / sqrt(d)
       >= 1 / sqrt(d) > 0, so u is a graph over the tangent plane at
       alpha_0 with chart coordinates p_j = <u, tau_j> / <u, alpha_0>
       bounded by sqrt(d-1) in norm.
    2. A probe tau_j - t * alpha_0 answers sign(p_j - t), so each chart
       coordinate supports interval bisection.  Probes at +-1e-13 first
       pin coordinates that are exactly zero (an aligned start never
       moves, and converges in zero rounds).
    3. Round k bisects the per-coordinate brackets until the certified
       chart error E_k = sqrt(sum of squared half-widths) satisfies
       E_k <= rho^k * L_k, where L_k = max(0, ||center|| - E_k) is a
       certified lower bound on ||p||.  Since sin(angle(estimate, u)) <=
       ||p - center|| / sqrt(1 + ||p||^2) and sin(angle(alpha_0, u)) =
       ||p|| / sqrt(1 + ||p||^2), that inequality is exactly the round-k
       contraction guarantee sin_k <= rho^k * sin_0.

    Stops once norm * 2 * E_k <= eps_est (2 * E_k bounds the unit-vector
    chord) or after max_rounds.  Reported angle_bound is the certified
    sine bound E_k; queries_used counts every oracle call.
    """
    if config.known_norm is None:
        raise ValueError("sign recovery requires known_norm")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    norm = config.known_norm
    rho = config.contraction_rho
    counter = {"n": 0}

    def ask(q):
        counter["n"] += 1
        return 1.0 if sign_oracle(q) >= 0 else -1.0

    if d == 1:
        s = ask(np.ones(1))
        v_hat = np.array([s * norm])
        return ExamResult(v_hat=v_hat, queries_used=counter["n"],
                          kind="approx_sign", angle_bound=0.0,
                          known_norm=norm,
                          alpha_history=(np.array([s]),))

    eye = np.eye(d)
    signs = np.array([ask(eye[i]) for i in range(d)])
    alpha0 = signs / math.sqrt(d)
    taus = _tangent_frame(alpha0)

    m = d - 1
    bound = math.sqrt(d - 1)
    lo = np.full(m, -bound)
    hi = np.full(m, bound)
    pinned = np.zeros(m, dtype=bool)

    def probe(j, t):
        return ask(taus[:, j] - t * alpha0)

    # The contraction guarantee is anchored at the chart origin, so the
    # recorded initial estimate must be alpha0 itself.
    history = [alpha0.copy()]

    # Zero-pinning pass: exact alignments resolve immediately.
    for j in range(m):
        below = probe(j, _PIN_OFFSET)
        above = probe(j, -_PIN_OFFSET)
        if below < 0 and above > 0:
            lo[j] = -_PIN_OFFSET
            hi[j] = _PIN_OFFSET
            pinned[j] = True
        elif below > 0:
            lo[j] = _PIN_OFFSET
        else:
            hi[j] = -_PIN_OFFSET

    def chart_state():
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        err = float(np.linalg.norm(half))
        return center, err

    def alpha_from(center):
        a = alpha0 + taus @ center
        return a / np.linalg.norm(a)

    center, err = chart_state()
    angle_bound = err

    if bool(np.all(pinned)):
        # True direction equals the initial estimate: done in 0 rounds.
        v_hat = norm * history[0]
        return ExamResult(v_hat=v_hat, queries_used=counter["n"],
                          kind="approx_sign", angle_bound=angle_bound,
                          known_norm=norm, alpha_history=tuple(history))

    for k in range(1, config.max_rounds + 1):
        # Shrink brackets until the certified sine bound contracts by
        # rho^k relative to the certified chart norm.
        budget = 64 * m
        while budget > 0:
            center, err = chart_state()
            lower = max(0.0, float(np.linalg.norm(center)) - err)
            if err <= 1e-15 or (lower > 0 and err <= rho ** k * lower):
                break
            j = int(np.argmax(np.where(pinned, -np.inf, hi - lo)))
            mid = 0.5 * (lo[j] + hi[j])
            if probe(j, mid) > 0:
                lo[j] = mid
            else:
                hi[j] = mid
            budget -= 1
        center, err = chart_state()
        history.append(alpha_from(center))
        angle_bound = err
        if norm * 2.0 * err <= config.eps_est or err <= 1e-15:
            break

    v_hat = norm * history[-1]
    return ExamResult(v_hat=v_hat, queries_used=counter["n"],
                      kind="approx_sign", angle_bound=angle_bound,
                      known_norm=norm, alpha_history=tuple(history))


def _student_image(d, start, gen):
    """A teacher-space target v = G^T w of the requested shape.

    "random": Gaussian.  "zeros": Gaussian with about a third of its
    coordinates exactly zero.  "pinned": on the chart of its own sign
    pattern, with about half of the chart coordinates exactly zero, so
    the pinning pass fixes those and leaves the rest to bisect.
    "aligned": a sign pattern, every chart coordinate zero.
    """
    v = gen.standard_normal(d)
    if start == "zeros":
        v[gen.random(d) < 0.35] = 0.0
    elif start in ("pinned", "aligned"):
        alpha0 = np.where(v >= 0, 1.0, -1.0) / math.sqrt(d)
        v = alpha0
        if start == "pinned" and d > 1:
            p = 0.2 * gen.standard_normal(d - 1) / math.sqrt(d)
            p[gen.random(d - 1) < 0.5] = 0.0
            v = alpha0 + _tangent_frame(alpha0) @ p
    return v


def _recorded_exam(search, fmap, w, config):
    """Run one sign exam; returns its queries' bytes and its result."""
    remote = RemoteLearner(LearnerState(w=w, eta=0.1, loss="square",
                                        feedback="sign"), fmap)
    sent = []

    def oracle(q):
        sent.append(np.asarray(q, dtype=np.float64).tobytes())
        return remote.query(q)

    result = search(oracle, fmap.d, config)
    assert result.queries_used == len(sent) == remote.query_samples
    return sent, result


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 50),
       map_kind=st.sampled_from(("identity", "unitary", "general")),
       start=st.sampled_from(("random", "zeros", "pinned", "aligned")),
       seed=st.integers(0, 2 ** 32 - 1),
       log_eps=st.floats(-16.0, -2.0),
       max_rounds=st.integers(1, 60),
       rho=st.sampled_from((0.3, 0.8, 0.95)))
@example(d=1, map_kind="general", start="random", seed=1, log_eps=-6.0,
         max_rounds=60, rho=0.8)
@example(d=9, map_kind="identity", start="aligned", seed=2, log_eps=-6.0,
         max_rounds=60, rho=0.8)
@example(d=20, map_kind="unitary", start="pinned", seed=3, log_eps=-12.0,
         max_rounds=2, rho=0.8)
@example(d=50, map_kind="general", start="zeros", seed=4, log_eps=-12.0,
         max_rounds=60, rho=0.95)
# pinned half-widths keep the certificate above rho^k of the chart norm,
# so later rounds spend their whole 64 (d - 1) probe budget
@example(d=12, map_kind="unitary", start="pinned", seed=5, log_eps=-16.0,
         max_rounds=60, rho=0.3)
def test_sign_search_matches_reference_byte_for_byte(d, map_kind, start, seed,
                                                      log_eps, max_rounds,
                                                      rho):
    gen = np.random.default_rng(seed)
    fmap = random_map(d, map_kind, seed)
    v = _student_image(d, start, gen)
    # the student's weights w solve G^T w = v
    w = v if map_kind == "identity" else np.linalg.solve(fmap.matrix.T, v)
    config = RecoveryConfig(eps_est=10.0 ** log_eps,
                            known_norm=float(np.linalg.norm(v)) or 1.0,
                            max_rounds=max_rounds, contraction_rho=rho)
    sent, got = _recorded_exam(approx_recover_sign, fmap, w, config)
    sent_ref, ref = _recorded_exam(reference_recover_sign, fmap, w, config)
    assert sent == sent_ref
    assert _bits(got.v_hat) == _bits(ref.v_hat)
    assert got.queries_used == ref.queries_used
    assert _bits(got.angle_bound) == _bits(ref.angle_bound)
    assert len(got.alpha_history) == len(ref.alpha_history)
    for a, b in zip(got.alpha_history, ref.alpha_history):
        assert _bits(a) == _bits(b)
    assert (got.kind, got.known_norm) == (ref.kind, ref.known_norm)
